"""Outputs do not depend on the BLAS thread settings.

Importing neglink pins numpy's OpenBLAS to one thread (`workers`). The toy
pipeline runs in subprocesses, once with `OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` at 1 and once at 2, and every file
it writes must be byte-identical between the two runs. Sixty stage-1 steps
are enough for an unpinned second thread to change `s1.ckpt`: it sums the
long weight-gradient products in another order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  # loaded before the skip check looks for its OpenBLAS
import pytest

import neglink
from neglink import workers

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"
SRC = str(Path(neglink.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = pytest.mark.skipif(workers._blas_threads() is None,
                                reason="no OpenBLAS thread control in this numpy build")


def _python(code: str, threads: int) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's neglink, with every thread variable at `threads`."""
    env = {**os.environ, **{var: str(threads) for var in THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def _run_pipeline(out: Path, threads: int) -> None:
    kb, train, test = (str(DATA / f) for f in ("kb.jsonl", "train.jsonl", "test.jsonl"))
    cache, s1, s2, pairs = (str(out / f) for f in ("cache", "s1.ckpt", "s2.ckpt", "pairs.jsonl"))
    toy = ["--preset", "toy", "--set", "pos_steps=60", "--kb", kb, "--cache", cache]
    steps = [
        ["kb", "build", "--kb", kb, "--mentions", train, "--mentions", test, "--out", cache],
        ["train-positive", *toy, "--mentions", train, "--out", s1],
        ["mine", *toy, "--mentions", train, "--ckpt", s1, "--out", pairs],
        ["train-negative", *toy, "--mentions", train, "--ckpt", s1, "--pairs", pairs, "--out", s2],
        ["link", *toy, "--mentions", test, "--ckpt", s2, "--out", str(out / "preds.jsonl")],
    ]
    for argv in steps:
        done = _python(f"import sys; from neglink.cli import main; sys.exit(main({argv!r}))", threads)
        assert done.returncode == 0, f"{argv[0]} exited {done.returncode}: {done.stderr}"


def test_every_output_is_byte_identical_under_one_and_two_blas_threads(tmp_path):
    for threads in (1, 2):
        _run_pipeline(tmp_path / str(threads), threads)
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(files) == 9, files  # three cache files, two checkpoints and their loss logs, pairs, predictions
    assert files == sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*") if p.is_file())
    differing = [str(f) for f in files if (tmp_path / "1" / f).read_bytes() != (tmp_path / "2" / f).read_bytes()]
    assert differing == []


def test_library_use_runs_on_one_thread_whatever_the_environment():
    # No CLI entry point: the way a host program calls `train` or the search.
    done = _python("import neglink.train_positive\nfrom neglink import workers\n"
                   "print(workers._blas_threads()[0]())", threads=2)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
