"""A seeded corruption sweep: every damaged artifact exits cleanly through `main`.

Each artifact of a small pipeline is damaged four ways (cut at 50% and at
90%, bytes appended, six random bits flipped) and read by a command that
takes it. No exception may escape `main`. A damaged binary artifact (the
trie or a checkpoint) must exit 2: its container checks a digest of its
data. A damaged text file must exit 0 or 2, since a change can still parse
(one digit of a score, say).
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest

from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.cli import main

FAST = ["--preset", "toy", "--set", "pos_steps=10", "--set", "pos_warmup=2", "--set", "hidden_dim=32"]
CORRUPTIONS = ("cut50", "cut90", "append", "flip6")
BINARY = {"trie", "s1", "s2"}
# (artifact, the command that reads it)
CASES = [("trie", "link"), ("trie", "mine"), ("s1", "mine"), ("s1", "train-negative"), ("s2", "link"),
         ("vocab", "link"), ("pairs", "train-negative"), ("preds", "eval"), ("kb", "link"), ("test", "link")]


def _argv(command: str, f: dict[str, Path], out: Path) -> list[str]:
    files = {key: str(path) for key, path in f.items()}
    if command == "eval":
        return ["eval", "--kb", files["kb"], "--mentions", files["test"], "--cache", files["cache"],
                "--preds", files["preds"], "--out", str(out)]
    argv = [command, *FAST, "--kb", files["kb"], "--cache", files["cache"]]
    if command == "link":
        return argv + ["--mentions", files["test"], "--ckpt", files["s2"], "--out", str(out)]
    argv += ["--mentions", files["train"], "--ckpt", files["s1"], "--out", str(out)]
    return argv + (["--pairs", files["pairs"]] if command == "train-negative" else [])


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("corruption")
    write_benchmark(gen_benchmark(n_pairs=12, n_train=48, n_test=24, seed=63), root / "data")
    f = {"kb": root / "data" / "kb.jsonl", "train": root / "data" / "train.jsonl",
         "test": root / "data" / "test.jsonl", "cache": root / "cache"}
    assert main(["kb", "build", "--kb", str(f["kb"]), "--mentions", str(f["train"]),
                 "--mentions", str(f["test"]), "--out", str(f["cache"])]) == 0
    assert main(["train-positive", *FAST, "--kb", str(f["kb"]), "--mentions", str(f["train"]),
                 "--cache", str(f["cache"]), "--out", str(root / "s1.ckpt")]) == 0
    f["s1"] = root / "s1.ckpt"
    assert main(_argv("mine", f, root / "pairs.jsonl")) == 0
    f["pairs"] = root / "pairs.jsonl"
    assert main(_argv("train-negative", f, root / "s2.ckpt")) == 0
    f["s2"] = root / "s2.ckpt"
    assert main(_argv("link", f, root / "preds.jsonl")) == 0
    f["preds"] = root / "preds.jsonl"
    return f


def _corrupt(data: bytes, how: str, rng: random.Random) -> bytes:
    if how.startswith("cut"):
        return data[: len(data) * int(how[3:]) // 100]
    if how == "append":
        return data + rng.randbytes(16)
    flipped = bytearray(data)
    for bit in rng.sample(range(8 * len(data)), 6):
        flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def test_the_sweep_commands_pass_on_clean_files(clean, tmp_path):
    for command in sorted({command for _, command in CASES}):
        assert main(_argv(command, clean, tmp_path / f"{command}.out")) == 0, command


@pytest.mark.parametrize("how", CORRUPTIONS)
@pytest.mark.parametrize("artifact, command", CASES)
def test_a_corrupted_artifact_exits_cleanly(clean, tmp_path, artifact, command, how):
    f = dict(clean, cache=tmp_path / "cache")
    shutil.copytree(clean["cache"], f["cache"])
    if artifact in ("trie", "vocab"):
        name = "trie.bin" if artifact == "trie" else "vocab.json"
        source, target = clean["cache"] / name, f["cache"] / name
    else:
        source = clean[artifact]
        target = f[artifact] = tmp_path / source.name
    rng = random.Random(f"{artifact}:{command}:{how}")
    target.write_bytes(_corrupt(source.read_bytes(), how, rng))
    rc = main(_argv(command, f, tmp_path / "out"))
    assert rc in ((2,) if artifact in BINARY else (0, 2)), rc


@pytest.mark.parametrize("command", ["link", "mine"])
def test_one_flipped_bit_in_the_trie_data_exits_2(clean, tmp_path, command):
    f = dict(clean, cache=tmp_path / "cache")
    shutil.copytree(clean["cache"], f["cache"])
    blob = bytearray((f["cache"] / "trie.bin").read_bytes())
    blob[-4] ^= 0x01  # the low bit of the last name's last token id: another id of the vocabulary
    (f["cache"] / "trie.bin").write_bytes(bytes(blob))
    assert main(_argv(command, f, tmp_path / "out")) == 2
