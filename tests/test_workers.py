"""Searching and mining split across forked workers: same results as one process.

`workers.map_split` hands contiguous runs of items to children made with
`os.fork`. The usable CPU count is patched to 1, 2 and 3, and the batched
search and mining must return exactly what one process returns. Errors
raised in a child reach the caller unchanged; a child that dies, one that
cannot be started, or a `MemoryError` in the parent or a child makes
`neglink link` exit 3. Before and after every test no child is left, and
where OpenBLAS thread control is found, its thread count is one.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from neglink import beam, workers
from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.cli import main, vocab_from_sources
from neglink.config import build_config
from neglink.corpus import prepare_mentions, render
from neglink.errors import DivergenceError, VocabError, WorkerError
from neglink.kb import load_kb
from neglink.model import init_checkpoint
from neglink.train_negative import mine_pairs
from neglink.trie import build_trie

DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


def blas_threads() -> int | None:
    found = workers._blas_threads()
    return None if found is None else found[0]()


@pytest.fixture(autouse=True)
def no_children_left():
    assert blas_threads() in (None, 1)  # None: no thread control found, so neglink never pinned it
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert blas_threads() in (None, 1)


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="module")
def toy():
    kb = load_kb(DATA / "kb.jsonl")
    cfg = build_config(preset="toy")
    vocab = vocab_from_sources(kb, [str(DATA / "test.jsonl")], None)
    test_ex, _ = prepare_mentions(DATA / "test.jsonl", kb, None)
    ckpt = init_checkpoint(vocab, cfg.hidden_dim, 0)
    inputs = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in test_ex]
    return kb, build_trie(kb.names(), vocab), ckpt, inputs, cfg


@pytest.fixture(scope="module")
def a11_data(tmp_path_factory):
    """The generated benchmark the A11 rerun gate uses."""
    data = tmp_path_factory.mktemp("a11")
    write_benchmark(gen_benchmark(n_pairs=12, n_train=48, n_test=24, seed=63), data)
    return data


def search(toy):
    kb, trie, ckpt, inputs, cfg = toy
    return beam.constrained_beam_search_batch(ckpt, inputs, trie, kb, beam=cfg.beam, k=cfg.topk)


def no_fork():
    raise AssertionError("forked with one usable CPU")


@pytest.mark.parametrize("cpus", [2, 3])
def test_search_split_across_workers_equals_one_process(toy, monkeypatch, cpus):
    with monkeypatch.context() as m:
        use_cpus(m, 1)
        m.setattr(os, "fork", no_fork)
        alone = search(toy)
    assert len(toy[3]) > 2 * beam.CHUNK
    use_cpus(monkeypatch, cpus)
    assert search(toy) == alone


@pytest.mark.parametrize("cpus", [2, 3])
def test_mining_split_across_workers_equals_one_process(a11_data, monkeypatch, cpus):
    kb = load_kb(a11_data / "kb.jsonl")
    cfg = build_config(preset="toy", overrides={"hidden_dim": "32"})
    vocab = vocab_from_sources(kb, [str(a11_data / "train.jsonl")], None)
    examples, _ = prepare_mentions(a11_data / "train.jsonl", kb, None)
    args = (init_checkpoint(vocab, cfg.hidden_dim, 0), examples, kb, build_trie(kb.names(), vocab), cfg)
    with monkeypatch.context() as m:
        use_cpus(m, 1)
        m.setattr(os, "fork", no_fork)
        alone = mine_pairs(*args)
    use_cpus(monkeypatch, cpus)
    split = mine_pairs(*args)
    assert alone and split == alone
    assert [(t.mention_index, t.rank_w, t.rank_l) for t in split] == [
        (t.mention_index, t.rank_w, t.rank_l) for t in alone
    ]


def test_an_error_raised_only_in_a_child_reaches_the_caller(toy, monkeypatch):
    parent, real = os.getpid(), beam._search

    def fails_in_child(ckpt, inputs, *rest):
        if os.getpid() != parent:
            raise VocabError(f"no token for {len(inputs)} inputs in a child")
        return real(ckpt, inputs, *rest)

    monkeypatch.setattr(beam, "_search", fails_in_child)
    use_cpus(monkeypatch, 2)
    with pytest.raises(VocabError, match=rf"^no token for {beam.CHUNK} inputs in a child$"):
        search(toy)


def test_a_divergence_error_survives_pickling():
    for sent in (DivergenceError(5), DivergenceError(7, "loss went to nan")):
        got = pickle.loads(pickle.dumps(sent))
        assert type(got) is DivergenceError
        assert (str(got), got.step) == (str(sent), sent.step)


def test_a_divergence_error_in_a_child_reaches_the_caller_unchanged(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def diverge(x):
        if os.getpid() != parent:
            raise DivergenceError(x)
        return x

    with pytest.raises(DivergenceError, match="^non-finite loss at step 1$") as caught:
        workers.map_split(diverge, [0, 1])
    assert caught.value.step == 1


def test_the_first_failure_in_item_order_wins(monkeypatch):
    use_cpus(monkeypatch, 3)

    def fail(x):
        if x < 0:
            raise KeyError(x)
        if x == 1:
            time.sleep(0.2)  # the next run fails first
        if x:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(KeyError):
        workers.map_split(fail, [-1, 1, 2])
    with pytest.raises(ValueError, match="^item 1$"):
        workers.map_split(fail, [0, 1, 2])


def test_every_worker_runs_with_one_blas_thread(monkeypatch):
    if blas_threads() is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    use_cpus(monkeypatch, 2)
    assert workers.map_split(lambda x: blas_threads(), range(2)) == [1, 1]


def test_results_larger_than_a_pipe_buffer(monkeypatch):
    use_cpus(monkeypatch, 3)
    assert workers.map_split(lambda x: bytes([x]) * (1 << 20), range(5)) == [bytes([x]) * (1 << 20) for x in range(5)]


def test_an_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def step(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        workers.map_split(step, range(3))
    assert time.monotonic() - start < 30


FAST = ["--preset", "toy", "--set", "pos_steps=1", "--set", "hidden_dim=32"]


@pytest.fixture(scope="module")
def linkable(a11_data, tmp_path_factory):
    """The `link` arguments, but --out, over A11's data with a cache and a one-step checkpoint."""
    root = tmp_path_factory.mktemp("linkable")
    kb, train, test = (str(a11_data / f) for f in ("kb.jsonl", "train.jsonl", "test.jsonl"))
    cache, ckpt = str(root / "cache"), str(root / "s1.ckpt")
    assert main(["kb", "build", "--kb", kb, "--mentions", train, "--mentions", test, "--out", cache]) == 0
    assert main(["train-positive", *FAST, "--kb", kb, "--mentions", train, "--cache", cache, "--out", ckpt]) == 0
    return ["link", *FAST, "--kb", kb, "--mentions", test, "--cache", cache, "--ckpt", ckpt]


def link_fails_with_one_error(linkable, search, tmp_path, monkeypatch, caplog, capfd) -> str:
    """Run `linkable` (`link`, or `mine` with the same options) with `search` as `beam._search`,
    on 4-mention chunks and two CPUs.

    It must exit 3 with one error line, which is returned, no traceback and no output file.
    """
    monkeypatch.setattr(beam, "CHUNK", 4)
    monkeypatch.setattr(beam, "_search", search)
    use_cpus(monkeypatch, 2)
    caplog.set_level(logging.ERROR, logger="neglink")
    out = tmp_path / "preds.jsonl"
    assert main([*linkable, "--out", str(out)]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1, errors
    assert "Traceback" not in capfd.readouterr().err
    assert not out.exists()
    return errors[0]


def test_a_worker_killed_by_a_signal_makes_link_exit_3(linkable, tmp_path, monkeypatch, caplog, capfd):
    parent = os.getpid()

    def dies_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return []

    assert "killed by signal 9" in link_fails_with_one_error(linkable, dies_in_child, tmp_path, monkeypatch,
                                                             caplog, capfd)


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_running_out_of_memory_makes_link_exit_3(linkable, tmp_path, monkeypatch, caplog, capfd, where):
    parent = os.getpid()
    message = "Unable to allocate 97.7 MiB for an array with shape (200004, 1, 64) and data type float64"

    def out_of_memory(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise MemoryError(message)  # raised, never provoked: no test allocates for real
        return []

    error = link_fails_with_one_error(linkable, out_of_memory, tmp_path, monkeypatch, caplog, capfd)
    assert error == f"ran out of memory: {message}"


def cannot_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def test_a_worker_that_cannot_be_started_closes_its_pipes_and_reaps_the_others(monkeypatch):
    """The second of two forks fails; the first only pretends to start a child, so no process runs."""
    use_cpus(monkeypatch, 3)
    fake_pid, pipes, killed, reaped = 1 << 22, [], [], []
    real_pipe = os.pipe

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def fork():
        if len(pipes) > 1:
            cannot_fork()
        return fake_pid

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append((pid, sig)))
    monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(pid) or (pid, 0))
    with pytest.raises(WorkerError, match=r"^could not start a worker process: \[Errno 11\] "):
        workers.map_split(str, range(3))
    assert (killed, reaped) == ([(fake_pid, signal.SIGKILL)], [fake_pid])
    assert len(pipes) == 2
    for fd in (fd for pair in pipes for fd in pair):
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


@pytest.mark.parametrize("command", ["link", "mine"])
def test_a_worker_that_cannot_be_started_makes_link_and_mine_exit_3(linkable, tmp_path, monkeypatch, caplog,
                                                                     capfd, command):
    monkeypatch.setattr(os, "fork", cannot_fork)
    error = link_fails_with_one_error([command, *linkable[1:]], beam._search, tmp_path, monkeypatch, caplog, capfd)
    assert error == f"could not start a worker process: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
