"""One benchmark process: input generation, set-up, or set-up plus the measured phase.

run.py starts this file in a fresh interpreter for each of these, so the
`import neglink` of a set-up is paid inside it, as a user pays it. The
process reads and writes only its run directory (the working directory)
and leaves a JSON result at --out.

    phase gen    write the workload's seeded inputs to data/
    phase setup  set up, report setup_s (and set-up measurements), exit
    phase full   set up, run the measured phase, check every output

`setup_s` runs from --spawned, the parent's clock reading just before it
started this process, to the first timed operation. Both readings come
from time.perf_counter, which is system-wide monotonic on Linux.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks

KB, TRAIN, TEST = "data/kb.jsonl", "data/train.jsonl", "data/test.jsonl"
CACHE = ["--kb", KB, "--cache", "cache"]


class Run:
    """Operations attempted and failed, problems found, and the measurements."""

    def __init__(self, args, spec: dict):
        self.args, self.spec = args, spec
        self.tracer = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.out: dict = {}

    def op(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:20])
        return not problems

    def stage(self, label: str, argv: list[str]) -> float | None:
        """Run one CLI stage in-process; its wall time, or None if it failed."""
        from neglink import cli

        if self.tracer is not None:
            self.tracer.ctx = label
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an unmapped error is a failed stage, not a crashed harness
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - start
        ok = self.op(label, [] if rc == 0 else [f"`neglink {' '.join(argv)}` exited {rc}"])
        return wall if ok else None

    def stop_tracing(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def setup_done(self) -> None:
        self.out["setup_s"] = time.perf_counter() - self.args.spawned


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def line_count(path) -> int:
    return len(checks.read_jsonl(path)) - 1  # minus the header


def in_trie_check(trie, vocab):
    """trie.contains over a name's characters, as a check callable."""
    from neglink.errors import VocabError

    def in_trie(name: str) -> bool:
        try:
            return trie.contains(vocab.encode_chars(name))
        except VocabError:
            return False

    return in_trie


# ---------------------------------------------------------------------------
# pipeline-toy: the README quick start through neglink.cli.main


def toy_stages(spec: dict) -> list[tuple[str, list[str]]]:
    toy = ["--preset", "toy"]
    return [
        ("train-positive", ["train-positive", *toy, "--set", f"pos_steps={spec['pos_steps']}", *CACHE,
                            "--mentions", TRAIN, "--out", "s1.ckpt"]),
        ("mine", ["mine", *toy, *CACHE, "--mentions", TRAIN, "--ckpt", "s1.ckpt", "--out", "pairs.jsonl"]),
        ("train-negative", ["train-negative", *toy, *CACHE, "--mentions", TRAIN, "--ckpt", "s1.ckpt",
                            "--pairs", "pairs.jsonl", "--out", "s2.ckpt"]),
        ("link-s1", ["link", *toy, *CACHE, "--mentions", TEST, "--ckpt", "s1.ckpt", "--out", "preds1.jsonl"]),
        ("link-s2", ["link", *toy, *CACHE, "--mentions", TEST, "--ckpt", "s2.ckpt", "--out", "preds2.jsonl"]),
        ("eval", ["eval", *CACHE, "--mentions", TEST, "--preds", "preds2.jsonl", "--preds-b", "preds1.jsonl",
                  "--k", "1", "--out", "report.json"]),
        ("analyze", ["analyze", *CACHE, "--mentions", TEST, "--ckpt", "s2.ckpt", "--preds", "preds2.jsonl",
                     "--out-bins", "bins.jsonl", "--out-gaps", "gaps.jsonl"]),
    ]


KB_BUILD = ["kb", "build", "--kb", KB, "--mentions", TRAIN, "--mentions", TEST, "--out", "cache"]
TOY_ARTIFACTS = ("cache/vocab.json", "cache/trie.bin", "cache/kb_info.json", "s1.ckpt", "s1.ckpt.losses.jsonl",
                 "pairs.jsonl", "s2.ckpt", "s2.ckpt.losses.jsonl", "preds1.jsonl", "preds2.jsonl",
                 "report.json", "bins.jsonl", "gaps.jsonl")


def toy_check(run: Run) -> dict:
    """Check the pipeline's outputs; returns the Acc@1 of both checkpoints."""
    from neglink.config import build_config
    from neglink.kb import load_kb
    from neglink.trie import load_trie
    from neglink.vocab import Vocab

    cfg = build_config(preset="toy")
    kb = load_kb(KB)
    vocab = Vocab(list(json.loads(Path("cache/vocab.json").read_text(encoding="utf-8"))["tokens"]))
    in_trie, align = in_trie_check(load_trie("cache/trie.bin"), vocab), kb.align
    train_gold, test_gold = checks.gold_sets(TRAIN), checks.gold_sets(TEST)
    run.op("mine outputs", checks.check_pairs(checks.read_jsonl("pairs.jsonl"), train_gold, align))
    acc = {}
    for stage, path in (("stage1", "preds1.jsonl"), ("stage2", "preds2.jsonl")):
        records = checks.read_jsonl(path)
        run.op(f"link outputs {path}",
               checks.check_prediction_file(records, len(test_gold), cfg.topk, in_trie, align))
        acc[stage] = checks.top1_accuracy(records, test_gold)
    report = checks.read_jsonl("report.json")[0]["report"]
    run.op("eval report", checks.check_accuracy("stage2", acc["stage2"], report["acc_at"]["1"])
           + checks.check_accuracy("stage1", acc["stage1"], report["comparison"]["acc_b"]["1"]))
    return acc


def pipeline_toy(run: Run) -> None:
    from neglink.config import build_config

    if run.stage("kb-build", KB_BUILD) is None:
        return
    run.setup_done()
    if run.args.phase == "setup":
        return
    stages = toy_stages(run.spec)
    walls = {}
    start = time.perf_counter()
    for label, argv in stages:
        walls[label] = run.stage(label, argv)
        if walls[label] is None:
            return
    walls["pipeline"] = time.perf_counter() - start
    digests = {p: sha256(p) for p in TOY_ARTIFACTS}
    # Relink with both checkpoints until --seconds have passed: more link time
    # to average over, and each relink must reproduce the pipeline's predictions.
    links = [walls["link-s1"], walls["link-s2"]]
    repeats = [(label, argv, argv[-1]) for label, argv in stages if label.startswith("link")]
    start = time.perf_counter()
    while time.perf_counter() - start < run.args.seconds:
        label, argv, out = repeats[len(links) % 2]
        wall = run.stage(f"{label} again", argv)
        if wall is None:
            return
        links.append(wall)
        run.op(f"{label} again", [] if sha256(out) == digests[out] else [f"{out} differs from the pipeline's"])
    run.stop_tracing()

    cfg = build_config(preset="toy")
    steps, pairs = line_count("s1.ckpt.losses.jsonl"), line_count("pairs.jsonl")
    n_train, n_test = len(checks.gold_sets(TRAIN)), len(checks.gold_sets(TEST))
    acc = toy_check(run)
    run.out.update({
        "stage_walls_s": walls,
        "link_walls_s": links,
        "train_pos_steps_per_s": steps / walls["train-positive"],
        "pipeline_s": walls["pipeline"],
        "train_neg_pairs_per_s": pairs * cfg.neg_epochs / walls["train-negative"],
        "mine_mentions_per_s": n_train / walls["mine"],
        "acc1_stage1": acc["stage1"],
        "acc1_stage2": acc["stage2"],
        "stage1_steps": steps,
        "mined_pairs": pairs,
        "digests": digests,
        "totals": {"link_mentions_per_s": [n_test * len(links), sum(links)]},
    })


# ---------------------------------------------------------------------------
# link-closed-large: render + constrained_beam_search, one client, closed loop


def link_closed_large(run: Run) -> None:
    from neglink import model
    from neglink.beam import constrained_beam_search
    from neglink.config import build_config
    from neglink.corpus import prepare_mentions, render
    from neglink.kb import load_kb
    from neglink.trie import load_trie

    spec = run.spec
    if run.stage("kb-build", KB_BUILD) is None:
        return
    wall = run.stage("train-positive", ["train-positive", "--preset", "toy", "--set", f"pos_steps={spec['pos_steps']}",
                                        *CACHE, "--mentions", TRAIN, "--out", "s1.ckpt"])
    if wall is None:
        return
    run.out["train_pos_steps_per_s"] = line_count("s1.ckpt.losses.jsonl") / wall
    cfg = build_config(preset="toy")
    kb = load_kb(KB)
    trie = load_trie("cache/trie.bin")
    ckpt = model.load("s1.ckpt")
    warmup = prepare_mentions(TRAIN, kb)[0][: spec["warmup_requests"]]
    requests = prepare_mentions(TEST, kb)[0]
    in_trie, align = in_trie_check(trie, ckpt.vocab), kb.align
    stream = hashlib.sha256()

    def serve(label: str, ex) -> tuple[float, list]:
        if run.tracer is not None:
            run.tracer.ctx = label
        start = time.perf_counter()
        try:
            enc = render(ex, ckpt.vocab, max_ctx=cfg.max_ctx)
            preds = constrained_beam_search(ckpt, enc, trie, kb, beam=cfg.beam, k=cfg.topk)
        except Exception:  # a failed request counts against failed_frac
            traceback.print_exc()
            run.op(label, ["raised"])
            return time.perf_counter() - start, []
        latency = time.perf_counter() - start
        triples = [(p.name, p.ids, p.score) for p in preds]
        run.op(label, checks.check_prediction_list(triples, cfg.topk, in_trie, align))
        return latency, preds

    for i, ex in enumerate(warmup):
        serve(f"warmup-{i}", ex)
    run.setup_done()
    if run.args.phase == "setup":
        return

    latencies, hits, prefix_digest = [], 0, None
    start = time.perf_counter()
    for i, ex in enumerate(requests):
        if i >= spec["min_requests"] and time.perf_counter() - start >= run.args.seconds:
            break
        latency, preds = serve(f"req-{i}", ex)
        latencies.append(latency)
        hits += bool(preds and preds[0].ids & ex.gold_ids)
        stream.update((json.dumps([i, [[p.name, sorted(p.ids), p.score] for p in preds]]) + "\n").encode())
        if i + 1 == spec["min_requests"]:
            prefix_digest = stream.hexdigest()
    run.stop_tracing()
    ordered = sorted(latencies)
    # The tail is the highest of p99/p95/p90 with at least ten samples beyond it.
    tail = next((p for p in (99, 95, 90) if len(ordered) * (100 - p) >= 1000), 50)
    run.out.update({
        "requests": len(latencies),
        "link_p50_ms": 1e3 * statistics.median(latencies),
        f"link_p{tail}_ms": 1e3 * ordered[-(-tail * len(ordered) // 100) - 1],
        "acc1_stage1": hits / len(latencies),
        "digests": {
            **{p: sha256(p) for p in ("cache/vocab.json", "cache/trie.bin", "cache/kb_info.json",
                                      "s1.ckpt", "s1.ckpt.losses.jsonl")},
            f"predictions[:{spec['min_requests']}]": prefix_digest,
            f"predictions[:{len(latencies)}]": stream.hexdigest(),
        },
        "totals": {"link_mentions_per_s": [len(latencies), sum(latencies)]},
    })


WORKLOADS = {"pipeline-toy": pipeline_toy, "link-closed-large": link_closed_large}


# ---------------------------------------------------------------------------


def generate(run: Run) -> None:
    import numpy
    import scipy
    from neglink.benchmark import gen_benchmark, write_benchmark

    write_benchmark(gen_benchmark(seed=run.args.seed, **run.spec["generator"]), "data")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    run.out["inputs"] = {p: sha256(p) for p in (KB, TRAIN, TEST)}
    run.out["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--phase", choices=("gen", "setup", "full"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--spec", required=True, help="the workload's entry of workloads.json, as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    run = Run(args, json.loads(args.spec))
    if args.phase == "gen":
        generate(run)
    else:
        import neglink.cli  # noqa: F401  (loads every module the stages use)

        if args.trace:
            from spans import Tracer

            run.tracer = Tracer()
            run.tracer.install()
        WORKLOADS[args.workload](run)
        run.stop_tracing()
        if args.phase == "full":
            run.out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if run.tracer is not None:
            run.out["layers"] = run.tracer.layer_metrics()
            run.tracer.write(Path(args.out).with_suffix(".spans.jsonl.gz"))
    run.out.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    Path(args.out).write_text(json.dumps(run.out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
