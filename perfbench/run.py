"""neglink benchmark: two seeded workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload pipeline-toy --seed 318 --seconds 10 --trace 0

Workloads (parameters and provenance in perfbench/workloads.json):

    pipeline-toy       the README quick start through neglink.cli.main:
                       kb build, train-positive, mine, train-negative (dpo),
                       link s1 and s2, eval --preds-b, analyze
    link-closed-large  one client, closed loop: corpus.render +
                       beam.constrained_beam_search per test mention of a
                       KB ten times the toy one

Run from the root of a checkout; the sources under src/ are what is
measured. Each run gets its own directory under .bench_runs/, where every
child process writes its inputs, outputs, log and JSON result, and where
this script leaves result.json (all measurements, output digests and
machine info); checkpoints are deleted at the end. With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, read from spans of a traced run of the
same work.

Each run starts `setup_runs` set-up-only processes and `full_runs`
processes that set up and then measure (workloads.json). Every metric is
the median over the processes that report it (setup_s: over all set-ups),
except link_mentions_per_s, which pools all of them: mentions linked over
the time spent linking them (request latencies in the closed loop, the
walls of the `neglink link` runs in the toy pipeline). --seconds is how long one measured phase runs: the closed loop
sends requests until it has passed (and at least `min_requests` were
served); after its one pipeline pass, pipeline-toy relinks with both
checkpoints until it has passed, and every relink must reproduce the
pipeline's predictions. Full runs must write identical outputs for
identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
BUDGET_S = 175  # a run must end within 180 s


class HarnessError(Exception):
    """The harness could not measure: no sources, a crashed or late child."""


def _child(rundir: Path, name: str, phase: str, workload: str, spec: dict, seed: int,
           seconds: float, trace: int, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))  # one BLAS thread per usable CPU
    out = rundir / f"{name}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--phase", phase, "--workload", workload,
            "--spec", json.dumps(spec), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    with open(rundir / f"{name}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([*argv, "--spawned", repr(time.perf_counter())], cwd=rundir, env=env,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired as e:
            raise HarnessError(f"{name} did not finish within the {BUDGET_S} s budget") from e
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"{name} exited {proc.returncode}; see {rundir / (name + '.log')}")
    return json.loads(out.read_text(encoding="utf-8"))


def _scalars(result: dict) -> dict:
    """A child's own measurements (numbers), without its operation counts."""
    return {key: value for key, value in result.items()
            if isinstance(value, (int, float)) and key not in ("attempted", "failed")}


def _aggregate(results: list[dict]) -> dict[str, float]:
    """Every measurement as the median over the children that report it;
    a rate given as (count, seconds) totals is pooled: sum over sum."""
    values: dict[str, list[float]] = {}
    totals: dict[str, list[float]] = {}
    for result in results:
        for key, value in _scalars(result).items():
            values.setdefault(key, []).append(value)
        for key, (count, seconds) in result.get("totals", {}).items():
            pooled = totals.setdefault(key, [0.0, 0.0])
            pooled[0] += count
            pooled[1] += seconds
    metrics = {key: statistics.median(vals) for key, vals in values.items()}
    metrics.update({key: count / seconds for key, (count, seconds) in totals.items()})
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, spec: dict | None = None) -> dict:
    """Measure one workload; returns the full result (also left in result.json)."""
    if not (ROOT / "src" / "neglink" / "__init__.py").is_file():
        raise HarnessError(f"no neglink sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    spec = WORKLOADS[workload] if spec is None else spec
    rundir = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    (rundir / "data").mkdir(parents=True)

    def child(name, phase, secs=0.0, traced=0):
        return _child(rundir, name, phase, workload, spec, seed, secs, traced, deadline)

    gen = child("gen", "gen")
    if trace:
        # Fixed work (seconds=0: one pass, min_requests), so counts repeat exactly.
        children = [child("traced", "full", traced=1)]
        metrics = dict(_aggregate(children), **children[0]["layers"])
        fulls = children
    else:
        children = [child(f"setup{i}", "setup") for i in range(spec["setup_runs"])]
        fulls = [child(f"full{i}", "full", secs=seconds) for i in range(spec["full_runs"])]
        children += fulls
        metrics = _aggregate(children)
    # Every full run must write the same outputs where they did the same work.
    shared = set.intersection(*(set(c.get("digests", {})) for c in fulls))
    differ = sorted(k for k in shared if len({c["digests"][k] for c in fulls}) > 1)
    attempted = sum(c["attempted"] for c in children) + 1
    failed = sum(c["failed"] for c in children) + bool(differ)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "spec": spec,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [p for c in children for p in c["problems"]] + [f"{k} differs between runs" for k in differ],
        "metrics": metrics,
        "setups_s": [c["setup_s"] for c in children if "setup_s" in c],
        "inputs": gen["inputs"], "machine": gen["machine"],
        "digests": fulls[-1].get("digests", {}),
        "rundir": str(rundir.relative_to(ROOT)),
    }
    (rundir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for checkpoint in rundir.glob("*.ckpt"):  # the bulk of a run's files; their digests are kept
        checkpoint.unlink()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = bench["per_layer" if args.trace else "end_to_end"]
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    measured = result["metrics"]
    for m in listed:
        print(f"{m['name']:<44} {measured.get(m['name'], 0.0):>14.6g} {m['unit']}")
    shown = {m["name"] for m in listed}
    for name in sorted(measured):
        if name not in shown and not name.endswith(".calls") and not name.endswith(".self_s"):
            print(f"{name:<44} {measured[name]:>14.6g}  (not gated)")
    print(f"failed_frac {result['failed_frac']:.6g}  ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for path, digest in sorted(result["digests"].items()):
        print(f"sha256 {digest}  {path}")
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"details {result['rundir']}/result.json")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
