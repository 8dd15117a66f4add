"""Spans around neglink's public functions, recorded from outside the program.

`Tracer.install` wraps every public module-level function of the loaded
`neglink` modules (plus `TokenTrie.max_depth`) and rebinds every module
attribute that refers to it, so names re-imported with
`from .beam import constrained_beam_search` are traced as well. Each call
appends one span: name, start, end, parent span and the context id (stage
or request) that was current when it started. Spans stay in memory until
`write` stores them at the end of the run.

Counts come from call arguments, return values and span nesting, so they
repeat exactly between runs on the same inputs; only `*_s` values are times.
The tracing overhead is the wrappers' own cost (spans recorded times the
measured cost of one wrapped no-op call, plus the time spent in probes)
over the untraced share of the time tracing was on.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Methods worth a span; other methods are too small and frequent.
METHODS = (("neglink.trie", "TokenTrie", "max_depth"),)

SEARCH = "beam.constrained_beam_search"  # prefix, so batched variants count too


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(arr) -> int:
    return int(arr.shape[0])


def _distinct_rows(arr) -> tuple[int, int]:
    return int(arr.shape[0]), len({row.tobytes() for row in arr})


def _trie_nodes(trie) -> int:
    count, stack = 0, [trie.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


# label -> probe(args, kwargs, result) -> value kept on the span
PROBES = {
    "model.encoder_forward": lambda a, kw, r: _rows(_arg(a, kw, 1, "tokens")),
    "model.decoder_forward": lambda a, kw, r: _rows(_arg(a, kw, 1, "tokens")),
    "model.step_batch": lambda a, kw, r: _rows(_arg(a, kw, 0, "states")),
    "model.forward_teacher": lambda a, kw, r: _distinct_rows(_arg(a, kw, 1, "enc_tokens")),
    "artifacts.sha256_file": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path")),
    "train_negative.mine_pairs": lambda a, kw, r: (len(r), len(_arg(a, kw, 1, "examples"))),
    "train_negative.preference_loss_and_grads": lambda a, kw, r: len(_arg(a, kw, 2, "triplets")),
    "corpus.render": lambda a, kw, r: (r.encoder_tokens, r.prompt_tokens),
    "trie.build_trie": lambda a, kw, r: _trie_nodes(r),
    "trie.load_trie": lambda a, kw, r: _trie_nodes(r),
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, context id, probe value]
        self.spans: list[list] = []
        self.ctx = "setup"
        self.probe_s = 0.0
        self.on_s = self.off_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        spans, stack, clock, probe = self.spans, self._stack, time.perf_counter, PROBES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.ctx, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                before = clock()
                span[5] = probe(args, kwargs, result)
                self.probe_s += clock() - before
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded neglink module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("neglink.") and mod is not None}
        wrappers: dict[int, tuple[object, object]] = {}
        for name, mod in modules.items():
            short = name.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == name and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name.split('.', 1)[1]}.{meth}", original))
        self.on_s = time.perf_counter()

    def uninstall(self) -> None:
        if not self._restore:
            return
        self.off_s = time.perf_counter()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def wrapper_cost(calls: int = 20000) -> float:
        """Seconds one wrapped call adds, timed on a no-op."""
        def noop():
            return None

        traced = Tracer()._wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        return max(0.0, ((end - plain) - (plain - start)) / calls)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, ctx, _) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "id": ctx}, separators=(",", ":")) + "\n")

    # -- per-layer numbers --------------------------------------------------

    def _under(self, i: int, prefix: str) -> int:
        """Index of the nearest enclosing span whose name starts with prefix, or -1."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return parent
            parent = self.spans[parent][3]
        return -1

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[i]
            by_name[name].append(i)

        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
            if name.startswith("cli.cmd_"):
                out[f"cli.{name[len('cli.cmd_'):]}_s"] = total[name]
        for name in ("model.encoder_forward", "model.decoder_forward", "model.step_batch"):
            out[f"{name}.rows"] = sum(spans[i][5] for i in by_name[name])
        out["artifacts.sha256_file.bytes"] = sum(spans[i][5] for i in by_name["artifacts.sha256_file"])
        nodes = [spans[i][5] for i in by_name["trie.build_trie"] + by_name["trie.load_trie"]]
        out["trie.nodes"] = max(nodes, default=0)

        searches = sum(calls[n] for n in calls if n.startswith(SEARCH))
        steps = [i for i in by_name["model.step_batch"] if self._under(i, SEARCH) >= 0]
        depth_calls = [i for i in by_name["trie.max_depth"] if self._under(i, SEARCH) >= 0]
        out["beam.decoder_steps_per_search"] = _ratio(len(steps), searches)
        out["beam.rows_per_step"] = _ratio(sum(spans[i][5] for i in steps), len(steps))
        out["trie.max_depth.calls_per_search"] = _ratio(len(depth_calls), searches)

        def forward_rows(loss: str) -> tuple[int, int]:
            """(rows, distinct rows) of the teacher-forced forwards inside `loss`."""
            fwd = [spans[i][5] for i in by_name["model.forward_teacher"] if self._under(i, loss) >= 0]
            return sum(r for r, _ in fwd), sum(d for _, d in fwd)

        rows, distinct = forward_rows("train_positive.ce_loss_and_grads")
        out["train_positive.enc_rows_distinct_frac"] = _ratio(distinct, rows)
        pref = "train_negative.preference_loss_and_grads"
        rows, distinct = forward_rows(pref)
        out["train_negative.enc_rows_distinct_frac"] = _ratio(distinct, rows)
        out["train_negative.forward_rows_per_pair"] = _ratio(rows, sum(spans[i][5] for i in by_name[pref]))
        mined = [spans[i][5] for i in by_name["train_negative.mine_pairs"]]
        out["train_negative.pairs_per_mention"] = _ratio(sum(p for p, _ in mined), sum(m for _, m in mined))

        # Requests of one link stage (toy) or of the closed loop (req-*) whose
        # rendered input was already rendered earlier in the same group.
        seen: dict[str, set] = defaultdict(set)
        renders = repeats = 0
        for i in by_name["corpus.render"]:
            ctx = spans[i][4]
            group = "req" if ctx.startswith("req-") else ctx
            if not group.startswith(("link", "req")):
                continue
            renders += 1
            repeats += spans[i][5] in seen[group]
            seen[group].add(spans[i][5])
        out["corpus.request_repeat_frac"] = _ratio(repeats, renders)

        cost = len(spans) * self.wrapper_cost() + self.probe_s
        out["trace.overhead_frac"] = _ratio(cost, self.off_s - self.on_s - cost)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
