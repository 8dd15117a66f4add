"""Correctness checks over what neglink writes and returns.

Each check returns a list of problems; an empty list means the output
passed. Trie membership and KB alignment come in as callables (the
program's own `trie.contains` and `kb.align`), so the self-test can feed
corrupted records without building a model.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable

InTrie = Callable[[str], bool]
Align = Callable[[str], Iterable[str]]

# Float tolerance for comparing the harness's Acc@1 with the eval report;
# both divide the same two integers, so any larger gap is a real mismatch.
ACC_TOL = 1e-12


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gold_sets(mentions_path) -> list[frozenset[str]]:
    """Gold id sets of a mention file, in file order."""
    return [frozenset(rec["gold_ids"]) for rec in read_jsonl(mentions_path)]


def check_prediction_list(preds: list[tuple[str, Iterable[str], float]], k: int,
                          in_trie: InTrie, align: Align) -> list[str]:
    """One ranked list of (name, ids, score): 1..k entries, KB names only,
    ids equal to the KB alignment, score descending with ties by name."""
    problems = []
    if not 1 <= len(preds) <= k:
        problems.append(f"{len(preds)} predictions, expected 1..{k}")
    for name, ids, _ in preds:
        if not in_trie(name):
            problems.append(f"{name!r} is not a name in the decoding trie")
        if frozenset(ids) != frozenset(align(name)):
            problems.append(f"{name!r} carries ids {sorted(ids)}, KB aligns {sorted(align(name))}")
    for (n1, _, s1), (n2, _, s2) in zip(preds, preds[1:]):
        if (-s1, n1) >= (-s2, n2):
            problems.append(f"{n1!r} ({s1!r}) ranked above {n2!r} ({s2!r})")
    return problems


def prediction_lists(records: list[dict]) -> dict[int, list[dict]]:
    """Prediction-file records grouped by mention_index, each in rank order."""
    lists: dict[int, list[dict]] = {}
    for rec in records:
        if "header" in rec:
            continue
        lists.setdefault(rec["mention_index"], []).append(rec)
    return {i: sorted(recs, key=lambda r: r["rank"]) for i, recs in lists.items()}


def check_prediction_file(records: list[dict], n_mentions: int, k: int,
                          in_trie: InTrie, align: Align) -> list[str]:
    """Every mention has one well-formed ranked list (see check_prediction_list)."""
    lists = prediction_lists(records)
    problems = []
    if sorted(lists) != list(range(n_mentions)):
        problems.append(f"lists for {len(lists)} mention indexes, expected 0..{n_mentions - 1}")
    for i, recs in sorted(lists.items()):
        ranks = [r["rank"] for r in recs]
        if ranks != list(range(1, len(recs) + 1)):
            problems.append(f"mention {i}: ranks {ranks} are not 1..{len(recs)}")
        preds = [(r["name"], r["ids"], r["score"]) for r in recs]
        problems.extend(f"mention {i}: {p}" for p in check_prediction_list(preds, k, in_trie, align))
    return problems


def top1_accuracy(records: list[dict], gold: list[frozenset[str]]) -> float:
    """Share of mentions whose rank-1 prediction aligns to a gold id."""
    lists = prediction_lists(records)
    hits = sum(1 for i, g in enumerate(gold) if lists.get(i) and frozenset(lists[i][0]["ids"]) & g)
    return hits / len(gold)


def check_accuracy(label: str, harness: float, reported: float) -> list[str]:
    if abs(harness - reported) > ACC_TOL:
        return [f"{label}: harness Acc@1 {harness!r} differs from the eval report {reported!r}"]
    return []


def check_pairs(records: list[dict], gold: list[frozenset[str]], align: Align) -> list[str]:
    """Mined pairs: a gold-aligned e_w, a non-gold e_l, and e_w != e_l."""
    problems = []
    pairs = [rec for rec in records if "header" not in rec]
    if not pairs:
        problems.append("no mined pairs")
    for n, rec in enumerate(pairs):
        i, e_w, e_l = rec["mention_index"], rec["e_w"], rec["e_l"]
        if not 0 <= i < len(gold):
            problems.append(f"pair {n}: mention_index {i} out of range")
            continue
        if not frozenset(align(e_w)) & gold[i]:
            problems.append(f"pair {n}: preferred {e_w!r} is not aligned to gold {sorted(gold[i])}")
        if frozenset(align(e_l)) & gold[i]:
            problems.append(f"pair {n}: dispreferred {e_l!r} is aligned to gold {sorted(gold[i])}")
        if e_w == e_l:
            problems.append(f"pair {n}: preferred and dispreferred are both {e_w!r}")
    return problems
