"""Command-line pipeline driver.

One subcommand per pipeline stage, file handoff between stages:

    kb build        cache vocabulary + decoding trie for a knowledge base
    synth           KB-derived synthetic pre-training mentions
    train-positive  stage-1 checkpoint from mention synonyms
    mine            preference pairs from a checkpoint's predictions
    train-negative  stage-2 checkpoint from a pairs file
    link            constrained predictions for a mention file
    eval            accuracy report, optional paired comparison: bootstrap test, fixed and broken counts
    analyze         similarity-binned errors and log-prob gap tables
    gradcheck       finite-difference verification of all losses

Exit codes: 0 success, 1 usage, 2 malformed/missing input, 3 numeric
failure, a worker process that died or could not be started or memory that
ran out, 4 gradient check failure. Logs go to stderr; data to files.

Every process computes with one BLAS thread (`workers`), and `link` and
`mine` search on every usable CPU (`taskset` limits them). No output depends
on the CPU count or on the BLAS thread settings.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import logging
import sys
from pathlib import Path

from . import __version__, artifacts, model, synth
from .beam import Prediction, constrained_beam_search_batch
from .config import PRESETS, RunConfig, build_config
from .corpus import PROMPT_SUFFIX, EncodedInput, MentionExample, prepare_mentions, render
from .errors import (
    CheckpointFormatError,
    ConfigError,
    FormatError,
    NeglinkError,
    NumericError,
    TrieFormatError,
    VocabError,
    WorkerError,
)
from .evaluate import bootstrap_paired_test, binned_error_report, evaluate, fixed_and_broken, logprob_gap_report
from .gradcheck import run_gradcheck
from .kb import KnowledgeBase, load_kb, normalize_name
from .train_negative import PreferenceTriplet, check_pairs, mine_pairs, train_preference
from .train_positive import PositiveInstance, build_positive_set, train
from .trie import TokenTrie, build_trie, load_trie, save_trie
from .vocab import Vocab

log = logging.getLogger("neglink")


# ---------------------------------------------------------------------------
# shared plumbing


def _config_from_args(args) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return build_config(preset=getattr(args, "preset", None), config_file=getattr(args, "config", None), overrides=overrides)


def vocab_from_sources(kb: KnowledgeBase, mention_files: list[str], abbrev: str | None) -> Vocab:
    """Characters of every string the pipeline can ask the model to read."""
    texts = [PROMPT_SUFFIX, synth.DEFINITION_TEMPLATE, synth.SYNONYM_TEMPLATE]
    texts.extend(kb.name_index)
    for concept in kb.concepts.values():
        if concept.definition:
            texts.append(normalize_name(concept.definition))
    for path in mention_files:
        examples, _ = prepare_mentions(path, kb, abbrev)
        for ex in examples:
            texts.extend((ex.left_context, ex.mention, ex.right_context))
    return Vocab.from_texts(texts)


# Options that name a file a command reads, then the cache files its loaders read (they set `args.vocab` and
# `args.trie`); every output header records each file under that name. `kb build` repeats --mentions.
_READ_FILES = ("kb", "mentions", "abbrev", "init", "ckpt", "pairs", "preds", "preds_b", "vocab", "trie")
# Command options outside `RunConfig` that change an output (`eval`'s and `synth`'s); headers record them as set.
_OUTPUT_OPTIONS = ("cap", "k", "resamples")


def _header(args, cfg: RunConfig) -> dict:
    """The header of every output: `cfg`'s settings, the digest of each file of `args` that the command read
    and, under "options", the values of its `_OUTPUT_OPTIONS`."""
    files = {}
    for name in _READ_FILES:
        path = getattr(args, name, None)
        if isinstance(path, list):
            files.update((f"{name}{i}", p) for i, p in enumerate(path))
        elif path:
            files[name] = path
    header = artifacts.make_header(dataclasses.asdict(cfg), files)
    options = {name: getattr(args, name) for name in _OUTPUT_OPTIONS if hasattr(args, name)}
    return {**header, "options": options} if options else header


def _load_vocab(args) -> Vocab:
    """The cache's vocabulary, which must have been built from `--kb`."""
    path = args.vocab = Path(args.cache) / "vocab.json"
    kinds = {"header": "an object", "tokens": "a list of strings"}
    records = [values for _, values in artifacts.read_records(path, kinds)]
    if len(records) != 1:
        raise FormatError(f"{path}: expected one JSON object, found {len(records)}")
    header, tokens = records[0]
    artifacts.check_inputs(path, header, args, ["kb"])
    return Vocab(tokens)


def _load_trie(args, vocab: Vocab) -> TokenTrie:
    """The cache's trie, which must hold only `vocab`'s token ids and have been built from `--kb`."""
    path = args.trie = Path(args.cache) / "trie.bin"
    try:
        trie = load_trie(path)
    except TrieFormatError as e:
        raise TrieFormatError(f"{path}: {e}") from None
    if trie.max_token >= len(vocab):
        raise TrieFormatError(f"{path}: token id {trie.max_token} outside the cache vocabulary of size {len(vocab)}")
    artifacts.check_inputs(path, trie.header, args, ["kb"])
    return trie


def _load_checkpoint(path, vocab: Vocab) -> model.Checkpoint:
    try:
        ckpt = model.load(path)
    except (CheckpointFormatError, VocabError) as e:  # VocabError: the header's vocabulary
        raise CheckpointFormatError(f"{path}: {e}") from None
    if ckpt.vocab != vocab:
        raise ConfigError(f"{path}: checkpoint vocabulary does not match the cache vocabulary")
    return ckpt


def _write_loss_log(path, header: dict, loss_log) -> None:
    artifacts.write_jsonl(path, header, ({"step": s, "loss": l} for s, l in loss_log))


def _predictions_from_file(path, args, kb: KnowledgeBase, n_examples: int) -> list[list[Prediction]]:
    """The prediction lists of a `link` output written for `args`' KB, mentions and, where it has one, checkpoint;
    each list must hold ranks 1..n and keep `_check_predictions`' rules."""
    kinds = {"mention_index": "an integer", "rank": "an integer", "name": "a string", "score": "a number"}
    header, records = artifacts.read_jsonl(path, kinds)
    artifacts.check_inputs(path, header, args, [name for name in ("kb", "mentions", "ckpt") if hasattr(args, name)])
    lists: list[list[Prediction]] = [[] for _ in range(n_examples)]
    for i, rank, name, score in records:
        if not 0 <= i < n_examples:
            raise FormatError(f"{path}: mention_index {i} out of range for {n_examples} examples")
        lists[i].append((rank, Prediction(name=name, ids=kb.align(name), score=float(score))))
    out = []
    for i, preds in enumerate(lists):
        preds.sort(key=lambda rp: rp[0])
        ranks = [r for r, _ in preds]
        if not ranks:
            raise FormatError(f"{path}: no predictions for mention_index {i} of {n_examples}")
        if ranks != list(range(1, len(ranks) + 1)):
            raise FormatError(f"{path}: mention_index {i} has ranks {ranks!r:.60}, expected 1..{len(ranks)}")
        out.append([p for _, p in preds])
    _check_predictions(path, out, kb)
    return out


def _check_predictions(path, prediction_lists: list[list[Prediction]], kb: KnowledgeBase) -> None:
    """Raise FormatError naming `path` and the mention unless each list keeps `link`'s rules: KB names only,
    none twice, and scores that do not rise with rank."""
    for i, preds in enumerate(prediction_lists):
        seen: set[str] = set()
        for rank, p in enumerate(preds, start=1):
            at = f"{path}: mention_index {i}: rank {rank}"
            if p.name not in kb.name_index:
                raise FormatError(f"{at}: {p.name!r:.60} is not a KB name")
            if p.name in seen:
                raise FormatError(f"{at}: {p.name!r:.60} appears at a higher rank too")
            if rank > 1 and p.score > preds[rank - 2].score:
                raise FormatError(f"{at}: score {p.score!r} is above rank {rank - 1}'s")
            seen.add(p.name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kb_build(args) -> int:
    cfg = _config_from_args(args)
    kb = load_kb(args.kb)
    vocab = vocab_from_sources(kb, args.mentions or [], args.abbrev)
    trie = build_trie(kb.names(), vocab)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trie.header = header = _header(args, cfg)
    artifacts.write_json(outdir / "vocab.json", header, {"tokens": list(vocab.tokens)})
    save_trie(trie, outdir / "trie.bin")
    artifacts.write_json(outdir / "kb_info.json", header, {
        "concepts": len(kb.concepts),
        "names": len(kb.name_index),
        "rejected": kb.rejected_count,
        "vocab_size": len(vocab),
    })
    log.info("cached vocab (%d tokens) and trie (%d names) in %s", len(vocab), trie.size, outdir)
    return 0


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    kb = load_kb(args.kb)
    examples = synth.gen_pretrain_examples(kb, cap=args.cap)
    artifacts.write_jsonl(args.out_mentions, _header(args, cfg), (
        {"left": ex.left_context, "mention": ex.mention, "right": ex.right_context, "gold_ids": sorted(ex.gold_ids),
         "targets": list(ex.targets),
         # each generator puts its template first, so the right context names the generator
         "kind": "definition" if ex.right_context.startswith(synth.DEFINITION_TEMPLATE) else "synonym"}
        for ex in examples
    ))
    log.info("synthesized %d examples", len(examples))
    return 0


def _load_training_inputs(args):
    cfg = _config_from_args(args)
    kb = load_kb(args.kb)
    vocab = _load_vocab(args)
    examples, dropped = prepare_mentions(args.mentions, kb, args.abbrev)
    if dropped:
        log.info("dropped %d unlinkable examples", dropped)
    if not examples:
        raise FormatError(f"{args.mentions}: no linkable examples")
    return cfg, kb, vocab, examples


def _positive_instances(args) -> tuple[RunConfig, Vocab, list[PositiveInstance]]:
    """The stage-1 instances; the KB, its TF-IDF index and the examples are freed on return."""
    cfg, kb, vocab, examples = _load_training_inputs(args)
    return cfg, vocab, build_positive_set(examples, kb, vocab, cfg)


def cmd_train_positive(args) -> int:
    cfg, vocab, instances = _positive_instances(args)
    if args.init:
        ckpt = _load_checkpoint(args.init, vocab)
        width = ckpt.params["emb"].shape[1]
        if width != cfg.hidden_dim:
            raise ConfigError(f"{args.init}: checkpoint hidden size {width} differs from hidden_dim {cfg.hidden_dim}")
    else:
        ckpt = model.init_checkpoint(vocab, cfg.hidden_dim, cfg.seed)
    header = _header(args, cfg)
    result = train(ckpt, instances, cfg)
    model.save(result.checkpoint, args.out, header)
    _write_loss_log(str(args.out) + ".losses.jsonl", header, result.loss_log)
    log.info("stage-1 checkpoint: %d instances, %d steps, final loss %.4f",
             len(instances), len(result.loss_log), result.loss_log[-1][1])
    return 0


def cmd_mine(args) -> int:
    cfg, kb, vocab, examples = _load_training_inputs(args)
    trie = _load_trie(args, vocab)
    ckpt = _load_checkpoint(args.ckpt, vocab)
    triplets = mine_pairs(ckpt, examples, kb, trie, cfg)
    artifacts.write_jsonl(args.out, _header(args, cfg), (
        {"mention_index": t.mention_index, "e_w": t.preferred, "e_l": t.dispreferred, "rank_w": t.rank_w,
         "rank_l": t.rank_l}
        for t in triplets
    ))
    log.info("mined %d preference pairs from %d examples", len(triplets), len(examples))
    return 0


def _preference_triplets(args) -> tuple[RunConfig, Vocab, list[PreferenceTriplet]]:
    """The pairs file's triplets, each mention rendered once; the KB and the examples are freed on return.

    The pairs must have been mined by `--ckpt` for `--kb` and `--mentions`, each name must be readable by the
    vocabulary, and the pairs must pass `check_pairs`: each keeps the mining rules, and none repeats.
    """
    cfg, kb, vocab, examples = _load_training_inputs(args)
    kinds = {"mention_index": "an integer", "e_w": "a string", "e_l": "a string"}
    header, records = artifacts.read_jsonl(args.pairs, kinds)
    artifacts.check_inputs(args.pairs, header, args, ["kb", "mentions", "ckpt"])
    inputs: dict[int, EncodedInput] = {}
    triplets = []
    for i, e_w, e_l in records:
        if not 0 <= i < len(examples):
            raise FormatError(f"{args.pairs}: mention_index {i} out of range")
        try:
            vocab.encode_chars(e_w + e_l)
        except VocabError as e:
            raise FormatError(f"{args.pairs}: pair {e_w!r} vs {e_l!r} of mention_index {i}: {e}") from None
        if i not in inputs:
            inputs[i] = render(examples[i], vocab, max_ctx=cfg.max_ctx)
        triplets.append(PreferenceTriplet(input=inputs[i], preferred=e_w, dispreferred=e_l, mention_index=i))
    if not triplets:
        raise FormatError(f"{args.pairs}: no preference pairs")
    try:
        check_pairs(triplets, examples, kb)
    except FormatError as e:
        raise FormatError(f"{args.pairs}: {e}") from None
    return cfg, vocab, triplets


def cmd_train_negative(args) -> int:
    cfg, vocab, triplets = _preference_triplets(args)
    ckpt = _load_checkpoint(args.ckpt, vocab)
    header = _header(args, cfg)
    result = train_preference(ckpt, triplets, cfg)
    model.save(result.checkpoint, args.out, header)
    _write_loss_log(str(args.out) + ".losses.jsonl", header, result.loss_log)
    log.info("stage-2 (%s) checkpoint from %d pairs, mean loss %.4f",
             cfg.loss, len(triplets),
             sum(l for _, l in result.loss_log) / len(result.loss_log))
    return 0


def cmd_link(args) -> int:
    cfg, kb, vocab, examples = _load_training_inputs(args)
    trie = _load_trie(args, vocab)
    ckpt = _load_checkpoint(args.ckpt, vocab)
    encoded = [render(ex, vocab, max_ctx=cfg.max_ctx) for ex in examples]
    prediction_lists = constrained_beam_search_batch(ckpt, encoded, trie, kb, beam=cfg.beam, k=cfg.topk)
    _check_predictions(args.out, prediction_lists, kb)
    artifacts.write_jsonl(args.out, _header(args, cfg), (
        {"mention_index": i, "rank": r, "name": p.name, "ids": sorted(p.ids), "score": p.score}
        for i, preds in enumerate(prediction_lists) for r, p in enumerate(preds, start=1)
    ))
    log.info("linked %d mentions (beam %d, top %d)", len(examples), cfg.beam, cfg.topk)
    return 0


def _fold_reports(examples: list[MentionExample], prediction_lists, whole, ks) -> dict:
    """`whole`'s accuracies, and where examples carry folds, each fold's and their unweighted mean."""
    doc = {"n": whole.n, "acc_at": {str(k): v for k, v in whole.acc_at.items()}}
    folds = sorted({ex.fold for ex in examples if ex.fold is not None})
    if folds:
        reports = []
        for f in folds:
            sub = [i for i, ex in enumerate(examples) if ex.fold == f]
            reports.append(evaluate([prediction_lists[i] for i in sub], [examples[i].gold_ids for i in sub], ks=ks))
        doc["folds"] = {str(f): {"n": r.n, "acc_at": {str(k): v for k, v in r.acc_at.items()}}
                        for f, r in zip(folds, reports)}
        doc["fold_mean"] = {str(k): sum(r.acc_at[k] for r in reports) / len(reports) for k in ks}
    return doc


def cmd_eval(args) -> int:
    cfg, kb, vocab, examples = _load_training_inputs(args)
    ks = (1, args.k) if args.k != 1 else (1,)
    prediction_lists = _predictions_from_file(args.preds, args, kb, len(examples))
    gold_sets = [ex.gold_ids for ex in examples]
    report_a = evaluate(prediction_lists, gold_sets, ks=ks)
    doc = _fold_reports(examples, prediction_lists, report_a, ks)
    if args.preds_b:
        lists_b = _predictions_from_file(args.preds_b, args, kb, len(examples))
        report_b = evaluate(lists_b, gold_sets, ks=ks)
        boot = bootstrap_paired_test(
            report_a.per_example, report_b.per_example, k=args.k,
            resamples=args.resamples, seed=cfg.seed,
        )
        fixed, broken = fixed_and_broken(report_a.per_example, report_b.per_example)
        doc["comparison"] = {
            "k": args.k,
            "acc_b": {str(k): v for k, v in report_b.acc_at.items()},
            "mean_diff": boot.mean_diff,
            "p_value": boot.p_value,
            "fixed": fixed,
            "broken": broken,
        }
    artifacts.write_json(args.out, _header(args, cfg), {"report": doc})
    for k in ks:
        print(f"Acc@{k} = {report_a.acc_at[k]:.4f}")
    if args.preds_b:
        cmp = doc["comparison"]
        print(f"mean_diff@{args.k} = {cmp['mean_diff']:+.4f}  p = {cmp['p_value']:.3g}  "
              f"fixed@1 = {cmp['fixed']}  broken@1 = {cmp['broken']}")
    return 0


def cmd_analyze(args) -> int:
    cfg, kb, vocab, examples = _load_training_inputs(args)
    ckpt = _load_checkpoint(args.ckpt, vocab)
    prediction_lists = _predictions_from_file(args.preds, args, kb, len(examples))
    binned = binned_error_report(examples, prediction_lists, kb)
    gaps = logprob_gap_report(ckpt, examples, prediction_lists, kb, max_ctx=cfg.max_ctx)
    header = _header(args, cfg)
    artifacts.write_jsonl(args.out_bins, header, (dataclasses.asdict(b) for b in binned))
    artifacts.write_jsonl(args.out_gaps, header, (dataclasses.asdict(b) for b in gaps))
    log.info("analysis written to %s and %s", args.out_bins, args.out_gaps)
    return 0


def cmd_gradcheck(args) -> int:
    checks = run_gradcheck(seeds=tuple(args.seeds), n_coords=args.coords, tol=args.tol)
    for c in checks:
        status = "ok" if c.ok else "FAIL"
        print(f"{c.loss_kind:8s} seed={c.seed}  max_rel_err={c.max_rel_err:.3e}  {status}")
    return 0 if all(c.ok for c in checks) else 4


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")


def _add_inputs(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--mentions", required=True)
    p.add_argument("--abbrev")
    p.add_argument("--cache", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neglink", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"neglink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    kb_p = sub.add_parser("kb", help="knowledge-base utilities")
    kb_sub = kb_p.add_subparsers(dest="kb_command", required=True)
    p = kb_sub.add_parser("build", help="cache vocabulary and decoding trie")
    _add_common(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--mentions", action="append", help="mention file whose text joins the vocabulary (repeatable)")
    p.add_argument("--abbrev")
    p.add_argument("--out", required=True, help="cache directory")
    p.set_defaults(func=cmd_kb_build)

    p = sub.add_parser("synth", help="KB-derived synthetic pre-training data")
    _add_common(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--cap", type=int, default=8, help="examples per concept per template")
    p.add_argument("--out-mentions", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-positive", help="stage-1 synonym generation training")
    _add_inputs(p)
    p.add_argument("--init", help="checkpoint to start from instead of a fresh init; "
                   "its hidden size must equal hidden_dim")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_positive)

    p = sub.add_parser("mine", help="mine preference pairs from a checkpoint")
    _add_inputs(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train-negative", help="stage-2 preference training")
    _add_inputs(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pairs", required=True, help="mined pairs file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_negative)

    p = sub.add_parser("link", help="constrained predictions for mentions")
    _add_inputs(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("eval", help="accuracy report, optional system comparison")
    _add_inputs(p)
    p.add_argument("--preds", required=True)
    p.add_argument("--preds-b", help="second predictions file for the paired bootstrap test and the "
                   "fixed/broken counts at rank 1")
    p.add_argument("--k", type=int, default=5, help="second accuracy cutoff and the bootstrap k")
    p.add_argument("--resamples", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="similarity-binned errors and log-prob gaps")
    _add_inputs(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--out-bins", required=True)
    p.add_argument("--out-gaps", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--coords", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _libc_function(name: str):
    """glibc's function `name` through ctypes, or None where libc or the function is missing."""
    try:
        return getattr(ctypes.CDLL("libc.so.6"), name)
    except (OSError, AttributeError):
        return None


def _keep_freed_memory() -> None:
    """Let a command reuse the memory it frees instead of handing it back to the kernel.

    A training step allocates and frees several arrays of 0.5-1 MiB. By
    default glibc serves those with mmap and unmaps them on free, so the next
    step page-faults the same amount in again. Serving blocks up to 32 MiB
    from the heap and trimming the heap only above 512 MiB of free top keeps
    them for reuse while the command runs; `_release_freed_memory` hands them
    back when it returns. Both are set because setting either one switches
    off glibc's dynamic thresholds. A no-op where glibc's mallopt is missing.
    """
    mallopt = _libc_function("mallopt")
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)


def _release_freed_memory() -> None:
    """Hand the heap a command kept (`_keep_freed_memory`) back to the kernel once it has returned.

    Python objects allocated later, by a caller of `main` that runs on,
    cannot reuse that heap: CPython's small-object allocator maps its own
    arenas. A no-op where glibc's malloc_trim is missing.
    """
    malloc_trim = _libc_function("malloc_trim")
    if malloc_trim is None:
        return
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return 0 if e.code in (0, None) else 1
    _keep_freed_memory()
    try:
        return args.func(args)
    except NumericError as e:
        log.error("numeric failure: %s", e)
        return 3
    except WorkerError as e:
        log.error("%s", e)
        return 3
    except MemoryError as e:  # also one raised in a `map_split` worker, which re-raises it here
        log.error("ran out of memory%s", f": {e}" if str(e) else "")
        return 3
    except (NeglinkError, OSError) as e:  # FormatError and ConfigError are NeglinkErrors
        log.error("%s", e)
        return 2
    finally:
        _release_freed_memory()


if __name__ == "__main__":
    sys.exit(main())
