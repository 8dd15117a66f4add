"""End-to-end command-line pipeline on a small generated benchmark.

The heavy lifting happens once in a module-scoped fixture; the individual
tests inspect the artifacts it leaves behind and probe the error paths.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neglink
from neglink import artifacts, model, trie
from neglink.artifacts import read_jsonl
from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.cli import main
from neglink.config import RunConfig, build_config
from neglink.corpus import MAX_INPUT_TOKENS, prepare_mentions
from neglink.kb import load_kb

FAST = [
    "--preset", "toy",
    "--set", "pos_steps=60",
    "--set", "pos_warmup=5",
    "--set", "hidden_dim=32",
]
FAST_CONFIG = build_config(preset="toy", overrides={"pos_steps": "60", "pos_warmup": "5", "hidden_dim": "32"})


def run(*argv) -> None:
    rc = main(list(argv))
    assert rc == 0, f"exit code {rc} for {argv}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    write_benchmark(gen_benchmark(n_pairs=10, n_train=48, n_test=24, seed=41), data)
    kb = str(data / "kb.jsonl")
    train = str(data / "train.jsonl")
    test = str(data / "test.jsonl")
    cache = str(root / "cache")

    run("kb", "build", "--kb", kb, "--mentions", train, "--mentions", test, "--out", cache)
    run("synth", "--kb", kb, "--cap", "2", "--out-mentions", str(root / "synth.jsonl"))
    run("train-positive", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
        "--out", str(root / "s1.ckpt"))
    run("mine", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
        "--ckpt", str(root / "s1.ckpt"), "--out", str(root / "pairs.jsonl"))
    run("train-negative", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
        "--ckpt", str(root / "s1.ckpt"), "--pairs", str(root / "pairs.jsonl"),
        "--out", str(root / "s2.ckpt"))
    for tag in ("s1", "s2"):
        run("link", *FAST, "--kb", kb, "--mentions", test, "--cache", cache,
            "--ckpt", str(root / f"{tag}.ckpt"), "--out", str(root / f"preds_{tag}.jsonl"))
    return root, kb, train, test, cache


def test_cache_contents(pipeline):
    root, kb, train, test, cache = pipeline
    doc = json.loads(Path(cache, "vocab.json").read_text(encoding="utf-8"))
    assert doc["header"]["tool"] == "neglink"
    assert doc["tokens"][:5] == ["[PAD]", "[BOS]", "[EOS]", "[ST]", "[ET]"]
    assert "kb" in doc["header"]["inputs"]
    info = json.loads(Path(cache, "kb_info.json").read_text(encoding="utf-8"))
    assert info["concepts"] == 20
    assert info["vocab_size"] == len(doc["tokens"])
    assert Path(cache, "trie.bin").exists()


def test_synth_outputs(pipeline):
    root = pipeline[0]
    _, mentions = read_jsonl(root / "synth.jsonl")
    assert mentions
    for rec in mentions:
        assert rec["kind"] in ("definition", "synonym")
        assert rec["targets"] and rec["gold_ids"]


def test_synthetic_pretraining_runs_through_both_stages_and_its_pairs_align(pipeline, tmp_path):
    """README's pre-training recipe: stage 1 on `synth`'s mentions, pairs mined from that model's own top-k on
    them, stage 2 on the pairs, then stage 1 on the task mentions from there."""
    root, kb, train, test, cache = pipeline
    mentions, pairs, p1 = str(root / "synth.jsonl"), str(tmp_path / "synth_pairs.jsonl"), tmp_path / "p1.ckpt"
    inputs = ["--kb", kb, "--cache", cache]
    run("train-positive", *FAST, "--set", "pos_steps=2", *inputs, "--mentions", mentions, "--out", str(p1))
    run("mine", *FAST, *inputs, "--mentions", mentions, "--ckpt", str(p1), "--out", pairs)
    run("train-negative", *FAST, *inputs, "--mentions", mentions, "--ckpt", str(p1), "--pairs", pairs,
        "--out", str(tmp_path / "p2.ckpt"))
    run("train-positive", *FAST, "--set", "pos_steps=2", *inputs, "--mentions", train,
        "--init", str(tmp_path / "p2.ckpt"), "--out", str(tmp_path / "s1.ckpt"))
    assert _header_of(tmp_path / "p2.ckpt")["inputs"]["ckpt"] == artifacts.sha256_file(p1)
    # every pair joins the mention the stages load at its index and keeps the mining rules there, and a rule (c)
    # pair, which no prediction of the mention's top k backs, prefers the mention's target
    knowledge = load_kb(kb)
    examples, dropped = prepare_mentions(mentions, knowledge)
    assert dropped == 0 and len(examples) == len(read_jsonl(mentions)[1])
    header, records = read_jsonl(pairs)
    files = {"kb": kb, "mentions": mentions, "ckpt": p1,
             "vocab": Path(cache, "vocab.json"), "trie": Path(cache, "trie.bin")}
    assert header["inputs"] == {name: artifacts.sha256_file(f) for name, f in files.items()}
    assert records
    for rec in records:
        assert 0 <= rec["mention_index"] < len(examples)
        ex = examples[rec["mention_index"]]
        assert knowledge.align(rec["e_w"]) & ex.gold_ids and not knowledge.align(rec["e_l"]) & ex.gold_ids
        assert rec["rank_l"] is not None and (rec["rank_w"] is not None or rec["e_w"] == ex.targets[0])
    assert any(rec["rank_w"] is None for rec in records)


@pytest.mark.parametrize("lines, message", [
    (["HEADER", "RECORD", "RECORD"], None),
    (["RECORD", "HEADER"], "line 2: record missing 'mention'"),
    (['{"header": {}, "mention": 5, "gold_ids": ["X"]}', "RECORD"], "line 1: 'mention' must be a string, got 5"),
    (['{"mention": "x"}', "RECORD"], "line 1: record missing 'gold_ids'"),
], ids=["header-first", "header-second", "header-and-record-first", "malformed-first"])
def test_a_header_only_line_is_skipped_on_line_1_only(pipeline, tmp_path, caplog, lines, message):
    root, kb, train, test, cache = pipeline
    record = Path(test).read_text(encoding="utf-8").splitlines()[0]
    path = tmp_path / "m.jsonl"
    text = {"HEADER": json.dumps({"header": {"seed": 0}}), "RECORD": record}
    path.write_text("".join(text.get(line, line) + "\n" for line in lines), encoding="utf-8")
    caplog.clear()
    rc = main(["train-positive", *FAST, "--set", "pos_steps=1", "--kb", kb, "--mentions", str(path), "--cache", cache,
               "--out", str(tmp_path / "s1.ckpt")])
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    if message is None:
        assert rc == 0 and errors == []
    else:
        assert rc == 2 and errors == [f"{path}: {message}"]


def test_a_target_of_another_concept_exits_2_before_training(pipeline, tmp_path, caplog):
    root, kb, train, test, cache = pipeline
    records = [json.loads(line) for line in Path(train).read_text(encoding="utf-8").splitlines()]
    gold = set(records[0]["gold_ids"])
    other = next(name for c in map(json.loads, Path(kb).read_text(encoding="utf-8").splitlines())
                 if c["id"] not in gold for name in c["names"])
    records[0]["targets"] = [other]
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    caplog.clear()
    assert main(["train-positive", *FAST, "--kb", kb, "--mentions", str(path), "--cache", cache,
                 "--out", str(tmp_path / "s1.ckpt")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{path}: line 1: target {other!r} aligns to ")
    assert not (tmp_path / "s1.ckpt").exists()


def test_checkpoint_stages_and_losses(pipeline):
    """A checkpoint's container header is its command's header, as its loss log's is; stage 2's names its sources."""
    root = pipeline[0]
    s1 = model.load(root / "s1.ckpt")
    s2 = model.load(root / "s2.ckpt")
    assert s1.vocab == s2.vocab
    for tag, ckpt in (("s1", s1), ("s2", s2)):
        header = _header_of(root / f"{tag}.ckpt")
        assert header.pop("vocab") == list(ckpt.vocab.tokens)
        del header["arrays"], header["data_sha256"]  # the container's own fields
        assert header == _header_of(root / f"{tag}.ckpt.losses.jsonl")
    inputs = _header_of(root / "s2.ckpt")["inputs"]
    assert inputs["ckpt"] == artifacts.sha256_file(root / "s1.ckpt")
    assert inputs["pairs"] == artifacts.sha256_file(root / "pairs.jsonl")
    assert not {"ckpt", "pairs"} & _header_of(root / "s1.ckpt")["inputs"].keys()
    _, log1 = read_jsonl(str(root / "s1.ckpt") + ".losses.jsonl")
    assert len(log1) == 60
    assert all(rec["loss"] > 0 for rec in log1)


def test_mined_pairs_wellformed(pipeline):
    root = pipeline[0]
    _, pairs = read_jsonl(root / "pairs.jsonl")
    assert pairs
    for rec in pairs:
        assert rec["e_w"] != rec["e_l"]
        assert rec["rank_l"] is None or rec["rank_l"] >= 1


def test_prediction_records_wellformed(pipeline):
    root = pipeline[0]
    _, records = read_jsonl(root / "preds_s1.jsonl")
    by_mention: dict[int, list[dict]] = {}
    for rec in records:
        assert set(rec) == {"mention_index", "rank", "name", "ids", "score"}
        by_mention.setdefault(rec["mention_index"], []).append(rec)
    assert set(by_mention) == set(range(24))
    for recs in by_mention.values():
        assert [r["rank"] for r in recs] == list(range(1, len(recs) + 1))
        scores = [r["score"] for r in recs]
        assert scores == sorted(scores, reverse=True)


def test_eval_report_and_stdout(pipeline, capsys):
    root, kb, train, test, cache = pipeline
    out = root / "eval_s2.json"
    run("eval", "--kb", kb, "--mentions", test, "--cache", cache,
        "--preds", str(root / "preds_s2.jsonl"), "--out", str(out))
    stdout = capsys.readouterr().out
    assert "Acc@1 = " in stdout and "Acc@5 = " in stdout
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["report"]["n"] == 24
    acc = doc["report"]["acc_at"]
    assert 0.0 <= acc["1"] <= acc["5"] <= 1.0
    printed = float(stdout.split("Acc@1 = ")[1].split()[0])
    assert printed == pytest.approx(acc["1"], abs=5e-5)


def test_eval_paired_comparison(pipeline, capsys):
    root, kb, train, test, cache = pipeline
    out = root / "eval_cmp.json"
    run("eval", "--kb", kb, "--mentions", test, "--cache", cache,
        "--preds", str(root / "preds_s2.jsonl"), "--preds-b", str(root / "preds_s1.jsonl"),
        "--k", "1", "--out", str(out))
    stdout = capsys.readouterr().out
    assert "mean_diff@1" in stdout
    doc = json.loads(out.read_text(encoding="utf-8"))
    cmp_doc = doc["report"]["comparison"]
    assert 0.0 <= cmp_doc["p_value"] <= 1.0
    assert f"  p = {cmp_doc['p_value']:.3g}  " in stdout
    assert cmp_doc["k"] == 1
    assert f"fixed@1 = {cmp_doc['fixed']}  broken@1 = {cmp_doc['broken']}" in stdout
    n, acc_a, acc_b = doc["report"]["n"], doc["report"]["acc_at"]["1"], cmp_doc["acc_b"]["1"]
    assert cmp_doc["fixed"] - cmp_doc["broken"] == round((acc_a - acc_b) * n)


def test_eval_reports_each_fold_and_their_unweighted_mean(pipeline, tmp_path):
    """Mentions that carry folds: report.json holds each fold's n and accuracies, and their unweighted mean."""
    root, kb, train, test, cache = pipeline
    records = [json.loads(line) for line in Path(test).read_text(encoding="utf-8").splitlines()]
    folds = [None if i % 5 == 4 else [7, 0, 2][i % 3] for i in range(len(records))]  # uneven folds, some unset
    mentions = tmp_path / "folds.jsonl"
    mentions.write_text("".join(json.dumps({**r, "fold": f}) + "\n" for r, f in zip(records, folds)),
                        encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    common = ["--kb", kb, "--mentions", str(mentions), "--cache", cache]
    run("link", *FAST, *common, "--ckpt", str(root / "s1.ckpt"), "--out", str(preds))
    run("eval", *common, "--preds", str(preds), "--k", "3", "--out", str(tmp_path / "report.json"))
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["report"]

    ranks = [None] * len(records)
    for p in sorted(read_jsonl(preds)[1], key=lambda p: (p["mention_index"], p["rank"])):
        i = p["mention_index"]
        if ranks[i] is None and set(p["ids"]) & set(records[i]["gold_ids"]):
            ranks[i] = p["rank"]

    def acc(rows, k):
        return sum(1 for i in rows if ranks[i] is not None and ranks[i] <= k) / len(rows)

    assert report["n"] == len(records)
    per_fold = {}
    for f in sorted({f for f in folds if f is not None}):
        rows = [i for i, g in enumerate(folds) if g == f]
        per_fold[str(f)] = {"n": len(rows), "acc_at": {"1": acc(rows, 1), "3": acc(rows, 3)}}
    assert report["folds"] == per_fold
    assert sorted(per_fold) == ["0", "2", "7"] and len({v["n"] for v in per_fold.values()}) > 1
    assert report["fold_mean"] == {k: sum(v["acc_at"][k] for v in per_fold.values()) / 3 for k in ("1", "3")}


def test_analyze_outputs(pipeline):
    root, kb, train, test, cache = pipeline
    run("analyze", "--kb", kb, "--mentions", test, "--cache", cache,
        "--ckpt", str(root / "s2.ckpt"), "--preds", str(root / "preds_s2.jsonl"),
        "--out-bins", str(root / "bins.jsonl"), "--out-gaps", str(root / "gaps.jsonl"))
    _, bins = read_jsonl(root / "bins.jsonl")
    assert len(bins) == 5
    assert sum(b["count"] for b in bins) == 24
    _, gaps = read_jsonl(root / "gaps.jsonl")
    assert len(gaps) == 10
    assert [g["lo"] for g in gaps] == pytest.approx([i / 10 for i in range(10)])


def test_link_reruns_are_byte_identical(pipeline):
    root, kb, train, test, cache = pipeline
    again = root / "preds_again.jsonl"
    run("link", *FAST, "--kb", kb, "--mentions", test, "--cache", cache,
        "--ckpt", str(root / "s1.ckpt"), "--out", str(again))
    assert again.read_bytes() == (root / "preds_s1.jsonl").read_bytes()


def _header_of(path: Path) -> dict:
    """A binary file's container header (a checkpoint's or trie.bin's), or a text file's first-line header."""
    blob = path.read_bytes()
    if blob[:4] in (model.MAGIC, trie.MAGIC):
        (length,) = struct.unpack_from("<I", blob, 8)
        return json.loads(blob[12 : 12 + length])
    return json.loads(blob.split(b"\n", 1)[0])["header"]


# command -> (its settings, output files under the pipeline root, input files by header name); eval, analyze and
# train-positive --init are run by the test itself, the others by the pipeline fixture.
HEADER_CASES = {
    "kb-build": (RunConfig(), ["cache/vocab.json", "cache/kb_info.json", "cache/trie.bin"],
                 {"kb": "KB", "mentions0": "TRAIN", "mentions1": "TEST"}),
    "synth-mentions": (RunConfig(), ["synth.jsonl"], {"kb": "KB"}),
    "train-positive": (FAST_CONFIG, ["s1.ckpt", "s1.ckpt.losses.jsonl"],
                       {"kb": "KB", "mentions": "TRAIN", "vocab": "VOCAB"}),
    "train-positive-init": (dataclasses.replace(FAST_CONFIG, pos_steps=1), ["init.ckpt", "init.ckpt.losses.jsonl"],
                            {"kb": "KB", "mentions": "TRAIN", "vocab": "VOCAB", "init": "s1.ckpt"}),
    "mine": (FAST_CONFIG, ["pairs.jsonl"],
             {"kb": "KB", "mentions": "TRAIN", "vocab": "VOCAB", "trie": "TRIE", "ckpt": "s1.ckpt"}),
    "train-negative": (FAST_CONFIG, ["s2.ckpt", "s2.ckpt.losses.jsonl"],
                       {"kb": "KB", "mentions": "TRAIN", "vocab": "VOCAB", "ckpt": "s1.ckpt", "pairs": "pairs.jsonl"}),
    "link": (FAST_CONFIG, ["preds_s1.jsonl", "preds_s2.jsonl"],
             {"kb": "KB", "mentions": "TEST", "vocab": "VOCAB", "trie": "TRIE", "ckpt": "s1.ckpt"}),
    "eval": (RunConfig(), ["header_report.json"], {"kb": "KB", "mentions": "TEST", "vocab": "VOCAB",
                                                    "preds": "preds_s2.jsonl", "preds_b": "preds_s1.jsonl"}),
    "analyze": (RunConfig(), ["header_bins.jsonl", "header_gaps.jsonl"],
                {"kb": "KB", "mentions": "TEST", "vocab": "VOCAB", "ckpt": "s2.ckpt", "preds": "preds_s2.jsonl"}),
}


@pytest.mark.parametrize("case", sorted(HEADER_CASES))
def test_every_header_records_the_settings_and_exactly_the_files_read(pipeline, case):
    root, kb, train, test, cache = pipeline
    cfg, outputs, files = HEADER_CASES[case]
    if case == "train-positive-init":
        run("train-positive", *FAST, "--set", "pos_steps=1", "--kb", kb, "--mentions", train, "--cache", cache,
            "--init", str(root / "s1.ckpt"), "--out", str(root / "init.ckpt"))
    elif case == "eval":
        run("eval", "--kb", kb, "--mentions", test, "--cache", cache, "--preds", str(root / "preds_s2.jsonl"),
            "--preds-b", str(root / "preds_s1.jsonl"), "--k", "1", "--out", str(root / "header_report.json"))
    elif case == "analyze":
        run("analyze", "--kb", kb, "--mentions", test, "--cache", cache, "--ckpt", str(root / "s2.ckpt"),
            "--preds", str(root / "preds_s2.jsonl"), "--out-bins", str(root / "header_bins.jsonl"),
            "--out-gaps", str(root / "header_gaps.jsonl"))
    named = {"KB": kb, "TRAIN": train, "TEST": test, "VOCAB": Path(cache, "vocab.json"), "TRIE": Path(cache, "trie.bin")}
    want = {name: artifacts.sha256_file(named.get(f, root / f)) for name, f in files.items()}
    if case == "link":  # each prediction file records the checkpoint it was made with
        want = [want, {**want, "ckpt": artifacts.sha256_file(root / "s2.ckpt")}]
    else:
        want = [want] * len(outputs)
    for out, inputs in zip(outputs, want, strict=True):
        header = _header_of(root / out)
        assert header["inputs"] == inputs, out
        assert header["config"] == dataclasses.asdict(cfg), out
        assert str(root) not in json.dumps(header), out


def test_every_file_the_quick_start_writes_carries_a_command_header(pipeline, tmp_path):
    """Text files in their first line; checkpoints and trie.bin in their container header."""
    root, kb, train, test, cache = pipeline
    inputs = ["--kb", kb, "--mentions", test, "--cache", cache, "--preds", str(root / "preds_s2.jsonl")]
    run("eval", *inputs, "--preds-b", str(root / "preds_s1.jsonl"), "--out", str(tmp_path / "report.json"))
    run("analyze", *inputs, "--ckpt", str(root / "s2.ckpt"),
        "--out-bins", str(tmp_path / "bins.jsonl"), "--out-gaps", str(tmp_path / "gaps.jsonl"))
    written = [p for p in root.rglob("*") if p.is_file() and p.relative_to(root).parts[0] != "data"]
    written += tmp_path.iterdir()
    assert {"vocab.json", "kb_info.json", "trie.bin", "s1.ckpt", "s1.ckpt.losses.jsonl", "pairs.jsonl", "s2.ckpt",
            "s2.ckpt.losses.jsonl", "preds_s1.jsonl", "preds_s2.jsonl", "report.json", "bins.jsonl",
            "gaps.jsonl"} <= {p.name for p in written}
    for path in written:
        header = _header_of(path)
        assert {"tool", "version", "config", "inputs"} <= header.keys(), path
        assert (header["tool"], header["version"]) == ("neglink", neglink.__version__), path


@pytest.mark.parametrize("setting", ["beam=10", "neg_lr=0.25"])
def test_link_headers_differ_by_the_setting_alone(pipeline, tmp_path, setting):
    """A wider beam may change the predictions; a setting `link` does not read changes the header line only."""
    root, kb, train, test, cache = pipeline
    out = tmp_path / "preds.jsonl"
    run("link", *FAST, "--set", setting, "--kb", kb, "--mentions", test, "--cache", cache,
        "--ckpt", str(root / "s1.ckpt"), "--out", str(out))
    other, default = out.read_text(encoding="utf-8").splitlines(), (root / "preds_s1.jsonl").read_text().splitlines()
    key, _, value = setting.partition("=")
    header, default_header = json.loads(other[0])["header"], json.loads(default[0])["header"]
    assert header["config"][key] == float(value) != default_header["config"][key]
    header["config"][key] = default_header["config"][key]
    assert header == default_header
    if key == "neg_lr":
        assert other[1:] == default[1:]


def test_a_trie_built_from_another_kb_exit_2_naming_it(pipeline, tmp_path, caplog):
    """A cache whose trie.bin comes from another KB: without the check, every name links to no KB concept."""
    root, kb, train, test, cache = pipeline
    write_benchmark(gen_benchmark(n_pairs=10, n_train=48, n_test=24, seed=5), tmp_path / "other")
    run("kb", "build", "--kb", str(tmp_path / "other" / "kb.jsonl"), "--mentions", train, "--mentions", test,
        "--out", str(tmp_path / "other_cache"))
    mixed = tmp_path / "mixed"
    shutil.copytree(cache, mixed)
    shutil.copy(tmp_path / "other_cache" / "trie.bin", mixed / "trie.bin")
    n_vocab = len(json.loads((mixed / "vocab.json").read_text(encoding="utf-8"))["tokens"])
    assert trie.load_trie(mixed / "trie.bin").max_token < n_vocab  # the token bound alone lets it through
    inputs = ["--kb", kb, "--cache", str(mixed), "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "out")]
    for argv in (["link", *FAST, *inputs, "--mentions", test], ["mine", *FAST, *inputs, "--mentions", train]):
        caplog.clear()
        assert main(argv) == 2, argv
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{mixed / 'trie.bin'}: written for another kb file: its header's digest differs from {kb}'s"]
    assert not (tmp_path / "out").exists()


def test_a_vocab_built_from_another_kb_exit_2_naming_it(pipeline, tmp_path, caplog):
    """A cache whose vocab.json comes from another KB: without the check, a command reads it as this KB's."""
    root, kb, train, test, cache = pipeline
    write_benchmark(gen_benchmark(n_pairs=10, n_train=48, n_test=24, seed=5), tmp_path / "other")
    run("kb", "build", "--kb", str(tmp_path / "other" / "kb.jsonl"), "--mentions", train, "--mentions", test,
        "--out", str(tmp_path / "other_cache"))
    mixed = tmp_path / "mixed"
    shutil.copytree(cache, mixed)
    shutil.copy(tmp_path / "other_cache" / "vocab.json", mixed / "vocab.json")
    inputs = ["--kb", kb, "--cache", str(mixed), "--out", str(tmp_path / "out")]
    for argv in (["train-positive", *FAST, *inputs, "--mentions", train],
                 ["link", *FAST, *inputs, "--mentions", test, "--ckpt", str(root / "s1.ckpt")],
                 ["eval", *inputs, "--mentions", test, "--preds", str(root / "preds_s1.jsonl")]):
        caplog.clear()
        assert main(argv) == 2, argv
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{mixed / 'vocab.json'}: written for another kb file: its header's digest differs from {kb}'s"]
    assert not (tmp_path / "out").exists()


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "0", "--coords", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3  # cross-entropy plus the dpo and cpo preference losses
    assert all(line.endswith("ok") for line in lines)


def test_usage_and_version_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["link", "--preset", "ncbi"]) == 1  # `toy` is the one preset
    assert "invalid choice: 'ncbi'" in capsys.readouterr().err


def test_missing_inputs_exit_2(pipeline, tmp_path, caplog):
    root, kb, train, test, cache = pipeline
    nope = str(tmp_path / "nope")
    inputs = ["--kb", kb, "--mentions", test, "--cache", cache]
    for argv in (
        ["kb", "build", "--kb", nope, "--out", str(tmp_path / "c")],
        ["link", *FAST, "--kb", kb, "--mentions", test, "--cache", nope,
         "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")],
        ["link", *FAST, *inputs, "--ckpt", nope, "--out", str(tmp_path / "p.jsonl")],
        ["train-negative", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
         "--ckpt", str(root / "s1.ckpt"), "--pairs", nope, "--out", str(tmp_path / "s2.ckpt")],
        ["eval", *inputs, "--preds", nope, "--out", str(tmp_path / "eval.json")],
    ):
        caplog.clear()
        assert main(argv) == 2, argv
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and nope in errors[0].getMessage(), argv
        assert errors[0].exc_info is None
    assert [p.name for p in tmp_path.iterdir()] == []


def test_only_the_searching_commands_read_the_trie(pipeline, tmp_path, caplog):
    root, kb, train, test, cache = pipeline
    no_trie = tmp_path / "cache"
    shutil.copytree(cache, no_trie)
    (no_trie / "trie.bin").unlink()
    out = tmp_path / "out"
    out.mkdir()
    inputs = ["--kb", kb, "--cache", str(no_trie)]
    s1, preds = ["--ckpt", str(root / "s1.ckpt")], ["--preds", str(root / "preds_s1.jsonl")]
    for argv in (
        ["synth", "--kb", kb, "--cap", "1", "--out-mentions", str(out / "m.jsonl")],
        ["train-positive", *FAST, "--set", "pos_steps=2", *inputs, "--mentions", train, "--out", str(out / "a.ckpt")],
        ["train-negative", *FAST, *inputs, "--mentions", train, *s1, "--pairs", str(root / "pairs.jsonl"),
         "--out", str(out / "b.ckpt")],
        ["eval", *inputs, "--mentions", test, *preds, "--out", str(out / "eval.json")],
        ["analyze", *inputs, "--mentions", test, *s1, *preds,
         "--out-bins", str(out / "bins.jsonl"), "--out-gaps", str(out / "gaps.jsonl")],
    ):
        run(*argv)
    for argv in (
        ["link", *FAST, *inputs, "--mentions", test, *s1, "--out", str(tmp_path / "preds.jsonl")],
        ["mine", *FAST, *inputs, "--mentions", train, *s1, "--out", str(tmp_path / "pairs.jsonl")],
    ):
        caplog.clear()
        assert main(argv) == 2, argv
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(no_trie / "trie.bin") in errors[0].getMessage(), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "out"]


# What the error names for the settings that stage 2 no longer has.
REMOVED_SETTING_MESSAGES = {
    "loss=pairwise": "('dpo', 'cpo')",
    "loss=simpo": "('dpo', 'cpo')",
    "simpo_gamma=0.5": "unknown config key",
    "weight_decay=0.1": "unknown config key",
}


@pytest.mark.parametrize("command, extra", [
    ("link", ["--set", "beam=2", "--set", "topk=5"]),
    ("mine", ["--set", "topk=1"]),
    ("mine", ["--set", "negatives=tfidf"]),
    ("train-positive", ["--set", "syn_topk=0"]),
    ("eval-b", ["--resamples", "1"]),
    ("eval", ["--k", "0"]),
    ("synth", ["--cap", "0"]),
    ("train-positive", ["--set", "beta=nan"]),
    ("gradcheck", ["--coords", "0"]),
    ("gradcheck", ["--tol", "nan"]),
    ("gradcheck", ["--seeds", "-1"]),
    ("link", ["--set", "max_ctx=-3"]),
    ("link", ["--set", "syn_topk=0"]),
    ("link", ["--set", "hidden_dim=1"]),
    ("link", ["--set", "negatives=bogus"]),
    ("link", ["--set", "pairs=bogus"]),
    ("train-positive", ["--set", "seed=-1"]),
    ("link", ["--set", "loss=pairwise"]),
    ("link", ["--set", "loss=simpo"]),
    ("link", ["--set", "simpo_gamma=0.5"]),
    ("train-positive", ["--set", "weight_decay=0.1"]),
], ids=["beam-under-topk", "topk-1", "negatives-unknown", "syn_topk-0", "resamples-1", "k-0", "synth-cap-0",
        "beta-nan", "gradcheck-coords-0", "gradcheck-tol-nan", "gradcheck-seed-negative",
        "link-max_ctx-negative", "link-syn_topk-0", "link-hidden_dim-1", "link-negatives-bogus", "link-pairs-bogus",
        "seed-negative", "link-loss-pairwise", "link-loss-simpo", "link-simpo_gamma-gone",
        "weight_decay-gone"])
def test_bad_run_settings_exit_2(pipeline, tmp_path, caplog, command, extra):
    root, kb, train, test, cache = pipeline
    inputs = ["--kb", kb, "--cache", cache, "--out", str(tmp_path / "out")]
    ckpt = ["--ckpt", str(root / "s1.ckpt")]
    argv = {
        "link": ["link", *FAST, *inputs, "--mentions", test, *ckpt],
        "mine": ["mine", *FAST, *inputs, "--mentions", train, *ckpt],
        "train-positive": ["train-positive", *FAST, *inputs, "--mentions", train],
        "eval-b": ["eval", *inputs, "--mentions", test, "--preds", str(root / "preds_s2.jsonl"),
                   "--preds-b", str(root / "preds_s1.jsonl")],
        "eval": ["eval", *inputs, "--mentions", test, "--preds", str(root / "preds_s2.jsonl")],
        "synth": ["synth", "--kb", kb, "--out-mentions", str(tmp_path / "m.jsonl")],
        "gradcheck": ["gradcheck"],
    }[command]
    caplog.clear()
    assert main(argv + extra) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0].getMessage() and errors[0].exc_info is None
    if extra[0] == "--set" and len(extra) == 2:
        assert extra[1].partition("=")[0] in errors[0].getMessage()
    assert REMOVED_SETTING_MESSAGES.get(extra[-1], "") in errors[0].getMessage()
    assert list(tmp_path.iterdir()) == []


def test_kb_name_over_the_trie_depth_limit_exit_2(tmp_path):
    kb = tmp_path / "kb.jsonl"
    kb.write_text(json.dumps({"id": "X1", "names": ["ab" * 2500]}) + "\n", encoding="utf-8")
    assert main(["kb", "build", "--kb", str(kb), "--out", str(tmp_path / "c")]) == 2


def test_bad_override_exit_2(pipeline, tmp_path):
    root, kb, train, test, cache = pipeline
    base = ["train-positive", "--kb", kb, "--mentions", train, "--cache", cache,
            "--out", str(tmp_path / "x.ckpt")]
    assert main(base + ["--set", "pos_steps"]) == 2        # not key=value
    assert main(base + ["--set", "no_such_key=1"]) == 2    # unknown key
    assert main(base + ["--set", "pos_steps=abc"]) == 2    # not an int


def test_vocab_mismatch_exit_2(pipeline, tmp_path):
    root = pipeline[0]
    kb2 = tmp_path / "kb2.jsonl"
    kb2.write_text(json.dumps({"id": "X1", "names": ["zq9x", "zq9y"]}) + "\n", encoding="utf-8")
    mentions2 = tmp_path / "m2.jsonl"
    mentions2.write_text(
        json.dumps({"left": "", "mention": "zq9x", "right": "", "gold_ids": ["X1"]}) + "\n",
        encoding="utf-8",
    )
    cache2 = tmp_path / "cache2"
    run("kb", "build", "--kb", str(kb2), "--mentions", str(mentions2), "--out", str(cache2))
    rc = main(["mine", "--kb", str(kb2), "--mentions", str(mentions2), "--cache", str(cache2),
               "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2


def test_mention_outside_the_cache_vocabulary_exit_2_naming_it(pipeline, tmp_path, caplog):
    root, kb, _, test, cache = pipeline
    record = json.loads(Path(test).read_text(encoding="utf-8").splitlines()[0])
    record["mention"] += " ж"
    mentions = tmp_path / "m.jsonl"
    mentions.write_text(json.dumps(record) + "\n", encoding="utf-8")
    caplog.clear()
    assert main(["link", *FAST, "--kb", kb, "--mentions", str(mentions), "--cache", cache,
                 "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")]) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert repr(record["mention"]) in error and "'ж' not in vocabulary" in error
    assert "not built from this text" in error and "kb build --mentions" in error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def test_mention_just_over_the_input_bound_exit_2_naming_it(pipeline, tmp_path, caplog):
    root, kb, _, test, cache = pipeline
    record = json.loads(Path(test).read_text(encoding="utf-8").splitlines()[0])
    char = record["mention"].lower()[0]
    # No context: [BOS] [ST] mention [ET] [EOS] is one token over the bound.
    record.update(left="", right="", mention=char * (MAX_INPUT_TOKENS - 3))
    mentions = tmp_path / "m.jsonl"
    mentions.write_text(json.dumps(record) + "\n", encoding="utf-8")
    caplog.clear()
    assert main(["link", *FAST, "--kb", kb, "--mentions", str(mentions), "--cache", cache,
                 "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")]) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == (f"mention {char * 60!r}... ({MAX_INPUT_TOKENS - 3} characters): rendered input of "
                     f"{MAX_INPUT_TOKENS + 1} tokens, over the bound of {MAX_INPUT_TOKENS}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def test_malformed_cache_vocab_exit_2(pipeline, tmp_path):
    root, kb, train, test, cache = pipeline
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    for doc in ('{"x": 1}', '["a"]', '{"tokens": "abc"}', '{"tokens": [1, 2]}', "{not json"):
        (bad_cache / "vocab.json").write_text(doc, encoding="utf-8")
        rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", str(bad_cache),
                   "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2, doc


def _v1_checkpoint(src: Path, dst: Path) -> None:
    """`src` rewritten in the version-1 layout: an `opt_step` in the header, here null (no moments)."""
    blob = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    header["opt_step"] = None
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    dst.write_bytes(model.MAGIC + struct.pack("<II", 1, len(raw)) + raw + blob[12 + header_len :])


def _node_stream_trie(version: int, dst: Path) -> None:
    """A trie holding the one name [5, 6] in the node-stream layout of format 1 or 2.

    Each node is [u8 terminal][u32 child count], each child [u32 token id][node],
    in preorder. Format 1 puts a length-prefixed JSON metadata block before the nodes.
    """
    nodes = struct.pack("<BI", 0, 1) + struct.pack("<IBI", 5, 0, 1) + struct.pack("<IBI", 6, 1, 0)
    meta = b'{"names":1}'
    head = struct.pack("<II", 1, len(meta)) + meta if version == 1 else struct.pack("<I", 2)
    dst.write_bytes(trie.MAGIC + head + nodes)


@pytest.mark.parametrize("artifact", ["checkpoint", "trie"])
def test_version_1_artifacts_exit_2(pipeline, tmp_path, caplog, artifact):
    root, kb, train, test, cache = pipeline
    ckpt, old_cache = root / "s1.ckpt", Path(cache)
    if artifact == "checkpoint":
        ckpt = tmp_path / "v1.ckpt"
        _v1_checkpoint(root / "s1.ckpt", ckpt)
    else:
        old_cache = tmp_path / "cache"
        shutil.copytree(cache, old_cache)
        _node_stream_trie(1, old_cache / "trie.bin")
    caplog.clear()
    rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", str(old_cache),
               "--ckpt", str(ckpt), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    path = ckpt if artifact == "checkpoint" else old_cache / "trie.bin"
    assert errors == [f"{path}: unsupported {artifact} format version 1"]


def _old_checkpoint(src: Path, dst: Path, version: int) -> None:
    """`src` rewritten in the layout of format 2 or 3: a `config` block in the header and no digest.

    Format 2 also stores each fused gate array `*g` as its halves `*z` and `*r`.
    """
    ckpt = model.load(src)
    params = {}
    for name, arr in ckpt.params.items():
        if version == 2 and name.endswith("g"):
            params[name[:-1] + "z"], params[name[:-1] + "r"] = np.hsplit(arr, 2)
        else:
            params[name] = arr
    names = sorted(params)
    offsets = np.cumsum([0] + [params[name].size * 8 for name in names]).tolist()
    header = {
        "arrays": [{"name": n, "shape": list(params[n].shape), "offset": o} for n, o in zip(names, offsets)],
        "config": {"hidden_dim": params["emb"].shape[1], "seed": 0},
        "stage": "positive",
        "vocab": list(ckpt.vocab.tokens),
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    data = b"".join(np.ascontiguousarray(params[name], dtype="<f8").tobytes() for name in names)
    dst.write_bytes(model.MAGIC + struct.pack("<II", version, len(raw)) + raw + data)


@pytest.mark.parametrize("version", [2, 3])
def test_format_2_and_3_checkpoints_exit_2(pipeline, tmp_path, caplog, version):
    root, kb, train, test, cache = pipeline
    ckpt = tmp_path / f"v{version}.ckpt"
    _old_checkpoint(root / "s1.ckpt", ckpt, version)
    caplog.clear()
    rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", cache,
               "--ckpt", str(ckpt), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{ckpt}: unsupported checkpoint format version {version}"]


@pytest.mark.parametrize("version", [2, 3])
def test_format_2_and_3_tries_exit_2(pipeline, tmp_path, caplog, version):
    root, kb, train, test, cache = pipeline
    old_cache = tmp_path / "cache"
    shutil.copytree(cache, old_cache)
    if version == 2:
        _node_stream_trie(2, old_cache / "trie.bin")
    else:  # the name count, then each name as its token count and token ids: here the one name [5, 6]
        (old_cache / "trie.bin").write_bytes(trie.MAGIC + struct.pack("<5I", 3, 1, 2, 5, 6))
    caplog.clear()
    rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", str(old_cache),
               "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{old_cache / 'trie.bin'}: unsupported trie format version {version}"]


@pytest.mark.parametrize("field, value", [("vocab", 5), ("vocab", None)])
def test_mistyped_checkpoint_header_field_exit_2(pipeline, tmp_path, caplog, field, value):
    root, kb, train, test, cache = pipeline
    ckpt = model.load(root / "s1.ckpt")
    header = {field: value}
    bad = tmp_path / "bad.ckpt"
    artifacts.write_arrays(bad, model.MAGIC, model.FORMAT_VERSION, header, ckpt.params, "<f8")
    caplog.clear()
    rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", cache,
               "--ckpt", str(bad), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{bad}: ") and field in errors[0], errors


def _train_from_init(pipeline, out: Path, *settings: str) -> int:
    root, kb, train, test, cache = pipeline
    return main(["train-positive", *FAST, "--set", "pos_steps=1", *settings, "--kb", kb, "--mentions", train,
                 "--cache", cache, "--init", str(root / "s1.ckpt"), "--out", str(out)])


def test_init_checkpoint_of_another_width_exit_2(pipeline, tmp_path, caplog):
    caplog.clear()
    assert _train_from_init(pipeline, tmp_path / "s1b.ckpt", "--set", "hidden_dim=16") == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{pipeline[0] / 's1.ckpt'}: checkpoint hidden size 32 differs from hidden_dim 16"]
    assert list(tmp_path.iterdir()) == []


def test_init_checkpoint_of_the_same_width_trains_on_from_it(pipeline, tmp_path):
    out = tmp_path / "s1b.ckpt"
    assert _train_from_init(pipeline, out, "--set", "hidden_dim=32") == 0
    start, trained = model.load(pipeline[0] / "s1.ckpt"), model.load(out)
    assert trained.params["emb"].shape == start.params["emb"].shape
    # one warmup step moves every parameter far less than a fresh draw would
    assert 0 < max(float(np.abs(trained.params[k] - a).max()) for k, a in start.params.items()) < 1e-2


def test_trie_token_id_outside_the_vocabulary_exit_2(pipeline, tmp_path, caplog):
    root, kb, train, test, cache = pipeline
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    n_vocab = len(json.loads((bad_cache / "vocab.json").read_text(encoding="utf-8"))["tokens"])
    bad = trie.TokenTrie()
    bad.insert([5, 999])
    assert n_vocab < 999
    trie.save_trie(bad, bad_cache / "trie.bin")
    caplog.clear()
    rc = main(["link", *FAST, "--kb", kb, "--mentions", test, "--cache", str(bad_cache),
               "--ckpt", str(root / "s1.ckpt"), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "999" in message and str(bad_cache / "trie.bin") in message and "\n" not in message
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("command, record", [
    ("train-negative", {"mention_index": "3", "e_w": "a", "e_l": "b", "rank_w": 1, "rank_l": 2}),
    ("eval", {"mention_index": 0, "rank": 1, "name": "a", "ids": [], "score": "abc"}),
    ("eval", [0, 1, "a", [], -1.0]),
])
def test_malformed_record_exit_2(pipeline, tmp_path, caplog, command, record):
    root, kb, train, test, cache = pipeline
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"header": {}}) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    inputs = ["--kb", kb, "--cache", cache, "--out", str(tmp_path / "out")]
    if command == "train-negative":
        argv = ["train-negative", *FAST, *inputs, "--mentions", train,
                "--ckpt", str(root / "s1.ckpt"), "--pairs", str(bad)]
    else:
        argv = ["eval", *inputs, "--mentions", test, "--preds", str(bad)]
    caplog.clear()
    assert main(argv) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(bad) in errors[0].getMessage()
    assert "\n" not in errors[0].getMessage() and errors[0].exc_info is None
    # the records' types are checked before the header's digests, which `{}` lacks
    if isinstance(record, dict):
        key = "mention_index" if command == "train-negative" else "score"
        assert f"line 2: {key!r} must be a" in errors[0].getMessage()
    else:
        assert "line 2: expected a JSON object" in errors[0].getMessage()


@pytest.mark.parametrize("target", ["kb", "mentions", "abbrev", "config", "vocab", "preds", "pairs"])
def test_non_utf8_input_exit_2_naming_the_file_and_byte(pipeline, tmp_path, caplog, target):
    root, kb, train, test, cache = pipeline
    good = {
        "kb": Path(kb).read_bytes(),
        "mentions": Path(test).read_bytes(),
        "abbrev": b"mi\tmyocardial infarction\nht\thypertension\n",
        "config": b"seed = 3\nbeam = 5\n",
        "vocab": Path(cache, "vocab.json").read_bytes(),
        "preds": (root / "preds_s1.jsonl").read_bytes(),
        "pairs": (root / "pairs.jsonl").read_bytes(),
    }[target]
    offset = len(good) if target == "vocab" else good.index(b"\n") + 3  # inside line 2, or appended
    data = good[:offset] + (b"\xff" if target == "vocab" else b"\xe9") + good[offset:]
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    bad = bad_cache / "vocab.json" if target == "vocab" else tmp_path / f"bad_{target}"
    bad.write_bytes(data)
    paths = {"kb": kb, "mentions": test, "cache": str(bad_cache), target: str(bad)}
    inputs = ["--kb", paths["kb"], "--mentions", paths["mentions"], "--cache", paths["cache"]]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "kb": ["kb", "build", "--kb", paths["kb"], *out],
        "mentions": ["link", *FAST, *inputs, "--ckpt", str(root / "s1.ckpt"), *out],
        "abbrev": ["kb", "build", "--kb", kb, "--mentions", test, "--abbrev", str(bad), *out],
        "config": ["kb", "build", "--config", str(bad), "--kb", kb, *out],
        "vocab": ["link", *FAST, *inputs, "--ckpt", str(root / "s1.ckpt"), *out],
        "preds": ["eval", *inputs, "--preds", str(bad), *out],
        "pairs": ["train-negative", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
                  "--ckpt", str(root / "s1.ckpt"), "--pairs", str(bad), *out],
    }[target]
    caplog.clear()
    assert main(argv) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert str(bad) in message and f"offset {offset}" in message and "\n" not in message
    assert not (tmp_path / "out").exists()


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's neglink."""
    src = str(Path(neglink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_unloaded():
    # SciPy is a test-only dependency, and it takes longer to import than all of neglink.
    out = _python("import neglink.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_eval_preds_b_runs_without_scipy(pipeline, tmp_path):
    root, kb, train, test, cache = pipeline
    argv = ["eval", "--kb", kb, "--mentions", test, "--cache", cache, "--preds", str(root / "preds_s2.jsonl"),
            "--preds-b", str(root / "preds_s1.jsonl"), "--k", "1", "--out"]
    run(*argv, str(tmp_path / "with_scipy.json"))
    blocked = argv + [str(tmp_path / "without_scipy.json")]
    out = _python(f"import sys; sys.modules['scipy'] = None; from neglink.cli import main; sys.exit(main({blocked!r}))")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "without_scipy.json").read_bytes() == (tmp_path / "with_scipy.json").read_bytes()


def _edited_predictions(src: Path, dst: Path, case: str) -> None:
    """A copy of a predictions file cut to its first mentions, with a record repeated or a rank gap, or with one
    mention's list edited to break a rule of `link`'s: a name outside the KB, a name twice, a score that rises."""
    header, *records = src.read_text(encoding="utf-8").splitlines(keepends=True)
    first = [json.loads(r) for r in records[:3]]
    assert [(r["mention_index"], r["rank"]) for r in first] == [(0, 1), (0, 2), (0, 3)]
    if case == "truncated":
        records = [r for r in records if json.loads(r)["mention_index"] < 20]
    elif case == "duplicated":
        records = records[:3] + records[2:]
    elif case == "rank_gap":
        records = records[:1] + records[2:]
    else:
        if case == "unknown_name":
            first[0]["name"] += first[0]["name"][-1]
        elif case == "repeated_name":
            first[2]["name"] = first[1]["name"]
        else:
            first[1]["score"] = first[0]["score"] + 1.0
        records[:3] = [json.dumps(r) + "\n" for r in first]
    dst.write_text(header + "".join(records), encoding="utf-8")


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("case", ["truncated", "duplicated", "rank_gap", "unknown_name", "repeated_name",
                                  "rising_score"])
def test_incomplete_predictions_exit_2(pipeline, tmp_path, caplog, command, case):
    root, kb, train, test, cache = pipeline
    bad = tmp_path / "preds.jsonl"
    _edited_predictions(root / "preds_s2.jsonl", bad, case)
    inputs = ["--kb", kb, "--mentions", test, "--cache", cache, "--preds", str(bad)]
    if command == "eval":
        argv = ["eval", *inputs, "--out", str(tmp_path / "eval.json")]
    else:
        argv = ["analyze", *inputs, "--ckpt", str(root / "s2.ckpt"),
                "--out-bins", str(tmp_path / "bins.jsonl"), "--out-gaps", str(tmp_path / "gaps.jsonl")]
    caplog.clear()
    assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{bad}: ") and "mention_index" in errors[0], errors
    assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]


@pytest.fixture(scope="module")
def other_inputs(pipeline, tmp_path_factory):
    """A KB with one more concept and its cache, s1's predictions for the first 24 train mentions, and a 2-step
    stage-1 checkpoint other than s1."""
    root, kb, train, test, cache = pipeline
    other = tmp_path_factory.mktemp("other")
    kb2, mentions2, preds2 = other / "kb.jsonl", other / "mentions.jsonl", other / "preds.jsonl"
    kb2.write_bytes(Path(kb).read_bytes() + b'{"id": "EXTRA", "names": ["xyz"]}\n')
    mentions2.write_bytes(b"".join(Path(train).read_bytes().splitlines(keepends=True)[:24]))
    run("link", *FAST, "--kb", kb, "--mentions", str(mentions2), "--cache", cache,
        "--ckpt", str(root / "s1.ckpt"), "--out", str(preds2))
    run("kb", "build", "--kb", str(kb2), "--mentions", train, "--mentions", test, "--out", str(other / "cache"))
    run("train-positive", *FAST, "--set", "pos_steps=2", "--kb", kb, "--mentions", train, "--cache", cache,
        "--out", str(other / "other.ckpt"))
    return {"kb": str(kb2), "cache": str(other / "cache"), "preds": str(preds2), "ckpt": str(other / "other.ckpt")}


@pytest.mark.parametrize("case", ["pairs-mentions", "pairs-kb", "pairs-ckpt", "preds", "preds-b", "analyze-ckpt"])
def test_a_file_written_for_other_inputs_exit_2_naming_it(pipeline, other_inputs, tmp_path, caplog, case):
    root, kb, train, test, cache = pipeline
    longer = tmp_path / "longer.jsonl"  # train's 48 mentions and 24 more: every mention_index is in range
    longer.write_bytes(Path(train).read_bytes() + Path(test).read_bytes())
    pairs, preds = str(root / "pairs.jsonl"), str(root / "preds_s2.jsonl")
    out = ["--out", str(tmp_path / "out")]
    s1 = ["--ckpt", str(root / "s1.ckpt")]
    train_negative = ["train-negative", *FAST, "--pairs", pairs, *out]
    evaluate = ["eval", "--kb", kb, "--mentions", test, "--cache", cache, *out]
    argv, named = {
        "pairs-mentions": (train_negative + [*s1, "--kb", kb, "--cache", cache, "--mentions", str(longer)], pairs),
        "pairs-kb": (train_negative + [*s1, "--kb", other_inputs["kb"], "--cache", other_inputs["cache"],
                                       "--mentions", train], pairs),
        # stage 2 would train against a model, and use it as the dpo reference, that did not mine the pairs
        "pairs-ckpt": (train_negative + ["--ckpt", other_inputs["ckpt"], "--kb", kb, "--cache", cache,
                                         "--mentions", train], pairs),
        # as many mentions as the predictions cover, but other ones
        "preds": (evaluate + ["--preds", other_inputs["preds"]], other_inputs["preds"]),
        "preds-b": (evaluate + ["--preds", preds, "--preds-b", other_inputs["preds"]], other_inputs["preds"]),
        # the gap report would subtract s2's scores in the file from scores that s1 computes
        "analyze-ckpt": (["analyze", "--kb", kb, "--mentions", test, "--cache", cache, *s1, "--preds", preds,
                          "--out-bins", str(tmp_path / "bins"), "--out-gaps", str(tmp_path / "gaps")], preds),
    }[case]
    caplog.clear()
    assert main(argv) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert message.startswith(f"{named}: written for another ") and "digest differs" in message and "\n" not in message
    assert [p.name for p in tmp_path.iterdir()] == ["longer.jsonl"]


def test_a_pair_name_outside_the_vocabulary_exit_2_when_the_pairs_are_read(pipeline, tmp_path, caplog):
    root, kb, train, test, cache = pipeline
    header, *records = (root / "pairs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(records[-1])
    rec["e_l"] += "Q"
    bad = tmp_path / "pairs.jsonl"
    bad.write_text(header + "".join(records[:-1]) + json.dumps(rec) + "\n", encoding="utf-8")
    caplog.clear()
    assert main(["train-negative", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
                 "--ckpt", str(root / "s1.ckpt"), "--pairs", str(bad), "--out", str(tmp_path / "s2.ckpt")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{bad}: pair {rec['e_w']!r} vs {rec['e_l']!r} of mention_index {rec['mention_index']}: "
                      "character 'Q' not in vocabulary"]
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]


def _break_the_mining_rules(case: str, rec: dict, kb, gold: frozenset) -> None:
    """Edit the pair `rec`, whose mention has the gold ids `gold`, so that it breaks one mining rule."""
    if case == "same-name":
        rec["e_l"] = rec["e_w"]
    elif case == "non-gold-e_w":
        rec["e_w"] = next(n for n in kb.names() if not kb.align(n) & gold and n != rec["e_l"])
    elif case == "gold-e_l":
        rec["e_l"] = next(n for n in kb.synonyms(gold) if n != rec["e_w"])
    else:
        rec["e_l"] += rec["e_l"][-1]
        assert rec["e_l"] not in kb.name_index


@pytest.mark.parametrize("case", ["same-name", "non-gold-e_w", "gold-e_l", "e_l-outside-the-kb", "duplicated"])
def test_pairs_that_break_the_mining_rules_exit_2_naming_the_mention(pipeline, tmp_path, caplog, case):
    root, kb, train, test, cache = pipeline
    header, *records = (root / "pairs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    if case == "duplicated":
        rec = json.loads(records[0])
        records += records
        want = f"mention {rec['mention_index']}: pair {rec['e_w']!r} vs {rec['e_l']!r} appears twice"
    else:
        rec = json.loads(records[-1])
        knowledge = load_kb(kb)
        gold = prepare_mentions(train, knowledge)[0][rec["mention_index"]].gold_ids
        _break_the_mining_rules(case, rec, knowledge, gold)
        records[-1] = json.dumps(rec) + "\n"
        want = f"mention {rec['mention_index']}: mined triplet violates invariants: {rec['e_w']!r} vs {rec['e_l']!r}"
    bad = tmp_path / "pairs.jsonl"
    bad.write_text(header + "".join(records), encoding="utf-8")
    caplog.clear()
    assert main(["train-negative", *FAST, "--kb", kb, "--mentions", train, "--cache", cache,
                 "--ckpt", str(root / "s1.ckpt"), "--pairs", str(bad), "--out", str(tmp_path / "s2.ckpt")]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"{bad}: {want}"]
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]


def test_a_pair_repeated_under_a_mention_that_renders_the_same_exit_2(pipeline, tmp_path, caplog):
    """`mine` writes a pair once for two mentions that render to the same input, and `train-negative` rejects the
    file that repeats it under the second one."""
    root, kb, train, test, cache = pipeline
    lines = Path(train).read_text(encoding="utf-8").splitlines(keepends=True)
    j = json.loads((root / "pairs.jsonl").read_text(encoding="utf-8").splitlines()[1])["mention_index"]
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("".join(lines + [lines[j]]), encoding="utf-8")
    assert len(prepare_mentions(mentions, load_kb(kb))[0]) == len(lines) + 1
    inputs = ["--kb", kb, "--mentions", str(mentions), "--cache", cache, "--ckpt", str(root / "s1.ckpt")]
    bad = tmp_path / "pairs.jsonl"
    run("mine", *FAST, *inputs, "--out", str(bad))
    header, *records = bad.read_text(encoding="utf-8").splitlines(keepends=True)
    assert all(json.loads(r)["mention_index"] < len(lines) for r in records)
    rec = json.loads(records[0])
    assert rec["mention_index"] == j
    rec["mention_index"] = len(lines)
    bad.write_text(header + "".join(records) + json.dumps(rec) + "\n", encoding="utf-8")
    caplog.clear()
    assert main(["train-negative", *FAST, *inputs, "--pairs", str(bad), "--out", str(tmp_path / "s2.ckpt")]) == 2
    want = f"{bad}: mention {len(lines)}: pair {rec['e_w']!r} vs {rec['e_l']!r} appears twice"
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [want]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mentions.jsonl", "pairs.jsonl"]


def test_headers_record_the_command_options_that_change_an_output(pipeline, tmp_path):
    """`eval --resamples` changes the p-value, so two runs that differ in it differ in their header line."""
    root, kb, train, test, cache = pipeline
    headers = []
    for resamples in ("100", "50"):
        out = tmp_path / f"report_{resamples}.json"
        run("eval", "--kb", kb, "--mentions", test, "--cache", cache, "--preds", str(root / "preds_s2.jsonl"),
            "--preds-b", str(root / "preds_s1.jsonl"), "--resamples", resamples, "--out", str(out))
        headers.append(_header_of(out))
    assert [h["options"] for h in headers] == [{"k": 5, "resamples": 100}, {"k": 5, "resamples": 50}]
    assert {**headers[0], "options": None} == {**headers[1], "options": None}
    assert _header_of(root / "synth.jsonl")["options"] == {"cap": 2}
    assert "options" not in _header_of(root / "pairs.jsonl")


class FakeLibc:
    """A libc whose mallopt does nothing and whose malloc_trim, when it has one, records its calls."""

    def __init__(self, trim: bool):
        self.trims: list[int] = []
        self.mallopt = lambda param, value: 1
        if trim:
            self.malloc_trim = lambda pad: self.trims.append(pad) or 1


def test_runs_where_libc_cannot_be_loaded(tmp_path, monkeypatch):
    def no_libc(*args, **kwargs):
        raise OSError("no libc here")

    kb = tmp_path / "kb.jsonl"
    kb.write_text(json.dumps({"id": "X1", "names": ["alpha", "beta"]}) + "\n", encoding="utf-8")
    for i, cdll in enumerate([no_libc, lambda *a, **kw: FakeLibc(trim=False)]):  # no libc, then no malloc_trim
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        run("kb", "build", "--kb", str(kb), "--out", str(tmp_path / f"cache{i}"))
        assert (tmp_path / f"cache{i}" / "trie.bin").exists()

    # With malloc_trim, the heap a command kept is released when it returns, whatever its exit code.
    libc = FakeLibc(trim=True)
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **kw: libc)
    run("kb", "build", "--kb", str(kb), "--out", str(tmp_path / "cache2"))
    assert libc.trims == [0]
    assert main(["kb", "build", "--kb", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "cache3")]) == 2
    assert libc.trims == [0, 0]
