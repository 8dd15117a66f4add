"""End-to-end command-line pipeline on a small generated benchmark.

The heavy lifting happens once in a module-scoped fixture; the individual
tests inspect the artifacts it leaves behind and probe the error paths.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from neglink import model
from neglink.artifacts import read_jsonl
from neglink.benchmark import gen_benchmark, write_benchmark
from neglink.cli import main

FAST = [
    "--preset", "toy",
    "--set", "pos_steps=60",
    "--set", "pos_warmup=5",
    "--set", "hidden_dim=32",
]


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
    run("synth", "--kb", kb, "--cache", cache, "--cap", "2",
        "--out-mentions", str(root / "synth.jsonl"),
        "--out-pairs", str(root / "synth_pairs.jsonl"))
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
    _, pairs = read_jsonl(root / "synth_pairs.jsonl")
    assert pairs
    for rec in pairs:
        assert rec["e_w"] != rec["e_l"]
        assert 0 <= rec["mention_index"] < len(mentions)


def test_checkpoint_stages_and_losses(pipeline):
    root = pipeline[0]
    s1 = model.load(root / "s1.ckpt")
    s2 = model.load(root / "s2.ckpt")
    assert s1.stage == "positive"
    assert s2.stage == "negative"
    assert s1.vocab == s2.vocab
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
    assert cmp_doc["k"] == 1


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


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seeds", "0", "--coords", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 5  # cross-entropy plus the four preference losses
    assert all(line.endswith("ok") for line in lines)


def test_usage_and_version_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_inputs_exit_2(tmp_path):
    rc = main(["kb", "build", "--kb", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "c")])
    assert rc == 2


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
