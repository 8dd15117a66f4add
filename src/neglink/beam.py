"""Trie-constrained beam search over KB names.

The decoder first consumes the prompt tokens (forced, their log-prob is
accumulated into every hypothesis as a shared constant, so ranking is
unaffected), then generates under the trie mask: at each step a hypothesis
may only extend with tokens that keep it a prefix of some KB name, and may
only emit EOS where a name ends. Scores are raw summed log-probs with no
length normalization. All ties break lexicographically on the decoded
name, so results are fully deterministic.

Mentions are searched in chunks: one `model.forward_pairs` prompt pass per
chunk, then one decoder step per depth over every live hypothesis of every
mention in it. Each mention keeps its own beam, so batching changes no
ranking; scores may differ from a batch of one in their last bits. The
chunks are independent, so `workers.map_split` searches contiguous runs of
them in forked processes, one per usable CPU, with results identical to
searching every chunk in one process.

A decoder step reads the input tables that the chunk's prompt pass built
(`model.InputTables`): its input projections are gathered by token and by
mention, with no matmul over the inputs. Trie children are kept in
ascending token order, so hypotheses expand in that order without sorting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .corpus import EncodedInput
from .errors import ConfigError, VocabError
from .kb import KnowledgeBase
from .model import Checkpoint, log_softmax
from .trie import TokenTrie
from .workers import map_split


@dataclass(frozen=True)
class Prediction:
    name: str
    ids: frozenset[str]
    score: float


# Mentions per batched search. Chunks of 16 to 300 search the toy test set
# equally fast; the encoder keeps seven (T, CHUNK, d) float64 arrays, so a
# small chunk keeps the link stage's peak memory low.
CHUNK = 32


def prompt_log_prob(ckpt: Checkpoint, inputs: list[EncodedInput]):
    """Encode a batch of inputs and consume their prompts in one teacher-forced pass.

    Returns (states after each prompt (B, d), next-token log-distributions
    (B, V), the decoder's input tables over the encoder summaries, prompt
    log-probs list). A prompt's log-prob is `model.sequence_log_probs` over
    its tokens 2..n; the first token is given, not predicted. With the
    entity [EOS], the decoder reads just the prompt and the target mask
    marks only its last position.
    """
    eos = ckpt.vocab.eos_id
    cache, targets, last_mask = model.forward_pairs(ckpt, inputs, [[eos]] * len(inputs))
    logp, picked = model.target_log_probs(cache.logits, targets)
    scores = model.sequence_log_probs(picked, cache.dec.mask - last_mask)
    last, rows = last_mask.argmax(axis=1), np.arange(len(inputs))
    return cache.dec.H[last, rows], logp[rows, last], cache.dec.tables, scores.tolist()


def _check_search(ckpt: Checkpoint, trie: TokenTrie, beam: int, k: int) -> None:
    """Once per search: the widths, and every trie token inside the checkpoint's vocabulary."""
    if not (beam >= k >= 1):
        raise ConfigError(f"need beam >= k >= 1, got beam={beam} k={k}")
    if trie.max_token >= len(ckpt.vocab):
        raise VocabError(f"trie token id {trie.max_token} outside vocabulary of size {len(ckpt.vocab)}")


def constrained_beam_search(
    ckpt: Checkpoint,
    enc_input: EncodedInput,
    trie: TokenTrie,
    kb: KnowledgeBase,
    beam: int = 5,
    k: int = 5,
) -> list[Prediction]:
    """Top-k KB names by total log-prob under the trie constraint.

    Returns fewer than k predictions only when fewer names are reachable.
    """
    _check_search(ckpt, trie, beam, k)
    return _search(ckpt, [enc_input], trie, kb, beam, k)[0]


def constrained_beam_search_batch(
    ckpt: Checkpoint,
    inputs: list[EncodedInput],
    trie: TokenTrie,
    kb: KnowledgeBase,
    beam: int = 5,
    k: int = 5,
) -> list[list[Prediction]]:
    """`constrained_beam_search` for every input, searched CHUNK mentions at a time."""
    _check_search(ckpt, trie, beam, k)
    chunks = [inputs[start : start + CHUNK] for start in range(0, len(inputs), CHUNK)]
    return [preds for done in map_split(lambda chunk: _search(ckpt, chunk, trie, kb, beam, k), chunks)
            for preds in done]


def _search(ckpt, inputs, trie, kb, beam, k) -> list[list[Prediction]]:
    """Beam search for a batch of mentions with one decoder step per depth.

    A hypothesis is (cost, text, trie node, row): `cost` is minus its
    score, so sorting (cost, text) tuples ranks by score with ties by name,
    and no two candidates of a mention share a text. `row` indexes the last
    step's output, from which the next step gathers its state. The step
    reads each hypothesis's mention's row of the prompt pass's tables.
    """
    eos = ckpt.vocab.eos_id
    chars = ckpt.vocab.tokens
    states, logps, tables, bases = prompt_log_prob(ckpt, inputs)
    lp_rows = logps.tolist()
    active = [[(-base, "", trie.root, i)] for i, base in enumerate(bases)]
    finished: list[list[tuple[float, str]]] = [[] for _ in inputs]
    for _ in range(trie.max_depth() + 1):
        parents: list[int] = []
        tokens: list[int] = []
        owners: list[int] = []
        for m, hyps in enumerate(active):
            # Expand every hypothesis over its legal tokens; EOS candidates
            # finish immediately and do not compete for beam slots.
            grown = []
            for cost, text, node, row in hyps:
                lp = lp_rows[row]
                if node.terminal:
                    finished[m].append((cost - lp[eos], text))
                for tok, child in node.children.items():
                    grown.append((cost - lp[tok], text + chars[tok], child, row, tok))
            grown.sort()
            del grown[beam:]
            kept = []
            for cost, text, node, row, tok in grown:
                kept.append((cost, text, node, len(parents)))
                parents.append(row)
                tokens.append(tok)
                owners.append(m)
            active[m] = kept
        if not parents:
            break
        rows, toks, mentions = np.array(parents + tokens + owners).reshape(3, -1)
        states, logits = model.step_batch(states[rows], toks, mentions, tables, ckpt)
        lp_rows = log_softmax(logits, axis=1).tolist()
    else:
        if any(active):
            raise RuntimeError("beam search exceeded the trie depth bound")
    out = []
    for done in finished:
        done.sort()
        out.append([Prediction(name=name, ids=kb.align(name), score=-cost) for cost, name in done[:k]])
    return out


def rank_of_gold(predictions: list[Prediction], gold_ids) -> int | None:
    """1-based rank of the first prediction linked to any gold id."""
    gold = frozenset(gold_ids)
    for rank, pred in enumerate(predictions, start=1):
        if pred.ids & gold:
            return rank
    return None


def sequence_score(ckpt: Checkpoint, enc_input: EncodedInput, entity_tokens) -> float:
    """Prompt log-prob plus entity log-prob: comparable to Prediction.score.

    One teacher-forced pass with every decoder position scored, so the sum
    covers prompt tokens 2..n and then the entity, as a beam hypothesis does.
    """
    cache, targets, _ = model.forward_pairs(ckpt, [enc_input], [entity_tokens])
    return float(model.sequence_log_probs(model.target_log_probs(cache.logits, targets)[1], cache.dec.mask)[0])


def name_tokens(name: str, vocab) -> list[int]:
    """Character tokens of a KB name terminated with EOS."""
    return vocab.encode_chars(name) + [vocab.eos_id]
