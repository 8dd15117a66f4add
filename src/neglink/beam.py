"""Trie-constrained beam search over KB names.

The decoder first consumes the prompt tokens (forced, their log-prob is
accumulated into every hypothesis as a shared constant, so ranking is
unaffected), then generates under the trie mask: at each step a hypothesis
may only extend with tokens that keep it a prefix of some KB name, and may
only emit EOS where a name ends. Scores are raw summed log-probs with no
length normalization. All ties break lexicographically on the decoded
name, so results are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .corpus import EncodedInput
from .kb import KnowledgeBase
from .model import Checkpoint, log_softmax
from .trie import TokenTrie, TrieNode


@dataclass(frozen=True)
class Prediction:
    name: str
    ids: frozenset[str]
    score: float


@dataclass
class _Hyp:
    score: float
    tokens: tuple[int, ...]
    text: str
    node: TrieNode
    state: np.ndarray
    logp: np.ndarray  # log-distribution over the next token


def prompt_log_prob(ckpt: Checkpoint, enc_input: EncodedInput):
    """Consume the whole prompt in one teacher-forced decoder pass.

    Returns (state after the prompt, next-token log-distribution, encoder
    summary, accumulated prompt log-prob). The log-prob sums, in order, the
    log-probs of prompt tokens 2..n; the first token is given, not predicted.
    """
    prompt = list(enc_input.prompt_tokens)
    if not prompt:
        raise ValueError("empty prompt")
    summary = model.encode(enc_input.encoder_tokens, ckpt)
    tokens = np.array([prompt])
    hidden, _ = model.decoder_forward(ckpt, tokens, np.ones(tokens.shape), summary[None, :])
    logp = log_softmax(hidden[0] @ ckpt.params["out_W"] + ckpt.params["out_b"], axis=1)
    score = 0.0
    for j in range(len(prompt) - 1):
        score += float(logp[j, prompt[j + 1]])
    return hidden[0, -1], logp[-1], summary, score


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
    if not (beam >= k >= 1):
        raise ValueError(f"need beam >= k >= 1, got beam={beam} k={k}")
    eos = ckpt.vocab.eos_id
    state, logp, summary, base = prompt_log_prob(ckpt, enc_input)
    active = [_Hyp(score=base, tokens=(), text="", node=trie.root, state=state, logp=logp)]
    finished: list[tuple[float, str]] = []
    max_steps = trie.max_depth() + 1
    for _ in range(max_steps):
        if not active:
            break
        # Expand every hypothesis over its legal tokens; EOS candidates
        # finish immediately and do not compete for beam slots.
        grown: list[tuple[float, str, _Hyp, int]] = []
        for hyp in active:
            if hyp.node.terminal:
                finished.append((hyp.score + float(hyp.logp[eos]), hyp.text))
            for tok in sorted(hyp.node.children):
                cand_score = hyp.score + float(hyp.logp[tok])
                grown.append((cand_score, hyp.text + ckpt.vocab.token(tok), hyp, tok))
        grown.sort(key=lambda c: (-c[0], c[1]))
        grown = grown[:beam]
        if not grown:
            break
        states = np.stack([c[2].state for c in grown])
        tokens = np.array([c[3] for c in grown])
        summaries = np.broadcast_to(summary, states.shape)
        new_states, logits = model.step_batch(states, tokens, summaries, ckpt)
        logps = log_softmax(logits, axis=1)
        active = [
            _Hyp(
                score=score,
                tokens=parent.tokens + (tok,),
                text=text,
                node=parent.node.children[tok],
                state=new_states[i],
                logp=logps[i],
            )
            for i, (score, text, parent, tok) in enumerate(grown)
        ]
    else:
        if active:
            raise RuntimeError("beam search exceeded the trie depth bound")
    finished.sort(key=lambda f: (-f[0], f[1]))
    return [Prediction(name=name, ids=kb.align(name), score=score) for score, name in finished[:k]]


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
    entity = model._validate_entity(entity_tokens, ckpt.vocab.eos_id)
    pad = ckpt.vocab.pad_id
    enc_tokens, enc_mask = model.pad_batch([list(enc_input.encoder_tokens)], pad)
    dec_tokens, dec_mask, targets, _ = model.build_decoder_batch([list(enc_input.prompt_tokens)], [entity], pad)
    cache = model.forward_teacher(ckpt, enc_tokens, enc_mask, dec_tokens, dec_mask)
    return float(model.sequence_log_probs(cache, targets, dec_mask)[0])


def name_tokens(name: str, vocab) -> list[int]:
    """Character tokens of a KB name terminated with EOS."""
    return vocab.encode_chars(name) + [vocab.eos_id]
