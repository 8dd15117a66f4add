"""Mention datasets: loading, preprocessing, and input rendering.

A mention example is a text span with left/right context and a gold
identifier set. Preprocessing lowercases, expands abbreviations through a
user-supplied dictionary (whole-word, longest key first), and collapses
whitespace. Rendering produces the encoder token sequence
[BOS] left [ST] mention [ET] right [EOS] and the decoder prompt
[BOS] mention " is", neither longer than MAX_INPUT_TOKENS.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from . import artifacts
from .errors import MentionFormatError, VocabError
from .kb import KnowledgeBase, normalize_name
from .tfidf import rank_synonyms
from .vocab import Vocab

PROMPT_SUFFIX = " is"
# Longest rendered encoder input or prompt, in tokens. A batch pads every
# row to its longest, so one long mention would cost each row its length.
MAX_INPUT_TOKENS = 4096


@dataclass(frozen=True)
class MentionExample:
    left_context: str
    mention: str
    right_context: str
    gold_ids: frozenset[str]
    fold: int | None = None
    # Optional explicit generation targets (KB names). Set by the KB-derived
    # synthetic data generator, where the target is chosen per template rather
    # than by mention similarity. Human-annotated files normally omit it.
    targets: tuple[str, ...] | None = None


def preferred_names(ex: MentionExample, kb: KnowledgeBase, k: int) -> list[str]:
    """The KB names `ex` should generate, best first: its first k `targets` when it has them, else its k gold
    synonyms most similar to the mention. Stage 1 trains on them, and mining and the gap report prefer the first."""
    if ex.targets is not None:
        return list(ex.targets[:k])
    return rank_synonyms(ex.mention, kb.synonyms(ex.gold_ids), k, kb.tfidf)


@dataclass(frozen=True)
class EncodedInput:
    """Token ids for the encoder and the decoder prompt prefix."""

    encoder_tokens: tuple[int, ...]
    prompt_tokens: tuple[int, ...]


# A mention record's keys and their JSON kinds (see artifacts.read_records).
_RECORD_KINDS = {"left": "a string or null", "mention": "a string", "right": "a string or null",
                 "gold_ids": "a list of strings", "fold": "an integer or null", "targets": "a list of strings or null"}


def read_mentions(path: str | Path) -> Iterator[tuple[int, MentionExample]]:
    """(line number, example) for each record of a line-delimited JSON mention file, in file order.

    Each line: {"left": str?, "mention": str, "right": str?,
    "gold_ids": [str, ...], "fold": int?, "targets": [str, ...]?}.
    """
    records = artifacts.read_records(path, _RECORD_KINDS, MentionFormatError)
    for lineno, (left, mention, right, gold, fold, targets) in records:
        if not mention.strip():
            raise MentionFormatError(f"{path}: line {lineno}: empty 'mention'")
        if not gold:
            raise MentionFormatError(f"{path}: line {lineno}: empty 'gold_ids'")
        if targets == []:  # `preferred_names` would give the mention no name to generate
            raise MentionFormatError(f"{path}: line {lineno}: empty 'targets'")
        targets = None if targets is None else tuple(targets)
        yield lineno, MentionExample(left or "", mention, right or "", frozenset(gold), fold, targets)


def load_abbreviations(path: str | Path) -> dict[str, str]:
    """Two-column tab-separated short<TAB>long file; both sides normalized."""
    table: dict[str, str] = {}
    for lineno, line in artifacts.read_lines(path, MentionFormatError):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MentionFormatError(f"{path}: line {lineno}: expected short<TAB>long")
        short, long = normalize_name(parts[0]), normalize_name(parts[1])
        if not short or not long:
            raise MentionFormatError(f"{path}: line {lineno}: empty abbreviation entry")
        table[short] = long
    return table


@functools.lru_cache(maxsize=8)
def _abbreviation_pattern(keys: tuple[str, ...]) -> re.Pattern[str]:
    # Longest key first so overlapping keys resolve deterministically;
    # lookarounds give whole-word semantics even for keys with edge symbols.
    ordered = sorted(keys, key=lambda k: (-len(k), k))
    return re.compile("(?<!\\w)(?:" + "|".join(map(re.escape, ordered)) + ")(?!\\w)")


def _expand(text: str, abbrev: dict[str, str]) -> str:
    if not abbrev:
        return text
    # The pattern is built once per table, not once per text.
    return _abbreviation_pattern(tuple(abbrev)).sub(lambda m: abbrev[m.group(0)], text)


def preprocess(ex: MentionExample, abbrev: dict[str, str] | None = None) -> MentionExample:
    """Lowercase, expand abbreviations whole-word, collapse whitespace."""
    abbrev = abbrev or {}

    def clean(text: str) -> str:
        return normalize_name(_expand(text.lower(), abbrev))

    return MentionExample(
        clean(ex.left_context), clean(ex.mention), clean(ex.right_context), ex.gold_ids, ex.fold, ex.targets
    )


def filter_linkable(
    examples: list[MentionExample], kb: KnowledgeBase
) -> tuple[list[MentionExample], int]:
    """Keep examples whose every gold id exists in the KB."""
    kept = [ex for ex in examples if ex.gold_ids and ex.gold_ids <= kb.concepts.keys()]
    return kept, len(examples) - len(kept)


def render(ex: MentionExample, vocab: Vocab, max_ctx: int) -> EncodedInput:
    """Token sequences for one preprocessed example.

    Context is clipped to the `max_ctx` characters adjacent to the mention:
    the tail of the left context and the head of the right context. A
    sequence over MAX_INPUT_TOKENS raises MentionFormatError.
    """
    left = ex.left_context[-max_ctx:] if max_ctx > 0 else ""
    right = ex.right_context[:max_ctx] if max_ctx > 0 else ""
    try:
        encoder = (
            [vocab.bos_id]
            + vocab.encode_chars(left)
            + [vocab.st_id]
            + vocab.encode_chars(ex.mention)
            + [vocab.et_id]
            + vocab.encode_chars(right)
            + [vocab.eos_id]
        )
        prompt = [vocab.bos_id] + vocab.encode_chars(ex.mention + PROMPT_SUFFIX)
    except VocabError as e:
        raise VocabError(f"mention {_shown(ex.mention)}: {e}; the cache vocabulary was not built from this text "
                         "(list its file in `kb build --mentions`)") from None
    if len(encoder) > MAX_INPUT_TOKENS:  # never shorter than the prompt: both add 4 tokens to the mention
        raise MentionFormatError(f"mention {_shown(ex.mention)}: rendered input of {len(encoder)} tokens, "
                                 f"over the bound of {MAX_INPUT_TOKENS}")
    return EncodedInput(encoder_tokens=tuple(encoder), prompt_tokens=tuple(prompt))


def _shown(mention: str) -> str:
    """A mention as an error message names it: quoted, its first 60 characters and its length when longer."""
    return repr(mention) if len(mention) <= 60 else f"{mention[:60]!r}... ({len(mention)} characters)"


def prepare_mentions(
    mentions_path: str | Path,
    kb: KnowledgeBase,
    abbrev_path: str | Path | None = None,
) -> tuple[list[MentionExample], int]:
    """Load -> preprocess -> filter pipeline used by every CLI stage.

    Downstream artifacts refer to examples by index into the returned list,
    so all stages must call this with identical inputs. Every target must
    be a name of `kb` that aligns to a gold id of its mention.
    """
    abbrev = load_abbreviations(abbrev_path) if abbrev_path else {}
    records = list(read_mentions(mentions_path))
    for lineno, ex in records:
        for name in ex.targets or ():
            ids = kb.align(name)
            if not ids & ex.gold_ids:
                why = f"aligns to {sorted(ids)}, not to a gold id" if ids else "is not a KB name"
                raise MentionFormatError(f"{mentions_path}: line {lineno}: target {name!r:.60} {why}")
    return filter_linkable([preprocess(ex, abbrev) for _, ex in records], kb)
