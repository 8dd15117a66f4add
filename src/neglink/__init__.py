"""Negative-aware generative entity linking at desk scale.

Train a compact encoder-decoder scorer to generate knowledge-base entity
names for mentions: first on TF-IDF-selected positive synonyms, then on
preference pairs mined from the model's own constrained-beam mistakes.
Decoding is restricted by a prefix trie so every output is a KB name.
"""

from . import workers  # noqa: F401  # pins numpy's OpenBLAS to one thread, once per process

__version__ = "0.1.0"
