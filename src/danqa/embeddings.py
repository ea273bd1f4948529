"""Pretrained word-vector loading and character n-gram OOV composition.

Vector files are space-separated text: one token followed by its finite
components per line, with an optional "count dim" header; trailing
whitespace, which fastText .vec files have, is ignored. N-gram files use
the same format with boundary-marked gram strings (the token is wrapped in
'<' and '>' before grams are taken).
"""

from __future__ import annotations

import numpy as np

from . import layers
from .errors import ConfigError, ValidationError

NGRAM_MIN = 3
NGRAM_MAX = 6


class PretrainedVectors:
    def __init__(self, words: dict, dim: int, ngrams: dict | None = None):
        self.words = words
        self.dim = dim
        self.ngrams = ngrams


def _parse_vector_file(path, expected_dim: int) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if not line.strip():
                continue
            if first:
                first = False
                if len(parts) == 2:
                    # header: vector count and dimension
                    try:
                        count, dim = int(parts[0]), int(parts[1])
                    except ValueError:
                        raise ValidationError(
                            f"{path} line {lineno}: malformed header"
                        ) from None
                    if dim != expected_dim:
                        raise ConfigError(
                            f"{path}: header dimension {dim} != expected "
                            f"{expected_dim}"
                        )
                    continue
            if len(parts) != expected_dim + 1:
                raise ValidationError(
                    f"{path} line {lineno}: expected {expected_dim} components, "
                    f"got {len(parts) - 1}"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise ValidationError(
                    f"{path} line {lineno}: non-numeric vector component"
                ) from None
            if not np.isfinite(vec).all():
                raise ValidationError(
                    f"{path} line {lineno}: non-finite vector component")
            out[parts[0]] = vec
    return out


def load_vectors(path, expected_dim: int, ngram_path=None) -> PretrainedVectors:
    words = _parse_vector_file(path, expected_dim)
    ngrams = _parse_vector_file(ngram_path, expected_dim) if ngram_path else None
    return PretrainedVectors(words, expected_dim, ngrams)


def char_ngrams(token: str):
    """Boundary-marked character n-grams of a token, in scan order."""
    marked = f"<{token}>"
    grams = []
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        for i in range(len(marked) - n + 1):
            grams.append(marked[i:i + n])
    return grams


def init_table(vocab, vectors: PretrainedVectors | None, dim: int,
               seed: int) -> layers.EmbeddingTable:
    """Trainable embedding table (dim, V): exact matches, then n-gram means,
    then random columns.

    The PAD column is zero; every decision is deterministic given
    (vocab, vectors, seed) because the random fallback for every column is
    drawn up front from a single seeded stream.
    """
    if vectors is not None and vectors.dim != dim:
        raise ConfigError(f"vector dimension {vectors.dim} != requested {dim}")
    rng = np.random.default_rng(seed)
    table = layers.glorot(rng, dim, vocab.size)
    table[:, 0] = 0.0
    if vectors is not None:
        for i, token in enumerate(vocab.tokens):
            if i == 0:
                continue
            vec = vectors.words.get(token)
            if vec is not None:
                table[:, i] = vec
                continue
            if vectors.ngrams:
                hits = [vectors.ngrams[g] for g in char_ngrams(token)
                        if g in vectors.ngrams]
                if hits:
                    table[:, i] = np.mean(hits, axis=0)
    return layers.EmbeddingTable(table)
