"""Seeded pretrained-vector and character-n-gram files for ``--vectors``.

The files use the text format ``danqa.embeddings`` reads: a ``count dim``
header, then one ``token v1 .. vd`` line per entry, single spaces between
fields and no space at the end of a line.

The corpus vocabulary is split three ways by the seed: most tokens get an
exact vector; some are left out of the vector file and get n-gram entries
instead, so the loader composes their vectors from n-grams; the rest get
neither. The vector file also carries some tokens the corpus never uses.
"""

from __future__ import annotations

import numpy as np

NGRAM_MIN, NGRAM_MAX = 3, 6  # the n-gram lengths danqa composes with
NGRAM_SHARE = 0.25           # of the vocabulary, left to n-gram composition
MISSING_SHARE = 0.10         # of the vocabulary, in neither file
EXTRA_WORDS = 200            # vector-file tokens that the corpus never uses


def char_ngrams(token: str) -> list:
    marked = f"<{token}>"
    return [marked[i:i + n] for n in range(NGRAM_MIN, NGRAM_MAX + 1)
            for i in range(len(marked) - n + 1)]


def _write(path, entries: dict, dim: int):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(entries)} {dim}\n")
        for key, vec in entries.items():
            fh.write(key + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def write_vector_files(tokens, dim: int, seed: int, vectors_path,
                       ngrams_path) -> dict:
    """Write both files for ``tokens``; returns the sizes for the report."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(tokens))
    n_gram = int(round(NGRAM_SHARE * len(tokens)))
    n_missing = int(round(MISSING_SHARE * len(tokens)))
    gram_only = [tokens[i] for i in order[:n_gram]]
    exact = [tokens[i] for i in order[n_gram + n_missing:]]

    words = {tok: rng.normal(0.0, 0.1, dim) for tok in exact}
    for k in range(EXTRA_WORDS):
        words[f"extra{k:04d}"] = rng.normal(0.0, 0.1, dim)
    grams = {}
    for tok in gram_only:
        for gram in char_ngrams(tok):
            if gram not in grams:
                grams[gram] = rng.normal(0.0, 0.1, dim)
    _write(vectors_path, words, dim)
    _write(ngrams_path, grams, dim)
    return {"vocab_tokens": len(tokens), "exact": len(exact),
            "ngram_only": len(gram_only),
            "neither": len(tokens) - len(exact) - len(gram_only),
            "vector_lines": len(words), "ngram_lines": len(grams)}
