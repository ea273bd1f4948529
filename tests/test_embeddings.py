"""Vector file parsing and OOV n-gram composition."""

import numpy as np
import pytest

from danqa.corpus import build_vocab, QAPair
from danqa.embeddings import char_ngrams, init_table, load_vectors
from danqa.errors import ConfigError, ValidationError


def write_vectors(path, rows, header=None):
    lines = []
    if header:
        lines.append(header)
    for token, vec in rows:
        lines.append(token + " " + " ".join(str(v) for v in vec))
    path.write_text("\n".join(lines) + "\n")


def vocab_of(*tokens):
    pair = QAPair("1", "p", list(tokens), [], None, "compat")
    return build_vocab([pair])


class TestLoadVectors:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("cat", [1, 2, 3]), ("dog", [4, 5, 6])])
        vectors = load_vectors(path, 3)
        assert len(vectors.words) == 2
        np.testing.assert_array_equal(vectors.words["cat"], [1, 2, 3])

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("cat", [1, 2, 3]), ("dog", [4, 5, 6])],
                      header="2 3")
        assert len(load_vectors(path, 3).words) == 2

    def test_wrong_component_count_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("cat", [1.0] * 3), ("dog", [1.0] * 2)])
        with pytest.raises(ValidationError, match="line 2"):
            load_vectors(path, 3)

    def test_header_dimension_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("cat", [1, 2, 3])], header="1 3")
        with pytest.raises(ConfigError):
            load_vectors(path, 4)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.0 oops 3.0\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_vectors(path, 3)

    def test_trailing_whitespace_accepted(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 3 \ncat 1 2 3 \ndog 4 5 6\t\n")
        vectors = load_vectors(path, 3)
        np.testing.assert_array_equal(vectors.words["cat"], [1, 2, 3])
        np.testing.assert_array_equal(vectors.words["dog"], [4, 5, 6])

    def test_component_count_ignores_trailing_whitespace(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("foo 0.1 0.2 0.3 \n")
        with pytest.raises(ValidationError,
                           match="line 1: expected 4 components, got 3"):
            load_vectors(path, 4)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_component_reports_line(self, tmp_path, bad):
        path = tmp_path / "v.txt"
        path.write_text(f"cat 1.0 2.0 3.0\ndog 1.0 {bad} 3.0\n")
        with pytest.raises(ValidationError,
                           match=f"{path} line 2: non-finite"):
            load_vectors(path, 3)


class TestCharNgrams:
    def test_boundary_marked(self):
        grams = char_ngrams("cat")
        assert "<ca" in grams and "at>" in grams and "<cat>" in grams
        assert all(3 <= len(g) <= 6 for g in grams)


class TestInitTable:
    def test_random_fallback_reproducible(self):
        vocab = vocab_of("alpha", "beta")
        t1 = init_table(vocab, None, 6, seed=3).table.data
        t2 = init_table(vocab, None, 6, seed=3).table.data
        np.testing.assert_array_equal(t1, t2)
        assert np.any(t1 != 0.0)

    def test_pad_column_zero(self):
        vocab = vocab_of("alpha")
        table = init_table(vocab, None, 5, seed=0).table.data
        np.testing.assert_array_equal(table[:, 0], np.zeros(5))

    def test_exact_match_copied(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("alpha", [1, 2, 3, 4])])
        vocab = vocab_of("alpha", "missing")
        vectors = load_vectors(path, 4)
        table = init_table(vocab, vectors, 4, seed=1).table.data
        np.testing.assert_array_equal(table[:, vocab.index("alpha")],
                                      [1, 2, 3, 4])

    def test_oov_uses_ngram_mean(self, tmp_path):
        wpath, gpath = tmp_path / "w.txt", tmp_path / "g.txt"
        write_vectors(wpath, [("other", [9, 9])])
        # token "ab" -> marked "<ab>" -> 3-grams "<ab", "ab>", 4-gram "<ab>"
        write_vectors(gpath, [("<ab", [1.0, 0.0]), ("ab>", [0.0, 1.0]),
                              ("<ab>", [2.0, 2.0])])
        vocab = vocab_of("ab")
        vectors = load_vectors(wpath, 2, ngram_path=gpath)
        table = init_table(vocab, vectors, 2, seed=2).table.data
        np.testing.assert_allclose(table[:, vocab.index("ab")], [1.0, 1.0])

    def test_exact_match_not_perturbed_by_ngrams(self, tmp_path):
        wpath, gpath = tmp_path / "w.txt", tmp_path / "g.txt"
        write_vectors(wpath, [("ab", [5.0, 5.0])])
        write_vectors(gpath, [("<ab", [1.0, 0.0])])
        vocab = vocab_of("ab")
        vectors = load_vectors(wpath, 2, ngram_path=gpath)
        table = init_table(vocab, vectors, 2, seed=4).table.data
        np.testing.assert_array_equal(table[:, vocab.index("ab")], [5.0, 5.0])

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("cat", [1, 2, 3])])
        vectors = load_vectors(path, 3)
        with pytest.raises(ConfigError):
            init_table(vocab_of("cat"), vectors, 4, seed=0)

    def test_column_count_matches_vocab(self):
        vocab = vocab_of("a", "b", "c")
        table = init_table(vocab, None, 4, seed=5)
        assert table.table.shape == (4, vocab.size)
