import json

import numpy as np
import pytest

from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.initializer import (
    InitReport,
    init_foreign_bias,
    init_foreign_embeddings,
    random_init,
)
from langxfer.translation import dictionary_translation_matrix

from helpers import translation_matrix_from_rows


def source_embeddings(n=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_tokens([f"e{i}" for i in range(n)])
    return EmbeddingMatrix(vocab, rng.normal(0, 1, (n + NUM_SPECIALS, d)).astype(np.float32))


def empty_rows(n):
    return [[] for _ in range(n)]


def loop_init_embeddings(rows, src_emb, n_tgt, seed):
    """Oracle: the row-by-row initializer that the CSR version replaced."""
    d = src_emb.dim
    out = np.zeros((n_tgt, d), dtype=np.float32)
    out[:NUM_SPECIALS] = src_emb.data[:NUM_SPECIALS]
    for i in range(NUM_SPECIALS, n_tgt):
        if rows[i]:
            acc = np.zeros(d, dtype=np.float64)
            for j, w in rows[i]:
                acc += w * src_emb.data[j].astype(np.float64)
            out[i] = acc.astype(np.float32)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
            out[i] = rng.normal(0.0, 1.0 / d, size=d).astype(np.float32)
    return out


def loop_init_bias(rows, src_bias, n_tgt):
    """Oracle: the row-by-row bias initializer that the CSR version replaced."""
    out = np.zeros(n_tgt, dtype=src_bias.dtype)
    out[:NUM_SPECIALS] = src_bias[:NUM_SPECIALS]
    for i in range(NUM_SPECIALS, n_tgt):
        for j, w in rows[i]:
            out[i] += w * src_bias[j]
    return out


def random_rows(rng, n_tgt, n_src):
    """Translation rows mixing empty, one-hot and dense convex rows; a
    special row carries entries that initialization must ignore."""
    rows = empty_rows(NUM_SPECIALS)
    rows[0] = [(NUM_SPECIALS, 1.0)]
    for _ in range(n_tgt):
        kind = rng.integers(3)
        if kind == 0:
            rows.append([])
            continue
        k = 1 if kind == 1 else int(rng.integers(2, min(40, n_src)))
        cols = np.sort(rng.choice(np.arange(NUM_SPECIALS, n_src + NUM_SPECIALS),
                                  size=k, replace=False))
        weights = rng.dirichlet(np.ones(k))
        rows.append([(int(c), float(w)) for c, w in zip(cols, weights)])
    return rows


class TestInitForeignEmbeddings:
    def test_one_hot_row_copies_exactly(self):
        src = source_embeddings()
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        tm = dictionary_translation_matrix([(NUM_SPECIALS, 7)], tgt_vocab, src.vocab)
        emb, report = init_foreign_embeddings(tm, src, tgt_vocab, seed=0)
        assert np.array_equal(emb.data[NUM_SPECIALS], src.data[7])
        assert report.covered == 1 and report.fallback == 0

    def test_convex_combination(self):
        src_vocab = Vocabulary.from_tokens(["e0", "e1"])
        src = EmbeddingMatrix(
            src_vocab,
            np.vstack([np.zeros((NUM_SPECIALS, 2)), [[1.0, 0.0], [0.0, 1.0]]]).astype(
                np.float32
            ),
        )
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        rows = empty_rows(NUM_SPECIALS) + [[(NUM_SPECIALS, 0.5), (NUM_SPECIALS + 1, 0.5)]]
        emb, _ = init_foreign_embeddings(translation_matrix_from_rows(rows), src, tgt_vocab,
                                         seed=0)
        np.testing.assert_allclose(emb.data[NUM_SPECIALS], [0.5, 0.5], atol=1e-7)

    def test_gaussian_fallback_variance(self):
        d = 768
        src = source_embeddings(n=4, d=d)
        tgt_vocab = Vocabulary.from_tokens(["uncovered"])
        tm = translation_matrix_from_rows(empty_rows(NUM_SPECIALS + 1))
        emb, report = init_foreign_embeddings(tm, src, tgt_vocab, seed=1)
        row = emb.data[NUM_SPECIALS].astype(np.float64)
        var = row.var()
        expected = 1.0 / d**2
        stderr = expected * np.sqrt(2.0 / (d - 1))
        assert abs(var - expected) <= 3 * stderr
        assert report.fallback == 1

    def test_specials_copied_from_source(self):
        src = source_embeddings()
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        tm = translation_matrix_from_rows(empty_rows(NUM_SPECIALS + 1))
        emb, _ = init_foreign_embeddings(tm, src, tgt_vocab, seed=0)
        assert np.array_equal(emb.data[:NUM_SPECIALS], src.data[:NUM_SPECIALS])

    def test_matches_dense_matmul_oracle(self):
        rng = np.random.default_rng(2)
        n_src, n_tgt, d = 40, 30, 6
        src = source_embeddings(n=n_src, d=d, seed=3)
        tgt_vocab = Vocabulary.from_tokens([f"f{i}" for i in range(n_tgt)])
        dense = np.zeros((n_tgt + NUM_SPECIALS, n_src + NUM_SPECIALS))
        rows = empty_rows(NUM_SPECIALS)
        for i in range(n_tgt):
            k = rng.integers(1, 5)
            cols = np.sort(rng.choice(np.arange(NUM_SPECIALS, n_src + NUM_SPECIALS),
                                      size=k, replace=False))
            weights = rng.dirichlet(np.ones(k))
            rows.append([(int(c), float(w)) for c, w in zip(cols, weights)])
            dense[NUM_SPECIALS + i, cols] = weights
        tm = translation_matrix_from_rows(rows)
        emb, report = init_foreign_embeddings(tm, src, tgt_vocab, seed=0)
        oracle = dense @ src.data.astype(np.float64)
        got = emb.data[NUM_SPECIALS:].astype(np.float64)
        np.testing.assert_allclose(got, oracle[NUM_SPECIALS:], atol=1e-7)
        assert report.covered == n_tgt

    def test_covered_norm_bounded_by_max_source_norm(self):
        src = source_embeddings(n=20, d=8, seed=4)
        rng = np.random.default_rng(5)
        tgt_vocab = Vocabulary.from_tokens([f"f{i}" for i in range(10)])
        rows = empty_rows(NUM_SPECIALS)
        for _ in range(10):
            k = rng.integers(1, 6)
            cols = np.sort(rng.choice(np.arange(NUM_SPECIALS, 25), size=k, replace=False))
            weights = rng.dirichlet(np.ones(k))
            rows.append([(int(c), float(w)) for c, w in zip(cols, weights)])
        emb, _ = init_foreign_embeddings(translation_matrix_from_rows(rows), src, tgt_vocab,
                                         seed=0)
        max_src = np.linalg.norm(src.data, axis=1).max()
        assert np.linalg.norm(emb.data[NUM_SPECIALS:], axis=1).max() <= max_src + 1e-6

    def test_deterministic(self):
        src = source_embeddings()
        tgt_vocab = Vocabulary.from_tokens(["f0", "f1", "f2"])
        tm = translation_matrix_from_rows(empty_rows(NUM_SPECIALS + 3))
        a, _ = init_foreign_embeddings(tm, src, tgt_vocab, seed=9)
        b, _ = init_foreign_embeddings(tm, src, tgt_vocab, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_negative_seed_rejected_with_every_row_covered(self):
        src = source_embeddings()
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        tm = dictionary_translation_matrix([(NUM_SPECIALS, 7)], tgt_vocab, src.vocab)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            init_foreign_embeddings(tm, src, tgt_vocab, seed=-1)

    def test_size_mismatch_rejected(self):
        src = source_embeddings()
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        with pytest.raises(ValueError, match="rows"):
            init_foreign_embeddings(
                translation_matrix_from_rows(empty_rows(2)), src, tgt_vocab, seed=0
            )


    @pytest.mark.parametrize("seed", range(4))
    def test_csr_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_src, n_tgt, d = 60, 80, 7
        src = source_embeddings(n=n_src, d=d, seed=seed)
        tgt_vocab = Vocabulary.from_tokens([f"f{i}" for i in range(n_tgt)])
        rows = random_rows(rng, n_tgt, n_src)
        src.data[NUM_SPECIALS + 3] = -0.0  # the loop's zero start turns -0.0 into 0.0
        rows[-1] = [(NUM_SPECIALS + 3, 1.0)]
        emb, report = init_foreign_embeddings(
            translation_matrix_from_rows(rows), src, tgt_vocab, seed=seed
        )
        oracle = loop_init_embeddings(rows, src, len(tgt_vocab), seed)
        assert emb.data.tobytes() == oracle.tobytes()
        covered = sum(bool(r) for r in rows[NUM_SPECIALS:])
        assert (report.covered, report.fallback) == (covered, n_tgt - covered)


class TestInitForeignBias:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_csr_matches_row_loop(self, dtype):
        rng = np.random.default_rng(7)
        n_src, n_tgt = 60, 80
        bias = rng.normal(0, 1, n_src + NUM_SPECIALS).astype(dtype)
        tgt_vocab = Vocabulary.from_tokens([f"f{i}" for i in range(n_tgt)])
        rows = random_rows(rng, n_tgt, n_src)
        out = init_foreign_bias(translation_matrix_from_rows(rows), bias, tgt_vocab)
        oracle = loop_init_bias(rows, bias, len(tgt_vocab))
        assert out.dtype == oracle.dtype
        assert out.tobytes() == oracle.tobytes()

    def test_one_hot_copies_bias(self):
        src = source_embeddings()
        bias = np.arange(len(src.vocab), dtype=np.float32)
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        tm = dictionary_translation_matrix([(NUM_SPECIALS, 8)], tgt_vocab, src.vocab)
        out = init_foreign_bias(tm, bias, tgt_vocab)
        assert out[NUM_SPECIALS] == bias[8]
        np.testing.assert_array_equal(out[:NUM_SPECIALS], bias[:NUM_SPECIALS])

    def test_uncovered_zero(self):
        src = source_embeddings()
        bias = np.ones(len(src.vocab), dtype=np.float32)
        tgt_vocab = Vocabulary.from_tokens(["f0"])
        out = init_foreign_bias(
            translation_matrix_from_rows(empty_rows(NUM_SPECIALS + 1)), bias, tgt_vocab
        )
        assert out[NUM_SPECIALS] == 0.0


class TestRandomInit:
    def test_deterministic(self):
        vocab = Vocabulary.from_tokens([f"f{i}" for i in range(20)])
        a = random_init(vocab, d=6, seed=3)
        b = random_init(vocab, d=6, seed=3)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        vocab = Vocabulary.from_tokens([f"f{i}" for i in range(5)])
        a = random_init(vocab, d=6, seed=3)
        b = random_init(vocab, d=6, seed=4)
        assert not np.array_equal(a.data, b.data)

    def test_variance_matches_one_over_d_squared(self):
        vocab = Vocabulary.from_tokens([f"f{i}" for i in range(10_000 - NUM_SPECIALS)])
        emb = random_init(vocab, d=4, seed=0)
        var = emb.data.astype(np.float64).var()
        assert abs(var - 1 / 16) / (1 / 16) <= 0.05

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            random_init(Vocabulary.from_tokens(["a"]), d=0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            random_init(Vocabulary.from_tokens(["a"]), d=4, seed=-1)


class TestInitReport:
    @pytest.mark.parametrize(
        "covered,fallback,ratio", [(4, 0, 1.0), (0, 4, 0.0), (3, 1, 0.75)]
    )
    def test_coverage_ratio(self, covered, fallback, ratio):
        assert InitReport(covered, fallback).coverage_ratio == ratio

    def test_json_and_summary(self, tmp_path):
        report = InitReport(3, 1)
        report.save(tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data == {"covered": 3, "fallback": 1, "coverage_ratio": 0.75}
        assert "75" in report.summary()
