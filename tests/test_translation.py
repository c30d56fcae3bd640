import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from langxfer.corpus import NUM_SPECIALS, BpeCodes, UnigramTable, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.translation import (
    TranslationMatrix,
    dictionary_translation_matrix,
    read_translation_matrix,
    row_entropy_report,
    sparsemax,
    subword_vectors,
    translation_matrix_from_vectors,
    write_translation_matrix,
)


def project_simplex_dykstra(z, iterations=2000):
    """Independent simplex-projection oracle: Dykstra's alternating projections
    between the sum-to-one hyperplane and the nonnegative orthant."""
    z = np.asarray(z, dtype=np.float64)
    x = z.copy()
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    for _ in range(iterations):
        y = x + p + (1.0 - np.sum(x + p)) / len(z)  # hyperplane projection
        p = x + p - y
        x = np.maximum(y + q, 0.0)  # orthant projection
        q = y + q - x
    return x


def project_simplex_grid_2d(z, steps=20001):
    """Dense grid search over the 2-D simplex."""
    t = np.linspace(0.0, 1.0, steps)
    candidates = np.stack([t, 1.0 - t], axis=1)
    dist = np.sum((candidates - np.asarray(z)) ** 2, axis=1)
    return candidates[np.argmin(dist)]


def full_sort_sparsemax(z):
    """Oracle: the sparsemax that sorts every row in full, which the exact
    top-k version replaced; the two must agree bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    n = z.shape[1]
    u = -np.sort(-z, axis=1)
    cssv = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, n + 1, dtype=np.float64)
    k = np.count_nonzero(u * ks > cssv, axis=1)
    tau = cssv[np.arange(z.shape[0]), k - 1] / k
    out = np.maximum(z - tau[:, None], 0.0)
    return out[0] if squeeze else out


def rows_writer(rows, tgt_vocab, src_vocab, path):
    """Oracle: the list-of-rows writer that the CSR writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rows):
            entries = " ".join(f"{src_vocab.tokens[j]}:{w:.9g}" for j, w in row)
            fh.write(tgt_vocab.tokens[i] + (" " + entries if entries else "") + "\n")


FINITE_VECTORS = arrays(
    np.float64,
    st.integers(min_value=1, max_value=5),
    elements=st.floats(min_value=-50, max_value=50),
)


class TestSparsemax:
    def test_hand_run_two_coordinates(self):
        out = sparsemax(np.array([1.0, 0.5]))
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(
            project_simplex_grid_2d([1.0, 0.5]), [0.75, 0.25], atol=1e-4
        )
        np.testing.assert_allclose(
            project_simplex_dykstra([1.0, 0.5]), [0.75, 0.25], atol=1e-9
        )

    def test_threshold_zeroes_second_coordinate(self):
        out = sparsemax(np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_equal_entries_give_uniform(self):
        for n in (1, 3, 7):
            out = sparsemax(np.full(n, 3.14))
            np.testing.assert_allclose(out, np.full(n, 1.0 / n), atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sparsemax(np.array([1.0, np.inf]))

    def test_matches_dykstra_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.integers(2, 6)
            z = rng.normal(0, 3, d)
            np.testing.assert_allclose(
                sparsemax(z), project_simplex_dykstra(z), atol=1e-6
            )

    @settings(max_examples=100, deadline=None)
    @given(z=FINITE_VECTORS, c=st.floats(min_value=-10, max_value=10))
    def test_shift_invariance(self, z, c):
        np.testing.assert_allclose(sparsemax(z + c), sparsemax(z), atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(z=FINITE_VECTORS)
    def test_simplex_membership(self, z):
        out = sparsemax(z)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(0, 2, 10)
            out = sparsemax(z)
            assert np.argmax(out) == np.argmax(z)

    def test_sparser_than_softmax_on_gaussian(self):
        rng = np.random.default_rng(2)
        counts = []
        for _ in range(50):
            z = rng.standard_normal(1000)
            out = sparsemax(z)
            tau_above_min = np.count_nonzero(out) < 1000
            if tau_above_min:
                assert np.count_nonzero(out) < 1000
            counts.append(np.count_nonzero(out))
        assert np.median(counts) < 1000

    @settings(max_examples=200, deadline=None)
    @given(z=arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=300)),
        elements=st.floats(min_value=-50, max_value=50),
    ))
    def test_top_k_matches_full_sort(self, z):
        assert np.array_equal(sparsemax(z), full_sort_sparsemax(z))

    @pytest.mark.parametrize("z", [
        np.array([0.3, -1.0, 2.5]),  # 1-D, n below the first top-k width
        np.full((2, 500), 0.25),  # every row tied: the support is all n
        np.array([[2.0] + [1.0] * 300, [1.0] * 150 + [0.0] * 151]),  # ties at tau
        np.array([1.1] + [0.1] * 400),  # tau equals a tied value, non-dyadic
        np.linspace(0.0, 0.05, 1000)[None, :],  # support far past the first width
        np.random.default_rng(4).normal(0, 0.05, (3, 2000)),
    ])
    def test_top_k_matches_full_sort_edge_cases(self, z):
        out = sparsemax(z)
        assert out.shape == z.shape
        assert np.array_equal(out, full_sort_sparsemax(z))

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 1, (6, 9))
        batched = sparsemax(z)
        for i in range(6):
            np.testing.assert_allclose(batched[i], sparsemax(z[i]), atol=1e-12)


class TestTranslationMatrixValidation:
    @pytest.mark.parametrize("row,message", [
        ([(NUM_SPECIALS + 2, 0.5), (NUM_SPECIALS + 1, 0.5)], "strictly increasing"),
        ([(NUM_SPECIALS, 0.5), (NUM_SPECIALS, 0.5)], "strictly increasing"),
        ([(NUM_SPECIALS, 0.5), (NUM_SPECIALS + 1, 0.4)], "sum to"),
        ([(NUM_SPECIALS, 1.5), (NUM_SPECIALS + 1, -0.5)], "positive"),
    ])
    def test_bad_row_named(self, row, message):
        rows = [[] for _ in range(NUM_SPECIALS + 1)] + [row, []]
        with pytest.raises(ValueError, match=f"row {NUM_SPECIALS + 1}: .*{message}"):
            TranslationMatrix.from_rows(rows)

    def test_rows_view_round_trips(self):
        rows = [[], [(NUM_SPECIALS, 0.25), (NUM_SPECIALS + 3, 0.75)], [], [(2, 1.0)]]
        tm = TranslationMatrix.from_rows(rows)
        assert tm.rows == rows
        assert tm.coverage == [False, True, False, True]
        assert len(tm) == 4

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError, match="entry count"):
            TranslationMatrix(np.array([0, 2]), np.array([1]), np.array([1.0]))


def emb_over(tokens, data):
    return EmbeddingMatrix(
        Vocabulary.from_tokens(tokens),
        np.vstack([np.zeros((NUM_SPECIALS, np.shape(data)[1])), data]),
    )


class TestTranslationMatrixFromVectors:
    def test_one_hot_from_separated_rows(self):
        # target row equals source row 0; other source rows have much
        # smaller dot products, so the projection lands on one vertex
        src_rows = np.array([[10.0, 0.0], [0.0, 0.1], [-0.1, 0.0]])
        tgt_rows = np.array([[10.0, 0.0]])
        src = emb_over(["s0", "s1", "s2"], src_rows)
        tgt = emb_over(["t0"], tgt_rows)
        tm = translation_matrix_from_vectors(tgt, src)
        assert tm.rows[NUM_SPECIALS] == [(NUM_SPECIALS, 1.0)]
        z = tgt_rows[0] @ src_rows.T
        np.testing.assert_allclose(
            project_simplex_dykstra(z), [1.0, 0.0, 0.0], atol=1e-9
        )

    def test_identity_basis(self):
        eye = np.eye(4)
        src = emb_over([f"s{i}" for i in range(4)], eye)
        tgt = emb_over([f"t{i}" for i in range(4)], eye)
        tm = translation_matrix_from_vectors(tgt, src)
        rows = tm.rows
        for i in range(4):
            row = rows[NUM_SPECIALS + i]
            assert row[0][0] == NUM_SPECIALS + i
            assert max(row, key=lambda e: e[1])[0] == NUM_SPECIALS + i

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        src = emb_over([f"s{i}" for i in range(20)], rng.normal(0, 1, (20, 8)))
        tgt = emb_over([f"t{i}" for i in range(12)], rng.normal(0, 1, (12, 8)))
        tm = translation_matrix_from_vectors(tgt, src)
        for row in tm.rows[NUM_SPECIALS:]:
            assert abs(math.fsum(w for _, w in row) - 1.0) <= 1e-6

    def test_zero_target_rows_uncovered(self):
        rng = np.random.default_rng(5)
        src = emb_over(["s0", "s1"], rng.normal(0, 1, (2, 3)))
        data = np.zeros((2, 3))
        data[1] = rng.normal(0, 1, 3)
        tgt = emb_over(["dead", "live"], data)
        tm = translation_matrix_from_vectors(tgt, src)
        assert tm.rows[NUM_SPECIALS] == []
        assert tm.rows[NUM_SPECIALS + 1] != []
        assert tm.coverage[NUM_SPECIALS] is False

    def test_specials_uncovered(self):
        src = emb_over(["s0"], [[1.0]])
        tgt = emb_over(["t0"], [[1.0]])
        tm = translation_matrix_from_vectors(tgt, src)
        assert all(not tm.rows[i] for i in range(NUM_SPECIALS))

    def test_softmax_mode_dense(self):
        rng = np.random.default_rng(6)
        src = emb_over([f"s{i}" for i in range(6)], rng.normal(0, 1, (6, 4)))
        tgt = emb_over(["t0"], rng.normal(0, 1, (1, 4)))
        dense = translation_matrix_from_vectors(tgt, src, mode="softmax")
        sparse = translation_matrix_from_vectors(tgt, src, mode="sparsemax")
        assert len(dense.rows[NUM_SPECIALS]) == 6
        assert len(sparse.rows[NUM_SPECIALS]) <= 6


class TestSubwordVectors:
    def test_single_contributor_identity(self):
        word_emb = emb_over(["abc"], [[2.0, -1.0]])
        unigrams = UnigramTable({"abc": 1.0})
        codes = BpeCodes([("a", "b"), ("ab", "c</w>")])
        vocab = Vocabulary.from_tokens(["abc</w>"])
        table = subword_vectors(word_emb, unigrams, vocab, codes)
        np.testing.assert_array_equal(
            table.emb.row("abc</w>"), np.array([2.0, -1.0], dtype=np.float32)
        )
        assert table.support[NUM_SPECIALS] == 1

    def test_weighted_average(self):
        # shared subword "x" in both words: e_s = (.2*[1,0] + .6*[0,1]) / .8
        word_emb = emb_over(["xa", "xb"], [[1.0, 0.0], [0.0, 1.0]])
        unigrams = UnigramTable({"xa": 0.2, "xb": 0.6, "other": 0.2})
        codes = BpeCodes([])  # character segmentation
        vocab = Vocabulary.from_tokens(["x", "a</w>", "b</w>"])
        table = subword_vectors(word_emb, unigrams, vocab, codes)
        np.testing.assert_allclose(
            table.emb.row("x"), [0.25, 0.75], atol=1e-7
        )
        assert table.support[vocab.index["x"]] == 2

    def test_support_bounded_by_word_count(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        word_emb = emb_over(words, rng.normal(0, 1, (30, 4)))
        unigrams = UnigramTable({w: 1 / 30 for w in words})
        codes = BpeCodes([])
        vocab = Vocabulary.from_tokens(["w"])
        table = subword_vectors(word_emb, unigrams, vocab, codes)
        assert table.support.max() <= 30

    def test_no_contributor_zero_vector(self):
        word_emb = emb_over(["aa"], [[1.0]])
        unigrams = UnigramTable({"aa": 1.0})
        vocab = Vocabulary.from_tokens(["zz"])
        table = subword_vectors(word_emb, unigrams, vocab, BpeCodes([]))
        assert table.support[NUM_SPECIALS] == 0
        assert np.all(table.emb.row("zz") == 0)

    def test_missing_unigram_gets_floor(self):
        word_emb = emb_over(["known", "ghost"], [[1.0], [5.0]])
        unigrams = UnigramTable({"known": 1.0})
        vocab = Vocabulary.from_tokens(["k", "n", "o", "w", "g", "h", "s", "t</w>", "n</w>"])
        table = subword_vectors(word_emb, unigrams, vocab, BpeCodes([]))
        # "ghost" contributes via the floor: support counts it
        assert table.support[vocab.index["g"]] == 1


class TestEntropyReport:
    def test_identity_matrix(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        tm = dictionary_translation_matrix(
            [(NUM_SPECIALS, NUM_SPECIALS), (NUM_SPECIALS + 1, NUM_SPECIALS + 1)],
            vocab, vocab,
        )
        report = row_entropy_report(tm)
        assert report.mean_nonzeros == 1.0
        assert report.mean_entropy == 0.0

    def test_uniform_rows(self):
        n = 8
        rows = [[] for _ in range(NUM_SPECIALS)] + [
            [(NUM_SPECIALS + j, 1.0 / n) for j in range(n)]
        ]
        tm = TranslationMatrix.from_rows(rows)
        report = row_entropy_report(tm)
        assert report.mean_entropy == pytest.approx(math.log(n), abs=1e-12)

    def test_nonzeros_bounded(self):
        rng = np.random.default_rng(8)
        src = emb_over([f"s{i}" for i in range(40)], rng.normal(0, 1, (40, 6)))
        tgt = emb_over([f"t{i}" for i in range(10)], rng.normal(0, 1, (10, 6)))
        tm = translation_matrix_from_vectors(tgt, src)
        report = row_entropy_report(tm)
        assert max(report.histogram) <= 40


class TestSerialization:
    @staticmethod
    def _make_tm():
        rng = np.random.default_rng(9)
        src_vocab = Vocabulary.from_tokens([f"s{i}" for i in range(12)])
        tgt_vocab = Vocabulary.from_tokens([f"t{i}" for i in range(6)])
        src = EmbeddingMatrix(src_vocab, rng.normal(0, 1, (17, 5)).astype(np.float32))
        tgt = EmbeddingMatrix(tgt_vocab, rng.normal(0, 1, (11, 5)).astype(np.float32))
        tm = translation_matrix_from_vectors(tgt, src)
        return tm, tgt_vocab, src_vocab

    def test_write_read_identity(self, tmp_path):
        tm, tgt_vocab, src_vocab = self._make_tm()
        path = tmp_path / "tm.txt"
        write_translation_matrix(tm, tgt_vocab, src_vocab, path)
        loaded = read_translation_matrix(path, tgt_vocab, src_vocab)
        assert len(loaded.rows) == len(tm.rows)
        for a, b in zip(tm.rows, loaded.rows):
            assert [j for j, _ in a] == [j for j, _ in b]
            np.testing.assert_allclose(
                [w for _, w in a], [w for _, w in b], rtol=1e-7, atol=1e-9
            )

    def test_writer_bytes_match_rows_writer(self, tmp_path):
        tm, tgt_vocab, src_vocab = self._make_tm()
        one_hot = dictionary_translation_matrix(
            [(NUM_SPECIALS + 1, NUM_SPECIALS + 3)], tgt_vocab, src_vocab
        )
        for n, matrix in enumerate((tm, one_hot)):
            write_translation_matrix(matrix, tgt_vocab, src_vocab, tmp_path / f"csr{n}.txt")
            rows_writer(matrix.rows, tgt_vocab, src_vocab, tmp_path / f"rows{n}.txt")
            assert (tmp_path / f"csr{n}.txt").read_bytes() == (
                tmp_path / f"rows{n}.txt"
            ).read_bytes()

    def test_read_round_trip_lossless(self, tmp_path):
        tm, tgt_vocab, src_vocab = self._make_tm()
        write_translation_matrix(tm, tgt_vocab, src_vocab, tmp_path / "a.txt")
        loaded = read_translation_matrix(tmp_path / "a.txt", tgt_vocab, src_vocab)
        write_translation_matrix(loaded, tgt_vocab, src_vocab, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        again = read_translation_matrix(tmp_path / "b.txt", tgt_vocab, src_vocab)
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(loaded, name), getattr(again, name)), name

    def test_read_sorts_entries_and_keeps_last_line(self, tmp_path):
        src_vocab = Vocabulary.from_tokens(["a", "b", "c"])
        tgt_vocab = Vocabulary.from_tokens(["x", "y"])
        (tmp_path / "tm.txt").write_text("x c:0.5 a:0.5\ny a:1\ny b:0.25 c:0.75\n")
        tm = read_translation_matrix(tmp_path / "tm.txt", tgt_vocab, src_vocab)
        a, b, c = (src_vocab.index[t] for t in "abc")
        assert tm.rows[tgt_vocab.index["x"]] == [(a, 0.5), (c, 0.5)]
        assert tm.rows[tgt_vocab.index["y"]] == [(b, 0.25), (c, 0.75)]

    def test_unknown_token_rejected(self, tmp_path):
        vocab = Vocabulary.from_tokens(["a"])
        (tmp_path / "tm.txt").write_text("mystery a:1.0\n")
        with pytest.raises(ValueError, match="unknown target token"):
            read_translation_matrix(tmp_path / "tm.txt", vocab, vocab)
