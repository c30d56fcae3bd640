import errno
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer.corpus import NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary
from langxfer.embeddings import (
    EmbeddingMatrix,
    align,
    identical_word_dictionary,
    load_binary_vectors,
    load_vectors,
    procrustes,
    read_dictionary,
    save_vectors,
)


def make_emb(tokens, data):
    return EmbeddingMatrix(
        Vocabulary.from_tokens(tokens),
        np.vstack([np.zeros((NUM_SPECIALS, np.shape(data)[1])), data]),
    )


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def procrustes_2x2_oracle(x, y):
    """Closed-form 2x2 solution: polar decomposition of M = x'y via trig.

    For a 2x2 matrix, the orthogonal polar factor maximizing tr(W'M) over
    rotations is the rotation by the angle of (m00+m11, m10-m01); reflections
    are handled by comparing traces against the best reflection.
    """
    m = x.T @ y
    a = m[0, 0] + m[1, 1]
    b = m[1, 0] - m[0, 1]
    theta = math.atan2(b, a)
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    c = m[0, 0] - m[1, 1]
    d = m[1, 0] + m[0, 1]
    phi = math.atan2(d, c)
    refl = np.array(
        [[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]]
    )
    return rot if np.trace(rot.T @ m) >= np.trace(refl.T @ m) else refl


class TestVectorIO:
    def _write_vec(self, path, rows, dim):
        lines = [f"{len(rows)} {dim}"]
        lines += [f"{t} " + " ".join(str(v) for v in vec) for t, vec in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_load_limit(self, tmp_path):
        rows = [(f"w{i}", [float(i), 0.0, 0.0, 1.0]) for i in range(50_010)]
        self._write_vec(tmp_path / "big.vec", rows, 4)
        emb = load_vectors(tmp_path / "big.vec", limit=50_000)
        assert len(emb.vocab) == 50_000 + NUM_SPECIALS
        assert emb.row("w0")[0] == 0.0

    def test_load_without_limit(self, tmp_path):
        rows = [("a", [1.0, 2.0]), ("b", [3.0, 4.0]), ("c", [5.0, 6.0])]
        self._write_vec(tmp_path / "small.vec", rows, 2)
        emb = load_vectors(tmp_path / "small.vec")
        assert len(emb.vocab) == 3 + NUM_SPECIALS
        assert emb.dim == 2

    def test_wrong_dimension_names_line(self, tmp_path):
        (tmp_path / "bad.vec").write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_vectors(tmp_path / "bad.vec")

    def test_non_finite_rejected(self, tmp_path):
        (tmp_path / "bad.vec").write_text("1 2\na nan 2\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_vectors(tmp_path / "bad.vec")

    def test_duplicates_keep_first(self, tmp_path):
        (tmp_path / "dup.vec").write_text("2 2\na 1 1\na 9 9\n")
        emb = load_vectors(tmp_path / "dup.vec")
        assert emb.row("a").tolist() == [1.0, 1.0]

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = make_emb(["x", "y", "z"], rng.standard_normal((3, 7)))
        save_vectors(emb, tmp_path / "e.bin", format="binary")
        loaded = load_binary_vectors(tmp_path / "e.bin")
        assert loaded.vocab.tokens == emb.vocab.tokens
        assert np.array_equal(loaded.data, emb.data)

    def test_text_roundtrip_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = make_emb(["x", "y"], rng.standard_normal((2, 5)))
        save_vectors(emb, tmp_path / "e.vec", format="text")
        loaded = load_vectors(tmp_path / "e.vec")
        orig = emb.data[NUM_SPECIALS:]
        got = loaded.data[NUM_SPECIALS:]
        assert np.max(np.abs(orig - got) / np.maximum(np.abs(orig), 1e-12)) <= 1e-5

    def test_unwritable_path_raises(self, tmp_path):
        emb = make_emb(["x"], [[1.0]])
        with pytest.raises(OSError):
            save_vectors(emb, tmp_path / "no_such_dir" / "e.vec", format="text")


class TestIdenticalWords:
    def test_shared_tokens(self):
        a = Vocabulary.from_tokens(["2020", "internet", "soleil"])
        b = Vocabulary.from_tokens(["internet", "sky", "2020"])
        pairs = identical_word_dictionary(a, b)
        assert len(pairs) == 2
        assert (a.index["2020"], b.index["2020"]) in pairs

    def test_disjoint_raises(self):
        a = Vocabulary.from_tokens(["aa"])
        b = Vocabulary.from_tokens(["bb"])
        with pytest.raises(ValueError, match="seed dictionary"):
            identical_word_dictionary(a, b)

    def test_identical_vocabs(self):
        tokens = [f"t{i}" for i in range(8)]
        v = Vocabulary.from_tokens(tokens)
        assert len(identical_word_dictionary(v, v)) == 8

    def test_seed_dictionary_file(self, tmp_path):
        a = Vocabulary.from_tokens(["chien", "chat"])
        b = Vocabulary.from_tokens(["dog", "cat"])
        (tmp_path / "d.tsv").write_text("chien\tdog\nchat\tcat\nhors\thorse\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            pairs = read_dictionary(tmp_path / "d.tsv", a, b)
        assert len(pairs) == 2


class TestProcrustes:
    def test_identity_recovery(self):
        rng = np.random.default_rng(2)
        emb = make_emb([f"t{i}" for i in range(30)], rng.standard_normal((30, 6)))
        pairs = [(i, i) for i in range(NUM_SPECIALS, 30 + NUM_SPECIALS)]
        mapping = procrustes(emb, emb, pairs)
        assert np.linalg.norm(mapping.matrix - np.eye(6)) <= 1e-6
        assert mapping.residual <= 1e-6

    def test_2d_rotation_matches_closed_form_oracle(self):
        rng = np.random.default_rng(3)
        theta = math.pi / 2
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        x = rng.standard_normal((40, 2))
        src = make_emb([f"t{i}" for i in range(40)], x)
        tgt = make_emb([f"t{i}" for i in range(40)], x @ q)
        pairs = [(i, i) for i in range(NUM_SPECIALS, 40 + NUM_SPECIALS)]
        mapping = procrustes(src, tgt, pairs)
        oracle = procrustes_2x2_oracle(
            src.data[NUM_SPECIALS:].astype(np.float64),
            tgt.data[NUM_SPECIALS:].astype(np.float64),
        )
        assert np.linalg.norm(mapping.matrix - q) <= 1e-6
        assert np.linalg.norm(mapping.matrix - oracle) <= 1e-9
        assert mapping.residual <= 1e-6

    def test_planted_map_recovery_d8(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = random_orthogonal(8, rng)
            x = rng.standard_normal((60, 8))
            src = make_emb([f"t{i}" for i in range(60)], x)
            tgt = make_emb([f"t{i}" for i in range(60)], x @ q)
            pairs = [(i, i) for i in range(NUM_SPECIALS, 60 + NUM_SPECIALS)]
            mapping = procrustes(src, tgt, pairs)
            assert np.linalg.norm(mapping.matrix - q) <= 1e-5

    def test_orthogonality_always_holds(self):
        rng = np.random.default_rng(5)
        for d in (2, 5, 16):
            src = make_emb([f"t{i}" for i in range(25)], rng.standard_normal((25, d)))
            tgt = make_emb([f"t{i}" for i in range(25)], rng.standard_normal((25, d)))
            pairs = [(i, i) for i in range(NUM_SPECIALS, 25 + NUM_SPECIALS)]
            w = procrustes(src, tgt, pairs).matrix
            assert np.linalg.norm(w.T @ w - np.eye(d)) <= 1e-6

    def test_optimality_against_random_maps(self):
        rng = np.random.default_rng(6)
        d = 4
        src = make_emb([f"t{i}" for i in range(30)], rng.standard_normal((30, d)))
        tgt = make_emb([f"t{i}" for i in range(30)], rng.standard_normal((30, d)))
        pairs = [(i, i) for i in range(NUM_SPECIALS, 30 + NUM_SPECIALS)]
        best = procrustes(src, tgt, pairs)
        x = src.data[NUM_SPECIALS:].astype(np.float64)
        y = tgt.data[NUM_SPECIALS:].astype(np.float64)
        assert best.residual <= np.linalg.norm(x - y) + 1e-12
        for _ in range(100):
            w = random_orthogonal(d, rng)
            assert best.residual <= np.linalg.norm(x @ w - y) + 1e-12

    def test_rank_deficient_still_orthogonal(self):
        rng = np.random.default_rng(7)
        x = np.zeros((20, 6))
        x[:, 0] = rng.standard_normal(20)  # rank-1 data
        src = make_emb([f"t{i}" for i in range(20)], x)
        tgt = make_emb([f"t{i}" for i in range(20)], x)
        pairs = [(i, i) for i in range(NUM_SPECIALS, 20 + NUM_SPECIALS)]
        mapping = procrustes(src, tgt, pairs)
        assert np.linalg.norm(mapping.matrix.T @ mapping.matrix - np.eye(6)) <= 1e-6
        assert mapping.rank == 1

    def test_warns_when_underdetermined(self):
        rng = np.random.default_rng(8)
        src = make_emb(["a", "b"], rng.standard_normal((2, 8)))
        tgt = make_emb(["a", "b"], rng.standard_normal((2, 8)))
        with pytest.warns(UserWarning, match="underdetermined"):
            procrustes(src, tgt, [(5, 5), (6, 6)])

    def test_normalize_flag_ignores_row_scales(self):
        rng = np.random.default_rng(13)
        q = random_orthogonal(5, rng)
        x = rng.standard_normal((40, 5))
        scales = rng.uniform(0.1, 10.0, size=(40, 1))
        src = make_emb([f"t{i}" for i in range(40)], x * scales)
        tgt = make_emb([f"t{i}" for i in range(40)], x @ q)
        pairs = [(i, i) for i in range(NUM_SPECIALS, 40 + NUM_SPECIALS)]
        mapping = procrustes(src, tgt, pairs, normalize=True)
        assert np.linalg.norm(mapping.matrix - q) <= 1e-4


class TestAlign:
    def test_identity_map_is_noop(self):
        rng = np.random.default_rng(9)
        emb = make_emb([f"t{i}" for i in range(10)], rng.standard_normal((10, 4)))
        from langxfer.embeddings import OrthogonalMap

        mapping = OrthogonalMap(np.eye(4), residual=0.0, rank=4)
        aligned = align(emb, mapping)
        assert np.array_equal(aligned.data, emb.data)

    def test_row_norms_preserved(self):
        rng = np.random.default_rng(10)
        emb = make_emb([f"t{i}" for i in range(15)], rng.standard_normal((15, 8)))
        from langxfer.embeddings import OrthogonalMap

        mapping = OrthogonalMap(random_orthogonal(8, rng), residual=0.0, rank=8)
        aligned = align(emb, mapping)
        np.testing.assert_allclose(
            np.linalg.norm(aligned.data, axis=1),
            np.linalg.norm(emb.data, axis=1),
            rtol=1e-5,
        )

    def test_inverse_composition(self):
        rng = np.random.default_rng(11)
        # small magnitudes keep the float32 storage rounding under 1e-9
        emb = make_emb(
            [f"t{i}" for i in range(12)], 0.01 * rng.standard_normal((12, 6))
        )
        from langxfer.embeddings import OrthogonalMap

        q = random_orthogonal(6, rng)
        forward = OrthogonalMap(q, residual=0.0, rank=6)
        backward = OrthogonalMap(q.T, residual=0.0, rank=6)
        roundtrip = align(align(emb, forward), backward)
        assert np.max(np.abs(roundtrip.data - emb.data)) <= 1e-9

    def test_pairwise_dot_products_preserved(self):
        rng = np.random.default_rng(12)
        emb = make_emb([f"t{i}" for i in range(10)], rng.standard_normal((10, 8)))
        from langxfer.embeddings import OrthogonalMap

        mapping = OrthogonalMap(random_orthogonal(8, rng), residual=0.0, rank=8)
        aligned = align(emb, mapping)
        before = emb.data[NUM_SPECIALS:].astype(np.float64)
        after = aligned.data[NUM_SPECIALS:].astype(np.float64)
        np.testing.assert_allclose(before @ before.T, after @ after.T, rtol=1e-6, atol=1e-6)


def line_loop_load_vectors(path, limit=None):
    """Oracle: the line-by-line reader that the bulk load_vectors replaced."""
    tokens, rows = [], []
    seen = set(SPECIAL_TOKENS)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'row_count dim' header")
        _, dim = int(header[0]), int(header[1])
        for n, line in enumerate(fh, 2):
            if limit is not None and len(rows) >= limit:
                break
            parts = line.rstrip("\n").split(" ")
            token, values = parts[0], parts[1:]
            if values and values[-1] == "":
                values = values[:-1]
            if len(values) != dim:
                raise ValueError(
                    f"{path}: line {n}: expected {dim} values, got {len(values)}"
                )
            if token in seen:
                continue
            vec = np.asarray(values, dtype=np.float32)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}: line {n}: non-finite value")
            seen.add(token)
            tokens.append(token)
            rows.append(vec)
    data = np.zeros((NUM_SPECIALS + len(rows), dim), dtype=np.float32)
    if rows:
        data[NUM_SPECIALS:] = np.stack(rows)
    return EmbeddingMatrix(Vocabulary.from_tokens(tokens), data)


VEC_TOKENS = st.sampled_from(["a", "b", "c", "é", "a:b", "<unk>", "<pad>", "</s>", ""])
FINITE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.6f}"),
    st.floats(min_value=-1e30, max_value=1e30).map(lambda v: f"{v:.7e}"),
    st.floats(min_value=-1e30, max_value=1e30).map(lambda v: f"{v:.9E}"),
    st.sampled_from(["-0", "0", "+1", ".5", "5.", "1e-45", "3.4028235e38", "1_0"]),
)
ODD_VALUES = st.sampled_from(["nan", "-inf", "inf", "1e39", "x", "", "0x1p3"])


@st.composite
def vec_files(draw):
    """(file text, limit): a header, then rows built from a few tokens (with
    duplicates and special-token names) and values in several spellings;
    rarely a non-finite or unparseable value, a wrong count or a bad header."""
    dim = draw(st.integers(min_value=0, max_value=4))
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        count = dim if draw(st.integers(0, 15)) else draw(st.integers(0, dim + 1))
        values = [draw(ODD_VALUES) if not draw(st.integers(0, 20)) else draw(FINITE_VALUES)
                  for _ in range(count)]
        line = " ".join([draw(VEC_TOKENS)] + values)
        lines.append(line + (" " if draw(st.booleans()) else ""))
    header = f"{len(lines)} {dim}" if draw(st.integers(0, 15)) else draw(
        st.sampled_from(["", "3", "3 4 5", "x 4", "2 -1"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # an empty last line exists only if a newline ends it
    final = draw(st.booleans()) or (bool(lines) and not lines[-1])
    text = newline.join([header] + lines) + (newline if final else "")
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=9)))
    return text, limit


class TestLoadVectorsDifferential:
    """The bulk reader against the line loop it replaced."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(case=vec_files())
    def test_matches_line_loop(self, tmp_path_factory, case):
        text, limit = case
        path = tmp_path_factory.mktemp("vec") / "v.vec"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = line_loop_load_vectors(path, limit)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_vectors(path, limit)
            if "line" in str(exc) or "header" in str(exc):
                assert str(got.value) == str(exc)
            else:  # a value that does not parse: now prefixed with its line
                assert str(got.value).endswith(str(exc))
            return
        got = load_vectors(path, limit)
        assert got.vocab.tokens == want.vocab.tokens
        assert got.data.tobytes() == want.data.tobytes()

    def test_benchmark_sized_file_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 0.06, (300, 50)).astype(np.float32)
        lines = [f"w{i} " + " ".join(f"{v:.6f}" for v in row) for i, row in enumerate(data)]
        (tmp_path / "e.vec").write_text("300 50\n" + "\n".join(lines) + "\n")
        for limit in (None, 1, 120):
            got = load_vectors(tmp_path / "e.vec", limit)
            want = line_loop_load_vectors(tmp_path / "e.vec", limit)
            assert got.vocab.tokens == want.vocab.tokens
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("text", [
        "1 0\n\n",  # a blank line is the empty token with no values
        "2 0\na\n\n",
        "2 1\na 1_0\nb \u0661\n",  # values only float() reads
        "2 2\r\n 1 2\r\nb\t 3 4 \r\n",
    ])
    def test_odd_files_match_line_loop(self, tmp_path, text):
        (tmp_path / "odd.vec").write_bytes(text.encode("utf-8"))
        got = load_vectors(tmp_path / "odd.vec")
        want = line_loop_load_vectors(tmp_path / "odd.vec")
        assert got.vocab.tokens == want.vocab.tokens
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("text,message", [
        ("2 2\na 1 2\nb nan 1\n", "line 3: non-finite value"),
        ("2 2\na inf 2\nb 1\n", "line 2: non-finite value"),
        ("3 2\na 1 2\nb 1\nc nan 1\n", "line 3: expected 2 values, got 1"),
        ("2 2\na 1 x\nb 1\n", "line 2: could not convert"),
        ("2 2\na 1 2\nb 1 2 3 \n", "line 3: expected 2 values, got 3"),
        ("2 2 2\na 1 2\n", "expected 'row_count dim' header"),
    ])
    def test_errors_name_the_first_bad_line(self, tmp_path, text, message):
        (tmp_path / "bad.vec").write_text(text)
        with pytest.raises(ValueError, match=message):
            load_vectors(tmp_path / "bad.vec")

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        (tmp_path / "v.vec").write_text("1 2\na 1 2\n")
        with pytest.raises(ValueError, match="limit"):
            load_vectors(tmp_path / "v.vec", limit)


class TestHeaderRowCount:
    """A .vec file read to its end must hold the rows its header counts."""

    @pytest.mark.parametrize("text,lines", [
        ("8000 2\na 1 2\nb 3 4\n", 2),  # truncated
        ("3 2\na 1 2\nb 3 4", 2),  # cut before the final newline
        ("1 2\na 1 2\nb 3 4\n", 2),  # more rows than the header says
        ("2 2\na 1 2\nb 3 4\nc 5 6\n", 3),
    ])
    def test_count_mismatch_rejected(self, tmp_path, text, lines):
        path = tmp_path / "v.vec"
        path.write_text(text)
        header = text.split()[0]
        with pytest.raises(ValueError) as exc:
            load_vectors(path)
        assert str(exc.value) == (
            f"{path}: header says {header} rows, but the file has {lines} data lines")

    def test_limit_below_the_count_reads_a_prefix(self, tmp_path):
        (tmp_path / "v.vec").write_text("8000 2\na 1 2\nb 3 4\nc 5 6\n")
        assert load_vectors(tmp_path / "v.vec", limit=2).vocab.tokens[NUM_SPECIALS:] == [
            "a", "b"]

    def test_limit_past_the_count_still_checks_it(self, tmp_path):
        (tmp_path / "v.vec").write_text("8000 2\na 1 2\nb 3 4\n")
        with pytest.raises(ValueError, match="header says 8000 rows"):
            load_vectors(tmp_path / "v.vec", limit=50_000)
        (tmp_path / "v.vec").write_text("2 2\na 1 2\nb 3 4\n")
        assert len(load_vectors(tmp_path / "v.vec", limit=50_000).vocab) == NUM_SPECIALS + 2

    @pytest.mark.parametrize("text,lines", [
        ("2 0\na\n", 1),
        ("3 2\na 1 2\nb 3 4\n", 2),
        ("3 2\r\na 1 2\r\nb 3 4\r\n", 2),
    ], ids=["no-values", "lf", "crlf"])
    def test_header_one_above_the_lines_rejected(self, tmp_path, text, lines):
        # a final newline ends the last line; it does not start one more
        path = tmp_path / "v.vec"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as exc:
            load_vectors(path)
        assert str(exc.value) == (
            f"{path}: header says {text.split()[0]} rows, but the file has {lines} data lines")


class TestSaveVectorsAtomic:
    def test_failed_text_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "e.vec"
        save_vectors(make_emb(["x", "y"], [[1.0], [2.0]]), path)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded: the write fails on the last row
        with pytest.raises(UnicodeEncodeError):
            save_vectors(make_emb(["x", "y", "\ud800"], [[1.0], [2.0], [3.0]]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["e.vec"]

    def test_failed_binary_write_keeps_previous_file(self, tmp_path, monkeypatch):
        from langxfer import embeddings

        path = tmp_path / "e.bin"
        save_vectors(make_emb(["x", "y"], [[1.0], [2.0]]), path, format="binary")
        before = path.read_bytes()

        def disk_full(target, arr, tokens=None):
            with open(target, "wb") as fh:
                fh.write(b'{"row_count": ')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(embeddings, "write_array", disk_full)
        with pytest.raises(OSError, match="No space"):
            save_vectors(make_emb(["z"], [[3.0]]), path, format="binary")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["e.bin"]
