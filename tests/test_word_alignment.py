import contextlib
import itertools
import math
import tracemalloc
from unittest import mock
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer import word_alignment
from langxfer.corpus import NUM_SPECIALS, ParallelCorpus, Vocabulary
from langxfer.word_alignment import (
    NULL_ID,
    AlignmentModel,
    parse_fastalign,
    subsample,
    train_ibm1,
    translation_matrix_from_alignment,
)


def brute_force_ibm1(pairs, iterations):
    """Oracle EM: expected counts by explicit enumeration of every alignment
    function (each english token, NULL included, mapped to a foreign position),
    instead of the factorized per-token posterior."""
    cooc = defaultdict(set)
    for fg, en in pairs:
        for f in fg:
            cooc[f].update(en)
            cooc[f].add(NULL_ID)
    table = {f: {e: 1.0 / len(es) for e in es} for f, es in cooc.items()}
    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        for fg, en in pairs:
            targets = list(en) + [NULL_ID]
            total = 0.0
            weights = {}
            for assignment in itertools.product(range(len(fg)), repeat=len(targets)):
                w = 1.0
                for j, i in enumerate(assignment):
                    w *= table[fg[i]][targets[j]] / len(fg)
                weights[assignment] = w
                total += w
            for assignment, w in weights.items():
                for j, i in enumerate(assignment):
                    counts[fg[i]][targets[j]] += w / total
        for f, row in counts.items():
            norm = math.fsum(row.values())
            table[f] = {e: c / norm for e, c in row.items()}
    return table


def dict_train_ibm1(pairs, iterations, prune):
    """Oracle: the dict-of-dicts IBM-1 EM that the array implementation
    replaced, step for step. Returns (table, log-likelihoods)."""
    cooc = defaultdict(set)
    for fg, en in pairs:
        for f in fg:
            cooc[f].update(en)
            cooc[f].add(NULL_ID)
    table = {f: {e: 1.0 / len(es) for e in es} for f, es in cooc.items()}
    log_likelihoods = []
    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        ll = 0.0
        for fg, en in pairs:
            log_len = math.log(len(fg))
            for e in list(en) + [NULL_ID]:
                probs = [table[f][e] for f in fg]
                total = math.fsum(probs)
                ll += math.log(total) - log_len
                for f, p in zip(fg, probs):
                    counts[f][e] += p / total
        log_likelihoods.append(ll)
        for f, row in counts.items():
            norm = math.fsum(row.values())
            table[f] = {e: c / norm for e, c in row.items()}
    for f, row in table.items():
        kept = {e: p for e, p in row.items() if p >= prune}
        if not kept:
            best = max(row.items(), key=lambda kv: (kv[1], -kv[0]))
            kept = {best[0]: best[1]}
        norm = math.fsum(kept.values())
        table[f] = {e: p / norm for e, p in kept.items()}
    return table, log_likelihoods


def assert_matches_dict_oracle(pairs, iterations, prune, **blocking):
    with blocks_of(**blocking):
        model = train_ibm1(ParallelCorpus(pairs), iterations=iterations, prune=prune)
    table, log_likelihoods = dict_train_ibm1(pairs, iterations, prune)
    got = model.table
    assert got.keys() == table.keys()
    for f, row in table.items():
        assert got[f].keys() == row.keys(), f
        for e, p in row.items():
            assert got[f][e] == pytest.approx(p, rel=1e-9, abs=0.0), (f, e)
    assert model.log_likelihoods == pytest.approx(log_likelihoods, rel=1e-9, abs=0.0)


# small id ranges so that tokens repeat within and across sentences; an empty
# english side leaves its foreign words aligned to NULL only
SENTENCE_PAIRS = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
        st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5),
    ),
    min_size=1,
    max_size=12,
)


@contextlib.contextmanager
def blocks_of(block_links=word_alignment.BLOCK_LINKS,
              cached_links=word_alignment.CACHED_LINKS):
    """Runs train_ibm1 with other link block and index cache sizes."""
    with mock.patch.object(word_alignment, "BLOCK_LINKS", block_links), \
            mock.patch.object(word_alignment, "CACHED_LINKS", cached_links):
        yield


def argsort_unique_inverse(values):
    """Oracle of word_alignment._unique_inverse: ranks every input by sorting."""
    order = np.argsort(values)
    ordered = values[order]
    first = word_alignment._run_starts(ordered)
    inverse = np.empty(len(values), dtype=np.int32 if len(values) < 2**31 else np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def seg_step_link_keys(pairs, width):
    """Oracle of word_alignment._Block.link_keys: link positions stepped by
    each segment's first step from its sentence's first foreign token, the
    `seg_step` array that `_Block` used to keep."""
    fg_ids, fg_len = word_alignment._flat_ids([fg for fg, _ in pairs])
    en_ids, en_len = word_alignment._flat_ids([en for _, en in pairs])
    seg_e = np.insert(en_ids, np.cumsum(en_len), NULL_ID)
    seg_sent = np.repeat(np.arange(len(fg_len)), en_len + 1)
    seg_size = fg_len[seg_sent]
    seg_start = np.cumsum(seg_size) - seg_size
    fg_first = (np.cumsum(fg_len) - fg_len)[seg_sent]
    seg_step = fg_first - np.append(0, fg_first + seg_size - 1)[:-1]
    steps = np.ones(int(seg_size.sum()), dtype=np.int64)
    steps[seg_start] = seg_step
    return fg_ids[np.cumsum(steps)] * width + np.repeat(seg_e + 1, seg_size)


def bincount_expect(block, t, keys, width, counts):
    """Oracle of word_alignment._Block.expect: the whole block in one
    gather, one segment sum and one bincount, its terms as one chunk."""
    pairs, inverse = block.link_index(keys, width)
    probs = t[pairs][inverse]
    totals = np.add.reduceat(probs, block.seg_start)
    probs /= np.repeat(totals, block.seg_size)
    counts[pairs] += np.bincount(inverse, weights=probs, minlength=len(pairs))
    return [(np.log(totals) - block.log_len).tolist()]


def model_from_table(table, iterations_run, final_log_likelihood):
    """An AlignmentModel holding a {f: {e: p}} table."""
    entries = sorted((f, e, p) for f, row in table.items() for e, p in row.items())
    f, e, p = zip(*entries) if entries else ((), (), ())
    return AlignmentModel(f=f, e=e, p=p, iterations_run=iterations_run,
                          final_log_likelihood=final_log_likelihood)


def ids(vocab, sentence):
    return [vocab.index[w] for w in sentence.split()]


class TestTrainIbm1:
    def setup_method(self):
        self.vf = Vocabulary.from_tokens(["le", "chien"])
        self.ve = Vocabulary.from_tokens(["the", "dog"])
        self.corpus = ParallelCorpus(
            [
                (ids(self.vf, "le chien"), ids(self.ve, "the dog")),
                (ids(self.vf, "le"), ids(self.ve, "the")),
            ]
        )

    def test_two_sentence_corpus_concentrates(self):
        # frozen from the enumeration oracle below: with the english-side
        # NULL absorbing one count per sentence, the raw fixed point is
        # t(the|le) -> 0.5 (NULL 0.5) and t(dog|chien) -> 2/3; after NULL
        # removal the rows concentrate on the correct translations
        model = train_ibm1(self.corpus, iterations=10, prune=0.0)
        tm = translation_matrix_from_alignment(model, self.vf, self.ve)
        le, chien = self.vf.index["le"], self.vf.index["chien"]
        the, dog = self.ve.index["the"], self.ve.index["dog"]
        row_le = dict(tm.rows[le])
        row_chien = dict(tm.rows[chien])
        assert row_le[the] > 0.9
        assert row_chien[dog] == pytest.approx(0.79789, abs=1e-4)
        assert max(row_le, key=row_le.get) == the
        assert max(row_chien, key=row_chien.get) == dog

    def test_matches_brute_force_enumeration_oracle(self):
        model = train_ibm1(self.corpus, iterations=10, prune=0.0)
        oracle = brute_force_ibm1(self.corpus.pairs, iterations=10)
        table = model.table
        for f, row in oracle.items():
            for e, p in row.items():
                assert table[f].get(e, 0.0) == pytest.approx(p, abs=1e-9)

    def test_single_pair_closed_form(self):
        vf = Vocabulary.from_tokens(["a"])
        ve = Vocabulary.from_tokens(["x"])
        corpus = ParallelCorpus([(ids(vf, "a"), ids(ve, "x"))])
        model = train_ibm1(corpus, iterations=5, prune=0.0)
        row = model.table[vf.index["a"]]
        assert row[ve.index["x"]] >= 0.5
        assert row[ve.index["x"]] + row[NULL_ID] == pytest.approx(1.0, abs=1e-9)

    def test_one_iteration_rows_normalized(self):
        model = train_ibm1(self.corpus, iterations=1, prune=0.0)
        for row in model.table.values():
            assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-6)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(0)
        vf = Vocabulary.from_tokens([f"f{i}" for i in range(12)])
        ve = Vocabulary.from_tokens([f"e{i}" for i in range(12)])
        pairs = []
        for _ in range(40):
            n = rng.integers(1, 6)
            fg = list(rng.integers(NUM_SPECIALS, len(vf), n))
            en = list(rng.integers(NUM_SPECIALS, len(ve), n))
            pairs.append(([int(x) for x in fg], [int(x) for x in en]))
        model = train_ibm1(ParallelCorpus(pairs), iterations=12, prune=0.0)
        diffs = np.diff(model.log_likelihoods)
        assert np.all(diffs >= -1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pairs=SENTENCE_PAIRS, iterations=st.integers(min_value=1, max_value=6))
    def test_matches_dict_oracle(self, pairs, iterations):
        assert_matches_dict_oracle(pairs, iterations, prune=0.0)

    def test_matches_dict_oracle_edge_corpora(self):
        only_null = ([7], [])  # foreign 7 never sees an english word
        repeated = ([1, 1, 2], [3, 3, 3])
        single = ([4], [5])
        assert_matches_dict_oracle([only_null, repeated, single, only_null], 5, prune=0.0)
        assert_matches_dict_oracle([single], 1, prune=0.0)

    def test_matches_dict_oracle_with_pruning(self):
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(60):
            n = int(rng.integers(1, 7))
            fg = [int(x) for x in rng.integers(0, 15, n)]
            en = [int(x) for x in rng.integers(0, 15, int(rng.integers(0, 7)))]
            pairs.append((fg, en))
        for prune in (1e-4, 0.05, 0.6):
            assert_matches_dict_oracle(pairs, 8, prune)
            assert_matches_dict_oracle(pairs, 8, prune, block_links=20, cached_links=100)

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=SENTENCE_PAIRS,
        iterations=st.integers(min_value=1, max_value=6),
        block_links=st.integers(min_value=1, max_value=40),
        cached_links=st.integers(min_value=0, max_value=120),
    )
    def test_blocked_matches_dict_oracle(self, pairs, iterations, block_links, cached_links):
        # several blocks, some keeping their link index and some rebuilding it
        assert_matches_dict_oracle(pairs, iterations, prune=0.0,
                                   block_links=block_links, cached_links=cached_links)

    def test_block_memory_bounded_by_block_size(self):
        # few distinct pairs and long sentences: memory is per link
        rng = np.random.default_rng(8)
        pairs = [([int(x) for x in rng.integers(0, 6, 60)],
                  [int(x) for x in rng.integers(0, 6, 60)]) for _ in range(100)]
        corpus = ParallelCorpus(pairs)
        n_links = sum(len(fg) * (len(en) + 1) for fg, en in pairs)

        def traced_peak(**blocking):
            tracemalloc.start()
            try:
                with blocks_of(**blocking):
                    model = train_ibm1(corpus, iterations=3, prune=0.0)
                return model, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, whole_peak = traced_peak()
        blocked, blocked_peak = traced_peak(block_links=4000, cached_links=0)
        # one block holds its 4-byte link index, built through a few 4-byte
        # arrays per link, and E-step temporaries only a chunk long; small
        # blocks hold less than one 4-byte value per link
        assert 4 * n_links < whole_peak < 12 * n_links
        assert blocked_peak < 4 * n_links
        np.testing.assert_array_equal(blocked.f, whole.f)
        np.testing.assert_array_equal(blocked.e, whole.e)
        np.testing.assert_allclose(blocked.p, whole.p, rtol=1e-12, atol=0)
        assert blocked.log_likelihoods == pytest.approx(whole.log_likelihoods, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=SENTENCE_PAIRS,
        iterations=st.integers(min_value=1, max_value=4),
        chunk_links=st.sampled_from([1, 7, 2 * word_alignment.BLOCK_LINKS]),
        block_links=st.sampled_from([9, word_alignment.BLOCK_LINKS]),
    )
    @pytest.mark.parametrize("index", ["counted", "sorted"])
    @pytest.mark.parametrize("cached", [True, False])
    def test_chunked_expect_matches_bincount_oracle(self, pairs, iterations, chunk_links,
                                                    block_links, index, cached):
        if index == "counted":
            # 56 links in one pair, above the largest key 6 * 8 + 7: with
            # whole blocks, ranks come from counting
            pairs = [(list(range(7)), list(range(7))), *pairs]
        sorting = (mock.patch.object(word_alignment, "_unique_inverse", argsort_unique_inverse)
                   if index == "sorted" else contextlib.nullcontext())
        corpus = ParallelCorpus(pairs)
        blocking = blocks_of(block_links, word_alignment.CACHED_LINKS if cached else 0)
        with blocking, sorting:
            with mock.patch.object(word_alignment._Block, "expect", bincount_expect):
                want = train_ibm1(corpus, iterations=iterations, prune=0.0)
            with mock.patch.object(word_alignment, "CHUNK_LINKS", chunk_links):
                got = train_ibm1(corpus, iterations=iterations, prune=0.0)
        for name in ("f", "e", "p"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.log_likelihoods == want.log_likelihoods

    def test_expect_memory_bounded_by_chunk_size(self):
        # one EM iteration over a 366,000-link block: its temporaries are a
        # chunk long, not a block long
        rng = np.random.default_rng(8)
        pairs = [([int(x) for x in rng.integers(0, 6, 60)],
                  [int(x) for x in rng.integers(0, 6, 60)]) for _ in range(100)]
        chunk_links = 4096
        blocks = word_alignment._blocks(ParallelCorpus(pairs), word_alignment.BLOCK_LINKS)
        assert len(blocks) == 1 and blocks[0].n_links == 366000
        width = int(blocks[0].seg_e.max()) + 2
        keys = word_alignment._pair_keys(blocks, width, word_alignment.CACHED_LINKS)
        t = np.full(len(keys), 0.1)

        def em_iteration():
            counts = np.zeros(len(keys))
            terms = itertools.chain.from_iterable(blocks[0].expect(t, keys, width, counts))
            return math.fsum(terms), counts

        with mock.patch.object(word_alignment, "CHUNK_LINKS", chunk_links):
            em_iteration()  # first-call allocations
            tracemalloc.start()
            try:
                em_iteration()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a chunk's float64 posteriors and repeated totals, plus a fixed
        # allowance; one byte a link would be 366,000
        assert peak < 32 * chunk_links + 64 * 1024

    def test_pruning_renormalizes(self):
        model = train_ibm1(self.corpus, iterations=3, prune=1e-2)
        for row in model.table.values():
            assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(p > 0 for p in row.values())

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty"):
            train_ibm1(ParallelCorpus([]), iterations=1)

    @pytest.mark.parametrize("prune", [float("nan"), -1.0, -1e-300])
    def test_nan_or_negative_prune_raises(self, prune):
        with pytest.raises(ValueError, match=f"prune must be >= 0, got {prune}"):
            train_ibm1(self.corpus, iterations=1, prune=prune)

    def test_dictionary_generated_corpus_recovered(self):
        rng = np.random.default_rng(1)
        n_types = 60
        vf = Vocabulary.from_tokens([f"f{i}" for i in range(n_types)])
        ve = Vocabulary.from_tokens([f"e{i}" for i in range(n_types)])
        translation = {NUM_SPECIALS + i: NUM_SPECIALS + i for i in range(n_types)}
        pairs = []
        freq = defaultdict(int)
        for _ in range(800):
            length = rng.integers(3, 9)
            fg = [int(x) for x in rng.integers(NUM_SPECIALS, len(vf), length)]
            en = [translation[f] for f in fg]
            for f in fg:
                freq[f] += 1
            pairs.append((fg, en))
        model = train_ibm1(ParallelCorpus(pairs), iterations=10)
        tm = translation_matrix_from_alignment(model, vf, ve)
        rows = tm.rows
        checked = correct = 0
        for f, count in freq.items():
            if count < 5 or not rows[f]:
                continue
            checked += 1
            best = max(rows[f], key=lambda e: e[1])[0]
            correct += best == translation[f]
        assert checked > 0
        assert correct / checked >= 0.95


class TestLinkIndex:
    @pytest.mark.parametrize("values", [
        [3, 0, 2, 2, 1, 0],  # range = count, the counting side
        [6, 0, 2, 2, 1, 0],  # range = count + 1, the sorting side
        [3, 3, 3, 3],  # a single distinct key, counted
        [4, 4, 4, 4],  # a single distinct key, sorted
        [0], [0, 0], [5, 0, 0, 5, 0, 0],  # key 0
        [2, -1, 0],  # a negative value is sorted
    ])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_unique_inverse_matches_argsort(self, values, dtype):
        self.assert_matches_argsort(np.array(values, dtype=dtype))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
    def test_unique_inverse_matches_argsort_drawn(self, values):
        self.assert_matches_argsort(np.array(values, dtype=np.int32))

    @staticmethod
    def assert_matches_argsort(values):
        # distinct values and ranks, each of the oracle's dtype
        got, want = word_alignment._unique_inverse(values), argsort_unique_inverse(values)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, strict=True)

    @settings(max_examples=300, deadline=None)
    @given(pairs=SENTENCE_PAIRS, block_links=st.integers(min_value=1, max_value=200))
    def test_link_keys_match_seg_step_oracle(self, pairs, block_links):
        blocks = word_alignment._blocks(ParallelCorpus(pairs), block_links)
        a = 0
        for block in blocks:
            n = int(np.count_nonzero(block.seg_e == NULL_ID))  # one NULL a sentence
            got, want = block.link_keys(9), seg_step_link_keys(pairs[a:a + n], 9)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, want)
            a += n
        assert a == len(pairs)

    def test_train_ibm1_equal_with_the_argsort_index(self):
        # small ids in most pairs, so that most blocks count; a few pairs
        # with large ids, so that the blocks holding them sort
        rng = np.random.default_rng(12)
        pairs = []
        for n in range(150):
            top = 400 if n % 40 == 7 else 6
            pairs.append(([int(x) for x in rng.integers(0, top, rng.integers(1, 8))],
                          [int(x) for x in rng.integers(0, 6, rng.integers(0, 8))]))
        counted = []

        def spy(values):
            counted.append(int(values.max()) < len(values))
            return unique_inverse(values)

        unique_inverse = word_alignment._unique_inverse
        with blocks_of(block_links=120, cached_links=1500), \
                mock.patch.object(word_alignment, "_unique_inverse", spy):
            got = train_ibm1(ParallelCorpus(pairs), iterations=4, prune=1e-3)
        assert len(counted) > 2 * 4 and any(counted) and not all(counted)
        with blocks_of(block_links=120, cached_links=1500), \
                mock.patch.object(word_alignment, "_unique_inverse", argsort_unique_inverse):
            want = train_ibm1(ParallelCorpus(pairs), iterations=4, prune=1e-3)
        for name in ("f", "e", "p"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)
        assert got.log_likelihoods == want.log_likelihoods

    def test_pair_keys_memory_per_link(self):
        # one block, a key range far below its link count
        rng = np.random.default_rng(8)
        pairs = [([int(x) for x in rng.integers(0, 6, 60)],
                  [int(x) for x in rng.integers(0, 6, 60)]) for _ in range(100)]
        blocks = word_alignment._blocks(ParallelCorpus(pairs), word_alignment.BLOCK_LINKS)
        (block,) = blocks
        width = int(block.seg_e.max()) + 2
        tracemalloc.start()
        try:
            keys = word_alignment._pair_keys(blocks, width, word_alignment.CACHED_LINKS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 32-bit key and a 32-bit rank per link, and one more 32-bit array
        # at a time; sorting 64-bit keys took 45 bytes per link
        assert peak < 12 * block.n_links
        assert len(keys) == 42 and block.index[1].dtype == np.int32


class TestParseFastalign:
    def _corpus(self):
        vf = Vocabulary.from_tokens(["a", "b"])
        ve = Vocabulary.from_tokens(["x", "y"])
        corpus = ParallelCorpus([(ids(vf, "a b"), ids(ve, "x y"))])
        return vf, ve, corpus

    def test_direct_counting(self, tmp_path):
        vf, ve, corpus = self._corpus()
        (tmp_path / "al.txt").write_text("0-0 1-1\n")
        model = parse_fastalign(tmp_path / "al.txt", corpus)
        assert model.table[vf.index["a"]][ve.index["x"]] == 1.0
        assert model.table[vf.index["b"]][ve.index["y"]] == 1.0

    def test_relative_frequency(self, tmp_path):
        vf = Vocabulary.from_tokens(["l"])
        ve = Vocabulary.from_tokens(["e1", "e2"])
        corpus = ParallelCorpus(
            [
                (ids(vf, "l"), ids(ve, "e1")),
                (ids(vf, "l"), ids(ve, "e1")),
                (ids(vf, "l"), ids(ve, "e2")),
            ]
        )
        (tmp_path / "al.txt").write_text("0-0\n0-0\n0-0\n")
        model = parse_fastalign(tmp_path / "al.txt", corpus)
        assert model.table[vf.index["l"]][ve.index["e1"]] == pytest.approx(2 / 3)

    def test_out_of_range_index(self, tmp_path):
        vf, ve, corpus = self._corpus()
        (tmp_path / "al.txt").write_text("0-0 5-1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_fastalign(tmp_path / "al.txt", corpus)

    @pytest.mark.parametrize("line,entry", [("0-0 nonsense", "nonsense"),
                                            ("\u00b2-0", "\u00b2-0")],  # a digit, not decimal
                             ids=["word", "superscript"])
    def test_malformed_entry(self, tmp_path, line, entry):
        vf, ve, corpus = self._corpus()
        path = tmp_path / "al.txt"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            parse_fastalign(path, corpus)
        assert str(exc.value) == f"{path}: line 1: malformed entry {entry!r}"

    def test_line_count_mismatch(self, tmp_path):
        vf, ve, corpus = self._corpus()
        (tmp_path / "al.txt").write_text("0-0\n1-1\n")
        with pytest.raises(ValueError, match="alignment lines"):
            parse_fastalign(tmp_path / "al.txt", corpus)

    def test_bijection_gives_one_hot_rows(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 10
        vf = Vocabulary.from_tokens([f"f{i}" for i in range(n)])
        ve = Vocabulary.from_tokens([f"e{i}" for i in range(n)])
        perm = {NUM_SPECIALS + i: NUM_SPECIALS + int(p)
                for i, p in enumerate(rng.permutation(n))}
        pairs, lines = [], []
        for _ in range(30):
            length = int(rng.integers(2, 6))
            fg = [int(x) for x in rng.integers(NUM_SPECIALS, len(vf), length)]
            en = [perm[f] for f in fg]
            pairs.append((fg, en))
            lines.append(" ".join(f"{i}-{i}" for i in range(length)))
        (tmp_path / "al.txt").write_text("\n".join(lines) + "\n")
        model = parse_fastalign(tmp_path / "al.txt", ParallelCorpus(pairs))
        tm = translation_matrix_from_alignment(model, vf, ve)
        for f, row in enumerate(tm.rows):
            if row:
                assert row == [(perm[f], 1.0)]


class TestTranslationMatrixFromAlignment:
    def test_passthrough(self):
        vf = Vocabulary.from_tokens(["le"])
        ve = Vocabulary.from_tokens(["the", "a"])
        model = model_from_table(
            table={vf.index["le"]: {ve.index["the"]: 0.9, ve.index["a"]: 0.1}},
            iterations_run=1,
            final_log_likelihood=0.0,
        )
        tm = translation_matrix_from_alignment(model, vf, ve)
        row = dict(tm.rows[vf.index["le"]])
        assert row[ve.index["the"]] == pytest.approx(0.9)

    def test_null_mass_dropped_and_renormalized(self):
        vf = Vocabulary.from_tokens(["le"])
        ve = Vocabulary.from_tokens(["the"])
        model = model_from_table(
            table={vf.index["le"]: {NULL_ID: 0.4, ve.index["the"]: 0.6}},
            iterations_run=1,
            final_log_likelihood=0.0,
        )
        tm = translation_matrix_from_alignment(model, vf, ve)
        assert tm.rows[vf.index["le"]] == [(ve.index["the"], 1.0)]

    def test_unseen_token_uncovered(self):
        vf = Vocabulary.from_tokens(["seen", "unseen"])
        ve = Vocabulary.from_tokens(["x"])
        model = model_from_table(
            table={vf.index["seen"]: {ve.index["x"]: 1.0}},
            iterations_run=1,
            final_log_likelihood=0.0,
        )
        tm = translation_matrix_from_alignment(model, vf, ve)
        assert tm.rows[vf.index["unseen"]] == []
        assert tm.coverage[vf.index["unseen"]] is False


class TestSubsample:
    def test_exact_two_million(self):
        pair = ([5], [5])
        corpus = ParallelCorpus([pair] * 2_200_000)
        sampled = subsample(corpus, 2_000_000, seed=0)
        assert len(sampled) == 2_000_000

    def test_whole_corpus_when_n_large(self):
        corpus = ParallelCorpus([([5], [6]), ([7], [8])])
        sampled = subsample(corpus, 10, seed=0)
        assert sampled.pairs == corpus.pairs

    def test_deterministic(self):
        corpus = ParallelCorpus([([i], [i]) for i in range(5, 100)])
        a = subsample(corpus, 10, seed=42)
        b = subsample(corpus, 10, seed=42)
        assert a.pairs == b.pairs
        c = subsample(corpus, 10, seed=43)
        assert c.pairs != a.pairs
