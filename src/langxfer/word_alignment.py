"""Lexical translation probabilities p(english | foreign) from parallel data.

Two routes produce the same table shape: an internal IBM Model 1 EM aligner,
and a parser for external fast-align output ("i-j" pairs, foreign side run
as the source). A NULL english token absorbs unaligned foreign mass; it is
dropped (and rows renormalized) when building a translation matrix.

Tables are parallel index arrays (f, e, p) sorted by (f, e), NULL first in
each row; the EM runs on flat gather / segment-sum / scatter-add passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import ParallelCorpus, Vocabulary, open_text, require
from .translation import TranslationMatrix

NULL_ID = -1


@dataclass
class AlignmentModel:
    """Sparse table p(e | f): entries (f[k], e[k], p[k]), sorted by (f, e).

    e == NULL_ID is the NULL english word.
    """

    f: np.ndarray
    e: np.ndarray
    p: np.ndarray
    iterations_run: int
    final_log_likelihood: float
    log_likelihoods: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.f = np.asarray(self.f, dtype=np.int64)
        self.e = np.asarray(self.e, dtype=np.int64)
        self.p = np.asarray(self.p, dtype=np.float64)
        if not (self.f.shape == self.e.shape == self.p.shape) or self.f.ndim != 1:
            raise ValueError("f, e and p must be 1-D arrays of one length")
        same_f = self.f[1:] == self.f[:-1]
        if np.any(self.f[1:] < self.f[:-1]) or np.any(same_f & (self.e[1:] <= self.e[:-1])):
            raise ValueError("entries must be sorted by (f, e) without duplicates")

    @property
    def table(self) -> dict[int, dict[int, float]]:
        """Foreign id -> {english id (or NULL_ID): prob}.

        Each access builds a fresh dict from the arrays in O(entries); read
        it once before a loop, and edits to it do not reach the model.
        """
        out: dict[int, dict[int, float]] = {}
        for f, e, p in zip(self.f.tolist(), self.e.tolist(), self.p.tolist()):
            out.setdefault(f, {})[e] = p
        return out

    def check_rows(self, tol: float = 1e-6) -> None:
        starts = np.flatnonzero(_run_starts(self.f))
        totals = np.add.reduceat(self.p, starts) if len(starts) else self.p
        bad = np.flatnonzero(np.abs(totals - 1.0) > tol)
        if len(bad):
            raise ValueError(
                f"row for foreign id {self.f[starts[bad[0]]]} sums to {totals[bad[0]]}"
            )


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _flat_ids(sentences) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ids and per-sentence lengths of a list of id lists."""
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64,
                      count=int(lengths.sum()))
    return ids, lengths


# links per block: every per-link array of train_ibm1 is at most one block long
BLOCK_LINKS = 1 << 20
# links per E-step chunk: a block's posteriors and segment totals are taken
# a chunk of whole segments at a time
CHUNK_LINKS = 1 << 16
# links whose index (4 bytes each) is kept between EM iterations; blocks past
# this budget build it again in every iteration
CACHED_LINKS = 1 << 25


def _index_dtype(bound: int) -> type:
    """The narrower integer type that holds every value below `bound`."""
    return np.int32 if bound < 2**31 else np.int64


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values, and the position of each value among them.

    Values within [0, len(values)) are ranked by counting over that range,
    any others by sorting.
    """
    rank_dtype = _index_dtype(len(values))
    if len(values) and values.min() >= 0 and values.max() < len(values):
        present = np.zeros(int(values.max()) + 1, dtype=bool)
        present[values] = True
        rank = np.cumsum(present, dtype=rank_dtype) - 1
        return np.flatnonzero(present).astype(values.dtype, copy=False), rank[values]
    order = np.argsort(values)
    ordered = values[order]
    first = _run_starts(ordered)
    inverse = np.empty(len(values), dtype=rank_dtype)
    inverse[order] = np.cumsum(first, dtype=rank_dtype) - 1
    return ordered[first], inverse


def _union(arrays: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct values of arrays that are each sorted and distinct."""
    arrays = [a for a in arrays if len(a)]
    if len(arrays) == 1:
        return arrays[0]
    values = np.sort(np.concatenate(arrays))
    return values[_run_starts(values)]


class _Block:
    """A run of sentence pairs, split into segments: one per (sentence,
    english position), NULL last in each sentence. A segment holds |f| links,
    one per foreign position of its sentence."""

    def __init__(self, fg_ids, fg_len, en_ids, en_len) -> None:
        self.fg_ids = fg_ids
        self.seg_e = np.insert(en_ids, np.cumsum(en_len), NULL_ID)
        self.seg_size = np.repeat(fg_len, en_len + 1)
        self.seg_start = np.cumsum(self.seg_size) - self.seg_size
        self.log_len = np.log(self.seg_size.astype(np.float64))
        self.n_links = int(self.seg_size.sum())
        self.index: tuple[np.ndarray, np.ndarray] | None = None

    def link_keys(self, width: int) -> np.ndarray:
        """Key f * width + e + 1 of each link: sorts by (f, e), NULL first.

        32-bit, as are the link positions, when the links and keys fit.
        """
        dtype = _index_dtype(max(self.n_links, (int(np.abs(self.fg_ids).max()) + 1) * width))
        key = (self.fg_ids.astype(dtype) * width)[self._link_positions(dtype)]
        key += np.repeat((self.seg_e + 1).astype(dtype), self.seg_size)
        return key

    def _link_positions(self, dtype: type) -> np.ndarray:
        """Position in fg_ids of each link's foreign token.

        Link k of a segment takes its sentence's k-th foreign token: each link
        steps one token on, but a segment's first link steps back to its
        sentence's first token, or on to the next sentence's after a NULL.
        """
        first = np.subtract(1, self.seg_size, dtype=dtype)
        first[0] = 0
        first[1:][self.seg_e[:-1] == NULL_ID] = 1
        steps = np.ones(self.n_links, dtype=dtype)
        steps[self.seg_start] = first
        return np.cumsum(steps, dtype=dtype, out=steps)

    def link_index(self, keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Pair index of each distinct (f, e) in the block, and each link's
        position among them."""
        if self.index is not None:
            return self.index
        block_keys, inverse = _unique_inverse(self.link_keys(width))
        return np.searchsorted(keys, block_keys), inverse

    def expect(self, t: np.ndarray, keys: np.ndarray, width: int,
               counts: np.ndarray) -> Iterator[list[float]]:
        """E-step: adds the block's posteriors to counts and yields its
        per-segment log-likelihood terms, one list per chunk.

        A chunk is the segments that start in one CHUNK_LINKS window of
        links. `np.add.at` adds each chunk's posteriors in link order, as one
        `np.bincount` over the block would, so the counts keep their bits;
        the block's per-link memory is its link index alone.
        """
        pairs, inverse = self.link_index(keys, width)
        t_pairs = t[pairs]
        block_counts = np.zeros(len(pairs))
        seg_bounds = np.unique(np.searchsorted(
            self.seg_start, np.arange(0, self.n_links + CHUNK_LINKS, CHUNK_LINKS)))
        link_bounds = np.append(self.seg_start[seg_bounds[:-1]], self.n_links)
        for (s0, a), (s1, b) in itertools.pairwise(zip(seg_bounds.tolist(),
                                                       link_bounds.tolist())):
            probs = t_pairs[inverse[a:b]]
            totals = np.add.reduceat(probs, self.seg_start[s0:s1] - a)
            probs /= np.repeat(totals, self.seg_size[s0:s1])
            np.add.at(block_counts, inverse[a:b], probs)
            yield (np.log(totals) - self.log_len[s0:s1]).tolist()
        counts[pairs] += block_counts


def _blocks(corpus: ParallelCorpus, block_links: int) -> list[_Block]:
    """Consecutive runs of pairs of at most block_links links each (a longer
    pair forms a block alone)."""
    fg_ids, fg_len = _flat_ids([fg for fg, _ in corpus.pairs])
    en_ids, en_len = _flat_ids([en for _, en in corpus.pairs])
    if np.any(fg_len == 0):
        raise ValueError("cannot align a pair with an empty foreign side")
    fg_off = np.concatenate(([0], np.cumsum(fg_len)))
    en_off = np.concatenate(([0], np.cumsum(en_len)))
    link_end = np.cumsum(fg_len * (en_len + 1))
    blocks = []
    a = 0
    while a < len(fg_len):
        base = link_end[a - 1] if a else 0
        b = max(int(np.searchsorted(link_end, base + block_links, "right")), a + 1)
        blocks.append(_Block(fg_ids[fg_off[a]:fg_off[b]], fg_len[a:b],
                             en_ids[en_off[a]:en_off[b]], en_len[a:b]))
        a = b
    return blocks


def _pair_keys(blocks: list[_Block], width: int, cached_links: int) -> np.ndarray:
    """Sorted distinct link keys of all blocks. Taken in order, the blocks
    that still fit in the `cached_links` budget keep their link index.

    A block's distinct keys wait until they outnumber the keys merged so
    far, so a merge sorts at most about twice the final key count.
    """
    keys = np.empty(0, dtype=np.int64)
    pending: list[np.ndarray] = []
    n_pending = 0
    cached = []
    for block in blocks:
        block_keys, inverse = _unique_inverse(block.link_keys(width))
        if block.n_links <= cached_links:
            cached_links -= block.n_links
            cached.append((block, block_keys, inverse))
        pending.append(block_keys)
        n_pending += len(block_keys)
        if n_pending >= len(keys):
            keys = _union([keys, *pending])
            pending, n_pending = [], 0
    keys = _union([keys, *pending])
    for block, block_keys, inverse in cached:
        # a block that holds every key needs no search
        pairs = (np.arange(len(keys)) if len(block_keys) == len(keys)
                 else np.searchsorted(keys, block_keys))
        block.index = pairs, inverse
    return keys


def train_ibm1(
    corpus: ParallelCorpus, iterations: int = 10, prune: float = 1e-4
) -> AlignmentModel:
    """Estimate p(e|f) by IBM Model 1 EM with a uniform alignment prior.

    Each english sentence is augmented with a NULL token; every english token
    (NULL included) aligns to one foreign position. Initialization is uniform
    over co-occurring pairs only. After the final iteration, entries below
    `prune` are dropped and rows renormalized.

    Every sentence pair has |f| x (|e|+1) links. The links are built in
    blocks of about BLOCK_LINKS, so per-link memory is bounded by the block
    size, not by the corpus; the distinct (f, e) pairs form one sorted index.
    A block's link index maps each link to the block's distinct pairs, and
    those to the global index. An EM iteration gathers t(e|f) over each
    block's links, sums them per segment, and adds the posteriors onto the
    block's pairs, in chunks of about CHUNK_LINKS links. Blocks within the
    first CACHED_LINKS links keep their index between iterations; later
    blocks build it again each time.
    """
    if not corpus.pairs:
        raise ValueError("cannot train an aligner on an empty corpus")
    require("iterations", iterations, ">= 1")
    require("prune", prune, ">= 0")  # NaN too: no entry compares >= NaN

    blocks = _blocks(corpus, BLOCK_LINKS)
    width = max(int(block.seg_e.max()) for block in blocks) + 2
    keys = _pair_keys(blocks, width, CACHED_LINKS)
    pair_f, pair_e = keys // width, keys % width - 1
    row_first = _run_starts(pair_f)
    row_start = np.flatnonzero(row_first)
    row_size = np.diff(np.append(row_start, len(pair_f)))
    n_rows = len(row_start)
    pair_row = np.cumsum(row_first) - 1
    t = 1.0 / row_size[pair_row]  # uniform over co-occurring pairs plus NULL

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        counts = np.zeros(len(keys))
        # fsum takes the blocks' terms one chunk at a time
        chunks = itertools.chain.from_iterable(
            block.expect(t, keys, width, counts) for block in blocks)
        ll = math.fsum(itertools.chain.from_iterable(chunks))
        if log_likelihoods and ll < log_likelihoods[-1] - 1e-9:
            raise AssertionError(
                f"EM log-likelihood decreased: {log_likelihoods[-1]} -> {ll}"
            )
        log_likelihoods.append(ll)
        t = counts / np.bincount(pair_row, weights=counts)[pair_row]

    # prune, keeping at least the strongest entry of each row (NULL, then the
    # smallest english id, wins a tie), then renormalize
    kept = t >= prune
    empty = np.bincount(pair_row, weights=kept, minlength=n_rows) == 0
    if np.any(empty):
        best = t == np.maximum.reduceat(t, row_start)[pair_row]
        first_best = np.flatnonzero(best)[_run_starts(pair_row[best])]
        kept[first_best[empty]] = True
    f, e, p = pair_f[kept], pair_e[kept], t[kept]
    p = p / np.bincount(pair_row[kept], weights=p, minlength=n_rows)[pair_row[kept]]

    model = AlignmentModel(
        f=f,
        e=e,
        p=p,
        iterations_run=iterations,
        final_log_likelihood=log_likelihoods[-1],
        log_likelihoods=log_likelihoods,
    )
    model.check_rows()
    return model


def parse_fastalign(
    alignments_path: str | Path, corpus: ParallelCorpus
) -> AlignmentModel:
    """Relative-frequency p(e|f) from fast-align output.

    One line per corpus pair; entries are "i-j" with i the 0-based foreign
    position and j the english position. Empty lines mean no alignments.
    """
    with open_text(alignments_path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(corpus.pairs):
        raise ValueError(
            f"{alignments_path}: {len(lines)} alignment lines for "
            f"{len(corpus.pairs)} sentence pairs"
        )
    link_f: list[int] = []
    link_e: list[int] = []
    for n, (line, (fg, en)) in enumerate(zip(lines, corpus.pairs), 1):
        for entry in line.split():
            left, sep, right = entry.partition("-")
            if not sep or not left.isdecimal() or not right.isdecimal():
                raise ValueError(
                    f"{alignments_path}: line {n}: malformed entry {entry!r}"
                )
            i, j = int(left), int(right)
            if i >= len(fg) or j >= len(en):
                raise ValueError(
                    f"{alignments_path}: line {n}: index {entry} out of range "
                    f"for lengths {len(fg)}/{len(en)}"
                )
            link_f.append(fg[i])
            link_e.append(en[j])
    f_arr = np.array(link_f, dtype=np.int64)
    e_arr = np.array(link_e, dtype=np.int64)
    width = int(e_arr.max()) + 1 if len(e_arr) else 1
    keys, counts = np.unique(f_arr * width + e_arr, return_counts=True)
    f = keys // width
    totals = np.bincount(f_arr)[f]
    model = AlignmentModel(
        f=f,
        e=keys % width,
        p=counts / totals,
        iterations_run=0,
        final_log_likelihood=float("nan"),
    )
    model.check_rows()
    return model


def translation_matrix_from_alignment(
    model: AlignmentModel, tgt_vocab: Vocabulary, src_vocab: Vocabulary
) -> TranslationMatrix:
    """Alignment probabilities as translation-matrix rows, NULL mass dropped."""
    n_tgt = len(tgt_vocab)
    bad_f = model.f[(model.f < 0) | (model.f >= n_tgt)]
    if len(bad_f):
        raise ValueError(f"foreign id {bad_f[0]} out of range for the target vocabulary")
    real = model.e != NULL_ID
    bad_e = model.e[real & ((model.e < 0) | (model.e >= len(src_vocab)))]
    if len(bad_e):
        raise ValueError(f"english id {bad_e[0]} out of range for the source vocabulary")
    f, e, p = model.f[real], model.e[real], model.p[real]
    mass = np.bincount(f, weights=p, minlength=n_tgt)
    covered = mass[f] > 0.0  # a row with only NULL mass stays uncovered
    f, e, p = f[covered], e[covered], p[covered]
    return TranslationMatrix.from_entries(n_tgt, f, e, p / mass[f])


def subsample(corpus: ParallelCorpus, n: int, seed: int) -> ParallelCorpus:
    """Uniform sample of n pairs without replacement, original order kept."""
    require("subsample size", n, ">= 1")
    if n >= len(corpus.pairs):
        return ParallelCorpus(list(corpus.pairs), dropped=corpus.dropped)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(corpus.pairs), size=n, replace=False))
    return ParallelCorpus([corpus.pairs[i] for i in idx], dropped=corpus.dropped)
