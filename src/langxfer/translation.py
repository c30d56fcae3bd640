"""Sparsemax and row-sparse translation-probability matrices.

A translation matrix holds, for each foreign token, a sparse probability
distribution over source-language tokens. Rows come either from sparsemax
of dot products between aligned embedding spaces, from word-alignment
probabilities, or from a ground-truth dictionary. Special tokens never get
a row; they are handled separately at initialization time.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import NUM_SPECIALS, BpeCodes, Vocabulary, apply_bpe, open_text, replacing
from .embeddings import EmbeddingMatrix

UNIGRAM_FLOOR = 1e-9
SPARSEMAX_TOP_K = 64  # width of the first partial sort in `sparsemax`
SLICE_BYTES = 1 << 21  # bytes of one row slice normalised at once (2 MB)
# the dense softmax ablation stores every (row, column) entry as CSR, 16 bytes
# each: 2^24 entries are 268 MB; 8000 x 8000 would be about 1 GB
SOFTMAX_MAX_ENTRIES = 1 << 24


def sparsemax(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of z onto the probability simplex (row-wise for 2-D).

    Sort-and-threshold: with z sorted descending, the support size is the
    largest k such that 1 + k*z_(k) > sum_{j<=k} z_(j); the threshold is
    tau = (sum_{j<=k} z_(j) - 1) / k and the output is max(z - tau, 0).

    Only the k largest entries of each row are sorted (exact top-k, Peters,
    Niculae & Martins 2019), k doubling up to n until every row's support
    ends inside them. Because the running sum is sequential, the prefix
    sums, the support count and tau are those of a full sort bit for bit.
    """
    z = np.asarray(z, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    n = z.shape[1]
    # a row's max is NaN or +inf, or its min -inf, if any entry is not finite
    high, low = np.max(z, axis=1), np.min(z, axis=1)
    if not (np.all(np.isfinite(high)) and np.all(np.isfinite(low))):
        raise ValueError("sparsemax requires finite input")
    # Past the k-th largest value u_k the support condition is false in
    # exact arithmetic; it stays false in a full sort's rounded prefix sums
    # only while tau - u_k exceeds their error bound. Values tied with tau
    # past k (support condition at equality) need the full sort.
    scale = np.maximum(high, -low) + 1.0
    margin = 2.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * scale
    rows = np.arange(z.shape[0])
    k = min(SPARSEMAX_TOP_K, n)
    buffer = None  # the last partition's copy of z, reused for the output
    while True:
        if k == n:
            top = z
        else:
            buffer = np.partition(z, n - k, axis=1)
            top = buffer[:, n - k:]
        u = -np.sort(-top, axis=1)
        cssv = np.cumsum(u, axis=1) - 1.0
        support = u * np.arange(1, k + 1, dtype=np.float64) > cssv
        count = np.count_nonzero(support, axis=1)
        tau = cssv[rows, count - 1] / count
        inside = (count < k) & (count > 0) & (u[:, -1] < tau - margin)
        if k == n or np.all(inside):
            break
        k = min(2 * k, n)
    out = np.subtract(z, tau[:, None], out=buffer)
    np.maximum(out, 0.0, out=out)
    return out[0] if squeeze else out


@dataclass
class TranslationMatrix:
    """Row-sparse stochastic matrix in CSR form.

    Row i holds source indices `indices[indptr[i]:indptr[i+1]]`, strictly
    increasing, with positive float64 `weights` that sum to 1; an empty row
    is an uncovered token.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        ptr = self.indptr
        if ptr.ndim != 1 or len(ptr) < 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if not ptr[-1] == len(self.indices) == len(self.weights):
            raise ValueError("indptr, indices and weights disagree on the entry count")
        counts = np.diff(ptr)
        row_of = np.repeat(np.arange(len(counts)), counts)
        bad = np.flatnonzero(self.indices < 0)
        if len(bad):
            raise ValueError(f"row {row_of[bad[0]]}: source indices must be non-negative")
        same_row = row_of[1:] == row_of[:-1]
        bad = np.flatnonzero(same_row & (self.indices[1:] <= self.indices[:-1]))
        if len(bad):
            raise ValueError(
                f"row {row_of[bad[0]]}: source indices must be strictly increasing"
            )
        covered = np.flatnonzero(counts)
        if len(covered):
            totals = np.add.reduceat(self.weights, ptr[covered])
            bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-6))  # NaN too
            if len(bad):
                raise ValueError(
                    f"row {covered[bad[0]]}: weights sum to {totals[bad[0]]}, expected 1"
                )
        bad = np.flatnonzero(~(self.weights > 0))
        if len(bad):
            raise ValueError(f"row {row_of[bad[0]]}: weights must be positive")

    @classmethod
    def from_entries(cls, n_rows: int, rows, indices, weights) -> "TranslationMatrix":
        """Build an `n_rows`-row matrix from entries (rows[k], indices[k],
        weights[k]) listed in row order; a row without entries is uncovered."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows[0] < 0 or rows[-1] >= n_rows or np.any(rows[1:] < rows[:-1])):
            raise ValueError(f"entries must be in row order, in rows 0 to {n_rows - 1}")
        return cls(np.searchsorted(rows, np.arange(n_rows + 1)), indices, weights)

    @property
    def rows(self) -> list[list[tuple[int, float]]]:
        """Row i as a list of (source index, weight).

        Each access builds a fresh list from the CSR arrays in O(nnz); read
        it once before a loop, and edits to it do not reach the matrix.
        """
        idx, w = self.indices.tolist(), self.weights.tolist()
        bounds = self.indptr.tolist()
        return [list(zip(idx[a:b], w[a:b])) for a, b in zip(bounds, bounds[1:])]

    @property
    def coverage(self) -> list[bool]:
        """Whether each row has entries; built per access in O(rows)."""
        return (np.diff(self.indptr) > 0).tolist()

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def check_sources(self, n_src: int, first_row: int = 0) -> None:
        """Raise ValueError naming the first row, from `first_row` on, that
        holds a source index of `n_src` (the source vocabulary's size) or more."""
        first = self.indptr[first_row]
        beyond = np.flatnonzero(self.indices[first:] >= n_src)
        if len(beyond):
            k = first + beyond[0]
            row = int(np.searchsorted(self.indptr, k, side="right")) - 1
            raise ValueError(
                f"row {row} references source index {self.indices[k]} beyond "
                f"the source vocabulary"
            )


def translation_matrix_from_vectors(
    tgt_aligned: EmbeddingMatrix,
    src: EmbeddingMatrix,
    mode: str = "sparsemax",
    chunk: int = 512,
) -> TranslationMatrix:
    """Row i = sparsemax(tgt[i] . src') over non-special source tokens.

    Dot products accumulate in 64-bit. Target rows that are special tokens or
    exactly zero vectors (no upstream support) stay uncovered. `mode` may be
    "softmax" for the dense ablation variant, which refuses a matrix of more
    than SOFTMAX_MAX_ENTRIES rows x columns (non-special tokens).

    Scores come in blocks of `chunk` target rows, one GEMM each. The last
    bits of a GEMM result depend on its shape (BLAS picks kernels and
    summation order by size), so the matrix's last bits depend on `chunk`.
    sparsemax and softmax are exact per row, so they run on row slices of
    about `SLICE_BYTES`, which stay in cache; a row without a vector scores
    every column the same, so it is left out of its slice rather than
    normalised. A slice's entries are read off one boolean mask of its
    positive probabilities. Two workers, this thread and one helper, take
    alternate blocks (0, 2, 4, ... and 1, 3, 5, ...), each running its
    block's GEMM into its own score buffer and then normalising the block;
    NumPy drops the interpreter lock in both, and no more than the two
    buffers' score blocks exist at once. The parts are joined in block
    order. An exception in either worker stops the other after its current
    block and propagates once both have ended.
    """
    if tgt_aligned.dim != src.dim:
        raise ValueError(f"dimension mismatch: {tgt_aligned.dim} vs {src.dim}")
    if mode not in ("sparsemax", "softmax"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "softmax":
        dense = (max(len(tgt_aligned.vocab) - NUM_SPECIALS, 0)
                 * max(len(src.vocab) - NUM_SPECIALS, 0))
        if dense > SOFTMAX_MAX_ENTRIES:
            raise ValueError(
                f"softmax mode would store {dense:,} entries ({16 * dense / 1e6:,.0f} MB), "
                f"over the limit of {SOFTMAX_MAX_ENTRIES:,}; use sparsemax"
            )
    src_data = src.data[NUM_SPECIALS:].astype(np.float64)
    n_tgt = len(tgt_aligned.vocab)
    starts = range(NUM_SPECIALS, n_tgt, chunk)
    failed = threading.Event()
    # one score buffer per worker, allocated once here: no block pays fresh
    # page faults, and the helper's allocator never holds a score block
    buffers = [np.empty((min(chunk, n_tgt), len(src_data))) for _ in range(2)]

    def blocks(first: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        try:
            for start in starts[first::2]:
                if failed.is_set():
                    break
                block = tgt_aligned.data[start:start + chunk].astype(np.float64)
                nonzero = np.any(block != 0.0, axis=1)
                scores = np.matmul(block, src_data.T, out=buffers[first][:len(block)])
                out.append(_block_entries(scores, nonzero, mode, start))
        except BaseException:
            failed.set()
            raise
        return out

    with ThreadPoolExecutor(max_workers=1) as helper:
        odd = helper.submit(blocks, 1)
        even = blocks(0)
        odd = odd.result()
    parts: list = [None] * len(starts)
    parts[0::2], parts[1::2] = even, odd
    return TranslationMatrix.from_entries(
        n_tgt, *(np.concatenate([part[k] for part in parts] or [np.zeros(0)]) for k in range(3)))


def _block_entries(
    scores: np.ndarray, nonzero: np.ndarray, mode: str, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target rows, source indices, weights) of the score block whose first
    row is target row `start`, in row order.

    Rows of `scores` with `nonzero` false get no entries and are not
    normalised. A row's entries are its positive probabilities, found
    through one boolean mask that every slice of the block reuses.
    """
    n = scores.shape[1]
    step = max(1, SLICE_BYTES // (8 * max(n, 1)))
    mask = np.empty((min(step, len(scores)), n), dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    rows, indices, weights = [empty], [empty], [np.zeros(0)]
    for a in range(0, len(scores), step):
        z = scores[a:a + step]
        live = np.flatnonzero(nonzero[a:a + step])
        if not len(live):
            continue
        if len(live) < len(z):
            z = z[live]
        if mode == "sparsemax":
            probs = sparsemax(z)
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
        flat = np.flatnonzero(np.greater(probs, 0.0, out=mask[:len(z)]))
        r, c = np.divmod(flat, n)
        rows.append(start + a + live[r])
        indices.append(c + NUM_SPECIALS)
        weights.append(probs.ravel()[flat])
        del probs, z  # before the next slice's sparsemax
    return np.concatenate(rows), np.concatenate(indices), np.concatenate(weights)


def dictionary_translation_matrix(
    pairs: list[tuple[int, int]], tgt_vocab: Vocabulary, src_vocab: Vocabulary
) -> TranslationMatrix:
    """One-hot rows from (tgt index, src index) ground-truth pairs; a later
    pair for a target replaces an earlier one. The first pair with an index
    out of range, its target checked first, is the error."""
    tgt, src = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2).T
    bad_tgt = (tgt < NUM_SPECIALS) | (tgt >= len(tgt_vocab))
    bad = np.flatnonzero(bad_tgt | (src < NUM_SPECIALS) | (src >= len(src_vocab)))
    if len(bad):
        k = bad[0]
        raise ValueError(f"target index {tgt[k]} out of range" if bad_tgt[k]
                         else f"source index {src[k]} out of range")
    rows, last = np.unique(tgt[::-1], return_index=True)  # each target's last pair
    return TranslationMatrix.from_entries(len(tgt_vocab), rows, src[::-1][last],
                                          np.ones(len(rows)))


@dataclass
class SubwordVectorTable:
    """Subword vectors aggregated from word vectors, with contributor counts."""

    emb: EmbeddingMatrix
    support: np.ndarray  # per-subword number of contributing words

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=np.int64)
        if self.support.shape[0] != len(self.emb.vocab):
            raise ValueError("support length must match the subword vocabulary")


def subword_vectors(
    word_emb: EmbeddingMatrix,
    counts: Counter,
    subword_vocab: Vocabulary,
    codes: BpeCodes,
) -> SubwordVectorTable:
    """Each subword vector is the unigram-weighted average of its words' vectors.

    A word contributes to every distinct subword in its BPE segmentation,
    weighted by its share of the corpus word `counts` (floored at 1e-9 for
    words the corpus lacks). Subwords with no contributing word keep a zero
    vector and support 0, to be replaced by the Gaussian fallback downstream.
    """
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot estimate unigram probabilities from an empty corpus")
    d = word_emb.dim
    acc = np.zeros((len(subword_vocab), d), dtype=np.float64)
    norm = np.zeros(len(subword_vocab), dtype=np.float64)
    support = np.zeros(len(subword_vocab), dtype=np.int64)
    for i in range(NUM_SPECIALS, len(word_emb.vocab)):
        word = word_emb.vocab.tokens[i]
        weight = max(counts[word] / total, UNIGRAM_FLOOR)
        pieces = set(apply_bpe(word, codes))
        for piece in pieces:
            j = subword_vocab.index.get(piece)
            if j is None or j < NUM_SPECIALS:
                continue
            acc[j] += weight * word_emb.data[i].astype(np.float64)
            norm[j] += weight
            support[j] += 1
    covered = support > 0
    acc[covered] /= norm[covered, None]
    emb = EmbeddingMatrix(subword_vocab, acc.astype(np.float32))
    return SubwordVectorTable(emb=emb, support=support)


@dataclass
class EntropyReport:
    """Sparsity diagnostics for a translation matrix."""

    n_rows: int
    n_covered: int
    mean_nonzeros: float
    median_nonzeros: float
    mean_entropy: float
    max_entropy: float
    histogram: dict[int, int] = field(default_factory=dict)


def row_entropy_report(tm: TranslationMatrix) -> EntropyReport:
    """Per-row nonzero counts and entropies, aggregated over covered rows."""
    counts = np.diff(tm.indptr)
    covered = counts > 0
    if not np.any(covered):
        return EntropyReport(len(tm), 0, 0.0, 0.0, 0.0, 0.0, {})
    counts = counts[covered]
    entropies = -np.add.reduceat(tm.weights * np.log(tm.weights), tm.indptr[:-1][covered])
    sizes, freq = np.unique(counts, return_counts=True)
    return EntropyReport(
        n_rows=len(tm),
        n_covered=len(counts),
        mean_nonzeros=float(np.mean(counts)),
        median_nonzeros=float(np.median(counts)),
        mean_entropy=float(np.mean(entropies)),
        max_entropy=float(np.max(entropies)),
        histogram=dict(zip(sizes.tolist(), freq.tolist())),
    )


def write_translation_matrix(
    tm: TranslationMatrix,
    tgt_vocab: Vocabulary,
    src_vocab: Vocabulary,
    path: str | Path,
) -> None:
    """Text format: 'tgt_token src1:w1 src2:w2 ...'; bare token if uncovered.

    Each block of rows is formatted by one `%` operation on the pattern
    "%s" + " %s:%.9g" * count + "\n" per row; tokens are values, not
    pattern, so a '%' in a token needs no escaping. A block holds at most
    SLICE_BYTES // 16 entries (2 MB of CSR entries), so only one block's
    text is held at a time; a longer row is a block of its own.

    A source index past `src_vocab` is a ValueError that names its row,
    raised before any file is opened. The lines go to a temporary file
    beside `path`, which then replaces `path`; a write that fails leaves
    the previous file as it was.
    """
    if len(tm) != len(tgt_vocab):
        raise ValueError("translation matrix size does not match target vocabulary")
    tm.check_sources(len(src_vocab))
    ptr, counts = tm.indptr, np.diff(tm.indptr).tolist()
    sources = np.array(src_vocab.tokens, dtype=object)
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        a = 0
        while a < len(tm):
            b = max(a + 1, int(np.searchsorted(ptr, ptr[a] + SLICE_BYTES // 16, "right")) - 1)
            lo, hi = ptr[a], ptr[b]
            # the values of the rows' pattern: each target token, then its
            # source tokens and weights in turn
            values = np.empty(b - a + 2 * (hi - lo), dtype=object)
            values[2 * (ptr[a:b] - lo) + np.arange(b - a)] = tgt_vocab.tokens[a:b]
            at = 2 * np.arange(hi - lo) + np.repeat(np.arange(1, b - a + 1), counts[a:b])
            values[at] = sources[tm.indices[lo:hi]]
            values[at + 1] = tm.weights[lo:hi]
            pattern = "".join(["%s" + " %s:%.9g" * c + "\n" for c in counts[a:b]])
            fh.write(pattern % tuple(values.tolist()))
            a = b


def read_translation_matrix(
    path: str | Path, tgt_vocab: Vocabulary, src_vocab: Vocabulary
) -> TranslationMatrix:
    """Read the text format of `write_translation_matrix`.

    Each 'src:weight' entry splits at its last ':', so source tokens may
    contain ':'. A row's entries are sorted by source index, and a later
    line for a target token replaces an earlier one. Errors name the first
    bad line: an unknown target token, an unknown source token or a weight
    that float() does not read, in that order within a line.
    """
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    heads = [line.partition(" ") for line in lines]
    targets = tgt_vocab.indices([token for token, _, _ in heads])
    counts = np.array([rest.count(" ") + 1 if sep else 0 for _, sep, rest in heads],
                      dtype=np.int64)
    src, weight_text = _split_entries([rest for _, sep, rest in heads if sep])
    indices = src_vocab.indices(src)
    line_of = np.repeat(np.arange(len(lines)), counts)
    errors = []  # (line index, rank within a line, message)
    bad = np.flatnonzero(targets < 0)
    if len(bad):
        errors.append((bad[0], 0, f"unknown target token {heads[bad[0]][0]!r}"))
    bad = np.flatnonzero(indices < 0)
    if len(bad):
        errors.append((line_of[bad[0]], 1, f"unknown source token {src[bad[0]]!r}"))
    try:
        weights = np.fromiter(map(float, weight_text), dtype=np.float64, count=len(src))
    except ValueError:
        for k, text in enumerate(weight_text):
            try:
                float(text)
            except ValueError as exc:
                errors.append((line_of[k], 2, str(exc)))
                break
    if errors:
        n, _, message = min(errors)
        raise ValueError(f"{path}: line {n + 1}: {message}")
    last_line = dict(zip(targets.tolist(), range(len(lines))))
    keep_line = np.zeros(len(lines), dtype=bool)
    keep_line[list(last_line.values())] = True
    keep = np.repeat(keep_line, counts)
    rows, indices, weights = np.repeat(targets, counts)[keep], indices[keep], weights[keep]
    order = np.argsort(rows * len(src_vocab) + indices, kind="stable")
    return TranslationMatrix.from_entries(len(tgt_vocab), rows[order], indices[order],
                                          weights[order])


def _split_entries(rests: list[str]) -> tuple[list[str], list[str]]:
    """(sources, weights) of the space-separated entries of every line.

    Each entry splits at its last ':' as str.rpartition does. In the UTF-8
    bytes of all entries joined by spaces, ' ' and ':' are single bytes:
    each entry's last ':' becomes a space, and an entry without one gets a
    space in front (an empty source), so one split yields source and weight
    alternately.
    """
    if not rests:
        return [], []
    text = np.frombuffer(" ".join(rests).encode("utf-8"), dtype=np.uint8).copy()
    spaces = np.flatnonzero(text == ord(" "))
    starts = np.concatenate(([0], spaces + 1))
    colons = np.concatenate(([-1], np.flatnonzero(text == ord(":"))))
    cut = colons[np.searchsorted(colons, np.append(spaces, len(text))) - 1]
    has_colon = cut >= starts
    text[cut[has_colon]] = ord(" ")
    if not np.all(has_colon):
        text = np.insert(text, starts[~has_colon], ord(" "))
    pieces = text.tobytes().decode("utf-8").split(" ")
    return pieces[0::2], pieces[1::2]

