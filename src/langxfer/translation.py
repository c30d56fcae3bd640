"""Sparsemax and row-sparse translation-probability matrices.

A translation matrix holds, for each foreign token, a sparse probability
distribution over source-language tokens. Rows come either from sparsemax
of dot products between aligned embedding spaces, from word-alignment
probabilities, or from a ground-truth dictionary. Special tokens never get
a row; they are handled separately at initialization time.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import NUM_SPECIALS, BpeCodes, UnigramTable, Vocabulary, apply_bpe
from .embeddings import EmbeddingMatrix

UNIGRAM_FLOOR = 1e-9
SPARSEMAX_TOP_K = 64  # width of the first partial sort in `sparsemax`


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
    def from_rows(cls, rows: list[list[tuple[int, float]]]) -> "TranslationMatrix":
        """Build from one (source index, weight) list per row."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        entries = list(itertools.chain.from_iterable(rows))
        return cls(
            indptr,
            np.array([j for j, _ in entries], dtype=np.int64),
            np.array([w for _, w in entries], dtype=np.float64),
        )

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


def translation_matrix_from_vectors(
    tgt_aligned: EmbeddingMatrix,
    src: EmbeddingMatrix,
    mode: str = "sparsemax",
    chunk: int = 512,
) -> TranslationMatrix:
    """Row i = sparsemax(tgt[i] . src') over non-special source tokens.

    Dot products accumulate in 64-bit. Target rows that are special tokens or
    exactly zero vectors (no upstream support) stay uncovered. `mode` may be
    "softmax" for the dense ablation variant.
    """
    if tgt_aligned.dim != src.dim:
        raise ValueError(f"dimension mismatch: {tgt_aligned.dim} vs {src.dim}")
    if mode not in ("sparsemax", "softmax"):
        raise ValueError(f"unknown mode: {mode!r}")
    src_data = src.data[NUM_SPECIALS:].astype(np.float64)
    n_tgt = len(tgt_aligned.vocab)
    counts = np.zeros(n_tgt, dtype=np.int64)
    indices: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for start in range(NUM_SPECIALS, n_tgt, chunk):
        stop = min(start + chunk, n_tgt)
        block = tgt_aligned.data[start:stop].astype(np.float64)
        nonzero = np.any(block != 0.0, axis=1)
        scores = block @ src_data.T
        if mode == "sparsemax":
            probs = sparsemax(scores)
        else:
            shifted = scores - scores.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
        probs[~nonzero] = 0.0
        flat = np.flatnonzero(probs)
        r, c = np.divmod(flat, probs.shape[1])
        counts[start:stop] = np.bincount(r, minlength=stop - start)
        indices.append(c + NUM_SPECIALS)
        weights.append(probs.ravel()[flat])
    indptr = np.zeros(n_tgt + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    empty = np.zeros(0)
    return TranslationMatrix(
        indptr, np.concatenate(indices or [empty]), np.concatenate(weights or [empty])
    )


def dictionary_translation_matrix(
    pairs: list[tuple[int, int]], tgt_vocab: Vocabulary, src_vocab: Vocabulary
) -> TranslationMatrix:
    """One-hot rows from (tgt index, src index) ground-truth pairs."""
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(tgt_vocab))]
    for i, j in pairs:
        if not (NUM_SPECIALS <= i < len(tgt_vocab)):
            raise ValueError(f"target index {i} out of range")
        if not (NUM_SPECIALS <= j < len(src_vocab)):
            raise ValueError(f"source index {j} out of range")
        rows[i] = [(j, 1.0)]
    return TranslationMatrix.from_rows(rows)


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
    unigrams: UnigramTable,
    subword_vocab: Vocabulary,
    codes: BpeCodes,
) -> SubwordVectorTable:
    """Each subword vector is the unigram-weighted average of its words' vectors.

    A word contributes to every distinct subword in its BPE segmentation,
    weighted by its unigram probability (floored at 1e-9 for words missing
    from the table). Subwords with no contributing word keep a zero vector
    and support 0, to be replaced by the Gaussian fallback downstream.
    """
    d = word_emb.dim
    acc = np.zeros((len(subword_vocab), d), dtype=np.float64)
    norm = np.zeros(len(subword_vocab), dtype=np.float64)
    support = np.zeros(len(subword_vocab), dtype=np.int64)
    for i in range(NUM_SPECIALS, len(word_emb.vocab)):
        word = word_emb.vocab.tokens[i]
        weight = max(unigrams.get(word), UNIGRAM_FLOOR)
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

    The lines go to a temporary file beside `path`, which then replaces
    `path`; a write that fails leaves the previous file as it was.
    """
    if len(tm) != len(tgt_vocab):
        raise ValueError("translation matrix size does not match target vocabulary")
    tokens = src_vocab.tokens
    entries = [
        f" {tokens[j]}:{w:.9g}" for j, w in zip(tm.indices.tolist(), tm.weights.tolist())
    ]
    bounds = tm.indptr.tolist()
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
                fh.write(tgt_vocab.tokens[i] + "".join(entries[a:b]) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    heads = [line.partition(" ") for line in lines]
    targets = np.fromiter(
        map(tgt_vocab.index.get, [token for token, _, _ in heads], itertools.repeat(-1)),
        dtype=np.int64, count=len(lines),
    )
    counts = np.array([rest.count(" ") + 1 if sep else 0 for _, sep, rest in heads],
                      dtype=np.int64)
    src, weight_text = _split_entries([rest for _, sep, rest in heads if sep])
    indices = np.fromiter(map(src_vocab.index.get, src, itertools.repeat(-1)),
                          dtype=np.int64, count=len(src))
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
    order = np.lexsort((indices, rows))
    indptr = np.zeros(len(tgt_vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(tgt_vocab)), out=indptr[1:])
    return TranslationMatrix(indptr, indices[order], weights[order])


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

