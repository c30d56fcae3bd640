"""Foreign embedding construction from a translation matrix and source table.

Covered tokens get the convex combination of source vectors given by their
translation-matrix row; uncovered tokens are drawn i.i.d. from N(0, 1/d^2)
(variance 1/d^2, i.e. sigma = 1/d). Special tokens copy the source model's
special rows. Randomness uses one counter-based stream per row, derived
from (seed, row index), so results are identical serial or parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import NUM_SPECIALS, Vocabulary, replace_text, require
from .embeddings import EmbeddingMatrix
from .translation import TranslationMatrix


@dataclass
class InitReport:
    """Coverage accounting for one initialization (specials excluded)."""

    covered: int
    fallback: int

    @property
    def coverage_ratio(self) -> float:
        total = self.covered + self.fallback
        return self.covered / total if total else 0.0

    def summary(self) -> str:
        return (
            f"initialized {self.covered} tokens from translations, "
            f"{self.fallback} from the Gaussian fallback "
            f"(coverage {self.coverage_ratio:.1%})"
        )

    def as_dict(self) -> dict:
        return {
            "covered": self.covered,
            "fallback": self.fallback,
            "coverage_ratio": self.coverage_ratio,
        }

    def save(self, path: str | Path) -> None:
        replace_text(path, json.dumps(self.as_dict()) + "\n")


def _row_rng(seed: int, row: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, row)))


def _gaussian_row(seed: int, row: int, d: int) -> np.ndarray:
    return _row_rng(seed, row).normal(0.0, 1.0 / d, size=d).astype(np.float32)


def _check_size(tm: TranslationMatrix, tgt_vocab: Vocabulary) -> None:
    if len(tm) != len(tgt_vocab):
        raise ValueError(
            f"translation matrix has {len(tm)} rows for a vocabulary "
            f"of {len(tgt_vocab)} tokens"
        )


def _row_sums(tm: TranslationMatrix, term) -> tuple[np.ndarray, np.ndarray]:
    """(covered non-special rows, their sums of term(weights, indices)).

    Each row's terms are added to a zero accumulator first to last, as a loop
    over the row would (np.add.reduceat would not: it adds the first term to
    the sum of the rest), so a one-hot row reproduces its term bit for bit.
    The loop runs over entry ranks, longest rows first, so that step k
    touches only the rows with more than k entries.
    """
    counts = np.diff(tm.indptr)
    counts[:NUM_SPECIALS] = 0
    rows = np.flatnonzero(counts)
    rows = rows[np.argsort(-counts[rows], kind="stable")]
    lengths, starts = counts[rows], tm.indptr[rows]
    acc = None
    for k in range(int(lengths[0]) if len(rows) else 0):
        pos = starts[: np.count_nonzero(lengths > k)] + k
        terms = term(tm.weights[pos], tm.indices[pos])
        if acc is None:
            acc = np.zeros((len(rows),) + terms.shape[1:], dtype=terms.dtype)
        acc[: len(pos)] += terms
    return rows, acc


def init_foreign_embeddings(
    tm: TranslationMatrix,
    src_emb: EmbeddingMatrix,
    tgt_vocab: Vocabulary,
    seed: int,
) -> tuple[EmbeddingMatrix, InitReport]:
    """Build the foreign embedding table from the translation matrix.

    Covered row i becomes sum_j alpha_ij * src[j], accumulated in float64; a
    one-hot row reproduces the source vector bit-exactly. Uncovered rows fall
    back to N(0, 1/d^2).
    """
    require("seed", seed, ">= 0")  # whether or not a row falls back
    _check_size(tm, tgt_vocab)
    tm.check_sources(len(src_emb.vocab), first_row=NUM_SPECIALS)
    d = src_emb.dim
    out = np.zeros((len(tgt_vocab), d), dtype=np.float32)
    out[:NUM_SPECIALS] = src_emb.data[:NUM_SPECIALS]
    # float64 weights times float32 source rows: products in float64
    covered, sums = _row_sums(tm, lambda w, j: w[:, None] * src_emb.data[j])
    if len(covered):
        out[covered] = sums.astype(np.float32)
    fallback = np.flatnonzero(np.diff(tm.indptr)[NUM_SPECIALS:] == 0) + NUM_SPECIALS
    for i in fallback.tolist():
        out[i] = _gaussian_row(seed, i, d)
    return EmbeddingMatrix(tgt_vocab, out), InitReport(len(covered), len(fallback))


def init_foreign_bias(
    tm: TranslationMatrix, src_bias: np.ndarray, tgt_vocab: Vocabulary
) -> np.ndarray:
    """Foreign output bias: same convex combination as the embeddings.

    Uncovered tokens get a zero bias; specials copy the source special biases.
    Products and sums stay in the source bias dtype.
    """
    _check_size(tm, tgt_vocab)
    src_bias = np.asarray(src_bias)
    out = np.zeros(len(tgt_vocab), dtype=src_bias.dtype)
    out[:NUM_SPECIALS] = src_bias[:NUM_SPECIALS]
    covered, sums = _row_sums(tm, lambda w, j: w.astype(src_bias.dtype) * src_bias[j])
    if len(covered):
        out[covered] = sums
    return out


def random_init(tgt_vocab: Vocabulary, d: int, seed: int) -> EmbeddingMatrix:
    """Every row i.i.d. N(0, 1/d^2); the random-initialization baseline."""
    require("seed", seed, ">= 0")
    require("dimension", d, ">= 1")
    out = np.empty((len(tgt_vocab), d), dtype=np.float32)
    for i in range(len(tgt_vocab)):
        out[i] = _gaussian_row(seed, i, d)
    return EmbeddingMatrix(tgt_vocab, out)
