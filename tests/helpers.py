"""Test-only builders and inverses that the tests use as oracles."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from langxfer.corpus import WORD_END
from langxfer.translation import TranslationMatrix


def translation_matrix_from_rows(rows: list[list[tuple[int, float]]]) -> TranslationMatrix:
    """A TranslationMatrix from one (source index, weight) list per row."""
    row_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    return TranslationMatrix.from_entries(len(rows), row_of, [j for row in rows for j, _ in row],
                                          [w for row in rows for _, w in row])


def detokenize(subwords: Iterable[str]) -> str:
    """The word that `corpus.apply_bpe` segmented into `subwords`."""
    joined = "".join(subwords)
    if not joined.endswith(WORD_END):
        raise ValueError("subword sequence does not end with the end-of-word marker")
    return joined[: -len(WORD_END)]
