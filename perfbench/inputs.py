"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical files and arrays. The V=8000 inputs use a vectorised sampler
(a Zipfian unigram language with a fixed word substitution as its cipher)
because the repository's own cipher generator draws a dense V x V bigram
table and samples word by word, which is unaffordable at that size.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]  # 85 syllables


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct four-syllable pseudo-words, drawn without replacement."""
    s = len(SYLLABLES)
    codes = rng.choice(s**4, size=n, replace=False)
    digits = [(codes // s**k) % s for k in range(4)]
    return ["".join(SYLLABLES[d[i]] for d in digits) for i in range(n)]


def zipf_probs(v: int, exponent: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1, v + 1, dtype=np.float64) ** exponent
    return p / p.sum()


class ZipfLanguage:
    """An english word list, its cipher, and a Zipfian unigram sampler.

    `fg_of[i]` is the cipher word of `en_words[i]`, and `en_words[i]` has
    the i-th largest unigram probability. `anchors` words drawn at random
    are spelled alike in both languages, like numerals and names, which
    gives Procrustes its identical-word dictionary.
    """

    def __init__(self, rng: np.random.Generator, v: int, anchors: int = 0) -> None:
        words = pseudo_words(rng, 2 * v)
        self.en_words = words[:v]
        self.fg_of = words[v:]
        anchor_ids = rng.choice(v, size=anchors, replace=False)
        for i in anchor_ids:
            self.fg_of[i] = self.en_words[i]
        self.probs = zipf_probs(v)

    def __len__(self) -> int:
        return len(self.en_words)

    def sentences(self, rng: np.random.Generator, n: int, min_len: int = 4,
                  max_len: int = 11) -> list[np.ndarray]:
        """n sentences of word indices, lengths uniform in [min_len, max_len]."""
        lengths = rng.integers(min_len, max_len + 1, size=n)
        tokens = rng.choice(len(self), size=int(lengths.sum()), p=self.probs)
        return np.split(tokens, np.cumsum(lengths)[:-1])

    def lines(self, sentences: list[np.ndarray], foreign: bool) -> list[str]:
        words = self.fg_of if foreign else self.en_words
        return [" ".join(words[i] for i in s) for s in sentences]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def planted_vectors(rng: np.random.Generator, v: int, dim: int, noise: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """English vectors and their foreign twins under a planted rotation.

    The foreign vector of word i is en[i] @ Q plus Gaussian noise, with Q a
    random orthogonal matrix, so Procrustes on any large enough dictionary
    recovers Q's transpose.
    """
    en = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(v, dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    fg = en @ q + rng.normal(0.0, noise / np.sqrt(dim), size=(v, dim))
    return en.astype(np.float32), fg.astype(np.float32)


def write_vec(path: Path, tokens: list[str], data: np.ndarray) -> None:
    """fastText .vec text: a 'count dim' header, then 'token v1 ... vd' rows.

    One format call per row; langxfer's save_vectors formats value by value,
    which takes about three times as long at 8000 x 300.
    """
    fmt = " ".join(["%.6f"] * data.shape[1])
    rows = [f"{t} {fmt % tuple(r)}\n" for t, r in zip(tokens, data.tolist())]
    path.write_text(f"{len(tokens)} {data.shape[1]}\n" + "".join(rows), encoding="utf-8")


def hash_inputs(files: list[Path], arrays: dict[str, np.ndarray]) -> str:
    """sha256 over file names and bytes, then array names, shapes and bytes."""
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()
