"""Synthetic cipher-language corpora with a known ground-truth dictionary.

An "english" corpus is sampled from a random bigram model over pseudo-words;
the cipher corpus applies a fixed word-to-word substitution to it. Because
the mapping is known exactly, transfer quality is checkable without any
human evaluation: a perfect initialization reproduces english behaviour on
the cipher side identically.

Noise options exercise the fallback paths: dictionary dropout hides a
fraction of the emitted dictionary, and split noise renders some cipher
words as two tokens (breaking one-to-one token alignment).

Draw order. After the words, the split noise and the bigram model, the
generator draws, per sentence and in sentence order, one
`integers(min_len, max_len + 1)` for the length L and then one `random(L)`
for the L word choices; the dictionary dropout draws come last. A word is
`searchsorted(cdf, u, side="right")` on the cumulative distribution of the
initial or the previous word's transition probabilities, which is what
`Generator.choice(V, p=p)` computes from one `random()`. Bundles stay
byte-identical only as long as this order and this rule do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import replace_text, require

_CONSONANTS = list("bcdfghjklmnprstvz")
_VOWELS = list("aeiou")
# pseudo-words are 2 or 3 syllables, and the two sides draw distinct words
MAX_VOCAB = sum((len(_CONSONANTS) * len(_VOWELS)) ** n for n in (2, 3)) // 2


@dataclass
class CipherFixture:
    en_train: list[str]
    en_heldout: list[str]
    fg_train: list[str]
    fg_heldout: list[str]
    dictionary: list[tuple[str, str]]  # (english word, cipher word), full truth
    noisy_dictionary: list[tuple[str, str]]  # after dropout; == dictionary if none
    seed: int
    meta: dict = field(default_factory=dict)


def _pseudo_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        syllables = rng.integers(2, 4)
        w = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if w in taken:
            continue
        taken.add(w)
        words.append(w)
    return words


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Each row's cumulative distribution, normalised as `Generator.choice` does."""
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _bigram_chain(init_probs: np.ndarray, transitions: np.ndarray,
                  lengths: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Word indices of every sentence; row s uses draws[s, :lengths[s]].

    Position 0 searches the initial distribution; each later position
    searches the previous word's transition row, one call per previous word.
    """
    words = np.zeros(draws.shape, dtype=np.int64)
    words[:, 0] = _cdf(init_probs).searchsorted(draws[:, 0], side="right")
    cdf = _cdf(transitions)
    for t in range(1, draws.shape[1]):
        rows = np.flatnonzero(lengths > t)
        prev = words[rows, t - 1]
        order = np.argsort(prev, kind="stable")
        rows, prev = rows[order], prev[order]
        starts = np.flatnonzero(np.diff(prev, prepend=-1))
        for word, group in zip(prev[starts], np.split(rows, starts[1:])):
            words[group, t] = cdf[word].searchsorted(draws[group, t], side="right")
    return words


def generate_cipher_fixture(
    vocab_size: int,
    sentences: int,
    seed: int,
    heldout: int = 0,
    dict_dropout: float = 0.0,
    split_prob: float = 0.0,
    min_len: int = 4,
    max_len: int = 11,
    bigram_alpha: float = 0.25,
) -> CipherFixture:
    """Deterministic corpus bundle for the cipher-transfer experiment."""
    require("vocab_size", vocab_size, ">= 10")
    require("vocab_size", vocab_size, f"<= {MAX_VOCAB}")
    require("sentences", sentences, ">= 1")
    require("heldout", heldout, ">= 0")
    require("min_len", min_len, ">= 1")
    if max_len < min_len:
        raise ValueError(f"max_len must be >= min_len, got {max_len} < {min_len}")
    require("dict_dropout", dict_dropout, "in [0, 1)")
    require("split_prob", split_prob, "in [0, 1]")
    require("bigram_alpha", bigram_alpha, "> 0")
    rng = np.random.default_rng(seed)

    taken: set[str] = set()
    en_words = _pseudo_words(rng, vocab_size, taken)
    fg_words = _pseudo_words(rng, vocab_size, taken)
    dictionary = list(zip(en_words, fg_words))

    # deterministic per-word rendering on the cipher side
    split_flags = rng.random(vocab_size) < split_prob
    fg_render = []
    for fg_w, split in zip(fg_words, split_flags):
        if split and len(fg_w) >= 4:
            cut = int(rng.integers(2, len(fg_w) - 1))
            fg_render.append(f"{fg_w[:cut]} {fg_w[cut:]}")
        else:
            fg_render.append(fg_w)

    init_probs = rng.dirichlet(np.full(vocab_size, 1.0))
    transitions = rng.dirichlet(np.full(vocab_size, bigram_alpha), size=vocab_size)

    # per sentence, one length and then that many uniforms (see the module docstring)
    draws = np.empty((sentences + heldout, max_len))
    lengths = []
    for row in draws:
        length = int(rng.integers(min_len, max_len + 1))
        lengths.append(length)
        rng.random(out=row[:length])
    words = _bigram_chain(init_probs, transitions, np.array(lengths), draws)

    en_all, fg_all = [], []
    for row, length in zip(words.tolist(), lengths):
        row = row[:length]
        en_all.append(" ".join([en_words[i] for i in row]))
        fg_all.append(" ".join([fg_render[i] for i in row]))

    if dict_dropout > 0.0:
        keep = rng.random(vocab_size) >= dict_dropout
        if not keep.any():
            keep[0] = True
        noisy = [pair for pair, k in zip(dictionary, keep) if k]
    else:
        noisy = list(dictionary)

    return CipherFixture(
        en_train=en_all[:sentences],
        en_heldout=en_all[sentences:],
        fg_train=fg_all[:sentences],
        fg_heldout=fg_all[sentences:],
        dictionary=dictionary,
        noisy_dictionary=noisy,
        seed=seed,
        meta={
            "vocab_size": vocab_size,
            "sentences": sentences,
            "heldout": heldout,
            "dict_dropout": dict_dropout,
            "split_prob": split_prob,
        },
    )


def write_fixture(fixture: CipherFixture, out_dir: str | Path) -> dict[str, str]:
    """Write the bundle; returns a name -> path map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    def write_lines(name: str, lines: list[str]) -> None:
        replace_text(out / name, "".join(line + "\n" for line in lines))
        paths[name] = str(out / name)

    write_lines("en_train.txt", fixture.en_train)
    write_lines("en_heldout.txt", fixture.en_heldout)
    write_lines("fg_train.txt", fixture.fg_train)
    write_lines("fg_heldout.txt", fixture.fg_heldout)
    write_lines(
        "dictionary.tsv", [f"{en}\t{fg}" for en, fg in fixture.dictionary]
    )
    write_lines(
        "noisy_dictionary.tsv", [f"{en}\t{fg}" for en, fg in fixture.noisy_dictionary]
    )
    write_lines("meta.json", [json.dumps({"seed": fixture.seed, **fixture.meta}, indent=1)])
    return paths
