"""Tokenization, BPE learning/application, vocabularies, and corpus readers.

Text is whitespace-pretokenized; no lowercasing and no accent stripping is
applied anywhere in the pipeline. BPE uses a fastBPE-style end-of-word
marker attached to the final character of each word ("b" -> "b</w>").
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import operator
import os
import shutil
import typing
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Literal

import numpy as np

SPECIAL_TOKENS = ("<pad>", "<unk>", "<mask>", "<s>", "</s>")
PAD_ID, UNK_ID, MASK_ID, BOS_ID, EOS_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)

WORD_END = "</w>"

# the test at each end of a rule: ">= a", "> a", "in [a, b)", "in (a, b]", ...
_ENDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "[": operator.ge,
         "(": operator.gt, "]": operator.le, ")": operator.lt}
_KINDS = {int: "an int", float: "a float", bool: "a bool", str: "a str", type(None): "None"}
_type_hints = functools.cache(typing.get_type_hints)  # a class's resolved annotations


def require(name: str, value, rule: str) -> None:
    """Raise ValueError "{name} must be {rule}, got {value}" unless `value`
    meets `rule`: ">= a", "> a", "<= a", or an interval "in [a, b)",
    "in (a, b]" or "in [a, b]". NaN meets no rule."""
    if rule.startswith("in "):
        low, high = rule[4:-1].split(", ")
        ends = ((rule[3], low), (rule[-1], high))
    else:
        ends = (rule.split(" "),)
    if not all(_ENDS[op](value, float(bound)) for op, bound in ends):
        raise ValueError(f"{name} must be {rule}, got {value}")


def ruled(default, rule: str):
    """A config field whose values `check_fields` holds to `rule` (`require`)."""
    return field(default=default, metadata={"rule": rule})


def check_fields(obj) -> None:
    """Check each field of a config dataclass against its annotation, then
    against its `ruled` rule. A Literal field takes one of its values; any
    other takes a value of its types, where a float field also takes an int
    and only a bool field takes a bool (None only with `| None`)."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value, kind = getattr(obj, f.name), hints[f.name]
        kinds = typing.get_args(kind) or (kind,)
        if typing.get_origin(kind) is Literal:
            if value not in kinds:
                raise ValueError(f"unknown {f.name}: {value!r}")
        elif (isinstance(value, bool) != (bool in kinds)
              or not isinstance(value, kinds + ((int,) if float in kinds else ()))):
            raise ValueError(f"{f.name} must be {' or '.join(map(_KINDS.get, kinds))}, "
                             f"got {value!r}")
        elif "rule" in f.metadata:
            require(f.name, value, f.metadata["rule"])


@dataclass
class Vocabulary:
    """Ordered token <-> index map with reserved specials at indices 0..4."""

    tokens: list[str]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(self.tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ValueError(
                f"vocabulary must start with the special tokens {SPECIAL_TOKENS}"
            )
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            dupes = [t for t, c in Counter(self.tokens).items() if c > 1]
            raise ValueError(f"duplicate tokens in vocabulary: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id(self, token: str) -> int:
        """Index of `token`, or the UNK index if absent."""
        return self.index.get(token, UNK_ID)

    def indices(self, tokens: list[str]) -> np.ndarray:
        """The int64 index of each token, -1 where absent."""
        return np.fromiter(map(self.index.get, tokens, itertools.repeat(-1)),
                           dtype=np.int64, count=len(tokens))

    @classmethod
    def from_tokens(cls, content_tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from non-special tokens, prepending the specials."""
        return cls(list(SPECIAL_TOKENS) + list(content_tokens))

    def text(self) -> str:
        """The vocabulary file's content: one token a line."""
        return "".join(t + "\n" for t in self.tokens)

    def save(self, path: str | Path) -> None:
        replace_text(path, self.text())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            return cls(Path(path).read_text(encoding="utf-8").splitlines())
        except ValueError as exc:  # bad UTF-8 too
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class BpeCodes:
    """Ordered list of BPE merge rules. Order is the application order."""

    merges: list[tuple[str, str]]
    exhausted: bool = False  # fewer merges were available than requested
    rank: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _segments: dict[str, list[str]] = field(init=False, repr=False, compare=False,
                                            default_factory=dict)

    def __post_init__(self) -> None:
        self.rank = {pair: i for i, pair in enumerate(self.merges)}

    def segment(self, word: str) -> list[str]:
        """`apply_bpe(word, self)`, memoised per word; the list is shared."""
        pieces = self._segments.get(word)
        if pieces is None:
            pieces = self._segments[word] = apply_bpe(word, self)
        return pieces

    @property
    def num_codes(self) -> int:
        return len(self.merges)

    def save(self, path: str | Path) -> None:
        replace_text(path, "".join(f"{a} {b}\n" for a, b in self.merges))

    @classmethod
    def load(cls, path: str | Path) -> "BpeCodes":
        merges = []
        with open_text(path) as fh:
            for n, line in enumerate(fh, 1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {n}: expected 'symbol1 symbol2'")
                merges.append((parts[0], parts[1]))
        return cls(merges)


@dataclass
class ParallelCorpus:
    """Line-aligned (foreign ids, english ids) pairs, both sides non-empty."""

    pairs: list[tuple[list[int], list[int]]]
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


def _word_symbols(word: str) -> list[str]:
    syms = list(word)
    syms[-1] += WORD_END
    return syms


def _pair_counts(symbols: list[str]) -> Counter:
    return Counter(zip(symbols, symbols[1:]))


def _merge_word(symbols: list[str], a: str, b: str) -> list[str]:
    # greedy left-to-right replacement of (a, b) by a+b
    merged = a + b
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == a and symbols[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(lines: Iterable[str], num_codes: int) -> BpeCodes:
    """Learn `num_codes` greedy pair merges over a whitespace-pretokenized corpus.

    The most frequent adjacent symbol pair is merged at each step; frequency
    ties are broken by lexicographically smallest pair. If the corpus runs out
    of mergeable pairs early, the result carries `exhausted=True`.
    """
    require("num_codes", num_codes, ">= 0")
    word_freq: Counter = Counter()
    for line in lines:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("cannot learn BPE codes from an empty corpus")
    if num_codes == 0:
        return BpeCodes([])

    words = [_word_symbols(w) for w in word_freq]
    freqs = list(word_freq.values())

    pair_count: dict[tuple[str, str], int] = defaultdict(int)
    pair_words: dict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, syms in enumerate(words):
        for pair, c in _pair_counts(syms).items():
            pair_count[pair] += c * freqs[wi]
            pair_words[pair].add(wi)

    # lazy-deletion heap: (-count, pair); stale entries are skipped on pop
    heap = [(-c, p) for p, c in pair_count.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    exhausted = False
    while len(merges) < num_codes:
        best = None
        while heap:
            neg_count, pair = heapq.heappop(heap)
            if pair_count.get(pair, 0) == -neg_count:
                best = pair
                break
        if best is None:
            exhausted = True
            break
        a, b = best
        merges.append(best)
        for wi in list(pair_words[best]):
            old = _pair_counts(words[wi])
            words[wi] = _merge_word(words[wi], a, b)
            new = _pair_counts(words[wi])
            for pair in old.keys() | new.keys():
                delta = (new.get(pair, 0) - old.get(pair, 0)) * freqs[wi]
                if delta == 0:
                    continue
                pair_count[pair] += delta
                if pair_count[pair] <= 0:
                    del pair_count[pair]
                else:
                    heapq.heappush(heap, (-pair_count[pair], pair))
                if pair in new:
                    pair_words[pair].add(wi)
                else:
                    pair_words[pair].discard(wi)
        pair_count.pop(best, None)
        pair_words.pop(best, None)

    if exhausted:
        warnings.warn(
            f"corpus ran out of pairs after {len(merges)} of {num_codes} merges",
            stacklevel=2,
        )
    return BpeCodes(merges, exhausted=exhausted)


def apply_bpe(word: str, codes: BpeCodes) -> list[str]:
    """Segment one word by applying merges in learned order.

    Joining the output and stripping one trailing end-of-word marker
    reconstructs the word exactly.
    """
    if not word:
        raise ValueError("cannot segment an empty word")
    symbols = _word_symbols(word)
    ranks = codes.rank
    while len(symbols) > 1:
        candidates = [
            (ranks[p], p) for p in zip(symbols, symbols[1:]) if p in ranks
        ]
        if not candidates:
            break
        _, pair = min(candidates)
        symbols = _merge_word(symbols, *pair)
    return symbols


def build_vocab(tokens: Iterable[str], max_size: int) -> Vocabulary:
    """Frequency-ordered vocabulary (ties lexicographic), truncated to max_size."""
    if max_size <= NUM_SPECIALS:
        raise ValueError(f"max_size must exceed the {NUM_SPECIALS} special tokens, got {max_size}")
    counts = Counter(tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [t for t, _ in ordered[: max_size - NUM_SPECIALS]]
    return Vocabulary.from_tokens(keep)


@dataclass
class Tokenizer:
    """Whitespace pretokenization, optional BPE segmentation, then id lookup."""

    vocab: Vocabulary
    codes: BpeCodes | None = None

    def tokenize_word(self, word: str) -> list[str]:
        return [word] if self.codes is None else self.codes.segment(word)

    def tokenize_line(self, line: str) -> list[str]:
        return [s for w in line.split() for s in self.tokenize_word(w)]

    def encode_line(self, line: str) -> list[int]:
        """Token ids of a line, UNK for tokens outside the vocabulary."""
        tokens = line.split() if self.codes is None else self.tokenize_line(line)
        return list(map(self.vocab.index.get, tokens, itertools.repeat(UNK_ID)))


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[typing.TextIO]:
    """A UTF-8 text file open for reading. Bytes that are not UTF-8, met
    anywhere in the `with` body, raise a ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _remove(path: Path) -> None:
    """Remove the file or the directory tree at `path`, if there is one."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield the temporary path `.<name>.<pid>.tmp` beside `path` for the
    block to create, as a file or a directory; once the block completes, it
    replaces what `path` holds, if anything (a file never replaces a
    directory: IsADirectoryError). If the block raises, `path` keeps what it
    had. A directory takes two renames, and a crash between them leaves the
    previous entry under the temporary name plus `.old`. Both names, as a
    crashed process with this pid left them, are cleared first."""
    path = Path(os.path.abspath(path))  # "." has a name to put beside
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = tmp.with_name(tmp.name + ".old")
    _remove(tmp)
    _remove(old)
    try:
        yield tmp
        if tmp.is_dir() and path.exists():
            os.replace(path, old)
            os.replace(tmp, path)
            _remove(old)
        else:
            os.replace(tmp, path)
    finally:
        _remove(tmp)


def replace_text(path: str | Path, text: str) -> None:
    """Write `text` as the UTF-8 file `path`, through `replacing`."""
    with replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def iter_lines(path: str | Path) -> Iterator[str]:
    with open_text(path) as fh:
        for line in fh:
            yield line.rstrip("\n")


def iter_tokens(path: str | Path, codes: BpeCodes | None = None) -> Iterator[str]:
    """Stream the corpus at `path` as tokens (subwords when codes are given)."""
    for line in iter_lines(path):
        if codes is None:
            yield from line.split()
        else:
            for word in line.split():
                yield from codes.segment(word)


def read_parallel(
    source_path: str | Path,
    target_path: str | Path | None,
    source_tokenizer: Tokenizer,
    target_tokenizer: Tokenizer,
) -> ParallelCorpus:
    """Read a line-aligned parallel corpus into id pairs.

    Two separate files, or a single tab-separated file when `target_path` is
    None. The first (source) side is the foreign language by convention.
    Pairs with an empty side after tokenization are dropped and counted.
    """
    if target_path is None:
        src_lines, tgt_lines = [], []
        for n, line in enumerate(iter_lines(source_path), 1):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{source_path}: line {n}: expected exactly one tab separator"
                )
            src_lines.append(parts[0])
            tgt_lines.append(parts[1])
    else:
        src_lines = list(iter_lines(source_path))
        tgt_lines = list(iter_lines(target_path))
        if len(src_lines) != len(tgt_lines):
            raise ValueError(
                f"line count mismatch: {source_path} has {len(src_lines)} lines, "
                f"{target_path} has {len(tgt_lines)}"
            )

    pairs = []
    dropped = 0
    for src, tgt in zip(src_lines, tgt_lines):
        src_ids = source_tokenizer.encode_line(src)
        tgt_ids = target_tokenizer.encode_line(tgt)
        if not src_ids or not tgt_ids:
            dropped += 1
            continue
        pairs.append((src_ids, tgt_ids))
    return ParallelCorpus(pairs, dropped=dropped)
