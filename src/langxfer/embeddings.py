"""Embedding matrices, fastText-style vector I/O, and orthogonal Procrustes.

The text format is the fastText .vec layout: a "row_count dim" header, then
one "token v1 ... vd" row per line. The binary format is a one-line JSON
header followed by raw little-endian float32 data, row-major; it round-trips
bit-exactly. Special tokens always occupy rows 0..4 with zero vectors unless
set explicitly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary, open_text, replacing, require


@dataclass
class EmbeddingMatrix:
    """A |V| x d float32 matrix; row i is the vector of vocabulary token i."""

    vocab: Vocabulary
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.vocab):
            raise ValueError(
                f"embedding matrix has {self.data.shape[0]} rows "
                f"for a vocabulary of {len(self.vocab)} tokens"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("embedding matrix contains non-finite values")

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row(self, token: str) -> np.ndarray:
        return self.data[self.vocab.index[token]]


@dataclass
class OrthogonalMap:
    """A d x d orthogonal matrix with the Frobenius residual of its fit."""

    matrix: np.ndarray
    residual: float
    rank: int

    def __post_init__(self) -> None:
        d = self.matrix.shape[0]
        gram_err = np.linalg.norm(self.matrix.T @ self.matrix - np.eye(d))
        if gram_err > 1e-6:
            raise ValueError(f"map is not orthogonal: ||W'W - I||_F = {gram_err:.2e}")


def load_vectors(path: str | Path, limit: int | None = None) -> EmbeddingMatrix:
    """Load a .vec text file; keep the first `limit` rows in file order.

    Duplicate tokens keep their first occurrence. Tokens equal to a special
    token string map onto the reserved special rows (which stay zero).
    Errors name the first bad line in file order: a wrong value count, or a
    value that does not parse or is not finite in a kept row. Then, if fewer
    than `limit` rows were kept, the file must hold exactly as many data
    lines as its header says.
    """
    if limit is not None:
        require("limit", limit, ">= 1")
    tokens: list[str] = []
    rests: list[str] = []  # every line read, after its token
    kept: list[int] = []  # positions in `rests` of the rows kept
    seen = set(SPECIAL_TOKENS)
    with open_text(path) as fh:
        line = fh.readline()
        header = line.split()
        if not (len(header) == 2 and all(n.isdecimal() for n in header)):
            raise ValueError(f"{path}: expected 'row_count dim' header")
        count, dim = int(header[0]), int(header[1])
        for line in fh:
            if limit is not None and len(tokens) >= limit:
                break
            token, _, rest = line.rstrip("\n").partition(" ")
            if token not in seen:
                seen.add(token)
                tokens.append(token)
                kept.append(len(rests))
            rests.append(rest)
    values = _parse_rows(rests, kept, dim, path)
    data = np.zeros((NUM_SPECIALS + len(tokens), dim), dtype=np.float32)
    data[NUM_SPECIALS:] = values
    emb = EmbeddingMatrix(Vocabulary.from_tokens(tokens), data)
    read_all = limit is None or len(tokens) < limit  # so the loop reached the end
    if read_all and count != len(rests):
        raise ValueError(
            f"{path}: header says {count} rows, but the file has {len(rests)} data lines"
        )
    return emb


def _parse_rows(rests: list[str], kept: list[int], dim: int, path: str | Path) -> np.ndarray:
    """float32 values of the kept rows, checked as a line-by-line read checks them.

    One np.loadtxt call parses every line read, a fastText trailing space
    dropped; it requires equal column counts, so `dim` columns stand in for
    a count per line. Anything it does not return whole and finite (a bad
    count, a value that does not parse, one that only Python's float()
    reads such as "1_0", a non-finite value, or an empty line, which it
    skips) is read again line by line, which raises on the first bad line.
    When no line has values, loadtxt is not called: it would only warn.
    """
    if dim > 0 and any(rests):
        try:
            values = np.loadtxt(
                (rest[:-1] if rest.endswith(" ") else rest for rest in rests),
                dtype=np.float32, delimiter=" ", comments=None, quotechar=None, ndmin=2,
            )
        except ValueError:
            values = None
        if values is not None and values.shape == (len(rests), dim):
            values = values[kept]
            if np.all(np.isfinite(values)):
                return values
    values = np.zeros((len(kept), dim), dtype=np.float32)
    row_of = {i: r for r, i in enumerate(kept)}
    for i, rest in enumerate(rests):
        n = i + 2  # line number, after the header
        parts = rest.split(" ") if rest else []
        if parts and parts[-1] == "":  # fastText files end rows with a space
            parts.pop()
        if len(parts) != dim:
            raise ValueError(f"{path}: line {n}: expected {dim} values, got {len(parts)}")
        if i not in row_of:
            continue
        try:
            values[row_of[i]] = np.asarray(parts, dtype=np.float32)
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        if not np.all(np.isfinite(values[row_of[i]])):
            raise ValueError(f"{path}: line {n}: non-finite value")
    return values


def save_vectors(emb: EmbeddingMatrix, path: str | Path, format: str = "text") -> None:
    """Write an embedding matrix in 'text' (.vec) or 'binary' format.

    The text format stores the non-special rows only (it is a word-vector
    interchange format); binary stores everything, including specials.
    Either replaces `path` only once the whole file is written.
    """
    if format not in ("text", "binary"):
        raise ValueError(f"unknown format: {format!r}")
    with replacing(path) as tmp:
        if format == "binary":
            write_array(tmp, emb.data, tokens=emb.vocab.tokens)
        else:
            pattern = "%s " + " ".join(["%.8e"] * emb.dim) + "\n"  # one % per row
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f"{len(emb.vocab) - NUM_SPECIALS} {emb.dim}\n")
                for token, row in zip(emb.vocab.tokens[NUM_SPECIALS:], emb.data[NUM_SPECIALS:]):
                    fh.write(pattern % (token, *row.tolist()))


def load_binary_vectors(path: str | Path) -> EmbeddingMatrix:
    data, tokens = read_array(path)
    if tokens is None:
        raise ValueError(f"{path}: binary file has no token list")
    return EmbeddingMatrix(Vocabulary(tokens), data)


def write_array(path: str | Path, arr: np.ndarray, tokens: list[str] | None = None) -> None:
    """Binary tensor format: one JSON header line + raw little-endian float32."""
    arr = np.asarray(arr)
    rows, dim = (arr.shape[0], int(np.prod(arr.shape[1:]))) if arr.ndim > 1 else (1, arr.shape[0])
    header = {
        "row_count": rows,
        "dim": dim,
        "byte_order": "little",
        "dtype": "float32",
        "shape": list(arr.shape),
    }
    if tokens is not None:
        header["tokens"] = tokens
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def json_object(path: str | Path, value, keys: tuple[str, ...], what: str) -> dict:
    """`value`, read from `path`, when it is a JSON object holding every key
    in `keys`; otherwise a ValueError that names `path` and `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValueError(f"{path}: {what} lacks {', '.join(map(repr, missing))}")
    return value


def parse_json_object(path: str | Path, text: str | bytes, keys: tuple[str, ...],
                      what: str) -> dict:
    """`json_object` of `text` parsed as JSON; text that does not parse (or
    is not UTF-8) is not a JSON object."""
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    return json_object(path, value, keys, what)


def read_array(path: str | Path) -> tuple[np.ndarray, list[str] | None]:
    with open(path, "rb") as fh:
        header = parse_json_object(path, fh.readline(), ("row_count", "dim", "shape"),
                                   "binary header")
        if header.get("dtype") != "float32" or header.get("byte_order") != "little":
            raise ValueError(f"{path}: unsupported binary header: {header}")
        rows, dim, shape = header["row_count"], header["dim"], header["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0
                                                for n in [rows, dim, *shape])
                and math.prod(shape) == rows * dim):
            raise ValueError(f"{path}: binary header sizes are not counts that agree: "
                             f"row_count {rows}, dim {dim}, shape {shape}")
        count = rows * dim
        raw = fh.read(count * 4)
    if len(raw) != count * 4:
        raise ValueError(f"{path}: truncated binary data")
    arr = np.frombuffer(raw, dtype="<f4").reshape(header["shape"]).copy()
    return arr, header.get("tokens")


def identical_word_dictionary(
    src: Vocabulary, tgt: Vocabulary
) -> list[tuple[int, int]]:
    """Pairs of (src index, tgt index) for byte-identical tokens, specials excluded."""
    j = tgt.indices(src.tokens)
    i = np.flatnonzero(j >= NUM_SPECIALS)
    pairs = list(zip(i.tolist(), j[i].tolist()))
    if not pairs:
        raise ValueError(
            "no identical words between the two vocabularies; "
            "supply a seed dictionary file (TSV: src_token<TAB>tgt_token)"
        )
    return pairs


def read_dictionary(
    path: str | Path, src: Vocabulary, tgt: Vocabulary
) -> list[tuple[int, int]]:
    """Load a two-column TSV seed dictionary as (src index, tgt index) pairs."""
    pairs = []
    skipped = 0
    with open_text(path) as fh:
        for n, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {n}: expected two tab-separated columns")
            i = src.index.get(parts[0])
            j = tgt.index.get(parts[1])
            if i is None or j is None:
                skipped += 1
                continue
            pairs.append((i, j))
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} out-of-vocabulary entries", stacklevel=2)
    if not pairs:
        raise ValueError(f"{path}: no in-vocabulary dictionary pairs")
    return pairs


def procrustes(
    src: EmbeddingMatrix,
    tgt: EmbeddingMatrix,
    pairs: list[tuple[int, int]],
    normalize: bool = False,
) -> OrthogonalMap:
    """Closed-form orthogonal map W minimizing ||X_src W - X_tgt||_F.

    Solved via SVD of the cross-covariance X_src' X_tgt over the dictionary
    rows; vectors are used raw unless `normalize` unit-normalizes them first.
    """
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {tgt.dim}")
    if not pairs:
        raise ValueError("empty dictionary")
    if len(pairs) < src.dim:
        warnings.warn(
            f"only {len(pairs)} dictionary pairs for dimension {src.dim}; "
            "the fit may be underdetermined",
            stacklevel=2,
        )
    src_idx = [i for i, _ in pairs]
    tgt_idx = [j for _, j in pairs]
    x = src.data[src_idx].astype(np.float64)
    y = tgt.data[tgt_idx].astype(np.float64)
    if normalize:
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        y = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-12)
    m = x.T @ y
    u, s, vt = np.linalg.svd(m)
    w = u @ vt
    rank = int(np.sum(s > s[0] * max(m.shape) * np.finfo(np.float64).eps)) if s.size else 0
    residual = float(np.linalg.norm(x @ w - y))
    return OrthogonalMap(matrix=w, residual=residual, rank=rank)


def align(src: EmbeddingMatrix, mapping: OrthogonalMap) -> EmbeddingMatrix:
    """Right-multiply every row by the orthogonal map; vocabulary unchanged."""
    if mapping.matrix.shape[0] != src.dim:
        raise ValueError(
            f"map dimension {mapping.matrix.shape[0]} does not match vectors of dim {src.dim}"
        )
    rotated = src.data.astype(np.float64) @ mapping.matrix
    return EmbeddingMatrix(src.vocab, rotated.astype(np.float32))


def align_to(
    src: EmbeddingMatrix,
    tgt: EmbeddingMatrix,
    dictionary: str | Path | None = None,
    normalize: bool = False,
) -> tuple[EmbeddingMatrix, OrthogonalMap, int]:
    """Map `src` into `tgt`'s space by Procrustes, fitted on a seed dictionary
    file (src<TAB>tgt) or, without one, on the tokens both spell alike.

    Returns the aligned `src`, the map and the number of pairs it was fitted on.
    """
    if dictionary:
        pairs = read_dictionary(dictionary, src.vocab, tgt.vocab)
    else:
        pairs = identical_word_dictionary(src.vocab, tgt.vocab)
    mapping = procrustes(src, tgt, pairs, normalize=normalize)
    return align(src, mapping), mapping, len(pairs)
