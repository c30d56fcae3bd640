"""A small transformer-encoder masked LM with exact analytic gradients.

The model carries two word-embedding tables (english / foreign), a shared
positional table, a shared encoder stack, and per-language output biases.
The output projection for a language is the transpose of its embedding
table (weight tying) plus that language's bias.

Everything is plain numpy. Training arithmetic is float32; `astype` yields
a float64 twin for finite-difference gradient checks. The computation runs
in the parameters' dtype, so every scalar constant in the forward and
backward pass must be a Python float (or int), never a numpy scalar: under
NumPy 2's promotion rules (NEP 50) a Python float adapts to a float32
array, while an `np.float64` such as `1.0 / np.sqrt(n)` silently turns
everything downstream into float64. The softmax normalizer at masked
positions rounds each exponential (all in [0, 1]) to the nearest multiple
of 2^-k, k = 53 - bit_length(V - 1), and adds those in float64, where
every partial sum is exact: the loss is invariant, bit for bit, to a
permutation of the vocabulary, and the normalizer, before its one rounding
to the model's dtype, is within V * 2^-(k+1) of the true sum, with no bias
to either side (about 5e-8 relative at V = 30k; the maximum term is 1, so
the sum is >= 1).

The loss reads the encoder only at the masked positions, so `mlm_loss` and
`backward` run the last layer's softmax, `wo`, residual, second layer norm
and FFN there alone, forward and backward; q·kᵀ and a·v stay whole, and
every earlier layer runs at every position (`encode` returns them all).
Two shape rules keep every bit that the whole layer gives. A GEMM gets the
masked rows packed, in order, into zero-padded blocks of T rows: numpy runs
a (B, T, d) operand as one BLAS GEMM per block of T rows, and a row of a
GEMM's product depends on the GEMM's shape, not on the other rows. A
weight gradient spreads both operands' rows back to their batch positions
among zero rows, so its K stays B * T. Everything else in a layer works
per row or per element.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Literal

import numpy as np

from .corpus import (MASK_ID, NUM_SPECIALS, Vocabulary, check_fields, replacing, require,
                     ruled)
from .embeddings import json_object, parse_json_object, read_array, write_array
from .translation import SLICE_BYTES

PARAM_GROUPS = ("emb_en", "emb_fg", "pos_emb", "encoder", "out_bias_en", "out_bias_fg")
# rows per encoder pass when no backward cache is kept
ROW_GROUP = 16


def param_group(name: str) -> str:
    """The freeze group a parameter belongs to."""
    return "encoder" if name.startswith("enc.") else name


@dataclass
class ModelConfig:
    dim: int = ruled(64, ">= 1")
    layers: int = ruled(2, ">= 0")
    heads: int = ruled(4, ">= 1")
    ffn_dim: int = ruled(256, ">= 1")
    max_len: int = ruled(64, ">= 1")
    norm: Literal["pre", "post"] = "pre"  # layer norm placement
    ln_eps: float = ruled(1e-5, "> 0")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")


@dataclass
class ModelState:
    cfg: ModelConfig
    vocab_en: Vocabulary
    vocab_fg: Vocabulary
    params: dict[str, np.ndarray]
    # the flat buffer every parameter is a view of, while a training run's
    # arena holds them (trainer.ParamArena)
    arena: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dtype(self) -> np.dtype:
        return self.params["emb_en"].dtype

    def vocab(self, language: str) -> Vocabulary:
        return self.vocab_en if language == "en" else self.vocab_fg

    def astype(self, dtype) -> "ModelState":
        return ModelState(
            self.cfg, self.vocab_en, self.vocab_fg,
            {k: v.astype(dtype) for k, v in self.params.items()},
        )

    def assert_finite(self) -> None:
        """Raise naming the first parameter, in `params` order, with a
        non-finite value; the arena is checked in one pass."""
        ranges = [self.arena] if self.arena is not None else self.params.values()
        if all(np.isfinite(r).all() for r in ranges):
            return
        for name, p in self.params.items():
            if not np.all(np.isfinite(p)):
                raise FloatingPointError(f"non-finite values in parameter {name}")


def init_model(
    cfg: ModelConfig, vocab_en: Vocabulary, vocab_fg: Vocabulary, seed: int
) -> ModelState:
    """Fresh model: embeddings N(0, 1/d), fan-in uniform projections."""
    rng = np.random.default_rng(seed)
    d, h = cfg.dim, cfg.ffn_dim

    def emb(n: int) -> np.ndarray:
        return rng.normal(0.0, 1.0 / np.sqrt(d), size=(n, d)).astype(np.float32)

    def proj(fan_in: int, fan_out: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)

    params: dict[str, np.ndarray] = {
        "emb_en": emb(len(vocab_en)),
        "emb_fg": emb(len(vocab_fg)),
        "pos_emb": emb(cfg.max_len),
    }
    for l in range(cfg.layers):
        base = f"enc.{l}."
        params[base + "ln1_g"] = np.ones(d, dtype=np.float32)
        params[base + "ln1_b"] = np.zeros(d, dtype=np.float32)
        params[base + "wq"] = proj(d, d)
        params[base + "wk"] = proj(d, d)
        params[base + "wv"] = proj(d, d)
        params[base + "wo"] = proj(d, d)
        params[base + "ln2_g"] = np.ones(d, dtype=np.float32)
        params[base + "ln2_b"] = np.zeros(d, dtype=np.float32)
        params[base + "w1"] = proj(d, h)
        params[base + "w2"] = proj(h, d)
    params["out_bias_en"] = np.zeros(len(vocab_en), dtype=np.float32)
    params["out_bias_fg"] = np.zeros(len(vocab_fg), dtype=np.float32)
    return ModelState(cfg, vocab_en, vocab_fg, params)


def plug_foreign(
    state: ModelState, vocab_fg: Vocabulary, emb_fg: np.ndarray, bias_fg: np.ndarray | None
) -> ModelState:
    """Swap in foreign-language parameters, keeping everything else."""
    if emb_fg.shape != (len(vocab_fg), state.cfg.dim):
        raise ValueError(
            f"foreign embeddings of shape {emb_fg.shape} do not match "
            f"vocabulary size {len(vocab_fg)} and dim {state.cfg.dim}"
        )
    new = ModelState(state.cfg, state.vocab_en, vocab_fg,
                     {k: v.copy() for k, v in state.params.items()})
    new.params["emb_fg"] = emb_fg.astype(state.dtype).copy()
    if bias_fg is None:
        bias_fg = np.zeros(len(vocab_fg))
    elif bias_fg.shape != (len(vocab_fg),):
        raise ValueError("foreign bias does not match the foreign vocabulary")
    new.params["out_bias_fg"] = np.asarray(bias_fg, dtype=state.dtype).copy()
    return new


@dataclass
class MaskedBatch:
    """One language's corrupted batch plus the positions and labels to predict."""

    token_ids: np.ndarray  # (B, T) after corruption
    language: str  # "en" | "fg"
    mask_rows: np.ndarray
    mask_cols: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.language not in ("en", "fg"):
            raise ValueError(f"unknown language: {self.language!r}")

    @property
    def n_masked(self) -> int:
        return len(self.labels)


def make_masked_batch(
    sequences: np.ndarray,
    mask_prob: float,
    seed,
    vocab_size: int,
    language: str,
    eighty_ten_ten: bool = True,
) -> MaskedBatch:
    """BERT-style corruption of a (B, T) id matrix.

    Non-special positions are selected independently with `mask_prob`; of the
    selected, 80% become MASK, 10% a random non-special token, 10% stay (all
    MASK when `eighty_ten_ten` is off). If nothing got selected, the single
    lowest-draw position is forced. Deterministic given the seed.
    """
    require("mask_prob", mask_prob, "in (0, 1]")
    if vocab_size <= NUM_SPECIALS:
        raise ValueError(f"the {language} vocabulary has no non-special tokens")
    sequences = np.asarray(sequences)
    rng = np.random.default_rng(seed)
    u = rng.random(sequences.shape)
    r = rng.random(sequences.shape)
    rand_ids = rng.integers(NUM_SPECIALS, vocab_size, size=sequences.shape)

    selectable = sequences >= NUM_SPECIALS
    selected = (u < mask_prob) & selectable
    if not selected.any():
        if not selectable.any():
            raise ValueError("batch has no maskable (non-special) positions")
        flat = np.where(selectable.ravel(), u.ravel(), np.inf)
        selected.ravel()[int(np.argmin(flat))] = True

    corrupted = sequences.copy()
    if eighty_ten_ten:
        corrupted[selected & (r < 0.8)] = MASK_ID
        to_rand = selected & (r >= 0.8) & (r < 0.9)
        corrupted[to_rand] = rand_ids[to_rand]
    else:
        corrupted[selected] = MASK_ID
    rows, cols = np.nonzero(selected)
    return MaskedBatch(
        token_ids=corrupted,
        language=language,
        mask_rows=rows,
        mask_cols=cols,
        labels=sequences[rows, cols],
    )


# ---------------------------------------------------------------------------
# forward / backward primitives


def _layer_norm(x, g, b, eps):
    # np.add.reduce(...) / d is `.mean(axis=-1, keepdims=True)` bit for bit
    # without its Python wrapper, about half the cost at these sizes
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layer_norm_backward(dy, cache, weights=True):
    """(dx, dg, db); dg and db are None unless `weights`."""
    xhat, inv, g = cache
    dg = db = None
    if weights:
        dg = (dy * xhat).sum(axis=(0, 1))
        db = dy.sum(axis=(0, 1))
    dxhat = dy * g
    d = dxhat.shape[-1]
    mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dg, db


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def _max_last_axis(x):
    """`x.max(axis=-1, keepdims=True)`, bit for bit, in a third of the time.

    A max is exact in any order, so it can reduce over the leading axis of
    a contiguous copy with the last axis moved first, an elementwise
    maximum of whole rows; NaN and infinities propagate as in `max`.
    """
    return np.maximum.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)))[..., None]


def _softmax(scores):
    """The softmax over the last axis, computed in place in `scores`."""
    scores -= _max_last_axis(scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class _Masked:
    """A (B, T) batch's masked positions, where the last encoder layer runs:
    their rows packed for a GEMM and spread back for a weight gradient, by
    the two shape rules of the module docstring."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.rows, self.cols = rows, cols
        self.batch, self.t = shape
        self.n = len(rows)
        self._flat = rows * self.t + cols
        self._zeros: dict[tuple[int, int], np.ndarray] = {}

    def group(self, a: int, size: int) -> tuple["_Masked", np.ndarray]:
        """The positions in batch rows a to a + size - 1, as positions of
        those rows alone, and their indices in this selection."""
        at = np.flatnonzero((self.rows >= a) & (self.rows < a + size))
        return _Masked(self.rows[at] - a, self.cols[at], (min(size, self.batch - a), self.t)), at

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """(n, w) rows in zero-padded blocks of T rows, (blocks, T, w)."""
        w = rows.shape[-1]
        out = np.zeros((-(-self.n // self.t) * self.t, w), rows.dtype)
        out[: self.n] = rows
        return out.reshape(-1, self.t, w)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The n rows of a packed array, (n, w), a view."""
        return packed.reshape(-1, packed.shape[-1])[: self.n]

    def spread(self, packed: np.ndarray, slot: int = 0) -> np.ndarray:
        """The rows of `packed` at their batch positions, zeros elsewhere,
        (B, T, w): a view of a scratch kept per width and `slot`, which
        the next spread of that width and slot overwrites."""
        w = packed.shape[-1]
        z = self._zeros.get((w, slot))
        if z is None:
            z = self._zeros[w, slot] = np.zeros((self.batch * self.t, w), packed.dtype)
        z[self._flat] = self.unpack(packed)
        return z.reshape(self.batch, self.t, w)

    def free(self) -> None:
        """Drop the spread scratches."""
        self._zeros.clear()

    def queries(self, block: np.ndarray) -> np.ndarray:
        """The query rows at the positions of a (B, heads, T, ·) block,
        (n, heads, ·)."""
        return block[self.rows, :, self.cols]

    def set_queries(self, block: np.ndarray, values: np.ndarray) -> None:
        block[self.rows, :, self.cols] = values


def _weight_grad(a, b, at=None):
    """aᵀb over every row of two (..., w) operands. With `at`, both hold
    packed rows at its positions, spread to their batch positions first, so
    that K is B * T as for whole operands."""
    if at is not None:
        a = at.spread(a)
        b = at.spread(b, slot=int(b.shape[-1] == a.shape[-1]))
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _attention(h, wq, wk, wv, wo, heads, at=None):
    """Self-attention of `h`, (B, T, d), and its backward cache. With `at`,
    only the query rows at its positions go through the softmax, `wo` and
    the output, which is their rows, packed; q·kᵀ and a·v stay whole."""
    d = h.shape[-1]
    scale = 1.0 / math.sqrt(d // heads)  # a Python float: keeps float32 float32
    q = _split_heads(h @ wq, heads)
    k = _split_heads(h @ wk, heads)
    v = _split_heads(h @ wv, heads)
    scores = q @ k.transpose(0, 1, 3, 2)
    if at is None:
        scores *= scale
        a = _softmax(scores)
        ctx = _merge_heads(a @ v)
        return ctx @ wo, (h, q, k, v, a, ctx, scale)
    a = at.queries(scores)
    a *= scale
    _softmax(a)
    # the score block, its values gathered, becomes the probability block:
    # zero off the positions' rows
    scores[...] = 0.0
    at.set_queries(scores, a)
    ctx = at.pack(at.queries(scores @ v).reshape(at.n, d))
    return ctx @ wo, (h, q, k, v, (scores, a), ctx, scale)


def _attention_backward(dout, cache, wq, wk, wv, wo, heads, weights=True, at=None):
    """(dh, dwq, dwk, dwv, dwo); the weight gradients are None unless
    `weights`. With `at`, `dout` and the cache are `_attention`'s with it;
    dh is whole."""
    h, q, k, v, a, ctx, scale = cache
    dctx = dout @ wo.T
    if at is None:
        dctx = _split_heads(dctx, heads)
        da = dctx @ v.transpose(0, 1, 3, 2)
        dv = a.transpose(0, 1, 3, 2) @ dctx
        dscores = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
    else:
        # the probability block becomes the score gradient's
        dscores, a = a
        dctx = _split_heads(at.spread(dctx), heads)
        dv = dscores.transpose(0, 1, 3, 2) @ dctx
        da = at.queries(dctx @ v.transpose(0, 1, 3, 2))
        at.set_queries(dscores, (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    dh = dq_m @ wq.T + dk_m @ wk.T + dv_m @ wv.T
    if not weights:
        return dh, None, None, None, None
    return (dh, _weight_grad(h, dq_m), _weight_grad(h, dk_m), _weight_grad(h, dv_m),
            _weight_grad(ctx, dout, at))


def _ffn(h, w1, w2):
    u = h @ w1
    r = np.maximum(u, 0.0)
    return r @ w2, (h, u, r)


def _ffn_backward(dout, cache, w1, w2, weights=True, at=None):
    """(dh, dw1, dw2); dw1 and dw2 are None unless `weights`. With `at`,
    `dout` and the cache hold packed rows at its positions."""
    h, u, r = cache
    dr = dout @ w2.T
    du = dr * (u > 0.0)
    dh = du @ w1.T
    if not weights:
        return dh, None, None
    return dh, _weight_grad(h, du, at), _weight_grad(r, dout, at)


def _forward(state: ModelState, ids: np.ndarray, language: str, want_cache: bool,
             at: _Masked | None = None):
    """The encoder's output, (B, T, dim), and with `want_cache` each layer's
    backward cache. With `at`, the last layer runs at its positions only,
    and the output is their rows, (n, dim)."""
    cfg = state.cfg
    p = state.params
    b, t = ids.shape
    if t > cfg.max_len:
        raise ValueError(f"sequence length {t} exceeds max_len {cfg.max_len}")
    vocab_size = len(state.vocab(language))
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise ValueError(
            f"token id out of range for the {language} vocabulary of size {vocab_size}"
        )
    emb = p["emb_en"] if language == "en" else p["emb_fg"]
    x = emb[ids] + p["pos_emb"][:t][None, :, :]
    if want_cache:
        caches = []
        return _stack(x, p, cfg, at, caches), caches
    # every encoder op works per row, so a group of rows gets the bits the
    # whole batch would, with temporaries a group long; no layer's cache
    # outlives the layer
    out = x if at is None else np.empty((at.n, cfg.dim), x.dtype)
    for a in range(0, b, ROW_GROUP):
        if at is None:
            x[a : a + ROW_GROUP] = _stack(x[a : a + ROW_GROUP], p, cfg)
            continue
        group, where = at.group(a, ROW_GROUP)
        if group.n:
            out[where] = _stack(x[a : a + ROW_GROUP], p, cfg, group)
    return out, []


def _stack(x, p, cfg: ModelConfig, at: _Masked | None = None, caches: list | None = None):
    """The encoder layers on `x`, appending each layer's backward cache to
    `caches` if given. With `at`, the last layer runs at its positions
    only, and the result is their rows, (n, dim)."""
    for l in range(cfg.layers):
        x, cache = _encoder_layer(x, p, f"enc.{l}.", cfg, at if l == cfg.layers - 1 else None)
        if caches is not None:
            caches.append(cache)
        del cache  # unless kept, no layer's cache outlives the layer
    if at is None:
        return x
    return at.unpack(x) if cfg.layers else x[at.rows, at.cols]


def _encoder_layer(x, p, n, cfg: ModelConfig, at: _Masked | None = None):
    """One encoder layer on `x`; returns its output and its backward cache.
    With `at`, the output is the rows at its positions, packed."""
    x, ln1, attn = _sublayer(x, lambda h: _attention(h, p[n + "wq"], p[n + "wk"], p[n + "wv"],
                                                     p[n + "wo"], cfg.heads, at),
                             p[n + "ln1_g"], p[n + "ln1_b"], cfg, at)
    x, ln2, ffn = _sublayer(x, lambda h: _ffn(h, p[n + "w1"], p[n + "w2"]),
                            p[n + "ln2_g"], p[n + "ln2_b"], cfg)
    return x, (ln1, attn, ln2, ffn)


def _sublayer(x, f, g, b, cfg: ModelConfig, at: _Masked | None = None):
    """A residual sublayer: x + f(LN(x)) under pre-norm, LN(x + f(x)) under
    post-norm. Returns its output, the layer norm's cache and f's cache.
    With `at`, f's output and the sublayer's are the packed rows at its
    positions."""
    res = x if at is None else at.pack(x[at.rows, at.cols])
    if cfg.norm == "pre":
        h, ln = _layer_norm(x, g, b, cfg.ln_eps)
        out, cache = f(h)
        return res + out, ln, cache
    out, cache = f(x)
    y, ln = _layer_norm(res + out, g, b, cfg.ln_eps)
    return y, ln, cache


def _sublayer_backward(dout, ln, f_backward, cfg: ModelConfig, weights: bool,
                       at: _Masked | None = None):
    """The input gradient of `_sublayer` and its weight gradients: the layer
    norm's (dg, db), then f's. `f_backward` maps the gradient at f's output
    to the one at its input followed by f's weight gradients. With `at`,
    `dout` holds the packed rows at its positions, and the input gradient
    is whole."""
    if cfg.norm == "pre":
        dh, *dw = f_backward(dout)
        dx_ln, dg, db = _layer_norm_backward(dh, ln, weights)
        return _add_residual(dout, dx_ln, at), (dg, db, *dw)
    dsum, dg, db = _layer_norm_backward(dout, ln, weights)
    dh, *dw = f_backward(dsum)
    return _add_residual(dsum, dh, at), (dg, db, *dw)


def _add_residual(d, dx, at: _Masked | None):
    """d + dx; with `at`, d holds the packed rows at its positions, added
    into the whole dx there."""
    if at is None:
        return d + dx
    dx[at.rows, at.cols] += at.unpack(d)
    return dx


def encode(state: ModelState, batch: MaskedBatch) -> np.ndarray:
    """Contextual representations, shape (B, T, dim)."""
    ctx, _ = _forward(state, batch.token_ids, batch.language, want_cache=False)
    return ctx


def _logits(state: ModelState, cm: np.ndarray, language: str) -> np.ndarray:
    """The output logits of the masked rows `cm`, (n, dim)."""
    emb = state.params["emb_en" if language == "en" else "emb_fg"]
    bias = state.params["out_bias_en" if language == "en" else "out_bias_fg"]
    # one vocabulary-sized array: the bias is added in place (never slice
    # this GEMM: a row slice of `cm` can change the product's bits)
    logits = cm @ emb.T
    logits += bias
    return logits


def _exact_row_sums(ex: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of `ex`, whose entries lie in [0, 1], in any column order.

    Each entry is rounded to the nearest multiple of 2^-k, for V columns
    k = 53 - bit_length(max(V - 1, 1)): scaling by 2^k and rounding to an
    integer are exact, so each term is an integer in [0, 2^k] and every
    partial sum an integer <= V * 2^k <= 2^53, which float64 adds exactly.
    The result is the same bit for bit under any permutation of the
    columns; before its one rounding to `ex`'s dtype it lies within
    V * 2^-(k+1) of the exact sum, and the term errors have either sign.
    The rounded terms go to `out` (which may be `ex` itself), an array of
    `ex`'s shape and dtype; without it, one temporary that size is made.
    Besides that, the memory used is one value per row.
    """
    scale = 2.0 ** (53 - max(ex.shape[1] - 1, 1).bit_length())
    q = np.multiply(ex, scale, out=out)
    np.rint(q, out=q)
    return (q.sum(axis=1, dtype=np.float64) / scale).astype(ex.dtype)


def _loss_from_logits(logits: np.ndarray, labels: np.ndarray, probs: bool = False):
    """Mean cross-entropy at the masked positions, and the probabilities.

    The normalizer, `_exact_row_sums` of the shifted exponentials, is their
    exact sum after rounding to multiples of 2^-k: within V * 2^-(k+1)
    of the true sum, and bit-identical under any permutation of the
    vocabulary, as the loss therefore is. With `probs`, `logits` is
    overwritten by the softmax probabilities (normalised in place) and
    those are returned; otherwise the second value is None and `logits` is
    left as it is.

    Rows are normalised in slices of at most `SLICE_BYTES` (one row, if a
    row is larger) through one scratch slice, so beyond `logits` the memory
    used is that slice plus a few values per row. Every step is per row or
    per element, and the row sums are exact, so the slicing changes no bit.
    """
    n, v = logits.shape
    step = max(1, SLICE_BYTES // (logits.itemsize * v))
    scratch = np.empty((min(step, n), v), dtype=logits.dtype)
    nll = np.empty(n, dtype=logits.dtype)
    for a in range(0, n, step):
        rows = logits[a : a + step]
        sc = scratch[: len(rows)]
        m = rows.max(axis=1, keepdims=True)
        picked = rows[np.arange(len(rows)), labels[a : a + step]]
        ex = np.subtract(rows, m, out=rows if probs else sc)
        np.exp(ex, out=ex)
        denom = _exact_row_sums(ex, out=sc)
        nll[a : a + step] = -(picked - m[:, 0] - np.log(denom))
        if probs:
            ex /= denom[:, None]
    return nll.mean(), (logits if probs else None)


def mlm_loss(state: ModelState, batch: MaskedBatch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked positions; returns (loss, masked logits)."""
    if batch.n_masked == 0:
        raise ValueError("batch has no masked positions")
    at = _Masked(batch.mask_rows, batch.mask_cols, batch.token_ids.shape)
    cm, _ = _forward(state, batch.token_ids, batch.language, want_cache=False, at=at)
    logits = _logits(state, cm, batch.language)
    loss, _ = _loss_from_logits(logits, batch.labels)
    return float(loss), logits


def backward(
    state: ModelState,
    batch: MaskedBatch,
    freeze: frozenset[str] | set[str] = frozenset(),
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients of the parameters outside the `freeze` groups.

    The dict holds one gradient per non-frozen parameter, in `state.params`
    order, and nothing for a frozen group; it includes trainable parameters
    this batch does not reach (the other language's table), as zeros. With
    `grads=` (a dict from an earlier call with the same `freeze`), this
    batch's gradients are added into it in place and it is returned: one
    update's english and foreign batches share one dict this way.

    Work for frozen groups is skipped: the weight and layer-norm gradients
    of a frozen encoder, the scatter into a frozen table, and, when nothing
    the batch reaches can train, the whole backward pass.
    """
    if batch.n_masked == 0:
        raise ValueError("batch has no masked positions")
    cfg = state.cfg
    p = state.params
    ids = batch.token_ids
    lang = batch.language
    emb_name = "emb_en" if lang == "en" else "emb_fg"
    bias_name = "out_bias_en" if lang == "en" else "out_bias_fg"
    if grads is None:
        grads = {name: np.zeros_like(arr) for name, arr in p.items()
                 if param_group(name) not in freeze}
    train_emb = emb_name not in freeze
    train_bias = bias_name not in freeze
    train_pos = "pos_emb" not in freeze
    train_enc = "encoder" not in freeze
    need_dx = train_emb or train_pos or train_enc  # anything below the logits

    at = _Masked(batch.mask_rows, batch.mask_cols, ids.shape)
    cm, caches = _forward(state, ids, lang, want_cache=need_dx, at=at)
    logits = _logits(state, cm, lang)
    if not (need_dx or train_bias):
        loss, _ = _loss_from_logits(logits, batch.labels)
        return float(loss), grads
    loss, dlogits = _loss_from_logits(logits, batch.labels, probs=True)

    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    dlogits /= batch.n_masked
    if train_emb:
        grads[emb_name] += dlogits.T @ cm
    if train_bias:
        grads[bias_name] += dlogits.sum(axis=0)
    if not need_dx:
        return float(loss), grads

    # the gradient at the masked rows, packed; whole below the last layer
    dx = at.pack(dlogits @ p[emb_name])
    for l in reversed(range(cfg.layers)):
        n = f"enc.{l}."
        ln1, attn, ln2, ffn = caches.pop()  # each cache is dropped after its layer
        w = train_enc  # weight and layer-norm gradients
        s = at if l == cfg.layers - 1 else None
        dx, ffn_grads = _sublayer_backward(
            dx, ln2, lambda d: _ffn_backward(d, ffn, p[n + "w1"], p[n + "w2"], w, s), cfg, w)
        dx, attn_grads = _sublayer_backward(
            dx, ln1, lambda d: _attention_backward(d, attn, p[n + "wq"], p[n + "wk"],
                                                   p[n + "wv"], p[n + "wo"], cfg.heads, w, s),
            cfg, w, s)
        if s is not None:
            s.free()
        if train_enc:
            for name, g in zip(("ln2_g", "ln2_b", "w1", "w2", "ln1_g", "ln1_b", "wq", "wk",
                                "wv", "wo"), ffn_grads + attn_grads):
                grads[n + name] += g

    if not cfg.layers:
        dx = at.spread(dx)
    if train_emb:
        np.add.at(grads[emb_name], ids, dx)
    if train_pos:
        grads["pos_emb"][: ids.shape[1]] += dx.sum(axis=0)
    return float(loss), grads


# ---------------------------------------------------------------------------
# checkpoints: one binary tensor file per parameter plus a JSON manifest


def save_checkpoint(
    state: ModelState, path: str | Path, step: int = 0, rng_state: dict | None = None
) -> None:
    """Write `state` as the checkpoint directory `path` through `replacing`:
    the files go to a temporary sibling directory, which then replaces
    whatever `path` holds. If a write fails, `path` keeps what it had.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as tmp:
        tmp.mkdir()
        manifest = {
            "step": step,
            "rng_state": rng_state,
            "config": asdict(state.cfg),
            "params": {},
        }
        for name in sorted(state.params):
            fname = name + ".bin"
            write_array(tmp / fname, state.params[name].astype(np.float32))
            manifest["params"][name] = {
                "file": fname,
                "shape": list(state.params[name].shape),
            }
        # inside the temporary directory, so written in place
        for language in ("en", "fg"):
            (tmp / f"vocab_{language}.txt").write_text(state.vocab(language).text(),
                                                       encoding="utf-8")
        with open(tmp / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[ModelState, int, dict | None]:
    path = Path(path)
    file = path / "manifest.json"
    manifest = parse_json_object(file, file.read_bytes(), ("step", "config", "params"),
                                 "manifest")
    config = json_object(file, manifest["config"], (), "config")
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValueError(f"{file}: config keys that ModelConfig does not have: {unknown}")
    try:
        cfg = ModelConfig(**config)
    except ValueError as exc:
        raise ValueError(f"{file}: config: {exc}") from None
    vocab_en = Vocabulary.load(path / "vocab_en.txt")
    vocab_fg = Vocabulary.load(path / "vocab_fg.txt")
    params = {}
    for name, meta in json_object(file, manifest["params"], (), "params").items():
        meta = json_object(file, meta, ("file", "shape"), f"params entry {name!r}")
        arr, _ = read_array(path / meta["file"])
        params[name] = arr.reshape(meta["shape"])
    state = ModelState(cfg, vocab_en, vocab_fg, params)
    return state, manifest["step"], manifest.get("rng_state")
