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
positions sums exponentials in ascending sorted order, making the loss
invariant, bit for bit, to a permutation of the vocabulary.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import MASK_ID, NUM_SPECIALS, Vocabulary
from .embeddings import read_array, write_array

PARAM_GROUPS = ("emb_en", "emb_fg", "pos_emb", "encoder", "out_bias_en", "out_bias_fg")


def param_group(name: str) -> str:
    """The freeze group a parameter belongs to."""
    return "encoder" if name.startswith("enc.") else name


@dataclass
class ModelConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = 64
    norm: str = "pre"  # "pre" (default) or "post" layer norm
    ln_eps: float = 1e-5

    def __post_init__(self) -> None:
        for name, low in (("dim", 1), ("layers", 0), ("heads", 1), ("ffn_dim", 1),
                          ("max_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if self.norm not in ("pre", "post"):
            raise ValueError(f"unknown norm placement: {self.norm!r}")


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
    if not 0.0 < mask_prob <= 1.0:
        raise ValueError("mask_prob must be in (0, 1]")
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
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
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
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
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


def _attention(h, wq, wk, wv, wo, heads):
    d = h.shape[-1]
    scale = 1.0 / math.sqrt(d // heads)  # a Python float: keeps float32 float32
    q = _split_heads(h @ wq, heads)
    k = _split_heads(h @ wk, heads)
    v = _split_heads(h @ wv, heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores -= _max_last_axis(scores)
    e = np.exp(scores)
    a = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(a @ v)
    return ctx @ wo, (h, q, k, v, a, ctx, scale)


def _attention_backward(dout, cache, wq, wk, wv, wo, heads, weights=True):
    """(dh, dwq, dwk, dwv, dwo); the weight gradients are None unless `weights`."""
    h, q, k, v, a, ctx, scale = cache
    d = h.shape[-1]
    dctx = _split_heads(dout @ wo.T, heads)
    da = dctx @ v.transpose(0, 1, 3, 2)
    dv = a.transpose(0, 1, 3, 2) @ dctx
    dscores = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    dh = dq_m @ wq.T + dk_m @ wk.T + dv_m @ wv.T
    if not weights:
        return dh, None, None, None, None
    h2 = h.reshape(-1, d)
    dwq = h2.T @ dq_m.reshape(-1, d)
    dwk = h2.T @ dk_m.reshape(-1, d)
    dwv = h2.T @ dv_m.reshape(-1, d)
    dwo = ctx.reshape(-1, d).T @ dout.reshape(-1, d)
    return dh, dwq, dwk, dwv, dwo


def _ffn(h, w1, w2):
    u = h @ w1
    r = np.maximum(u, 0.0)
    return r @ w2, (h, u, r)


def _ffn_backward(dout, cache, w1, w2, weights=True):
    """(dh, dw1, dw2); dw1 and dw2 are None unless `weights`."""
    h, u, r = cache
    d_in, d_hidden = w1.shape
    dr = dout @ w2.T
    du = dr * (u > 0.0)
    dh = du @ w1.T
    if not weights:
        return dh, None, None
    dw2 = r.reshape(-1, d_hidden).T @ dout.reshape(-1, w2.shape[1])
    dw1 = h.reshape(-1, d_in).T @ du.reshape(-1, d_hidden)
    return dh, dw1, dw2


def _forward(state: ModelState, ids: np.ndarray, language: str, want_cache: bool):
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
    caches = []
    for l in range(cfg.layers):
        n = f"enc.{l}."
        if cfg.norm == "pre":
            h1, ln1 = _layer_norm(x, p[n + "ln1_g"], p[n + "ln1_b"], cfg.ln_eps)
            attn_out, attn = _attention(h1, p[n + "wq"], p[n + "wk"], p[n + "wv"],
                                        p[n + "wo"], cfg.heads)
            x_mid = x + attn_out
            h2, ln2 = _layer_norm(x_mid, p[n + "ln2_g"], p[n + "ln2_b"], cfg.ln_eps)
            ffn_out, ffn = _ffn(h2, p[n + "w1"], p[n + "w2"])
            x = x_mid + ffn_out
        else:
            attn_out, attn = _attention(x, p[n + "wq"], p[n + "wk"], p[n + "wv"],
                                        p[n + "wo"], cfg.heads)
            x_mid, ln1 = _layer_norm(x + attn_out, p[n + "ln1_g"], p[n + "ln1_b"],
                                     cfg.ln_eps)
            ffn_out, ffn = _ffn(x_mid, p[n + "w1"], p[n + "w2"])
            x, ln2 = _layer_norm(x_mid + ffn_out, p[n + "ln2_g"], p[n + "ln2_b"],
                                 cfg.ln_eps)
        if want_cache:
            caches.append((ln1, attn, ln2, ffn))
    return x, caches


def encode(state: ModelState, batch: MaskedBatch) -> np.ndarray:
    """Contextual representations, shape (B, T, dim)."""
    ctx, _ = _forward(state, batch.token_ids, batch.language, want_cache=False)
    return ctx


def _masked_logits(state: ModelState, ctx: np.ndarray, batch: MaskedBatch):
    emb = state.params["emb_en" if batch.language == "en" else "emb_fg"]
    bias = state.params["out_bias_en" if batch.language == "en" else "out_bias_fg"]
    cm = ctx[batch.mask_rows, batch.mask_cols]
    return cm @ emb.T + bias, cm


def _loss_from_logits(logits: np.ndarray, labels: np.ndarray, probs: bool = False):
    """Mean cross-entropy at the masked positions, and the probabilities.

    With `probs`, `logits` is overwritten by the softmax probabilities
    (normalised in place) and those are returned; otherwise the second
    value is None and `logits` is left as it is.
    """
    m = logits.max(axis=1, keepdims=True)
    picked = logits[np.arange(logits.shape[0]), labels]
    ex = np.subtract(logits, m, out=logits if probs else None)
    np.exp(ex, out=ex)
    # ascending-order summation: invariant to vocabulary permutation
    if probs:
        denom = np.sort(ex, axis=1).sum(axis=1)
    else:  # `ex` is a scratch copy: sort it in place instead of copying it
        ex.sort(axis=1)
        denom = ex.sum(axis=1)
    nll = -(picked - m[:, 0] - np.log(denom))
    if not probs:
        return nll.mean(), None
    ex /= denom[:, None]
    return nll.mean(), ex


def mlm_loss(state: ModelState, batch: MaskedBatch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked positions; returns (loss, masked logits)."""
    if batch.n_masked == 0:
        raise ValueError("batch has no masked positions")
    ctx, _ = _forward(state, batch.token_ids, batch.language, want_cache=False)
    logits, _ = _masked_logits(state, ctx, batch)
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

    ctx, caches = _forward(state, ids, lang, want_cache=need_dx)
    logits, cm = _masked_logits(state, ctx, batch)
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

    dx = np.zeros_like(ctx)
    dx[batch.mask_rows, batch.mask_cols] = dlogits @ p[emb_name]

    for l in reversed(range(cfg.layers)):
        n = f"enc.{l}."
        ln1, attn, ln2, ffn = caches[l]
        w = train_enc  # weight and layer-norm gradients
        if cfg.norm == "pre":
            # x_out = x_mid + FFN(LN2(x_mid));  x_mid = x_in + Attn(LN1(x_in))
            dh2, dw1, dw2 = _ffn_backward(dx, ffn, p[n + "w1"], p[n + "w2"], w)
            dx_mid_ln, dg2, db2 = _layer_norm_backward(dh2, ln2, w)
            dx_mid = dx + dx_mid_ln
            dh1, dwq, dwk, dwv, dwo = _attention_backward(
                dx_mid, attn, p[n + "wq"], p[n + "wk"], p[n + "wv"], p[n + "wo"],
                cfg.heads, w,
            )
            dx_in_ln, dg1, db1 = _layer_norm_backward(dh1, ln1, w)
            dx = dx_mid + dx_in_ln
        else:
            # x_out = LN2(x_mid + FFN(x_mid));  x_mid = LN1(x_in + Attn(x_in))
            dsum2, dg2, db2 = _layer_norm_backward(dx, ln2, w)
            dffn_in, dw1, dw2 = _ffn_backward(dsum2, ffn, p[n + "w1"], p[n + "w2"], w)
            dx_mid = dsum2 + dffn_in
            dsum1, dg1, db1 = _layer_norm_backward(dx_mid, ln1, w)
            dattn_in, dwq, dwk, dwv, dwo = _attention_backward(
                dsum1, attn, p[n + "wq"], p[n + "wk"], p[n + "wv"], p[n + "wo"],
                cfg.heads, w,
            )
            dx = dsum1 + dattn_in
        if train_enc:
            for name, g in (("ln1_g", dg1), ("ln1_b", db1), ("ln2_g", dg2),
                            ("ln2_b", db2), ("wq", dwq), ("wk", dwk), ("wv", dwv),
                            ("wo", dwo), ("w1", dw1), ("w2", dw2)):
                grads[n + name] += g

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
    """Write `state` as the checkpoint directory `path`, atomically.

    The files go to a temporary sibling directory, which is then renamed to
    `path`, replacing a directory already there. If a write fails, `path`
    keeps what it had and the temporary directory is removed. A crash
    between the two renames of a replacement leaves the previous
    checkpoint beside `path`, under the temporary name plus `.old`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = tmp.with_name(tmp.name + ".old")
    for stale in (tmp, old):  # left by a crashed process with this pid
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
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
        state.vocab_en.save(tmp / "vocab_en.txt")
        state.vocab_fg.save(tmp / "vocab_fg.txt")
        with open(tmp / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if path.exists():
            os.rename(path, old)
            os.rename(tmp, path)
            shutil.rmtree(old)
        else:
            os.rename(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_checkpoint(path: str | Path) -> tuple[ModelState, int, dict | None]:
    path = Path(path)
    with open(path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg = ModelConfig(**manifest["config"])
    vocab_en = Vocabulary.load(path / "vocab_en.txt")
    vocab_fg = Vocabulary.load(path / "vocab_fg.txt")
    params = {}
    for name, meta in manifest["params"].items():
        arr, _ = read_array(path / meta["file"])
        params[name] = arr.reshape(meta["shape"])
    state = ModelState(cfg, vocab_en, vocab_fg, params)
    return state, manifest["step"], manifest.get("rng_state")
