"""Two-phase bilingual fine-tuning: Adam, warmup + inverse-sqrt decay.

Phase A trains only the foreign embedding table and output bias with
everything else frozen; phase B fine-tunes all parameters jointly on
balanced half-english / half-foreign batches. Runs are deterministic given
the config seeds: metrics logs and checkpoints are byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EOS_ID
from .embeddings import EmbeddingMatrix
from .tiny_mlm import (
    MaskedBatch,
    ModelState,
    backward,
    make_masked_batch,
    mlm_loss,
    param_group,
    plug_foreign,
    save_checkpoint,
)

ALL_GROUPS = frozenset(
    {"emb_en", "emb_fg", "pos_emb", "encoder", "out_bias_en", "out_bias_fg"}
)
EMBEDDING_PHASE_FREEZE = frozenset(ALL_GROUPS - {"emb_fg", "out_bias_fg"})
EVAL_SEED_OFFSET = 0x5EED


@dataclass
class TrainingConfig:
    total_updates: int = 5000
    warmup_updates: int = 400
    peak_lr: float = 1e-3
    floor_lr: float = 1e-7
    batch_size: int = 16  # even; half per language in bilingual mode
    seq_len: int = 64
    mask_prob: float = 0.15
    eighty_ten_ten: bool = True
    freeze_phase_updates: int = 500
    seed: int = 0
    checkpoint_every: int = 1000
    grad_clip: float | None = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.batch_size % 2 != 0:
            raise ValueError("batch_size must be even")
        if self.warmup_updates > self.total_updates:
            raise ValueError("warmup_updates must not exceed total_updates")
        if self.warmup_updates < 1:
            raise ValueError("warmup_updates must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not 0.0 < self.mask_prob <= 1.0:
            raise ValueError("mask_prob must be in (0, 1]")

    @classmethod
    def paper_scale(cls) -> "TrainingConfig":
        """The full-size profile: 120k updates, warmup 4k, 1e-7 -> 1e-4."""
        return cls(
            total_updates=120_000,
            warmup_updates=4_000,
            peak_lr=1e-4,
            batch_size=112,
            seq_len=256,
            freeze_phase_updates=0,
            checkpoint_every=20_000,
        )


def lr_schedule(step: int, cfg: TrainingConfig) -> float:
    """Linear warmup from the floor to peak, then peak * sqrt(warmup/step)."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step == cfg.warmup_updates:
        return cfg.peak_lr  # exact joint between warmup and decay
    if step < cfg.warmup_updates:
        frac = step / cfg.warmup_updates
        return cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * frac
    return cfg.peak_lr * math.sqrt(cfg.warmup_updates / step)


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_model(cls, state: ModelState) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in state.params.items()},
            v={k: np.zeros_like(p) for k, p in state.params.items()},
        )


def adam_step(
    state: ModelState,
    grads: dict[str, np.ndarray],
    opt: OptimizerState,
    lr: float,
    freeze: frozenset[str] | set[str] = frozenset(),
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update in place; frozen groups stay untouched."""
    active = [k for k in state.params if param_group(k) not in freeze]
    for k in active:  # abort before mutating anything
        if not np.all(np.isfinite(grads[k])):
            raise FloatingPointError(f"non-finite gradient for parameter group {k}")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for k in active:
        g = grads[k]
        opt.m[k] = beta1 * opt.m[k] + (1.0 - beta1) * g
        opt.v[k] = beta2 * opt.v[k] + (1.0 - beta2) * (g * g)
        m_hat = opt.m[k] / bc1
        v_hat = opt.v[k] / bc2
        state.params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for k in grads:
            grads[k] = grads[k] * np.asarray(scale, dtype=grads[k].dtype)
    return total


def pack_sequences(
    id_sequences: list[list[int]], seq_len: int, separator: int = EOS_ID
) -> np.ndarray:
    """Greedily pack sentences (separator-terminated) into full rows.

    The incomplete tail is dropped, so every row is exactly `seq_len` real
    tokens and no padding is ever needed.
    """
    flat: list[int] = []
    for seq in id_sequences:
        flat.extend(seq)
        flat.append(separator)
    n_rows = len(flat) // seq_len
    if n_rows == 0:
        raise ValueError(
            f"corpus too small to fill one row of {seq_len} tokens "
            f"({len(flat)} tokens available)"
        )
    return np.asarray(flat[: n_rows * seq_len], dtype=np.int64).reshape(n_rows, seq_len)


class CyclingStream:
    """Endless row stream with per-epoch shuffling, deterministic per seed."""

    def __init__(self, rows: np.ndarray, seed) -> None:
        if len(rows) == 0:
            raise ValueError("cannot stream from an empty corpus")
        self.rows = rows
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(len(rows))
        self.cursor = 0

    def next(self, k: int) -> np.ndarray:
        out = []
        while k > 0:
            take = min(k, len(self.order) - self.cursor)
            out.append(self.rows[self.order[self.cursor : self.cursor + take]])
            self.cursor += take
            k -= take
            if self.cursor == len(self.order):
                self.order = self.rng.permutation(len(self.rows))
                self.cursor = 0
        return np.concatenate(out, axis=0)


def balanced_batch(
    en_stream: CyclingStream,
    fg_stream: CyclingStream,
    cfg: TrainingConfig,
    step: int,
    vocab_en_size: int,
    vocab_fg_size: int,
) -> tuple[MaskedBatch, MaskedBatch]:
    """Half-english, half-foreign masked batches for one update."""
    half = cfg.batch_size // 2
    en = make_masked_batch(
        en_stream.next(half), cfg.mask_prob, (cfg.seed, step, 0),
        vocab_en_size, "en", cfg.eighty_ten_ten,
    )
    fg = make_masked_batch(
        fg_stream.next(half), cfg.mask_prob, (cfg.seed, step, 1),
        vocab_fg_size, "fg", cfg.eighty_ten_ten,
    )
    return en, fg


def evaluate_mlm(
    state: ModelState,
    rows: np.ndarray,
    language: str,
    seed: int,
    mask_prob: float = 0.15,
    chunk: int = 64,
) -> tuple[float, float]:
    """Deterministic held-out loss and masked-token accuracy.

    Evaluation corruption is pure-MASK (no 80/10/10 randomization) with a
    fixed seed, so repeated calls return identical numbers.
    """
    vocab_size = len(state.vocab(language))
    total_nll = 0.0
    total_correct = 0
    total = 0
    for start in range(0, len(rows), chunk):
        batch = make_masked_batch(
            rows[start : start + chunk], mask_prob, (seed, start),
            vocab_size, language, eighty_ten_ten=False,
        )
        loss, logits = mlm_loss(state, batch)
        total_nll += loss * batch.n_masked
        total_correct += int(np.sum(np.argmax(logits, axis=1) == batch.labels))
        total += batch.n_masked
    return total_nll / total, total_correct / total


@dataclass
class TransferResult:
    state: ModelState
    metrics: list[tuple[int, float, float, float]]  # step, lr, loss_en, loss_fg
    evals: list[tuple[int, float, float, float, float]]  # step, l_en, a_en, l_fg, a_fg
    checkpoints: list[Path] = field(default_factory=list)


class _RunLogs:
    """Append-only metrics.csv / evals.csv, written row by row as they occur."""

    METRICS_HEADER = "step,lr,loss_en,loss_fg\n"
    EVALS_HEADER = "step,eval_loss_en,eval_acc_en,eval_loss_fg,eval_acc_fg\n"

    def __init__(self, out_path: Path | None, bilingual: bool) -> None:
        self.bilingual = bilingual
        self.metrics: list[tuple[int, float, float, float]] = []
        self.evals: list[tuple[int, float, float, float, float]] = []
        self._metrics_fh = self._evals_fh = None
        if out_path is not None:
            self._metrics_fh = open(out_path / "metrics.csv", "w", encoding="utf-8")
            self._metrics_fh.write(self.METRICS_HEADER)
            self._evals_fh = open(out_path / "evals.csv", "w", encoding="utf-8")
            self._evals_fh.write(self.EVALS_HEADER)

    def metric(self, step: int, lr: float, loss_en: float, loss_fg: float) -> None:
        self.metrics.append((step, lr, loss_en, loss_fg))
        if self._metrics_fh is not None:
            fg = f"{loss_fg:.8f}" if self.bilingual else ""
            self._metrics_fh.write(f"{step},{lr:.10e},{loss_en:.8f},{fg}\n")

    def eval(self, step: int, le: float, ae: float, lf: float, af: float) -> None:
        self.evals.append((step, le, ae, lf, af))
        if self._evals_fh is not None:
            fg = f"{lf:.8f},{af:.6f}" if not math.isnan(lf) else ","
            self._evals_fh.write(f"{step},{le:.8f},{ae:.6f},{fg}\n")

    def close(self) -> None:
        for fh in (self._metrics_fh, self._evals_fh):
            if fh is not None:
                fh.close()


def run_transfer(
    cfg: TrainingConfig,
    pretrained: ModelState,
    init_emb: EmbeddingMatrix,
    train_en: np.ndarray,
    train_fg: np.ndarray,
    heldout_en: np.ndarray | None = None,
    heldout_fg: np.ndarray | None = None,
    init_bias: np.ndarray | None = None,
    out_dir: str | Path | None = None,
) -> TransferResult:
    """Adapt a pretrained english model to the foreign language.

    Steps 1..freeze_phase_updates train only emb_fg / out_bias_fg; the rest
    of the run fine-tunes everything. Held-out evaluation happens at step 0,
    at every checkpoint, and at the end.
    """
    if init_emb.dim != pretrained.cfg.dim:
        raise ValueError(
            f"initial embeddings have dim {init_emb.dim}, model has {pretrained.cfg.dim}"
        )
    if cfg.seq_len > pretrained.cfg.max_len:
        raise ValueError("seq_len exceeds the model's max_len")
    state = plug_foreign(pretrained, init_emb.vocab, init_emb.data, init_bias)

    en_stream = CyclingStream(train_en, (cfg.seed, 0xE))
    fg_stream = CyclingStream(train_fg, (cfg.seed, 0xF))
    opt = OptimizerState.for_model(state)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    logs = _RunLogs(out_path, bilingual=True)
    checkpoints: list[Path] = []

    def evaluate(step: int) -> None:
        if heldout_en is None or heldout_fg is None:
            return
        le, ae = evaluate_mlm(state, heldout_en, "en", cfg.seed + EVAL_SEED_OFFSET,
                              cfg.mask_prob)
        lf, af = evaluate_mlm(state, heldout_fg, "fg", cfg.seed + EVAL_SEED_OFFSET,
                              cfg.mask_prob)
        logs.eval(step, le, ae, lf, af)

    def checkpoint(step: int) -> None:
        if out_path is None:
            return
        ck = out_path / "checkpoints" / f"step_{step:07d}"
        save_checkpoint(state, ck, step=step)
        checkpoints.append(ck)

    try:
        evaluate(0)
        for step in range(1, cfg.total_updates + 1):
            freeze = (EMBEDDING_PHASE_FREEZE if step <= cfg.freeze_phase_updates
                      else frozenset())
            b_en, b_fg = balanced_batch(
                en_stream, fg_stream, cfg, step,
                len(state.vocab_en), len(state.vocab_fg),
            )
            loss_en, g_en = backward(state, b_en, freeze)
            loss_fg, g_fg = backward(state, b_fg, freeze)
            grads = {k: g_en[k] + g_fg[k] for k in g_en}
            if cfg.grad_clip is not None:
                clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, cfg)
            adam_step(state, grads, opt, lr, freeze,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            state.assert_finite()
            logs.metric(step, lr, loss_en, loss_fg)
            if step % cfg.checkpoint_every == 0 or step == cfg.total_updates:
                evaluate(step)
                checkpoint(step)
    finally:
        logs.close()
    return TransferResult(state, logs.metrics, logs.evals, checkpoints)


def pretrain(
    cfg: TrainingConfig,
    state: ModelState,
    train_en: np.ndarray,
    heldout_en: np.ndarray | None = None,
    out_dir: str | Path | None = None,
) -> TransferResult:
    """Monolingual english MLM training (full batches, no freezing)."""
    en_stream = CyclingStream(train_en, (cfg.seed, 0xE))
    opt = OptimizerState.for_model(state)
    # the foreign side does not exist yet: exclude it from updates entirely
    freeze = frozenset({"emb_fg", "out_bias_fg"})

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    logs = _RunLogs(out_path, bilingual=False)
    checkpoints: list[Path] = []

    def evaluate(step: int) -> None:
        if heldout_en is None:
            return
        le, ae = evaluate_mlm(state, heldout_en, "en", cfg.seed + EVAL_SEED_OFFSET,
                              cfg.mask_prob)
        logs.eval(step, le, ae, float("nan"), float("nan"))

    try:
        evaluate(0)
        for step in range(1, cfg.total_updates + 1):
            rows = en_stream.next(cfg.batch_size)
            batch = make_masked_batch(rows, cfg.mask_prob, (cfg.seed, step, 0),
                                      len(state.vocab_en), "en", cfg.eighty_ten_ten)
            loss, grads = backward(state, batch, freeze)
            if cfg.grad_clip is not None:
                clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, cfg)
            adam_step(state, grads, opt, lr, freeze,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            state.assert_finite()
            logs.metric(step, lr, loss, float("nan"))
            if step % cfg.checkpoint_every == 0 or step == cfg.total_updates:
                evaluate(step)
                if out_path is not None:
                    ck = out_path / "checkpoints" / f"step_{step:07d}"
                    save_checkpoint(state, ck, step=step)
                    checkpoints.append(ck)
    finally:
        logs.close()
    return TransferResult(state, logs.metrics, logs.evals, checkpoints)
