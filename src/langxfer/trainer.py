"""Two-phase bilingual fine-tuning: Adam, warmup + inverse-sqrt decay.

Phase A trains only the foreign embedding table and output bias with
everything else frozen; phase B fine-tunes all parameters jointly on
balanced half-english / half-foreign batches. Runs are deterministic given
the config seeds: metrics logs and checkpoints are byte-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EOS_ID, check_fields, require, ruled
from .embeddings import EmbeddingMatrix
from .tiny_mlm import (
    PARAM_GROUPS,
    MaskedBatch,
    ModelState,
    backward,
    make_masked_batch,
    mlm_loss,
    param_group,
    plug_foreign,
    save_checkpoint,
)

FOREIGN_PAIR = ("emb_fg", "out_bias_fg")  # first in the arena: see ParamArena
# the foreign side does not exist while pretraining: it takes no updates
PRETRAIN_FREEZE = frozenset(FOREIGN_PAIR)
EMBEDDING_PHASE_FREEZE = frozenset(PARAM_GROUPS) - PRETRAIN_FREEZE
STREAM_SEEDS = {"en": 0xE, "fg": 0xF}  # each language's row stream: (cfg.seed, this)
EVAL_SEED_OFFSET = 0x5EED


@dataclass
class TrainingConfig:
    total_updates: int = 5000
    warmup_updates: int = ruled(400, ">= 1")
    peak_lr: float = ruled(1e-3, "> 0")
    floor_lr: float = ruled(1e-7, ">= 0")
    batch_size: int = ruled(16, ">= 2")  # even; half per language in bilingual mode
    seq_len: int = ruled(64, ">= 1")
    mask_prob: float = ruled(0.15, "in (0, 1]")
    eighty_ten_ten: bool = True
    freeze_phase_updates: int = ruled(500, ">= 0")
    seed: int = ruled(0, ">= 0")
    checkpoint_every: int = ruled(1000, ">= 1")
    grad_clip: float | None = 1.0  # None, 0 or less: no clipping
    adam_beta1: float = ruled(0.9, "in [0, 1)")
    adam_beta2: float = ruled(0.999, "in [0, 1)")
    adam_eps: float = ruled(1e-8, "> 0")

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size % 2 != 0:
            raise ValueError("batch_size must be even")
        if self.warmup_updates > self.total_updates:
            raise ValueError("warmup_updates must not exceed total_updates")
        if self.grad_clip is not None and math.isnan(self.grad_clip):
            raise ValueError("grad_clip must not be NaN (0 or less means no clipping)")
        if self.grad_clip is not None and self.grad_clip <= 0:
            self.grad_clip = None

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
    require("step", step, ">= 0")
    if step == cfg.warmup_updates:
        return cfg.peak_lr  # exact joint between warmup and decay
    if step < cfg.warmup_updates:
        frac = step / cfg.warmup_updates
        return cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * frac
    return cfg.peak_lr * math.sqrt(cfg.warmup_updates / step)


# elements per Adam block: the six float32 operands of a block (1.5 MB) stay
# in a 2 MB L2 cache; 16 K-element blocks measured slower at V=65 and V=8000
ADAM_BLOCK = 1 << 16


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


class ArenaGrads(dict):
    """A ParamArena's gradient views for one freeze set, in `params` order.

    It also holds the layouts that `adam_step` and `clip_gradients` loop
    over: `runs`, the (param, grad, m, v) slices of each contiguous range
    of trainable parameters, and `stacks`, one (names, rows) pair per group
    of gradients that are adjacent in the buffer and of one size, as a 2-D
    view with one row per gradient.
    """

    def __init__(self, arena: "ParamArena", freeze: frozenset) -> None:
        super().__init__((k, g) for k, g in arena.grads.items() if param_group(k) not in freeze)
        # no reference back to the arena: a cycle would keep its buffers
        # alive after the run, until the garbage collector found it
        self.param, self.opt, self.freeze = arena.param, arena.opt, freeze
        spans = [(k, *arena.spans[k]) for k in arena.order if k in self]
        ranges: list[list[int]] = []
        stacks: list[tuple[list[str], int, int]] = []
        for k, start, stop in spans:
            if ranges and ranges[-1][1] == start:
                ranges[-1][1] = stop
            else:
                ranges.append([start, stop])
            names, first, end = stacks[-1] if stacks else ([], 0, -1)
            if end == start and end - first == len(names) * (stop - start):
                names.append(k)
                stacks[-1] = (names, first, stop)
            else:
                stacks.append(([k], start, stop))
        self.runs = [(arena.param[a:b], arena.grad[a:b], arena.m[a:b], arena.v[a:b])
                     for a, b in ranges]
        self.stacks = [(names, arena.grad[a:b].reshape(len(names), -1))
                       for names, a, b in stacks]

    def zero(self) -> None:
        """Zero-fill the gradients."""
        for _, g, _, _ in self.runs:
            g.fill(0)

    def updates(self, state: ModelState, opt: OptimizerState, freeze) -> bool:
        """Whether these runs are `state`'s and `opt`'s under `freeze`."""
        return state.arena is self.param and opt is self.opt and self.freeze == freeze


class ParamArena:
    """One run's parameters, gradients and Adam moments as views into four
    flat buffers of the model's dtype.

    The layout is by freeze group: emb_fg and out_bias_fg first, then every
    other parameter in `params` order. Each schedule's trainable set is
    then one contiguous range: everything after the foreign pair when
    pretraining, the pair in the embedding-only phase, the whole buffer in
    the joint phase. Building the arena rebinds each `state.params[k]` to
    its view (the dict keeps its keys and their order) and points
    `state.arena` at the parameter buffer; the views must not be rebound
    while it is in use. `opt` holds the moments as views. The gradient
    dict of each freeze set is built once, so a step allocates no
    gradients.
    """

    def __init__(self, state: ModelState) -> None:
        dtype = state.dtype
        if any(p.dtype != dtype for p in state.params.values()):
            raise ValueError("an arena needs every parameter in one dtype")
        self.order = [*FOREIGN_PAIR, *(k for k in state.params if k not in FOREIGN_PAIR)]
        self.spans: dict[str, tuple[int, int]] = {}
        total = 0
        for k in self.order:
            self.spans[k] = (total, total + state.params[k].size)
            total += state.params[k].size
        self.param = np.empty(total, dtype)
        self.grad, self.m, self.v = (np.zeros(total, dtype) for _ in range(3))

        def views(buffer: np.ndarray) -> dict[str, np.ndarray]:
            return {k: buffer[slice(*self.spans[k])].reshape(p.shape)
                    for k, p in state.params.items()}

        for k, view in views(self.param).items():
            view[...] = state.params[k]
            state.params[k] = view
        state.arena = self.param
        self.grads = views(self.grad)
        self.opt = OptimizerState(m=views(self.m), v=views(self.v))
        self._by_freeze: dict[frozenset, ArenaGrads] = {}

    def zeroed_grads(self, freeze: frozenset) -> ArenaGrads:
        """The gradient views of the parameters outside `freeze`, zero-filled."""
        grads = self._by_freeze.get(freeze)
        if grads is None:
            grads = self._by_freeze[freeze] = ArenaGrads(self, frozenset(freeze))
        grads.zero()
        return grads


def adam_step(
    state: ModelState,
    grads: ArenaGrads,
    opt: OptimizerState,
    lr: float,
    freeze: frozenset[str] | set[str] = frozenset(),
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update in place; frozen groups stay untouched.

    `grads` is the ArenaGrads of `state`, `opt` and `freeze`
    (`ParamArena.zeroed_grads`); anything else is a ValueError. The update
    runs over the arena's contiguous ranges, each in blocks of ADAM_BLOCK
    elements through two scratch buffers, with the textbook expressions'
    operations in their order:
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps).
    """
    if not (isinstance(grads, ArenaGrads) and grads.updates(state, opt, freeze)):
        raise ValueError("adam_step needs the ArenaGrads of its state, optimizer and freeze set")
    if not all(np.isfinite(g).all() for _, g, _, _ in grads.runs):  # abort before mutating
        for k in state.params:
            if k in grads and not np.all(np.isfinite(grads[k])):
                raise FloatingPointError(f"non-finite gradient for parameter group {k}")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p_run, g_run, m_run, v_run in grads.runs:
        scratch = np.empty((2, min(ADAM_BLOCK, len(p_run))), dtype=p_run.dtype)
        for i in range(0, len(p_run), ADAM_BLOCK):
            p, g = p_run[i:i + ADAM_BLOCK], g_run[i:i + ADAM_BLOCK]
            m, v = m_run[i:i + ADAM_BLOCK], v_run[i:i + ADAM_BLOCK]
            a, b = scratch[0, :len(p)], scratch[1, :len(p)]
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=a)
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            v *= beta2
            v += a
            np.divide(m, bc1, out=a)
            a *= lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p -= a


def clip_gradients(grads: ArenaGrads, max_norm: float | None) -> float:
    """Scale an ArenaGrads in place so its global L2 norm is at most max_norm.

    The norm adds each gradient's float64 sum of squares in dict order,
    each stack's rows summed in one call, bit-identical to one sum per
    gradient. Returns the norm before clipping; with `max_norm=None` it
    only measures. Anything but an ArenaGrads is a ValueError.
    """
    if not isinstance(grads, ArenaGrads):
        raise ValueError("clip_gradients needs an ArenaGrads (ParamArena.zeroed_grads)")
    sums: dict[str, float] = {}
    for names, rows in grads.stacks:
        sums.update(zip(names, np.square(rows, dtype=np.float64).sum(axis=1).tolist()))
    total = math.sqrt(sum(sums[k] for k in grads))
    if max_norm is not None and total > max_norm and total > 0:
        scale = max_norm / total
        for _, rows in grads.stacks:
            rows *= np.asarray(scale, dtype=rows.dtype)
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
    streams: dict[str, CyclingStream],
    cfg: TrainingConfig,
    step: int,
    vocab_sizes: dict[str, int],
) -> list[MaskedBatch]:
    """One update's masked batches, one per language of `streams` in order:
    `cfg.batch_size` rows split evenly, language k masked as seed side k."""
    share = cfg.batch_size // len(streams)
    return [make_masked_batch(stream.next(share), cfg.mask_prob, (cfg.seed, step, side),
                              vocab_sizes[language], language, cfg.eighty_ten_ten)
            for side, (language, stream) in enumerate(streams.items())]


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
    require("seed", seed, ">= 0")
    if len(rows) == 0:
        raise ValueError(f"the {language} held-out set has no rows")
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
        del logits  # before the next chunk's forward pass
    return total_nll / total, total_correct / total


@dataclass
class TransferResult:
    state: ModelState
    metrics: list[tuple[int, float, float, float]]  # step, lr, loss_en, loss_fg
    evals: list[tuple[int, float, float, float, float]]  # step, l_en, a_en, l_fg, a_fg
    checkpoints: list[Path] = field(default_factory=list)


class _RunLogs:
    """Append-only metrics.csv / evals.csv / telemetry.csv, row by row.

    metrics.csv and evals.csv are deterministic; a NaN foreign loss (a run
    without a foreign side) is written as an empty field. telemetry.csv
    holds one row per update: the phase, the global gradient norm before
    clipping, and the update's wall time, which varies from run to run and
    so stays out of the other two files and out of checkpoints.
    """

    HEADERS = {
        "metrics": "step,lr,loss_en,loss_fg\n",
        "evals": "step,eval_loss_en,eval_acc_en,eval_loss_fg,eval_acc_fg\n",
        "telemetry": "step,phase,grad_norm,wall_ms\n",
    }

    def __init__(self, out_path: Path | None) -> None:
        self.metrics: list[tuple[int, float, float, float]] = []
        self.evals: list[tuple[int, float, float, float, float]] = []
        self._files = {}  # one open file per log, none without an output directory
        if out_path is not None:
            for name, header in self.HEADERS.items():
                self._files[name] = open(out_path / f"{name}.csv", "w", encoding="utf-8")
                self._files[name].write(header)

    def metric(self, step: int, lr: float, loss_en: float, loss_fg: float) -> None:
        self.metrics.append((step, lr, loss_en, loss_fg))
        if self._files:
            fg = f"{loss_fg:.8f}" if not math.isnan(loss_fg) else ""
            self._files["metrics"].write(f"{step},{lr:.10e},{loss_en:.8f},{fg}\n")

    def eval(self, step: int, le: float, ae: float, lf: float, af: float) -> None:
        self.evals.append((step, le, ae, lf, af))
        if self._files:
            fg = f"{lf:.8f},{af:.6f}" if not math.isnan(lf) else ","
            self._files["evals"].write(f"{step},{le:.8f},{ae:.6f},{fg}\n")

    def telemetry(self, step: int, phase: str, grad_norm: float, started: float) -> None:
        """One update's row; `started` is its time.perf_counter() at the start."""
        if self._files:
            ms = 1e3 * (time.perf_counter() - started)
            self._files["telemetry"].write(f"{step},{phase},{grad_norm!r},{ms:.3f}\n")

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()


def _train(
    cfg: TrainingConfig,
    state: ModelState,
    train: dict[str, np.ndarray],
    heldout: dict[str, np.ndarray | None],
    out_dir: str | Path | None,
) -> TransferResult:
    """The update loop of every training run, on `state` in place.

    `train` holds each language's training rows, english first. Step s
    sums the gradients of `balanced_batch`'s batches for s, clips them and
    takes one Adam step. The data gives the schedule: english alone is
    pretraining, with PRETRAIN_FREEZE; english and foreign train only the
    foreign pair (EMBEDDING_PHASE_FREEZE) up to `cfg.freeze_phase_updates`,
    then everything jointly. Held-out evaluation of each language in
    `heldout` runs at step 0, at every checkpoint and at the end, when every
    language there has rows.
    """
    streams = {language: CyclingStream(rows, (cfg.seed, STREAM_SEEDS[language]))
               for language, rows in train.items()}
    vocab_sizes = {language: len(state.vocab(language)) for language in train}
    arena = ParamArena(state)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    logs = _RunLogs(out_path)
    checkpoints: list[Path] = []

    def evaluate(step: int) -> None:
        if any(rows is None for rows in heldout.values()):
            return
        scores = [evaluate_mlm(state, rows, language, cfg.seed + EVAL_SEED_OFFSET,
                               cfg.mask_prob) for language, rows in heldout.items()]
        (le, ae), (lf, af) = (scores + [(math.nan, math.nan)])[:2]
        logs.eval(step, le, ae, lf, af)

    try:
        evaluate(0)
        for step in range(1, cfg.total_updates + 1):
            started = time.perf_counter()
            if "fg" not in train:
                freeze, phase = PRETRAIN_FREEZE, "pretrain"
            elif step <= cfg.freeze_phase_updates:
                freeze, phase = EMBEDDING_PHASE_FREEZE, "frozen"
            else:
                freeze, phase = frozenset(), "joint"
            losses, grads = [], arena.zeroed_grads(freeze)
            for batch in balanced_batch(streams, cfg, step, vocab_sizes):
                loss, grads = backward(state, batch, freeze, grads)
                losses.append(loss)
            grad_norm = clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, cfg)
            adam_step(state, grads, arena.opt, lr, freeze,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            state.assert_finite()
            logs.metric(step, lr, *(losses + [math.nan])[:2])
            logs.telemetry(step, phase, grad_norm, started)
            if step % cfg.checkpoint_every == 0 or step == cfg.total_updates:
                evaluate(step)
                if out_path is not None:
                    ck = out_path / "checkpoints" / f"step_{step:07d}"
                    save_checkpoint(state, ck, step=step)
                    checkpoints.append(ck)
    finally:
        state.arena = None  # the views stay valid; rebinding them is safe again
        logs.close()
    return TransferResult(state, logs.metrics, logs.evals, checkpoints)


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
    of the run fine-tunes everything on half-english, half-foreign batches.
    Held-out evaluation needs both held-out sets.
    """
    if init_emb.dim != pretrained.cfg.dim:
        raise ValueError(
            f"initial embeddings have dim {init_emb.dim}, model has {pretrained.cfg.dim}"
        )
    if cfg.seq_len > pretrained.cfg.max_len:
        raise ValueError("seq_len exceeds the model's max_len")
    state = plug_foreign(pretrained, init_emb.vocab, init_emb.data, init_bias)
    return _train(cfg, state, {"en": train_en, "fg": train_fg},
                  {"en": heldout_en, "fg": heldout_fg}, out_dir)


def pretrain(
    cfg: TrainingConfig,
    state: ModelState,
    train_en: np.ndarray,
    heldout_en: np.ndarray | None = None,
    out_dir: str | Path | None = None,
) -> TransferResult:
    """Monolingual english MLM training: full batches, the foreign pair frozen."""
    return _train(cfg, state, {"en": train_en}, {"en": heldout_en}, out_dir)
