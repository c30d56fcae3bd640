"""`pretrain` and `run_transfer` against the two loops they replaced.

`oracle_pretrain` and `oracle_run_transfer` below are the earlier,
separate implementations of the two training runs, kept as test
references together with the log writer they used. They share the step's
primitives (the parameter arena, backward, Adam, clipping, batching,
evaluation, checkpoints) with the library, so any difference comes from
the single update loop that now drives both runs: its batch order, freeze
schedule, evaluation and logging.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from langxfer import trainer
from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.tiny_mlm import ModelConfig, init_model, plug_foreign
from langxfer.trainer import (
    EMBEDDING_PHASE_FREEZE,
    EVAL_SEED_OFFSET,
    CyclingStream,
    ParamArena,
    TrainingConfig,
    TransferResult,
    lr_schedule,
    pretrain,
    run_transfer,
)

# ---------------------------------------------------------------------------
# oracle: the two separate loops


class OracleLogs:
    def __init__(self, out_path, bilingual):
        self.bilingual = bilingual
        self.metrics, self.evals = [], []
        self._metrics_fh = self._evals_fh = self._telemetry_fh = None
        if out_path is not None:
            self._metrics_fh = open(out_path / "metrics.csv", "w", encoding="utf-8")
            self._metrics_fh.write("step,lr,loss_en,loss_fg\n")
            self._evals_fh = open(out_path / "evals.csv", "w", encoding="utf-8")
            self._evals_fh.write("step,eval_loss_en,eval_acc_en,eval_loss_fg,eval_acc_fg\n")
            self._telemetry_fh = open(out_path / "telemetry.csv", "w", encoding="utf-8")
            self._telemetry_fh.write("step,phase,grad_norm,wall_ms\n")

    def metric(self, step, lr, loss_en, loss_fg):
        self.metrics.append((step, lr, loss_en, loss_fg))
        if self._metrics_fh is not None:
            fg = f"{loss_fg:.8f}" if self.bilingual else ""
            self._metrics_fh.write(f"{step},{lr:.10e},{loss_en:.8f},{fg}\n")

    def eval(self, step, le, ae, lf, af):
        self.evals.append((step, le, ae, lf, af))
        if self._evals_fh is not None:
            fg = f"{lf:.8f},{af:.6f}" if not math.isnan(lf) else ","
            self._evals_fh.write(f"{step},{le:.8f},{ae:.6f},{fg}\n")

    def telemetry(self, step, phase, grad_norm, started):
        if self._telemetry_fh is not None:
            ms = 1e3 * (time.perf_counter() - started)
            self._telemetry_fh.write(f"{step},{phase},{grad_norm!r},{ms:.3f}\n")

    def close(self):
        for fh in (self._metrics_fh, self._evals_fh, self._telemetry_fh):
            if fh is not None:
                fh.close()


def oracle_run_transfer(cfg, pretrained, init_emb, train_en, train_fg, heldout_en=None,
                        heldout_fg=None, init_bias=None, out_dir=None):
    if init_emb.dim != pretrained.cfg.dim:
        raise ValueError(
            f"initial embeddings have dim {init_emb.dim}, model has {pretrained.cfg.dim}"
        )
    if cfg.seq_len > pretrained.cfg.max_len:
        raise ValueError("seq_len exceeds the model's max_len")
    state = plug_foreign(pretrained, init_emb.vocab, init_emb.data, init_bias)

    en_stream = CyclingStream(train_en, (cfg.seed, 0xE))
    fg_stream = CyclingStream(train_fg, (cfg.seed, 0xF))
    arena = ParamArena(state)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    logs = OracleLogs(out_path, bilingual=True)
    checkpoints = []

    def evaluate(step):
        if heldout_en is None or heldout_fg is None:
            return
        le, ae = trainer.evaluate_mlm(state, heldout_en, "en", cfg.seed + EVAL_SEED_OFFSET,
                                      cfg.mask_prob)
        lf, af = trainer.evaluate_mlm(state, heldout_fg, "fg", cfg.seed + EVAL_SEED_OFFSET,
                                      cfg.mask_prob)
        logs.eval(step, le, ae, lf, af)

    def checkpoint(step):
        if out_path is None:
            return
        ck = out_path / "checkpoints" / f"step_{step:07d}"
        trainer.save_checkpoint(state, ck, step=step)
        checkpoints.append(ck)

    try:
        evaluate(0)
        for step in range(1, cfg.total_updates + 1):
            started = time.perf_counter()
            frozen = step <= cfg.freeze_phase_updates
            freeze = EMBEDDING_PHASE_FREEZE if frozen else frozenset()
            b_en, b_fg = trainer.balanced_batch(
                en_stream, fg_stream, cfg, step,
                len(state.vocab_en), len(state.vocab_fg),
            )
            grads = arena.zeroed_grads(freeze)
            loss_en, grads = trainer.backward(state, b_en, freeze, grads)
            loss_fg, grads = trainer.backward(state, b_fg, freeze, grads)
            grad_norm = trainer.clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, cfg)
            trainer.adam_step(state, grads, arena.opt, lr, freeze,
                              cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            state.assert_finite()
            logs.metric(step, lr, loss_en, loss_fg)
            logs.telemetry(step, "frozen" if frozen else "joint", grad_norm, started)
            if step % cfg.checkpoint_every == 0 or step == cfg.total_updates:
                evaluate(step)
                checkpoint(step)
    finally:
        state.arena = None
        logs.close()
    return TransferResult(state, logs.metrics, logs.evals, checkpoints)


def oracle_pretrain(cfg, state, train_en, heldout_en=None, out_dir=None):
    en_stream = CyclingStream(train_en, (cfg.seed, 0xE))
    arena = ParamArena(state)
    freeze = frozenset({"emb_fg", "out_bias_fg"})

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    logs = OracleLogs(out_path, bilingual=False)
    checkpoints = []

    def evaluate(step):
        if heldout_en is None:
            return
        le, ae = trainer.evaluate_mlm(state, heldout_en, "en", cfg.seed + EVAL_SEED_OFFSET,
                                      cfg.mask_prob)
        logs.eval(step, le, ae, float("nan"), float("nan"))

    try:
        evaluate(0)
        for step in range(1, cfg.total_updates + 1):
            started = time.perf_counter()
            rows = en_stream.next(cfg.batch_size)
            batch = trainer.make_masked_batch(rows, cfg.mask_prob, (cfg.seed, step, 0),
                                              len(state.vocab_en), "en", cfg.eighty_ten_ten)
            loss, grads = trainer.backward(state, batch, freeze, arena.zeroed_grads(freeze))
            grad_norm = trainer.clip_gradients(grads, cfg.grad_clip)
            lr = lr_schedule(step, cfg)
            trainer.adam_step(state, grads, arena.opt, lr, freeze,
                              cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            state.assert_finite()
            logs.metric(step, lr, loss, float("nan"))
            logs.telemetry(step, "pretrain", grad_norm, started)
            if step % cfg.checkpoint_every == 0 or step == cfg.total_updates:
                evaluate(step)
                if out_path is not None:
                    ck = out_path / "checkpoints" / f"step_{step:07d}"
                    trainer.save_checkpoint(state, ck, step=step)
                    checkpoints.append(ck)
    finally:
        state.arena = None
        logs.close()
    return TransferResult(state, logs.metrics, logs.evals, checkpoints)


# ---------------------------------------------------------------------------
# whole runs: byte-equal outputs against the oracle loops


def model(seed=0):
    cfg = ModelConfig(dim=16, layers=2, heads=2, ffn_dim=32, max_len=8)
    vocab_en = Vocabulary.from_tokens([f"e{i}" for i in range(19)])
    vocab_fg = Vocabulary.from_tokens([f"f{i}" for i in range(23)])
    return init_model(cfg, vocab_en, vocab_fg, seed)


def rows(vocab_size, n, seed):
    return np.random.default_rng(seed).integers(NUM_SPECIALS, vocab_size, size=(n, 8))


def run_files(out):
    """Every deterministic output: telemetry.csv without its wall_ms column."""
    files = {name: (out / name).read_bytes() for name in ("metrics.csv", "evals.csv")}
    telemetry = (out / "telemetry.csv").read_text(encoding="utf-8").splitlines()
    files["telemetry.csv"] = [line.rsplit(",", 1)[0] for line in telemetry]
    for path in sorted((out / "checkpoints").rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def assert_same_run(got, want, got_dir, want_dir):
    # repr compares floats bit for bit and NaN equal to NaN
    assert repr(got.metrics) == repr(want.metrics)
    assert repr(got.evals) == repr(want.evals)
    assert [p.relative_to(got_dir) for p in got.checkpoints] == [
        p.relative_to(want_dir) for p in want.checkpoints]
    for k in want.state.params:
        assert np.array_equal(got.state.params[k], want.state.params[k]), k
    got_files, want_files = run_files(got_dir), run_files(want_dir)
    assert len(got_files) > 3 and got_files.keys() == want_files.keys()
    for name in want_files:
        assert got_files[name] == want_files[name], name


@pytest.mark.parametrize("heldout", [True, False], ids=["heldout", "no-heldout"])
@pytest.mark.parametrize("grad_clip", [1.0, None], ids=["clip", "no-clip"])
def test_pretrain_matches_oracle(tmp_path, heldout, grad_clip):
    cfg = TrainingConfig(total_updates=12, warmup_updates=3, batch_size=6, seq_len=8,
                         checkpoint_every=5, grad_clip=grad_clip, seed=3)
    train, held = rows(24, 10, 1), rows(24, 4, 2) if heldout else None
    got = pretrain(cfg, model(), train, held, out_dir=tmp_path / "got")
    want = oracle_pretrain(cfg, model(), train, held, out_dir=tmp_path / "want")
    assert bool(want.evals) == heldout
    assert_same_run(got, want, tmp_path / "got", tmp_path / "want")


@pytest.mark.parametrize("freeze_phase_updates,grad_clip,heldout_fg", [
    (0, 1.0, True),
    (6, 1.0, True),
    (14, 1.0, True),  # the whole run in the embedding-only phase
    (6, None, True),
    (6, 1.0, False),  # no foreign held-out rows: no evaluation at all
], ids=["joint", "frozen-then-joint", "frozen", "no-clip", "no-fg-heldout"])
def test_run_transfer_matches_oracle(tmp_path, freeze_phase_updates, grad_clip, heldout_fg):
    state = model()
    emb = EmbeddingMatrix(
        state.vocab_fg,
        np.random.default_rng(9).normal(0, 0.25, (len(state.vocab_fg), 16)).astype(np.float32),
    )
    bias = np.random.default_rng(10).normal(0, 0.1, len(state.vocab_fg)).astype(np.float32)
    cfg = TrainingConfig(total_updates=14, warmup_updates=3, batch_size=8, seq_len=8,
                         freeze_phase_updates=freeze_phase_updates, checkpoint_every=5,
                         grad_clip=grad_clip, seed=2)
    data = (rows(24, 12, 3), rows(28, 12, 4), rows(24, 4, 5),
            rows(28, 4, 6) if heldout_fg else None)
    got = run_transfer(cfg, state, emb, *data, init_bias=bias, out_dir=tmp_path / "got")
    want = oracle_run_transfer(cfg, state, emb, *data, init_bias=bias,
                               out_dir=tmp_path / "want")
    assert bool(want.evals) == heldout_fg
    assert_same_run(got, want, tmp_path / "got", tmp_path / "want")


def test_without_out_dir_matches_oracle():
    cfg = TrainingConfig(total_updates=6, warmup_updates=2, batch_size=4, seq_len=8,
                         freeze_phase_updates=3, checkpoint_every=4, seed=5)
    emb = EmbeddingMatrix(model().vocab_fg, np.zeros((28, 16), dtype=np.float32))
    data = (rows(24, 6, 7), rows(28, 6, 8), rows(24, 3, 9), rows(28, 3, 10))
    got = run_transfer(cfg, model(), emb, *data)
    want = oracle_run_transfer(cfg, model(), emb, *data)
    assert got.checkpoints == want.checkpoints == []
    assert repr(got.metrics) == repr(want.metrics)
    assert repr(got.evals) == repr(want.evals)
