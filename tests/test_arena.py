"""The flat parameter arena against the per-tensor step it replaced.

The oracles below are the earlier per-tensor implementations, kept as test
references: Adam with two scratch arrays per tensor, clipping that sums
each gradient's float64 squares and rebinds the scaled gradients, and a
finite check per parameter. The arena runs the same expressions over
contiguous ranges, so every comparison is bit for bit.
"""

import gc
import math

import numpy as np
import pytest

from langxfer import tiny_mlm, trainer
from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.tiny_mlm import (
    ModelConfig,
    _loss_from_logits,
    _max_last_axis,
    init_model,
    param_group,
)
from langxfer.trainer import (
    EMBEDDING_PHASE_FREEZE,
    ArenaGrads,
    OptimizerState,
    ParamArena,
    TrainingConfig,
    adam_step,
    clip_gradients,
    pretrain,
    run_transfer,
)

FREEZE_SETS = [
    frozenset(),
    EMBEDDING_PHASE_FREEZE,
    frozenset({"emb_fg", "out_bias_fg"}),
    frozenset({"encoder"}),
]


def freeze_id(freeze):
    return "+".join(sorted(freeze)) or "none"


# ---------------------------------------------------------------------------
# oracles: the per-tensor step


def oracle_adam_step(state, grads, opt, lr, freeze=frozenset(),
                     beta1=0.9, beta2=0.999, eps=1e-8):
    active = [k for k in state.params if param_group(k) not in freeze]
    for k in active:
        if not np.all(np.isfinite(grads[k])):
            raise FloatingPointError(f"non-finite gradient for parameter group {k}")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for k in active:
        g, m, v, p = grads[k], opt.m[k], opt.v[k], state.params[k]
        a, b = np.empty_like(p), np.empty_like(p)
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


def oracle_clip_gradients(grads, max_norm):
    total = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    if max_norm is not None and total > max_norm and total > 0:
        scale = max_norm / total
        for k in grads:
            grads[k] = grads[k] * np.asarray(scale, dtype=grads[k].dtype)
    return total


def oracle_assert_finite(self):
    for name, p in self.params.items():
        if not np.all(np.isfinite(p)):
            raise FloatingPointError(f"non-finite values in parameter {name}")


# ---------------------------------------------------------------------------


def vocab_of(n, prefix):
    return Vocabulary.from_tokens([f"{prefix}{i}" for i in range(n - NUM_SPECIALS)])


def model(v_en=40, v_fg=33, dim=16, seed=0):
    cfg = ModelConfig(dim=dim, layers=2, heads=4, ffn_dim=2 * dim, max_len=12)
    return init_model(cfg, vocab_of(v_en, "e"), vocab_of(v_fg, "f"), seed)


def trainable(state, freeze):
    return [k for k in state.params if param_group(k) not in freeze]


def random_grads(state, freeze, rng, scale):
    return {k: (scale * rng.standard_normal(state.params[k].shape)).astype(state.dtype)
            for k in trainable(state, freeze)}


def zero_moments(state):
    """Adam moments for the oracle: a zero array per parameter."""
    return OptimizerState(m={k: np.zeros_like(p) for k, p in state.params.items()},
                          v={k: np.zeros_like(p) for k, p in state.params.items()})


def assert_same(a, b):
    assert list(a) == list(b)
    for k in a:
        assert a[k].dtype == b[k].dtype, k
        assert np.array_equal(a[k], b[k]), k


def compare_steps(arena_state, plain_state, freezes, seed, max_norm=1.0):
    """Clip and Adam on an arena and on plain dicts, same gradients, same bits."""
    arena = ParamArena(arena_state)
    opt = zero_moments(plain_state)
    rng = np.random.default_rng(seed)
    for step, freeze in enumerate(freezes):
        want = random_grads(plain_state, freeze, rng, scale=0.05 * (step + 1))
        grads = arena.zeroed_grads(freeze)
        assert isinstance(grads, ArenaGrads) and list(grads) == list(want)
        for k, g in want.items():
            grads[k][...] = g
        want = {k: g.copy() for k, g in want.items()}
        assert clip_gradients(grads, max_norm) == oracle_clip_gradients(want, max_norm)
        assert_same(grads, want)
        adam_step(arena_state, grads, arena.opt, 1e-2, freeze)
        oracle_adam_step(plain_state, want, opt, 1e-2, freeze)
        assert arena.opt.step == opt.step
        assert_same(arena_state.params, plain_state.params)
        assert_same(arena.opt.m, opt.m)
        assert_same(arena.opt.v, opt.v)
        arena_state.assert_finite()
    return arena


class TestArenaAgainstOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("freeze", FREEZE_SETS, ids=freeze_id)
    def test_clip_and_adam_bit_identical(self, freeze, dtype):
        a, b = model().astype(dtype), model().astype(dtype)
        compare_steps(a, b, [freeze] * 4, seed=1)

    def test_schedule_changes_bit_identical(self):
        a, b = model(), model()
        compare_steps(a, b, [EMBEDDING_PHASE_FREEZE] * 2 + [frozenset()] * 2
                      + [frozenset({"encoder"})], seed=2, max_norm=None)

    def test_v8000_spans_several_blocks(self):
        a, b = model(v_en=8000, v_fg=7990, dim=24), model(v_en=8000, v_fg=7990, dim=24)
        arena = compare_steps(a, b, [EMBEDDING_PHASE_FREEZE, frozenset(), frozenset()],
                              seed=3)
        assert all(len(run[0]) > 2 * trainer.ADAM_BLOCK
                   for run in arena.zeroed_grads(frozenset()).runs)

    @pytest.mark.parametrize("freeze", FREEZE_SETS, ids=freeze_id)
    def test_plain_dicts_are_refused(self, freeze):
        state = model()
        grads = random_grads(state, freeze, np.random.default_rng(4), scale=0.3)
        with pytest.raises(ValueError, match="ArenaGrads"):
            clip_gradients(grads, 1.0)
        with pytest.raises(ValueError, match="ArenaGrads"):
            adam_step(state, grads, zero_moments(state), 1e-2, freeze)


class TestLayout:
    def test_views_keep_keys_order_and_values(self):
        state = model()
        before = {k: p.copy() for k, p in state.params.items()}
        arena = ParamArena(state)
        assert list(state.params) == list(before)
        assert_same(state.params, before)
        assert state.arena is arena.param
        for k, p in state.params.items():
            assert np.shares_memory(p, arena.param)
            assert np.shares_memory(arena.opt.m[k], arena.m)
            assert np.shares_memory(arena.grads[k], arena.grad)
        assert arena.order[:2] == ["emb_fg", "out_bias_fg"]

    @pytest.mark.parametrize("freeze, ranges", [
        (frozenset(), 1),
        (EMBEDDING_PHASE_FREEZE, 1),
        (frozenset({"emb_fg", "out_bias_fg"}), 1),
        (frozenset({"encoder"}), 2),
    ], ids=["joint", "frozen", "pretrain", "encoder"])
    def test_each_schedule_is_one_range(self, freeze, ranges):
        state = model()
        arena = ParamArena(state)
        grads = arena.zeroed_grads(freeze)
        assert len(grads.runs) == ranges
        assert sum(len(run[1]) for run in grads.runs) == sum(g.size for g in grads.values())
        assert arena.zeroed_grads(freeze) is grads  # built once per freeze set

    def test_zeroed_grads_clears_only_its_range(self):
        state = model()
        arena = ParamArena(state)
        arena.grad[...] = 1.0
        grads = arena.zeroed_grads(EMBEDDING_PHASE_FREEZE)
        assert all(not g.any() for g in grads.values())
        assert arena.grads["emb_en"].all()


class TestNonFinite:
    def test_adam_names_the_first_bad_parameter_and_mutates_nothing(self):
        state, plain = model(), model()
        arena = ParamArena(state)
        grads = arena.zeroed_grads(frozenset())
        grads["out_bias_fg"][3] = np.nan  # first in the arena, last in params order
        grads["enc.1.w1"][0, 0] = np.inf
        want = {k: g.copy() for k, g in grads.items()}
        before = [buf.copy() for buf in (arena.param, arena.grad, arena.m, arena.v)]
        with pytest.raises(FloatingPointError) as got:
            adam_step(state, grads, arena.opt, 1e-2)
        with pytest.raises(FloatingPointError) as oracle:
            oracle_adam_step(plain, want, zero_moments(plain), 1e-2)
        assert str(got.value) == str(oracle.value)
        assert "enc.1.w1" in str(got.value)
        for buf, old in zip((arena.param, arena.grad, arena.m, arena.v), before):
            assert np.array_equal(buf, old, equal_nan=True)
        assert arena.opt.step == 0

    @pytest.mark.parametrize("bad", ["emb_en", "out_bias_fg", "enc.0.ln2_b"])
    def test_assert_finite_names_the_parameter(self, bad):
        state = model()
        ParamArena(state)
        state.assert_finite()
        state.params[bad].reshape(-1)[-1] = -np.inf
        state.params["enc.1.wq"][0, 0] = np.nan
        with pytest.raises(FloatingPointError) as got:
            state.assert_finite()
        with pytest.raises(FloatingPointError) as oracle:
            oracle_assert_finite(state)
        assert str(got.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# whole runs: byte-equal outputs against the per-tensor step


def run_files(out):
    files = {name: (out / name).read_bytes() for name in ("metrics.csv", "evals.csv")}
    telemetry = (out / "telemetry.csv").read_text().splitlines()
    files["telemetry.csv"] = [line.rsplit(",", 1)[0] for line in telemetry]  # no wall_ms
    for path in sorted((out / "checkpoints").rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def with_oracles(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(trainer, "adam_step", oracle_adam_step)
        m.setattr(trainer, "clip_gradients", oracle_clip_gradients)
        m.setattr(tiny_mlm.ModelState, "assert_finite", oracle_assert_finite)
        return fn()


def rows(state, language, n, seed):
    v = len(state.vocab(language))
    return np.random.default_rng(seed).integers(NUM_SPECIALS, v, size=(n, 8))


@pytest.mark.parametrize("freeze_phase_updates", [0, 5, 12])
def test_run_transfer_byte_equal_to_per_tensor_step(tmp_path, monkeypatch,
                                                     freeze_phase_updates):
    state = model()
    emb = EmbeddingMatrix(
        state.vocab_fg,
        np.random.default_rng(9).normal(0, 0.25, (len(state.vocab_fg), 16)).astype(np.float32),
    )
    # a small clip norm, so that most updates are clipped
    cfg = TrainingConfig(total_updates=12, warmup_updates=3, batch_size=8, seq_len=8,
                         freeze_phase_updates=freeze_phase_updates, checkpoint_every=6,
                         seed=4, grad_clip=0.5)
    data = (rows(state, "en", 12, 10), rows(state, "fg", 12, 11),
            rows(state, "en", 4, 12), rows(state, "fg", 4, 13))

    def run(out):
        return run_transfer(cfg, state, emb, *data, out_dir=out)

    run(tmp_path / "arena")
    with_oracles(monkeypatch, lambda: run(tmp_path / "oracle"))
    arena, oracle = run_files(tmp_path / "arena"), run_files(tmp_path / "oracle")
    assert len(arena) > 3 and arena == oracle


def test_pretrain_byte_equal_to_per_tensor_step(tmp_path, monkeypatch):
    cfg = TrainingConfig(total_updates=10, warmup_updates=2, batch_size=6, seq_len=8,
                         checkpoint_every=5, seed=5, grad_clip=0.5)
    data = (rows(model(), "en", 10, 14), rows(model(), "en", 4, 15))
    result = pretrain(cfg, model(), *data, out_dir=tmp_path / "arena")
    assert result.state.arena is None  # detached when the run ends
    with_oracles(monkeypatch, lambda: pretrain(cfg, model(), *data,
                                               out_dir=tmp_path / "oracle"))
    arena, oracle = run_files(tmp_path / "arena"), run_files(tmp_path / "oracle")
    assert len(arena) > 3 and arena == oracle


def test_arena_is_freed_when_the_run_ends():
    """No reference cycle keeps a finished run's buffers alive until the
    garbage collector runs (repeated runs grew transfer-v8k's memory)."""
    cfg = TrainingConfig(total_updates=3, warmup_updates=1, batch_size=6, seq_len=8,
                         checkpoint_every=3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        pretrain(cfg, model(), rows(model(), "en", 10, 16))
        assert not [o for o in gc.get_objects() if isinstance(o, (ParamArena, ArenaGrads))]
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the attention max


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_last_axis_matches_max(dtype):
    rng = np.random.default_rng(6)
    x = rng.normal(0, 3, (2, 3, 5, 7)).astype(dtype)
    x[0, 0, 0, 2] = np.inf
    x[0, 0, 1, :] = -np.inf
    x[0, 1, 2, 4] = np.nan
    x[0, 1, 3, [0, 6]] = [np.nan, np.inf]
    x[1, 2, 4, :] = [-np.inf, np.nan, -np.inf, 1.0, np.inf, -np.inf, 0.0]
    x[1, 0, 0, :] = 0.0
    x[1, 0, 0, 3] = -0.0
    got, want = _max_last_axis(x), x.max(axis=-1, keepdims=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(want))


# ---------------------------------------------------------------------------
# the loss without probabilities sorts its scratch copy in place


def test_loss_without_probs_matches_the_sorted_copy_and_keeps_logits():
    rng = np.random.default_rng(7)
    logits = rng.normal(0, 4, (300, 8000)).astype(np.float32)
    labels = rng.integers(0, 8000, 300)
    before = logits.copy()
    loss, none = _loss_from_logits(logits, labels)
    assert none is None and np.array_equal(logits, before)
    m = logits.max(axis=1, keepdims=True)
    denom = np.sort(np.exp(logits - m), axis=1).sum(axis=1)
    want = -(logits[np.arange(300), labels] - m[:, 0] - np.log(denom))
    assert loss == want.mean()
    assert loss == _loss_from_logits(logits.copy(), labels, probs=True)[0]
