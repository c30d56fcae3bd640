"""The freeze-aware training step against the full step it replaced.

The oracle below is the earlier implementation, kept as a test reference:
a full backward pass that computes every gradient and then zeroes the
frozen groups, a per-language merge of two such dicts, and Adam written as
its textbook expressions. It shares the model's forward and backward
primitives, so any difference comes from what the lean step skips, where it
accumulates, and how it updates in place.
"""

import numpy as np
import pytest

from langxfer import trainer
from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.tiny_mlm import (
    ModelConfig,
    _attention_backward,
    _ffn_backward,
    _forward,
    _layer_norm_backward,
    _masked_logits,
    backward,
    init_model,
    make_masked_batch,
    mlm_loss,
    param_group,
)
from langxfer.trainer import EMBEDDING_PHASE_FREEZE, TrainingConfig, pretrain, run_transfer

FREEZE_SETS = [
    frozenset(),
    EMBEDDING_PHASE_FREEZE,
    frozenset({"emb_fg", "out_bias_fg"}),
    frozenset({"encoder"}),
]

# ---------------------------------------------------------------------------
# oracle: the full step


def oracle_loss_from_logits(logits, labels):
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    denom = np.sort(ex, axis=1).sum(axis=1)
    idx = np.arange(logits.shape[0])
    nll = -(logits[idx, labels] - m[:, 0] - np.log(denom))
    probs = ex / denom[:, None]
    return nll.mean(), probs


def oracle_backward(state, batch, freeze=frozenset()):
    """Every gradient, then zeros for the frozen groups."""
    cfg = state.cfg
    p = state.params
    ids = batch.token_ids
    emb_name = "emb_en" if batch.language == "en" else "emb_fg"
    bias_name = "out_bias_en" if batch.language == "en" else "out_bias_fg"

    ctx, caches = _forward(state, ids, batch.language, want_cache=True)
    logits, cm = _masked_logits(state, ctx, batch)
    loss, probs = oracle_loss_from_logits(logits, batch.labels)

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dlogits = probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    dlogits /= batch.n_masked
    dcm = dlogits @ p[emb_name]
    grads[emb_name] += dlogits.T @ cm
    grads[bias_name] += dlogits.sum(axis=0)

    dx = np.zeros_like(ctx)
    dx[batch.mask_rows, batch.mask_cols] = dcm
    for l in reversed(range(cfg.layers)):
        n = f"enc.{l}."
        ln1, attn, ln2, ffn = caches[l]
        if cfg.norm == "pre":
            dh2, dw1, dw2 = _ffn_backward(dx, ffn, p[n + "w1"], p[n + "w2"])
            dx_mid_ln, dg2, db2 = _layer_norm_backward(dh2, ln2)
            dx_mid = dx + dx_mid_ln
            dh1, dwq, dwk, dwv, dwo = _attention_backward(
                dx_mid, attn, p[n + "wq"], p[n + "wk"], p[n + "wv"], p[n + "wo"],
                cfg.heads,
            )
            dx_in_ln, dg1, db1 = _layer_norm_backward(dh1, ln1)
            dx = dx_mid + dx_in_ln
        else:
            dsum2, dg2, db2 = _layer_norm_backward(dx, ln2)
            dffn_in, dw1, dw2 = _ffn_backward(dsum2, ffn, p[n + "w1"], p[n + "w2"])
            dx_mid = dsum2 + dffn_in
            dsum1, dg1, db1 = _layer_norm_backward(dx_mid, ln1)
            dattn_in, dwq, dwk, dwv, dwo = _attention_backward(
                dsum1, attn, p[n + "wq"], p[n + "wk"], p[n + "wv"], p[n + "wo"],
                cfg.heads,
            )
            dx = dsum1 + dattn_in
        grads[n + "ln1_g"] += dg1
        grads[n + "ln1_b"] += db1
        grads[n + "ln2_g"] += dg2
        grads[n + "ln2_b"] += db2
        grads[n + "wq"] += dwq
        grads[n + "wk"] += dwk
        grads[n + "wv"] += dwv
        grads[n + "wo"] += dwo
        grads[n + "w1"] += dw1
        grads[n + "w2"] += dw2

    np.add.at(grads[emb_name], ids, dx)
    grads["pos_emb"][: ids.shape[1]] += dx.sum(axis=0)
    for name in grads:
        if param_group(name) in freeze:
            grads[name] = np.zeros_like(p[name])
    return loss, grads


def oracle_step_backward(state, batch, freeze=frozenset(), grads=None):
    """The full backward with the new call shape: with `grads` (the arena's
    in a training run), this batch's gradients are added into it in place."""
    loss, g = oracle_backward(state, batch, freeze)
    if grads is None:
        return loss, g
    for k in grads:
        grads[k] += g[k]
    return loss, grads


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
        g = grads[k]
        opt.m[k] = beta1 * opt.m[k] + (1.0 - beta1) * g
        opt.v[k] = beta2 * opt.v[k] + (1.0 - beta2) * (g * g)
        m_hat = opt.m[k] / bc1
        v_hat = opt.v[k] / bc2
        state.params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------


def vocab_of(n, prefix):
    return Vocabulary.from_tokens([f"{prefix}{i}" for i in range(n - NUM_SPECIALS)])


def model(norm="pre", v_en=40, v_fg=33, seed=0):
    cfg = ModelConfig(dim=16, layers=2, heads=4, ffn_dim=32, max_len=12, norm=norm)
    state = init_model(cfg, vocab_of(v_en, "e"), vocab_of(v_fg, "f"), seed)
    # move the layer norms and biases off their ones/zeros starting values
    rng = np.random.default_rng(seed + 100)
    for name, p in state.params.items():
        if "ln" in name or name.startswith("out_bias"):
            p += rng.normal(0.0, 0.1, p.shape).astype(p.dtype)
    return state


def batch_for(state, language, seed, shape=(3, 10)):
    v = len(state.vocab(language))
    rows = np.random.default_rng(seed).integers(NUM_SPECIALS, v, size=shape)
    return make_masked_batch(rows, 0.3, seed, v, language)


def trainable(state, freeze):
    return [k for k in state.params if param_group(k) not in freeze]


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_activations_logits_and_gradients_keep_the_model_dtype(self, dtype):
        state = model().astype(dtype)
        batch = batch_for(state, "fg", 1)
        ctx, caches = _forward(state, batch.token_ids, "fg", want_cache=True)
        assert ctx.dtype == dtype
        for cache in caches:
            for part in cache:
                for x in part:
                    if isinstance(x, np.ndarray):
                        assert x.dtype == dtype
        loss, logits = mlm_loss(state, batch)
        assert logits.dtype == dtype
        assert type(loss) is float
        loss_b, grads = backward(state, batch)
        assert type(loss_b) is float and loss_b == loss
        assert all(g.dtype == dtype for g in grads.values())


class TestBackwardAgainstOracle:
    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("freeze", FREEZE_SETS, ids=lambda f: "+".join(sorted(f)) or "none")
    def test_per_batch_gradients_bit_identical(self, norm, freeze):
        state = model(norm)
        for language, seed in (("en", 3), ("fg", 4)):
            batch = batch_for(state, language, seed)
            loss, grads = backward(state, batch, freeze)
            want_loss, want = oracle_backward(state, batch, freeze)
            assert loss == float(want_loss)
            assert list(grads) == trainable(state, freeze)
            for k, g in grads.items():
                assert g.dtype == state.params[k].dtype
                assert np.array_equal(g, want[k]), (language, k)

    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("freeze", FREEZE_SETS, ids=lambda f: "+".join(sorted(f)) or "none")
    def test_accumulated_gradients_match_merged_dicts(self, norm, freeze):
        state = model(norm)
        b_en, b_fg = batch_for(state, "en", 5), batch_for(state, "fg", 6)
        _, grads = backward(state, b_en, freeze)
        same = grads
        _, grads = backward(state, b_fg, freeze, grads)
        assert grads is same  # accumulated in place
        _, g_en = oracle_backward(state, b_en, freeze)
        _, g_fg = oracle_backward(state, b_fg, freeze)
        assert list(grads) == trainable(state, freeze)
        for k in grads:
            assert np.array_equal(grads[k], g_en[k] + g_fg[k]), k

    def test_nothing_trainable_returns_the_loss_and_no_gradient(self):
        state = model()
        batch = batch_for(state, "en", 7)
        loss, grads = backward(state, batch, EMBEDDING_PHASE_FREEZE)
        assert loss == mlm_loss(state, batch)[0]
        assert list(grads) == ["emb_fg", "out_bias_fg"]
        assert all(not g.any() for g in grads.values())


class TestAdamAgainstOracle:
    def test_in_place_update_bit_identical(self):
        a, b = model(), model()
        arena = trainer.ParamArena(a)
        opt_b = trainer.OptimizerState(m={k: np.zeros_like(p) for k, p in b.params.items()},
                                       v={k: np.zeros_like(p) for k, p in b.params.items()})
        rng = np.random.default_rng(8)
        for step in range(5):
            freeze = EMBEDDING_PHASE_FREEZE if step < 2 else frozenset()
            grads = arena.zeroed_grads(freeze)
            for g in grads.values():
                g[...] = rng.normal(0, 1, g.shape)
            trainer.adam_step(a, grads, arena.opt, 1e-2, freeze)
            oracle_adam_step(b, grads, opt_b, 1e-2, freeze)
            for k in a.params:
                assert np.array_equal(a.params[k], b.params[k]), k
                assert np.array_equal(arena.opt.m[k], opt_b.m[k]), k
                assert np.array_equal(arena.opt.v[k], opt_b.v[k]), k


# ---------------------------------------------------------------------------
# whole runs: byte-equal outputs against the oracle step


def run_files(out):
    files = {name: (out / name).read_bytes() for name in ("metrics.csv", "evals.csv")}
    for path in sorted((out / "checkpoints").rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def with_oracle(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(trainer, "backward", oracle_step_backward)
        m.setattr(trainer, "adam_step", oracle_adam_step)
        return fn()


def rows(state, language, n, seed):
    v = len(state.vocab(language))
    return np.random.default_rng(seed).integers(NUM_SPECIALS, v, size=(n, 8))


@pytest.mark.parametrize("freeze_phase_updates", [0, 6, 14])
def test_run_transfer_outputs_byte_equal_to_oracle(tmp_path, monkeypatch, freeze_phase_updates):
    state = model()
    emb = EmbeddingMatrix(
        state.vocab_fg,
        np.random.default_rng(9).normal(0, 0.25, (len(state.vocab_fg), 16)).astype(np.float32),
    )
    cfg = TrainingConfig(total_updates=14, warmup_updates=3, batch_size=8, seq_len=8,
                         freeze_phase_updates=freeze_phase_updates, checkpoint_every=7,
                         seed=2)
    data = (rows(state, "en", 12, 10), rows(state, "fg", 12, 11),
            rows(state, "en", 4, 12), rows(state, "fg", 4, 13))

    def run(out):
        return run_transfer(cfg, state, emb, *data, init_bias=None, out_dir=out)

    run(tmp_path / "lean")
    with_oracle(monkeypatch, lambda: run(tmp_path / "oracle"))
    lean, oracle = run_files(tmp_path / "lean"), run_files(tmp_path / "oracle")
    assert len(lean) > 2 and lean.keys() == oracle.keys()
    for name in lean:
        assert lean[name] == oracle[name], name


def test_pretrain_outputs_byte_equal_to_oracle(tmp_path, monkeypatch):
    cfg = TrainingConfig(total_updates=12, warmup_updates=3, batch_size=6, seq_len=8,
                         checkpoint_every=6, seed=3)
    data = (rows(model(), "en", 10, 14), rows(model(), "en", 4, 15))
    pretrain(cfg, model(), *data, out_dir=tmp_path / "lean")
    with_oracle(monkeypatch, lambda: pretrain(cfg, model(), *data,
                                              out_dir=tmp_path / "oracle"))
    lean, oracle = run_files(tmp_path / "lean"), run_files(tmp_path / "oracle")
    assert len(lean) > 2 and lean.keys() == oracle.keys()
    for name in lean:
        assert lean[name] == oracle[name], name
