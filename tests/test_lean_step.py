"""The freeze-aware training step against the full step it replaced.

The oracle below is the earlier implementation, kept as a test reference:
a forward pass that runs every encoder layer at every position, with the
softmax out of place, a full backward pass that computes every gradient and
then zeroes the frozen groups, a per-language merge of two such dicts, and
Adam written as its textbook expressions. It shares the model's layer norm,
FFN and backward primitives, so any difference comes from what the lean
step skips (the last layer away from the masked positions among it), where
it accumulates, and how it updates in place.

The oracle's softmax normalizer adds the rounded exponentials with
`math.fsum`, exactly and independently of the model's float64 sum. The
sorted float32 sum that the model used before is kept as a tolerance
oracle for the normalizer.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer import tiny_mlm, trainer
from langxfer.corpus import MASK_ID, NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.tiny_mlm import (
    ModelConfig,
    _attention_backward,
    _exact_row_sums,
    _ffn,
    _ffn_backward,
    _forward,
    _layer_norm,
    _layer_norm_backward,
    _logits,
    _loss_from_logits,
    _merge_heads,
    _split_heads,
    backward,
    encode,
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


def rounding_scale(v):
    """2^k for V = v columns: v terms in [0, 2^k] add up to at most 2^53."""
    return 2.0 ** (53 - max(v - 1, 1).bit_length())


def exact_denominator(ex):
    """Per row, the exact sum of the exponentials rounded to the nearest
    multiples of 2^-k, rounded once to the rows' dtype."""
    scale = rounding_scale(ex.shape[1])
    sums = [math.fsum(np.rint(row * scale).tolist()) / scale for row in ex]
    return np.array(sums, dtype=ex.dtype)


def sorted_denominator(ex):
    """The normalizer before: ascending-order float32 pairwise sum."""
    return np.sort(ex, axis=1).sum(axis=1)


def oracle_loss_from_logits(logits, labels):
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    denom = exact_denominator(ex)
    idx = np.arange(logits.shape[0])
    nll = -(logits[idx, labels] - m[:, 0] - np.log(denom))
    probs = ex / denom[:, None]
    return nll.mean(), probs


def oracle_attention(h, wq, wk, wv, wo, heads):
    """Self-attention at every position, its softmax out of place."""
    d = h.shape[-1]
    scale = 1.0 / math.sqrt(d // heads)
    q = _split_heads(h @ wq, heads)
    k = _split_heads(h @ wk, heads)
    v = _split_heads(h @ wv, heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    a = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(a @ v)
    return ctx @ wo, (h, q, k, v, a, ctx, scale)


def oracle_forward(state, ids, language):
    """The encoder with every layer at every position: its output and each
    layer's backward cache."""
    cfg = state.cfg
    p = state.params
    emb = p["emb_en" if language == "en" else "emb_fg"]
    x = emb[ids] + p["pos_emb"][: ids.shape[1]][None, :, :]
    caches = []
    for l in range(cfg.layers):
        n = f"enc.{l}."
        parts = []
        for f, ln in ((lambda h: oracle_attention(h, p[n + "wq"], p[n + "wk"], p[n + "wv"],
                                                  p[n + "wo"], cfg.heads), "ln1"),
                      (lambda h: _ffn(h, p[n + "w1"], p[n + "w2"]), "ln2")):
            g, b = p[n + ln + "_g"], p[n + ln + "_b"]
            if cfg.norm == "pre":
                h, ln_cache = _layer_norm(x, g, b, cfg.ln_eps)
                out, f_cache = f(h)
                x = x + out
            else:
                out, f_cache = f(x)
                x, ln_cache = _layer_norm(x + out, g, b, cfg.ln_eps)
            parts += [ln_cache, f_cache]
        caches.append(tuple(parts))
    return x, caches


def oracle_logits(state, ctx, batch):
    """The logits of the masked positions of the whole encoder output."""
    return _logits(state, ctx[batch.mask_rows, batch.mask_cols], batch.language)


def oracle_backward(state, batch, freeze=frozenset()):
    """Every gradient, then zeros for the frozen groups."""
    cfg = state.cfg
    p = state.params
    ids = batch.token_ids
    emb_name = "emb_en" if batch.language == "en" else "emb_fg"
    bias_name = "out_bias_en" if batch.language == "en" else "out_bias_fg"

    ctx, caches = oracle_forward(state, ids, batch.language)
    cm = ctx[batch.mask_rows, batch.mask_cols]
    logits = _logits(state, cm, batch.language)
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


def model(norm="pre", v_en=40, v_fg=33, seed=0, **shape):
    shape = {"dim": 16, "layers": 2, "heads": 4, "ffn_dim": 32, "max_len": 12, **shape}
    cfg = ModelConfig(**shape, norm=norm)
    state = init_model(cfg, vocab_of(v_en, "e"), vocab_of(v_fg, "f"), seed)
    # move the layer norms and biases off their ones/zeros starting values
    rng = np.random.default_rng(seed + 100)
    for name, p in state.params.items():
        if "ln" in name or name.startswith("out_bias"):
            p += rng.normal(0.0, 0.1, p.shape).astype(p.dtype)
    return state


def batch_for(state, language, seed, shape=(3, 10), mask_prob=0.3, eighty_ten_ten=True):
    v = len(state.vocab(language))
    rows = np.random.default_rng(seed).integers(NUM_SPECIALS, v, size=shape)
    return make_masked_batch(rows, mask_prob, seed, v, language, eighty_ten_ten)


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


# ---------------------------------------------------------------------------
# the last layer at the masked positions only, against the whole layer

# every freeze set above, and the english output bias alone, which backward
# serves without the backward cache
LOSS_PATH_FREEZE_SETS = FREEZE_SETS + [EMBEDDING_PHASE_FREEZE - {"out_bias_en"}]
ONE_POSITION = 1e-9  # a mask rate that selects nothing: one position is forced


def assert_loss_path_matches_oracle(state, batch):
    """mlm_loss's logits and loss, and backward's loss and every gradient
    under each freeze set, equal the oracle's; encode still returns every
    position, as the oracle's encoder does."""
    ctx, _ = oracle_forward(state, batch.token_ids, batch.language)
    assert np.array_equal(encode(state, batch), ctx)
    want_logits = oracle_logits(state, ctx, batch)
    loss, logits = mlm_loss(state, batch)
    assert logits.dtype == state.dtype and np.array_equal(logits, want_logits)
    assert loss == float(oracle_loss_from_logits(want_logits, batch.labels)[0])
    for freeze in LOSS_PATH_FREEZE_SETS:
        got_loss, grads = backward(state, batch, freeze)
        want_loss, want = oracle_backward(state, batch, freeze)
        assert got_loss == float(want_loss) == loss
        assert list(grads) == trainable(state, freeze)
        for k, g in grads.items():
            assert g.dtype == state.dtype and np.array_equal(g, want[k]), (sorted(freeze), k)


def check_benchmark_shapes(norm):
    """The benchmark's model and batch (dim 48, FFN 192, 16 rows of 32
    tokens), one batch of 40 rows (three no-cache row groups), and an FFN
    as wide as the model, whose weight gradients spread two operands of one
    width."""
    state = model(norm, v_en=65, v_fg=65, dim=48, ffn_dim=192, max_len=32)
    for rows, seed in ((16, 1), (40, 2)):
        assert_loss_path_matches_oracle(state, batch_for(state, "en", seed, (rows, 32), 0.15))
    state = model(norm, ffn_dim=16)
    assert_loss_path_matches_oracle(state, batch_for(state, "fg", 3, (16, 10)))


class TestLossPathAgainstOracle:
    """mlm_loss and backward run the last encoder layer at the masked
    positions only; every result equals the whole layer's."""

    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_batch_sizes_1_to_16(self, norm, layers):
        state = model(norm, layers=layers)
        for rows in range(1, 17):
            batch = batch_for(state, ("en", "fg")[rows % 2], rows, (rows, 10))
            assert_loss_path_matches_oracle(state, batch)
        # one masked position: the one packed block holds one real row
        for rows in (1, 16):
            batch = batch_for(state, "en", 20 + rows, (rows, 10), ONE_POSITION)
            assert batch.n_masked == 1
            assert_loss_path_matches_oracle(state, batch)

    @pytest.mark.parametrize("norm", ["pre", "post"])
    def test_sequences_of_one_token(self, norm):
        state = model(norm)
        for rows in (1, 5, 16):
            assert_loss_path_matches_oracle(state, batch_for(state, "fg", rows, (rows, 1), 0.5))

    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("layers", [0, 2])
    def test_float64_twin(self, norm, layers):
        state = model(norm, layers=layers).astype(np.float64)
        for rows in (1, 7, 16):
            assert_loss_path_matches_oracle(state, batch_for(state, "en", rows, (rows, 10)))
        assert_loss_path_matches_oracle(state, batch_for(state, "fg", 4, (16, 10), ONE_POSITION))

    @pytest.mark.parametrize("norm", ["pre", "post"])
    def test_all_mask_corruption(self, norm):
        state = model(norm)
        for rows in (3, 16):
            batch = batch_for(state, "en", rows, (rows, 10), eighty_ten_ten=False)
            assert np.all(batch.token_ids[batch.mask_rows, batch.mask_cols] == MASK_ID)
            assert_loss_path_matches_oracle(state, batch)

    @pytest.mark.parametrize("norm", ["pre", "post"])
    def test_benchmark_shapes(self, norm):
        check_benchmark_shapes(norm)

    def test_two_blas_threads(self):
        # the test session pins OpenBLAS to one thread (conftest.py); a
        # fresh process runs the benchmark-shape cases under two
        tests = Path(__file__).resolve().parent
        src = Path(tiny_mlm.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
        code = ("import os, test_lean_step as t; "
                "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'; "
                "t.check_benchmark_shapes('pre'); t.check_benchmark_shapes('post')")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tests,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr


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
# the softmax normalizer against the exact and the sorted sums


def sorted_sum_ulps(v):
    """A priori bound, in ulps of the result, on the error of numpy's
    pairwise row sum of v non-negative terms: a term passes through at most
    25 additions inside its 128-term block, one per halving above that, and
    one into the reduction's first element (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 4.2)."""
    return 26 + max(math.ceil(math.log2(v / 128)), 0)


@st.composite
def logit_rows(draw):
    v = draw(st.sampled_from([2, 65, 8000, 8192, 8193]))
    n = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "equal", "masked"]))
    if kind == "equal":
        logits = np.full((n, v), draw(st.sampled_from([-3.0, 0.0, 7.5])))
    else:
        logits = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 4.0, 20.0])), (n, v))
    if kind == "masked":  # a bias whose exponentials are exactly 0
        logits[rng.random((n, v)) < 0.5] -= 1e4
    return logits.astype(dtype), rng.integers(0, v, n), rng.permutation(v)


@settings(max_examples=60, deadline=None)
@given(case=logit_rows())
def test_normalizer_is_exact_order_free_and_within_the_sorted_sums_bound(case):
    logits, labels, perm = case
    v = logits.shape[1]
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert ex.dtype == logits.dtype and ex.max(axis=1).tolist() == [1.0] * len(ex)

    denom = _exact_row_sums(ex.copy())
    assert denom.dtype == ex.dtype
    assert np.array_equal(denom, exact_denominator(ex))
    # rounding the terms costs at most v * 2^-(k+1), rounding the sum to
    # the dtype one ulp
    ulp = np.spacing(denom).astype(np.float64)
    grid = v / (2 * rounding_scale(v))
    exact = np.array([math.fsum(row.tolist()) for row in ex])
    assert np.all(np.abs(denom - exact) <= grid + ulp)
    sorted_sum = sorted_denominator(ex).astype(np.float64)
    assert np.all(np.abs(denom - sorted_sum) <= grid + (sorted_sum_ulps(v) + 1) * ulp)

    # the loss, and the probabilities, are bit-equal to the oracle's and
    # to those of the same logits with the vocabulary permuted
    labels_p = np.argsort(perm)[labels]
    before = logits.copy()
    loss, none = _loss_from_logits(logits, labels)
    assert none is None and np.array_equal(logits, before)
    assert loss == _loss_from_logits(logits[:, perm], labels_p)[0]
    want_loss, want_probs = oracle_loss_from_logits(logits, labels)
    assert loss == want_loss
    loss_p, probs = _loss_from_logits(logits.copy(), labels, probs=True)
    loss_pp, probs_p = _loss_from_logits(logits[:, perm], labels_p, probs=True)
    assert loss_p == loss_pp == loss
    assert np.array_equal(probs, want_probs)
    assert np.array_equal(probs[:, perm], probs_p)


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
