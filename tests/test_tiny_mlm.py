import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from langxfer import corpus, tiny_mlm
from langxfer.corpus import MASK_ID, NUM_SPECIALS, Vocabulary
from langxfer.tiny_mlm import (
    MaskedBatch,
    ModelConfig,
    _layer_norm,
    _layer_norm_backward,
    backward,
    encode,
    init_model,
    load_checkpoint,
    make_masked_batch,
    mlm_loss,
    plug_foreign,
    save_checkpoint,
)
from langxfer.trainer import EMBEDDING_PHASE_FREEZE, evaluate_mlm


def vocab_of(n, prefix):
    return Vocabulary.from_tokens([f"{prefix}{i}" for i in range(n - NUM_SPECIALS)])


def small_model(dim=8, layers=1, heads=2, ffn=16, v=16, max_len=8, seed=0, norm="pre"):
    cfg = ModelConfig(dim=dim, layers=layers, heads=heads, ffn_dim=ffn,
                      max_len=max_len, norm=norm)
    return init_model(cfg, vocab_of(v, "e"), vocab_of(v, "f"), seed)


def batch_for(v, shape, seed, language="en", mask_prob=0.4):
    rng = np.random.default_rng(seed)
    seqs = rng.integers(NUM_SPECIALS, v, size=shape)
    return make_masked_batch(seqs, mask_prob, seed + 1, v, language)


def finite_difference(state, batch, name, index, eps=1e-4):
    p = state.params[name]
    orig = p[index]
    p[index] = orig + eps
    up = mlm_loss(state, batch)[0]
    p[index] = orig - eps
    down = mlm_loss(state, batch)[0]
    p[index] = orig
    return (up - down) / (2 * eps)


class TestGradients:
    @pytest.mark.parametrize("norm", ["pre", "post"])
    def test_sampled_coordinates_match_finite_differences(self, norm):
        state = small_model(norm=norm).astype(np.float64)
        rng = np.random.default_rng(1)
        for language in ("en", "fg"):
            batch = batch_for(16, (2, 5), seed=7, language=language)
            _, grads = backward(state, batch)
            for name, p in state.params.items():
                flat = p.reshape(-1)
                picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
                for ix in picks:
                    index = np.unravel_index(ix, p.shape)
                    fd = finite_difference(state, batch, name, index)
                    got = grads[name][index]
                    assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd)), (
                        f"{language}/{name}{index}: {got} vs {fd}"
                    )

    def test_freeze_all_zeroes_gradients(self):
        state = small_model()
        batch = batch_for(16, (2, 5), seed=2)
        _, grads = backward(
            state, batch,
            freeze={"emb_en", "emb_fg", "pos_emb", "encoder",
                    "out_bias_en", "out_bias_fg"},
        )
        assert all(np.all(g == 0) for g in grads.values())

    def test_freeze_encoder_only(self):
        state = small_model()
        batch = batch_for(16, (2, 5), seed=3)
        _, grads = backward(state, batch, freeze={"encoder"})
        assert all(np.all(grads[k] == 0) for k in grads if k.startswith("enc."))
        assert np.any(grads["emb_en"] != 0)


def mean_layer_norm(x, g, b, eps):
    """Oracle: `_layer_norm` as it was, with `ndarray.mean` for its means."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def mean_layer_norm_backward(dy, cache, weights=True):
    """Oracle: `_layer_norm_backward` as it was, with `ndarray.mean`."""
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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLayerNormMeans:
    """The layer norms' `np.add.reduce(...) / d` means against `.mean`, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           shape=hnp.array_shapes(min_dims=3, max_dims=3, max_side=6).flatmap(
               lambda s: st.sampled_from([1, 3, 7, 48, 129, 300]).map(lambda d: (*s[:2], d))),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_primitives_match_mean(self, dtype, shape, seed, scale):
        rng = np.random.default_rng(seed)
        x = (rng.normal(0, scale, shape) + rng.normal(0, scale)).astype(dtype)
        g, b = (rng.normal(1, 0.5, shape[-1]).astype(dtype) for _ in range(2))
        dy = rng.normal(0, 1, shape).astype(dtype)
        y, cache = _layer_norm(x, g, b, 1e-5)
        y_want, cache_want = mean_layer_norm(x, g, b, 1e-5)
        assert same_bits(y, y_want)
        assert all(same_bits(u, v) for u, v in zip(cache, cache_want))
        for weights in (True, False):
            got = _layer_norm_backward(dy, cache, weights)
            want = mean_layer_norm_backward(dy, cache_want, weights)
            assert all(u is v is None or same_bits(u, v) for u, v in zip(got, want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm", ["pre", "post"])
    def test_backward_matches_mean_layer_norms(self, monkeypatch, norm, dtype):
        state = small_model(dim=12, layers=2, heads=3, ffn=20, v=30, max_len=9,
                            norm=norm).astype(dtype)
        batch = batch_for(30, (4, 9), seed=5)
        loss, grads = backward(state, batch)
        monkeypatch.setattr(tiny_mlm, "_layer_norm", mean_layer_norm)
        monkeypatch.setattr(tiny_mlm, "_layer_norm_backward", mean_layer_norm_backward)
        loss_want, grads_want = backward(state, batch)
        assert loss == loss_want
        assert grads.keys() == grads_want.keys()
        assert all(same_bits(grads[k], grads_want[k]) for k in grads)


class TestEncode:
    def test_zero_layers_is_embedding_sum(self):
        cfg = ModelConfig(dim=8, layers=0, heads=2, ffn_dim=16, max_len=8)
        state = init_model(cfg, vocab_of(16, "e"), vocab_of(16, "f"), 0)
        batch = batch_for(16, (3, 6), seed=4)
        out = encode(state, batch)
        expected = state.params["emb_en"][batch.token_ids] + state.params["pos_emb"][:6]
        assert np.array_equal(out, expected)

    def test_batch_row_permutation_equivariance(self):
        state = small_model()
        batch = batch_for(16, (4, 6), seed=5)
        out = encode(state, batch)
        perm = np.array([2, 0, 3, 1])
        permuted = MaskedBatch(batch.token_ids[perm], "en",
                               batch.mask_rows, batch.mask_cols, batch.labels)
        out_perm = encode(state, permuted)
        assert np.array_equal(out[perm], out_perm)

    def test_deterministic(self):
        state = small_model()
        batch = batch_for(16, (2, 5), seed=6)
        assert np.array_equal(encode(state, batch), encode(state, batch))

    def test_out_of_range_token_rejected(self):
        state = small_model()
        bad = MaskedBatch(np.array([[99]]), "en", np.array([0]), np.array([0]),
                          np.array([5]))
        with pytest.raises(ValueError, match="out of range"):
            encode(state, bad)

    def test_sequence_longer_than_max_len_rejected(self):
        state = small_model(max_len=4)
        batch = MaskedBatch(np.full((1, 6), 5), "en", np.array([0]),
                            np.array([0]), np.array([5]))
        with pytest.raises(ValueError, match="max_len"):
            encode(state, batch)


class TestRowGroups:
    """The no-cache encoder pass runs ROW_GROUP rows at a time; every
    result matches the whole-batch pass bit for bit."""

    @staticmethod
    def results(state, batch, rows):
        """encode, mlm_loss, evaluate_mlm and the two frozen english
        backward passes (loss only, and the output bias alone)."""
        loss, logits = mlm_loss(state, batch)
        out = [encode(state, batch), loss, logits, evaluate_mlm(state, rows, "en", seed=3)]
        for freeze in (EMBEDDING_PHASE_FREEZE, EMBEDDING_PHASE_FREEZE - {"out_bias_en"}):
            loss, grads = backward(state, batch, freeze)
            out += [loss, grads]
        return out

    @staticmethod
    def assert_same_bits(got, want):
        assert type(got) is type(want)
        if isinstance(got, np.ndarray):
            assert same_bits(got, want)
        elif isinstance(got, dict):
            assert got.keys() == want.keys()
            assert all(same_bits(got[k], want[k]) for k in got)
        else:
            assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm", ["pre", "post"])
    @pytest.mark.parametrize("group", [1, 3, 11])
    def test_groups_match_the_whole_batch(self, monkeypatch, group, norm, dtype):
        state = small_model(dim=12, layers=2, heads=3, ffn=20, v=30, max_len=9,
                            norm=norm).astype(dtype)
        batch = batch_for(30, (10, 9), seed=5)
        # 64 rows and 6 more: evaluation's second chunk is not a whole group
        rows = np.random.default_rng(6).integers(NUM_SPECIALS, 30, size=(70, 9))
        # the cached pass runs the whole batch at once, as the grouped one did
        whole, _ = tiny_mlm._forward(state, batch.token_ids, "en", want_cache=True)
        monkeypatch.setattr(tiny_mlm, "ROW_GROUP", 100)
        want = self.results(state, batch, rows)
        assert same_bits(want[0], whole)
        monkeypatch.setattr(tiny_mlm, "ROW_GROUP", group)
        got = self.results(state, batch, rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            self.assert_same_bits(g, w)

    def test_evaluation_chunk_peaks_as_a_group_does(self):
        # a 64-row evaluation chunk holds its rows' input, output and masked
        # logits whole, and the attention and FFN temporaries of one group
        state = small_model(dim=48, layers=2, heads=4, ffn=192, v=65, max_len=32)
        rows = np.random.default_rng(1).integers(NUM_SPECIALS, 65, size=(64, 32))

        def traced_peak(n):
            evaluate_mlm(state, rows[:n], "en", seed=0)  # first-call allocations
            tracemalloc.start()
            try:
                evaluate_mlm(state, rows[:n], "en", seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        group_peak = traced_peak(tiny_mlm.ROW_GROUP)
        assert tiny_mlm.ROW_GROUP == 16
        activation_bytes = rows.size * 48 * 4  # one (64, 32, 48) float32 array
        assert traced_peak(64) < group_peak + 2 * activation_bytes


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        state = small_model(v=8)
        state.params["emb_en"][:] = 0.0  # zero embeddings: logits all equal
        state.params["out_bias_en"][:] = 0.0
        batch = batch_for(8, (2, 4), seed=7)
        loss, _ = mlm_loss(state, batch)
        assert loss == pytest.approx(np.log(8), rel=1e-6)

    def test_huge_margin_drives_loss_to_zero(self):
        state = small_model(v=8, layers=0)
        batch = batch_for(8, (1, 4), seed=8)
        label = batch.labels[0]
        state.params["out_bias_en"][:] = -1e4
        state.params["out_bias_en"][label] = 1e4
        loss, _ = mlm_loss(state, batch)
        assert loss <= 1e-6

    def test_matches_dense_softmax_oracle(self):
        # explicit normalization on a 2-content-token model in float64
        state = small_model(v=7, layers=1).astype(np.float64)
        batch = batch_for(7, (2, 4), seed=9)
        loss, logits = mlm_loss(state, batch)
        oracle = 0.0
        for k in range(batch.n_masked):
            z = logits[k]
            probs = np.exp(z) / np.sum(np.exp(z))
            oracle -= np.log(probs[batch.labels[k]])
        oracle /= batch.n_masked
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        state = small_model()
        batch = batch_for(16, (2, 5), seed=10)
        _, logits = mlm_loss(state, batch)
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_no_masked_positions_rejected(self):
        state = small_model()
        empty = MaskedBatch(np.full((1, 4), 5), "en", np.array([], dtype=int),
                            np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError, match="masked"):
            mlm_loss(state, empty)


class TestWeightTying:
    def test_foreign_perturbation_isolated(self):
        state = small_model()
        batch_en = batch_for(16, (2, 5), seed=11, language="en")
        batch_fg = batch_for(16, (2, 5), seed=12, language="fg")
        loss_en_before, _ = mlm_loss(state, batch_en)
        loss_fg_before, _ = mlm_loss(state, batch_fg)
        state.params["emb_fg"] += 0.37
        loss_en_after, _ = mlm_loss(state, batch_en)
        loss_fg_after, _ = mlm_loss(state, batch_fg)
        assert loss_en_after == loss_en_before  # english untouched, bit-exact
        assert loss_fg_after != loss_fg_before  # both input and output change

    def test_output_projection_is_embedding_transpose(self):
        state = small_model(layers=0)
        batch = batch_for(16, (1, 4), seed=13)
        _, logits = mlm_loss(state, batch)
        ctx = encode(state, batch)[batch.mask_rows, batch.mask_cols]
        manual = ctx @ state.params["emb_en"].T + state.params["out_bias_en"]
        assert np.array_equal(logits, manual)


class TestCipherIdentity:
    def test_bit_level_loss_identity_under_vocab_permutation(self):
        v = 41
        state = small_model(dim=16, layers=2, heads=4, ffn=32, v=v, max_len=16, seed=14)
        rng = np.random.default_rng(15)
        state.params["out_bias_en"] = rng.normal(0, 0.3, v).astype(np.float32)
        perm = np.arange(v)
        perm[NUM_SPECIALS:] = NUM_SPECIALS + rng.permutation(v - NUM_SPECIALS)
        inv = np.argsort(perm)
        state.params["emb_fg"] = state.params["emb_en"][inv].copy()
        state.params["out_bias_fg"] = state.params["out_bias_en"][inv].copy()

        seqs = rng.integers(NUM_SPECIALS, v, size=(4, 12))
        b_en = make_masked_batch(seqs, 0.3, 16, v, "en")
        b_fg = MaskedBatch(perm[b_en.token_ids], "fg", b_en.mask_rows,
                           b_en.mask_cols, perm[b_en.labels])
        loss_en, _ = mlm_loss(state, b_en)
        loss_fg, _ = mlm_loss(state, b_fg)
        assert loss_en == loss_fg  # equal at bit level, not merely close


class TestMakeMaskedBatch:
    def test_full_masking_with_ratio_disabled(self):
        seqs = np.full((3, 6), 7)
        batch = make_masked_batch(seqs, 1.0, 0, 16, "en", eighty_ten_ten=False)
        assert np.all(batch.token_ids == MASK_ID)
        assert batch.n_masked == 18

    def test_same_seed_identical(self):
        seqs = np.random.default_rng(0).integers(5, 16, (4, 8))
        a = make_masked_batch(seqs, 0.15, 42, 16, "en")
        b = make_masked_batch(seqs, 0.15, 42, 16, "en")
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.mask_rows, b.mask_rows)
        assert np.array_equal(a.labels, b.labels)

    def test_selection_rate_binomial(self):
        n = 1_000_000
        seqs = np.full((1000, 1000), 9)
        batch = make_masked_batch(seqs, 0.15, 1, 16, "en")
        p = 0.15
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(batch.n_masked - n * p) <= 3 * sigma

    def test_eighty_ten_ten_split(self):
        seqs = np.full((1000, 100), 9)
        batch = make_masked_batch(seqs, 0.5, 2, 16, "en")
        at_masked = batch.token_ids[batch.mask_rows, batch.mask_cols]
        frac_mask = np.mean(at_masked == MASK_ID)
        frac_kept = np.mean(at_masked == 9)
        assert abs(frac_mask - 0.8) <= 0.02
        # kept positions include the 10% "keep" plus random draws landing on 9
        assert 0.08 <= frac_kept <= 0.15

    def test_specials_never_selected(self):
        seqs = np.array([[0, 1, 2, 3, 4, 9]])
        batch = make_masked_batch(seqs, 0.999, 3, 16, "en")
        assert np.all(seqs[batch.mask_rows, batch.mask_cols] >= NUM_SPECIALS)
        assert np.array_equal(batch.token_ids[:, :5], seqs[:, :5])

    def test_forced_position_when_none_selected(self):
        seqs = np.full((1, 8), 7)
        batch = make_masked_batch(seqs, 1e-12, 4, 16, "en")
        assert batch.n_masked == 1

    def test_all_specials_rejected(self):
        seqs = np.zeros((2, 4), dtype=int)
        with pytest.raises(ValueError, match="maskable"):
            make_masked_batch(seqs, 0.5, 5, 16, "en")

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            make_masked_batch(np.full((1, 2), 6), 0.0, 6, 16, "en")

    def test_vocabulary_of_specials_only_rejected(self):
        with pytest.raises(ValueError, match="the fg vocabulary has no non-special tokens"):
            make_masked_batch(np.full((1, 2), 1), 0.5, 7, NUM_SPECIALS, "fg")


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        state = small_model(seed=21)
        rng_state = {"demo": 7}
        save_checkpoint(state, tmp_path / "ck", step=123, rng_state=rng_state)
        loaded, step, rng_loaded = load_checkpoint(tmp_path / "ck")
        assert step == 123
        assert rng_loaded == rng_state
        assert loaded.cfg == state.cfg
        assert loaded.vocab_en.tokens == state.vocab_en.tokens
        for name, p in state.params.items():
            assert np.array_equal(loaded.params[name], p), name

    def test_one_replacement_per_save(self, tmp_path, monkeypatch):
        # the vocabularies are written straight into the checkpoint's
        # temporary directory, with the bytes Vocabulary.save writes
        calls = []
        real = corpus.replacing

        def counting(path):
            calls.append(Path(path))
            return real(path)

        monkeypatch.setattr(corpus, "replacing", counting)
        monkeypatch.setattr(tiny_mlm, "replacing", counting)
        state = small_model(seed=21)
        ck = tmp_path / "ck"
        save_checkpoint(state, ck, step=123, rng_state={"demo": 7})
        assert calls == [ck]
        for language in ("en", "fg"):
            state.vocab(language).save(tmp_path / f"{language}.txt")
            assert ((ck / f"vocab_{language}.txt").read_bytes()
                    == (tmp_path / f"{language}.txt").read_bytes())
        digest = hashlib.sha256()
        for path in sorted(ck.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        # frozen from the same save with both vocabularies written through
        # Vocabulary.save
        assert digest.hexdigest() == (
            "92cab4a931783556052c47439d74941c19b48bbfc14675dfc9be176cd531ea73")

    def test_plug_foreign_swaps_only_foreign(self, tmp_path):
        state = small_model(seed=22)
        new_vocab = vocab_of(12, "g")
        emb = np.random.default_rng(23).normal(0, 0.1, (12, 8)).astype(np.float32)
        new = plug_foreign(state, new_vocab, emb, None)
        assert np.array_equal(new.params["emb_fg"], emb)
        assert np.all(new.params["out_bias_fg"] == 0)
        assert np.array_equal(new.params["emb_en"], state.params["emb_en"])
        assert len(new.vocab_fg) == 12

    def test_plug_foreign_shape_mismatch(self):
        state = small_model()
        with pytest.raises(ValueError, match="shape"):
            plug_foreign(state, vocab_of(12, "g"), np.zeros((3, 8), np.float32), None)
