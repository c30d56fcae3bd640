import math

import numpy as np
import pytest

from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix
from langxfer.tiny_mlm import ModelConfig, init_model, make_masked_batch
from langxfer.trainer import (
    CyclingStream,
    OptimizerState,
    ParamArena,
    TrainingConfig,
    adam_step,
    balanced_batch,
    clip_gradients,
    evaluate_mlm,
    lr_schedule,
    pack_sequences,
    pretrain,
    run_transfer,
)


def vocab_of(n, prefix):
    return Vocabulary.from_tokens([f"{prefix}{i}" for i in range(n - NUM_SPECIALS)])


class TestLrSchedule:
    def setup_method(self):
        self.cfg = TrainingConfig(total_updates=20_000, warmup_updates=4000,
                                  peak_lr=1e-4, floor_lr=1e-7)

    def test_anchors(self):
        assert lr_schedule(0, self.cfg) == 1e-7
        assert lr_schedule(4000, self.cfg) == 1e-4
        assert lr_schedule(16_000, self.cfg) == pytest.approx(5e-5, rel=1e-12)

    def test_continuity_at_warmup(self):
        just_before = lr_schedule(3999, self.cfg)
        at = lr_schedule(4000, self.cfg)
        just_after = lr_schedule(4001, self.cfg)
        assert just_before < at
        assert abs(at - just_after) / at < 1e-3

    def test_strictly_decreasing_after_warmup(self):
        values = [lr_schedule(s, self.cfg) for s in range(4000, 8000, 97)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_linear_warmup(self):
        mid = lr_schedule(2000, self.cfg)
        assert mid == pytest.approx((1e-7 + 1e-4) / 2, rel=1e-9)


def scalar_state():
    cfg = ModelConfig(dim=2, layers=0, heads=1, ffn_dim=2, max_len=2)
    state = init_model(cfg, vocab_of(6, "e"), vocab_of(6, "f"), 0)
    state = state.astype(np.float64)
    return state


def arena_grads(state, freeze=frozenset()):
    """An arena over `state` and its zero-filled gradients for `freeze`."""
    arena = ParamArena(state)
    return arena, arena.zeroed_grads(frozenset(freeze))


class TestAdamStep:
    def test_first_step_hand_derived(self):
        state = scalar_state()
        state.params["out_bias_en"][:] = 0.0
        arena, grads = arena_grads(state)
        grads["out_bias_en"][0] = 1.0
        adam_step(state, grads, arena.opt, lr=0.5)
        # bias-corrected first step: m_hat = v_hat = 1, update = -lr / (1 + eps)
        expected = -0.5 * 1.0 / (1.0 + 1e-8)
        assert state.params["out_bias_en"][0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradients_leave_parameters(self):
        state = scalar_state()
        before = {k: p.copy() for k, p in state.params.items()}
        arena, grads = arena_grads(state)
        adam_step(state, grads, arena.opt, lr=0.1)
        for k, p in state.params.items():
            assert np.array_equal(p, before[k])

    def test_frozen_group_bit_unchanged_and_moments_zero(self):
        state = scalar_state()
        before = state.params["emb_en"].copy()
        arena = ParamArena(state)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            grads = arena.zeroed_grads(frozenset({"emb_en"}))
            for g in grads.values():
                g[...] = rng.normal(0, 1, g.shape)
            adam_step(state, grads, arena.opt, lr=1e-3, freeze={"emb_en"})
        assert np.array_equal(state.params["emb_en"], before)
        assert np.all(arena.opt.m["emb_en"] == 0)
        assert np.all(arena.opt.v["emb_en"] == 0)
        assert not np.array_equal(state.params["emb_fg"], before)  # others moved

    def test_non_finite_gradient_aborts_without_mutation(self):
        state = scalar_state()
        before = {k: p.copy() for k, p in state.params.items()}
        arena, grads = arena_grads(state)
        grads["pos_emb"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="pos_emb"):
            adam_step(state, grads, arena.opt, lr=0.1)
        for k, p in state.params.items():
            assert np.array_equal(p, before[k])
        assert arena.opt.step == 0

    def test_clip_gradients(self):
        state = scalar_state()
        arena, grads = arena_grads(state)
        grads["out_bias_en"][:2] = [3.0, 4.0]
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(arena.grad) == pytest.approx(1.0, rel=1e-6)
        grads = arena.zeroed_grads(frozenset())
        grads["out_bias_en"][0] = 0.3
        clip_gradients(grads, max_norm=1.0)
        assert grads["out_bias_en"][0] == 0.3  # under the cap: untouched

    def test_other_gradients_are_refused(self):
        state = scalar_state()
        plain = {k: np.zeros_like(p) for k, p in state.params.items()}
        opt = OptimizerState(m={k: np.zeros_like(p) for k, p in state.params.items()},
                             v={k: np.zeros_like(p) for k, p in state.params.items()})
        with pytest.raises(ValueError, match="ArenaGrads"):
            adam_step(state, plain, opt, lr=0.1)
        with pytest.raises(ValueError, match="ArenaGrads"):
            clip_gradients(plain, max_norm=1.0)
        arena, grads = arena_grads(state, {"emb_en"})
        for other_opt, freeze in ((opt, {"emb_en"}), (arena.opt, frozenset())):
            with pytest.raises(ValueError, match="ArenaGrads"):
                adam_step(state, grads, other_opt, lr=0.1, freeze=freeze)
        assert arena.opt.step == 0 and opt.step == 0


class TestPacking:
    def test_rows_are_full(self):
        rows = pack_sequences([[5, 6, 7], [8, 9], [10, 11, 12, 13]], seq_len=4)
        assert rows.shape[1] == 4
        assert rows.size <= 3 + 1 + 2 + 1 + 4 + 1

    def test_too_small_corpus_raises(self):
        with pytest.raises(ValueError, match="too small"):
            pack_sequences([[5]], seq_len=64)

    def test_separator_terminates_sentences(self):
        rows = pack_sequences([[5, 6], [7, 8]], seq_len=3)
        assert rows.tolist() == [[5, 6, 4], [7, 8, 4]]

    def test_incomplete_tail_dropped(self):
        rows = pack_sequences([[5, 6], [7, 8]], seq_len=4)
        assert rows.tolist() == [[5, 6, 4, 7]]


class TestStreams:
    def test_balanced_batch_halves(self):
        rng = np.random.default_rng(1)
        en = CyclingStream(rng.integers(5, 16, (10, 8)), seed=0)
        fg = CyclingStream(rng.integers(5, 16, (7, 8)), seed=1)
        cfg = TrainingConfig(total_updates=10, warmup_updates=2, batch_size=8,
                             seq_len=8)
        b_en, b_fg = balanced_batch({"en": en, "fg": fg}, cfg, step=1,
                                    vocab_sizes={"en": 16, "fg": 16})
        assert b_en.token_ids.shape == (4, 8)
        assert b_fg.token_ids.shape == (4, 8)
        assert b_en.language == "en" and b_fg.language == "fg"

    def test_paper_scale_batch_split(self):
        rng = np.random.default_rng(2)
        en = CyclingStream(rng.integers(5, 16, (300, 4)), seed=0)
        fg = CyclingStream(rng.integers(5, 16, (300, 4)), seed=1)
        cfg = TrainingConfig(total_updates=10, warmup_updates=2, batch_size=112,
                             seq_len=4)
        b_en, b_fg = balanced_batch({"en": en, "fg": fg}, cfg, step=1,
                                    vocab_sizes={"en": 16, "fg": 16})
        assert b_en.token_ids.shape[0] == 56
        assert b_fg.token_ids.shape[0] == 56

    def test_one_stream_is_one_full_batch(self):
        rows = np.random.default_rng(3).integers(5, 16, (30, 8))
        cfg = TrainingConfig(total_updates=10, warmup_updates=2, batch_size=6,
                             seq_len=8, seed=7)
        (got,) = balanced_batch({"en": CyclingStream(rows, seed=4)}, cfg, step=3,
                                vocab_sizes={"en": 16})
        want = make_masked_batch(CyclingStream(rows, seed=4).next(6), cfg.mask_prob,
                                 (cfg.seed, 3, 0), 16, "en", cfg.eighty_ten_ten)
        assert got.token_ids.shape == (6, 8) and got.language == "en"
        for name in ("token_ids", "mask_rows", "mask_cols", "labels"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_short_stream_cycles(self):
        rows = np.arange(5, 11).reshape(3, 2)
        stream = CyclingStream(rows, seed=0)
        seen = stream.next(7)
        assert seen.shape == (7, 2)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CyclingStream(np.zeros((0, 4), dtype=int), seed=0)


def tiny_setup(v_en=24, v_fg=24, dim=16, layers=1, heads=2, ffn=32, max_len=8,
               seed=0):
    cfg = ModelConfig(dim=dim, layers=layers, heads=heads, ffn_dim=ffn,
                      max_len=max_len)
    return init_model(cfg, vocab_of(v_en, "e"), vocab_of(v_fg, "f"), seed)


def random_rows(n, t, v, seed):
    return np.random.default_rng(seed).integers(NUM_SPECIALS, v, size=(n, t))


class TestEvaluate:
    def test_deterministic(self):
        state = tiny_setup()
        rows = random_rows(6, 8, 24, 3)
        a = evaluate_mlm(state, rows, "en", seed=5)
        b = evaluate_mlm(state, rows, "en", seed=5)
        assert a == b

    def test_perfect_model_single_token_vocab(self):
        state = tiny_setup(v_en=6)  # one content token
        state.params["out_bias_en"][:] = -1e4
        state.params["out_bias_en"][5] = 1e4
        rows = np.full((4, 8), 5)
        loss, acc = evaluate_mlm(state, rows, "en", seed=0)
        assert acc == 1.0

    def test_random_model_accuracy_near_chance(self):
        v = 1005
        state = tiny_setup(v_en=v, dim=8, layers=0, max_len=60)
        rows = random_rows(100, 60, v, 7)
        _, acc = evaluate_mlm(state, rows, "en", seed=1)
        n = 100 * 60 * 0.15
        sigma = math.sqrt(0.001 * 0.999 / n)
        assert abs(acc - 1 / 1000) <= 3 * sigma + 1e-3

    def test_no_rows_rejected(self):
        state = tiny_setup()
        with pytest.raises(ValueError, match="the fg held-out set has no rows"):
            evaluate_mlm(state, np.zeros((0, 8), dtype=np.int64), "fg", seed=0)


class TestTrainingLoops:
    def test_overfit_small_corpus(self):
        # memorization sanity check for gradients + optimizer together:
        # training loss is measured on the training rows with a fixed mask
        # (the per-step losses are noisy single-mask-sample estimates)
        from langxfer.cipher import generate_cipher_fixture
        from langxfer.corpus import Tokenizer

        fixture = generate_cipher_fixture(vocab_size=30, sentences=32, seed=5)
        words = sorted({w for line in fixture.en_train for w in line.split()})
        vocab = Vocabulary.from_tokens(words)
        rows = pack_sequences(
            [Tokenizer(vocab).encode_line(line) for line in fixture.en_train],
            seq_len=16,
        )
        cfg_m = ModelConfig(dim=48, layers=2, heads=2, ffn_dim=96, max_len=16)
        state = init_model(cfg_m, vocab, vocab_of(5, "f"), 0)
        cfg = TrainingConfig(total_updates=2000, warmup_updates=100, peak_lr=2e-3,
                             batch_size=16, seq_len=16, checkpoint_every=2000,
                             freeze_phase_updates=0, seed=1)
        result = pretrain(cfg, state, rows)
        loss, acc = evaluate_mlm(result.state, rows, "en", seed=99)
        assert loss < 0.1
        assert acc == 1.0

    def test_transfer_requires_matching_dims(self):
        state = tiny_setup()
        bad = EmbeddingMatrix(vocab_of(10, "g"),
                              np.zeros((10, 99), dtype=np.float32))
        cfg = TrainingConfig(total_updates=2, warmup_updates=1, batch_size=4,
                             seq_len=8)
        with pytest.raises(ValueError, match="dim"):
            run_transfer(cfg, state, bad, random_rows(4, 8, 24, 0),
                         random_rows(4, 8, 10, 1))

    def test_phase_a_preserves_english_exactly(self):
        state = tiny_setup(seed=5)
        v_fg = 24
        emb = EmbeddingMatrix(
            vocab_of(v_fg, "g"),
            np.random.default_rng(6).normal(0, 0.05, (v_fg, 16)).astype(np.float32),
        )
        cfg = TrainingConfig(total_updates=30, warmup_updates=5, batch_size=8,
                             seq_len=8, freeze_phase_updates=30,
                             checkpoint_every=30, seed=2)
        heldout_en = random_rows(6, 8, 24, 8)
        heldout_fg = random_rows(6, 8, v_fg, 9)
        result = run_transfer(cfg, state, emb,
                              random_rows(20, 8, 24, 10),
                              random_rows(20, 8, v_fg, 11),
                              heldout_en, heldout_fg)
        before = result.evals[0]
        after = result.evals[-1]
        assert abs(after[1] - before[1]) <= 1e-6  # english loss untouched
        assert after[3] != before[3]  # foreign side actually trained
        # frozen groups bit-identical
        assert np.array_equal(result.state.params["emb_en"], state.params["emb_en"])
        for name in result.state.params:
            if name.startswith("enc."):
                assert np.array_equal(result.state.params[name], state.params[name])

    def test_run_twice_bit_identical(self, tmp_path):
        def one_run(out):
            state = tiny_setup(seed=3)
            emb = EmbeddingMatrix(
                vocab_of(24, "g"),
                np.random.default_rng(4).normal(0, 0.05, (24, 16)).astype(np.float32),
            )
            cfg = TrainingConfig(total_updates=25, warmup_updates=5, batch_size=8,
                                 seq_len=8, freeze_phase_updates=5,
                                 checkpoint_every=10, seed=7)
            return run_transfer(cfg, state, emb,
                                random_rows(20, 8, 24, 12),
                                random_rows(20, 8, 24, 13),
                                random_rows(5, 8, 24, 14),
                                random_rows(5, 8, 24, 15),
                                out_dir=out)

        a = one_run(tmp_path / "a")
        b = one_run(tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        for name in a.state.params:
            assert np.array_equal(a.state.params[name], b.state.params[name])

    def test_metrics_row_count_equals_updates(self, tmp_path):
        state = tiny_setup(seed=8)
        emb = EmbeddingMatrix(
            vocab_of(24, "g"),
            np.random.default_rng(9).normal(0, 0.05, (24, 16)).astype(np.float32),
        )
        cfg = TrainingConfig(total_updates=17, warmup_updates=3, batch_size=8,
                             seq_len=8, freeze_phase_updates=0, checkpoint_every=10,
                             seed=4)
        run_transfer(cfg, state, emb, random_rows(10, 8, 24, 16),
                     random_rows(10, 8, 24, 17), out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 17  # header + one row per update


class TestTelemetry:
    def transfer(self, out):
        state = tiny_setup(seed=3)
        emb = EmbeddingMatrix(
            vocab_of(24, "g"),
            np.random.default_rng(4).normal(0, 0.05, (24, 16)).astype(np.float32),
        )
        cfg = TrainingConfig(total_updates=12, warmup_updates=3, batch_size=8,
                             seq_len=8, freeze_phase_updates=5, checkpoint_every=6,
                             seed=7)
        run_transfer(cfg, state, emb, random_rows(20, 8, 24, 12),
                     random_rows(20, 8, 24, 13), out_dir=out)
        return [line.split(",") for line in (out / "telemetry.csv").read_text().splitlines()]

    def test_one_row_per_update_with_phase_and_norm(self, tmp_path):
        rows = self.transfer(tmp_path)
        assert rows[0] == ["step", "phase", "grad_norm", "wall_ms"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 13))
        assert [r[1] for r in rows[1:]] == ["frozen"] * 5 + ["joint"] * 7
        assert all(float(r[2]) > 0 and float(r[3]) >= 0 for r in rows[1:])
        assert "grad_norm" not in (tmp_path / "metrics.csv").read_text()
        assert not any((tmp_path / "checkpoints").rglob("telemetry*"))

    def test_grad_norm_column_repeats_exactly(self, tmp_path):
        a = self.transfer(tmp_path / "a")
        b = self.transfer(tmp_path / "b")
        assert [r[2] for r in a] == [r[2] for r in b]

    def test_pretrain_rows_and_no_file_without_out_dir(self, tmp_path, monkeypatch):
        state = tiny_setup(seed=1)
        cfg = TrainingConfig(total_updates=4, warmup_updates=1, batch_size=4,
                             seq_len=8, grad_clip=None, seed=1)
        pretrain(cfg, state, random_rows(8, 8, 24, 2), out_dir=tmp_path / "run")
        rows = (tmp_path / "run" / "telemetry.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["pretrain"] * 4
        assert all(float(r.split(",")[2]) > 0 for r in rows)  # measured, not clipped
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        pretrain(cfg, tiny_setup(seed=1), random_rows(8, 8, 24, 2))
        assert not any((tmp_path / "cwd").iterdir())


class TestGradClipOfZeroOrLess:
    def metrics(self, out, grad_clip):
        cfg = TrainingConfig(total_updates=6, warmup_updates=2, batch_size=4, seq_len=8,
                             grad_clip=grad_clip, seed=1)
        pretrain(cfg, tiny_setup(seed=1), random_rows(8, 8, 24, 2), out_dir=out)
        return (out / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("clip", [0.0, -1.0])
    def test_is_no_clipping(self, tmp_path, clip):
        assert TrainingConfig(grad_clip=clip).grad_clip is None
        assert self.metrics(tmp_path / "clip", clip) == self.metrics(tmp_path / "none", None)

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="grad_clip must not be NaN"):
            TrainingConfig(grad_clip=math.nan)


class TestAdamSettings:
    @pytest.mark.parametrize("name,value,rule", [
        ("adam_beta1", -0.1, "in [0, 1)"),
        ("adam_beta1", 1.0, "in [0, 1)"),
        ("adam_beta1", 1.5, "in [0, 1)"),
        ("adam_beta2", 1.0, "in [0, 1)"),
        ("adam_beta2", math.nan, "in [0, 1)"),
        ("adam_eps", 0.0, "> 0"),
        ("adam_eps", -1.0, "> 0"),
        ("adam_eps", math.nan, "> 0"),
    ])
    def test_out_of_range_is_rejected(self, name, value, rule):
        with pytest.raises(ValueError) as err:
            TrainingConfig(**{name: value})
        assert str(err.value) == f"{name} must be {rule}, got {value}"

    def test_edges_inside_the_range_are_kept(self):
        cfg = TrainingConfig(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-30)
        assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps) == (0.0, 0.0, 1e-30)
