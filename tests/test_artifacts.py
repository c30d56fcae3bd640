"""Stage caching, checkpoint writes and the softmax ablation's size limit."""

import json
import shutil
from collections import Counter

import numpy as np
import pytest

from langxfer import pipeline, tiny_mlm, translation
from langxfer.cipher import generate_cipher_fixture, write_fixture
from langxfer.cli import main
from langxfer.corpus import NUM_SPECIALS, Vocabulary
from langxfer.embeddings import EmbeddingMatrix, save_vectors
from langxfer.pipeline import PipelineConfig, StageCache, run_all
from langxfer.tiny_mlm import ModelConfig, init_model, load_checkpoint, save_checkpoint
from langxfer.translation import translation_matrix_from_vectors


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cipher")
    fx = generate_cipher_fixture(vocab_size=30, sentences=220, seed=11, heldout=30)
    return write_fixture(fx, tmp)


def small_config(paths, out_dir):
    return PipelineConfig(
        out_dir=str(out_dir), en_train=paths["en_train.txt"],
        en_heldout=paths["en_heldout.txt"], fg_train=paths["fg_train.txt"],
        fg_heldout=paths["fg_heldout.txt"], route="parallel",
        dim=16, layers=1, heads=2, ffn_dim=32, pretrain_updates=20, pretrain_warmup=4,
        total_updates=25, warmup_updates=5, freeze_phase_updates=5, seq_len=16,
        checkpoint_every=25, seed=3,
    )


def counting_hashes(monkeypatch):
    hashed = Counter()
    real = pipeline._hash_file

    def counted(path):
        hashed[str(path)] += 1
        return real(path)

    monkeypatch.setattr(pipeline, "_hash_file", counted)
    return hashed


def cache_without_memo(work, memo=None):
    return StageCache(work)


class TestDigestMemo:
    def test_each_file_hashed_once_per_run_all(self, fixture_paths, tmp_path, monkeypatch):
        hashed = counting_hashes(monkeypatch)
        cold = run_all(small_config(fixture_paths, tmp_path / "out"))
        assert set(cold["stages"].values()) == {"ran"}
        assert hashed and max(hashed.values()) == 1
        cold_files = set(hashed)
        hashed.clear()
        warm = run_all(small_config(fixture_paths, tmp_path / "out"))
        assert set(warm["stages"].values()) == {"cached"}
        assert set(hashed) == cold_files and max(hashed.values()) == 1

    def test_without_memo_files_are_hashed_again(self, fixture_paths, tmp_path,
                                                 monkeypatch):
        """The memo saves work: a StageCache without one rereads outputs that
        later stages take as inputs."""
        hashed = counting_hashes(monkeypatch)
        monkeypatch.setattr(pipeline, "StageCache", cache_without_memo)
        run_all(small_config(fixture_paths, tmp_path / "out"))
        assert max(hashed.values()) > 1

    def test_cache_json_equal_to_a_run_without_memo(self, fixture_paths, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "out"
        run_all(small_config(fixture_paths, out))
        with_memo = (out / "cache.json").read_bytes()
        shutil.rmtree(out)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "StageCache", cache_without_memo)
            run_all(small_config(fixture_paths, out))
        assert (out / "cache.json").read_bytes() == with_memo
        # a rerun whose outputs changed on disk rehashes them before storing
        (out / "vocab_en.txt").write_text("stale\n")
        again = run_all(small_config(fixture_paths, out))
        assert again["stages"]["vocab"] == "ran"
        assert (out / "cache.json").read_bytes() == with_memo


class TestAtomicCheckpoint:
    @staticmethod
    def state():
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        return init_model(ModelConfig(dim=4, layers=1, heads=2, ffn_dim=8, max_len=4),
                          vocab, vocab, 0)

    @staticmethod
    def failing_after_first_tensor(monkeypatch):
        real = tiny_mlm.write_array
        calls = []

        def write_array(path, arr, tokens=None):
            calls.append(path)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            real(path, arr, tokens)

        monkeypatch.setattr(tiny_mlm, "write_array", write_array)
        return calls

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        ck = tmp_path / "checkpoints" / "step_0000010"
        calls = self.failing_after_first_tensor(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(self.state(), ck, step=10)
        assert len(calls) == 2
        assert list((tmp_path / "checkpoints").iterdir()) == []

    def test_failed_rewrite_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        ck = tmp_path / "step_0000010"
        save_checkpoint(self.state(), ck, step=10)
        before = {p.name: p.read_bytes() for p in ck.iterdir()}
        self.failing_after_first_tensor(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(self.state(), ck, step=99)
        assert [p.name for p in tmp_path.iterdir()] == ["step_0000010"]
        assert {p.name: p.read_bytes() for p in ck.iterdir()} == before

    @pytest.mark.parametrize("held", ["nothing", "a file", "a directory"])
    def test_replaces_what_the_path_holds(self, tmp_path, held):
        ck = tmp_path / "step_0000010"
        if held == "a file":
            ck.write_bytes(b"not a checkpoint")
        elif held == "a directory":
            ck.mkdir()
            (ck / "manifest.json").write_text("{}")
        state = self.state()
        save_checkpoint(state, ck, step=10)
        assert [p.name for p in tmp_path.iterdir()] == ["step_0000010"]
        loaded, step, _ = load_checkpoint(ck)
        assert step == 10
        for k, p in state.params.items():
            assert np.array_equal(loaded.params[k], p)

    def test_rewrite_replaces_the_directory(self, tmp_path):
        ck = tmp_path / "step_0000010"
        ck.mkdir()
        (ck / "stale.bin").write_bytes(b"x")
        state = self.state()
        save_checkpoint(state, ck, step=10)
        assert not (ck / "stale.bin").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["step_0000010"]
        loaded, step, _ = load_checkpoint(ck)
        assert step == 10
        for k, p in state.params.items():
            assert np.array_equal(loaded.params[k], p)


def vectors(prefix, n, dim, seed):
    vocab = Vocabulary.from_tokens([f"{prefix}{i}" for i in range(n)])
    data = np.random.default_rng(seed).normal(0, 1, (len(vocab), dim))
    data[:NUM_SPECIALS] = 0.0
    return EmbeddingMatrix(vocab, data.astype(np.float32))


class TestSoftmaxLimit:
    def test_refuses_past_the_limit_and_names_the_size(self, monkeypatch):
        fg, en = vectors("f", 6, 4, 0), vectors("e", 5, 4, 1)
        monkeypatch.setattr(translation, "SOFTMAX_MAX_ENTRIES", 30)
        assert len(translation_matrix_from_vectors(fg, en, mode="softmax").rows) == len(fg.vocab)
        monkeypatch.setattr(translation, "SOFTMAX_MAX_ENTRIES", 29)
        with pytest.raises(ValueError, match="30 entries"):
            translation_matrix_from_vectors(fg, en, mode="softmax")
        translation_matrix_from_vectors(fg, en, mode="sparsemax")  # no limit

    def test_cli_reports_the_json_error(self, tmp_path, monkeypatch, capsys):
        save_vectors(vectors("f", 6, 4, 0), tmp_path / "fg.vec")
        save_vectors(vectors("e", 5, 4, 1), tmp_path / "en.vec")
        monkeypatch.setattr(translation, "SOFTMAX_MAX_ENTRIES", 29)
        code = main(["translation-matrix", "--foreign-vectors", str(tmp_path / "fg.vec"),
                     "--english-vectors", str(tmp_path / "en.vec"), "--mode", "softmax",
                     "--output", str(tmp_path / "tm.txt")])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert out["status"] == "error" and out["code"] == "invalid_input"
        assert "30 entries" in out["message"]
        assert not (tmp_path / "tm.txt").exists()
