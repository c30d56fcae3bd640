import errno
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from langxfer.cipher import generate_cipher_fixture, write_fixture
from langxfer.pipeline import (
    PipelineConfig,
    StageCache,
    load_config,
    run_all,
    write_config,
)


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cipher")
    fx = generate_cipher_fixture(vocab_size=30, sentences=220, seed=11, heldout=30)
    return write_fixture(fx, tmp), tmp


def small_config(paths, out_dir, **overrides):
    base = dict(
        out_dir=str(out_dir),
        en_train=paths["en_train.txt"],
        en_heldout=paths["en_heldout.txt"],
        fg_train=paths["fg_train.txt"],
        fg_heldout=paths["fg_heldout.txt"],
        route="parallel",
        dim=16, layers=1, heads=2, ffn_dim=32,
        pretrain_updates=20, pretrain_warmup=4,
        total_updates=25, warmup_updates=5, freeze_phase_updates=5,
        seq_len=16, checkpoint_every=25, seed=3,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestConfigFile:
    def test_write_load_roundtrip(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "out")
        write_config(cfg, tmp_path / "p.cfg")
        loaded = load_config(tmp_path / "p.cfg")
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("nonsense_key = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(tmp_path / "bad.cfg")

    def test_missing_required_keys(self, tmp_path):
        (tmp_path / "partial.cfg").write_text("seed = 3\n")
        with pytest.raises(ValueError, match="missing required"):
            load_config(tmp_path / "partial.cfg")

    def test_comments_and_types(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "out")
        write_config(cfg, tmp_path / "p.cfg")
        text = (tmp_path / "p.cfg").read_text() + "# trailing comment\n"
        (tmp_path / "p.cfg").write_text(text)
        loaded = load_config(tmp_path / "p.cfg")
        assert loaded.seed == 3
        assert isinstance(loaded.peak_lr, float)

    def test_default_word_limit_is_fifty_thousand(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        assert small_config(paths, tmp_path).word_limit == 50_000
        assert small_config(paths, tmp_path).align_pairs == 2_000_000

    def test_missing_input_file_named(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "out", en_train="/no/such/file.txt")
        with pytest.raises(FileNotFoundError, match="/no/such/file.txt"):
            run_all(cfg)


class TestRunAll:
    def test_end_to_end_and_cache(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "out")
        summary = run_all(cfg)
        assert all(v == "ran" for v in summary["stages"].values())
        assert summary["init_coverage"]["coverage_ratio"] > 0.9
        assert (tmp_path / "out" / "summary.json").exists()

        again = run_all(cfg)
        assert all(v == "cached" for v in again["stages"].values())

    def test_input_change_reruns_downstream_only(self, fixture_paths, tmp_path):
        paths, tmp = fixture_paths
        out = tmp_path / "out2"
        cfg = small_config(paths, out)
        run_all(cfg)
        # changing the foreign corpus leaves the english-only pretrain cached
        fg = tmp / "fg_train.txt"
        fg.write_text(fg.read_text() + "")  # touch without change: all cached
        summary = run_all(cfg)
        assert all(v == "cached" for v in summary["stages"].values())
        lines = fg.read_text().splitlines()
        fg.write_text("\n".join(reversed(lines)) + "\n")
        summary = run_all(cfg)
        assert summary["stages"]["pretrain"] == "cached"
        assert summary["stages"]["vocab"] == "ran"
        assert summary["stages"]["transfer"] == "ran"

    def test_cached_artifacts_match_fresh_run(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg_a = small_config(paths, tmp_path / "a")
        cfg_b = small_config(paths, tmp_path / "b")
        run_all(cfg_a)
        run_all(cfg_b)
        for rel in ("transfer/metrics.csv", "transfer/evals.csv",
                    "translation_matrix.txt", "init_emb.bin"):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes(), rel

    def test_failed_rerun_leaves_no_stale_cache_hit(self, fixture_paths, tmp_path,
                                                   monkeypatch):
        from langxfer import trainer

        paths, _ = fixture_paths
        cfg_a = small_config(paths, tmp_path / "out")
        cfg_b = small_config(paths, tmp_path / "out", peak_lr=5e-4)
        first = run_all(cfg_a)

        real_adam_step = trainer.adam_step
        calls = []

        def failing_adam_step(*args, **kwargs):
            calls.append(1)
            if len(calls) > 3:
                raise FloatingPointError("injected failure mid-transfer")
            return real_adam_step(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(trainer, "adam_step", failing_adam_step)
            with pytest.raises(FloatingPointError, match="injected"):
                run_all(cfg_b)
        assert len(calls) == 4

        again = run_all(cfg_a)
        assert again["stages"]["transfer"] == "ran"
        assert again["stages"]["init"] == "cached"
        assert again["foreign_loss_final"] == first["foreign_loss_final"]

    def test_translation_telemetry_files(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        outputs = {}
        for tag in ("a", "b"):
            cfg = small_config(paths, tmp_path / tag, ibm1_iterations=4)
            run_all(cfg)
            outputs[tag] = {name: (tmp_path / tag / name).read_bytes()
                            for name in ("alignment_info.json", "translation_report.json")}
        assert outputs["a"] == outputs["b"]
        info = json.loads(outputs["a"]["alignment_info.json"])
        assert len(info["log_likelihoods"]) == 4
        assert np.all(np.diff(info["log_likelihoods"]) >= -1e-9)
        assert info["log_likelihoods"][-1] == info["final_log_likelihood"]
        report = json.loads(outputs["a"]["translation_report.json"])
        assert report["n_rows"] > report["n_covered"] > 0
        assert sum(report["histogram"].values()) == report["n_covered"]
        for name in ("metrics.csv", "evals.csv"):
            text = (tmp_path / "a" / "transfer" / name).read_text()
            assert "log_likelihood" not in text and "entropy" not in text

    def test_dictionary_route(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "dict_out", route="dictionary",
                           dictionary=paths["dictionary.tsv"])
        summary = run_all(cfg)
        assert summary["init_coverage"]["coverage_ratio"] == 1.0

    def test_cache_dir_env_override(self, fixture_paths, tmp_path, monkeypatch):
        paths, _ = fixture_paths
        work = tmp_path / "cache_home"
        monkeypatch.setenv("LANGXFER_CACHE_DIR", str(work))
        cfg = small_config(paths, tmp_path / "out3")
        summary = run_all(cfg)
        assert summary["work_dir"] == str(work)
        assert (work / "cache.json").exists()
        assert (tmp_path / "out3" / "summary.json").exists()

    def test_bpe_tokenization_mode(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        cfg = small_config(paths, tmp_path / "bpe_out", tokenization="bpe",
                           bpe_codes=60, vocab_size_en=300, vocab_size_fg=300)
        summary = run_all(cfg)
        assert summary["stages"]["transfer"] == "ran"
        assert (tmp_path / "bpe_out" / "codes_en.txt").exists()
        assert (tmp_path / "bpe_out" / "codes_fg.txt").exists()

    def test_vectors_route(self, fixture_paths, tmp_path):
        paths, tmp = fixture_paths
        from langxfer.cipher import generate_cipher_fixture

        fx = generate_cipher_fixture(vocab_size=30, sentences=220, seed=11,
                                     heldout=30)
        rng = np.random.default_rng(0)
        dim = 12
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        en_vecs = {en: rng.normal(0, 1, dim) for en, _ in fx.dictionary}
        # foreign space: a rotated copy of the english space plus small noise
        fg_vecs = {fg: en_vecs[en] @ q + rng.normal(0, 0.01, dim)
                   for en, fg in fx.dictionary}

        def write_vec(path, table):
            with open(path, "w") as fh:
                fh.write(f"{len(table)} {dim}\n")
                for tok, vec in table.items():
                    fh.write(tok + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")

        write_vec(tmp_path / "en.vec", en_vecs)
        write_vec(tmp_path / "fg.vec", fg_vecs)
        seed = [f"{fg}\t{en}" for (en, fg) in fx.dictionary[:15]]
        (tmp_path / "seed.tsv").write_text("\n".join(seed) + "\n")

        cfg = small_config(paths, tmp_path / "vec_out", route="vectors",
                           en_vectors=str(tmp_path / "en.vec"),
                           fg_vectors=str(tmp_path / "fg.vec"),
                           seed_dictionary=str(tmp_path / "seed.tsv"))
        summary = run_all(cfg)
        assert summary["stages"]["translation"] == "ran"
        assert summary["init_coverage"]["coverage_ratio"] > 0.9

        # the sparsemax rows should recover the planted dictionary
        from langxfer.corpus import Vocabulary
        from langxfer.translation import read_translation_matrix

        vocab_en = Vocabulary.load(tmp_path / "vec_out" / "vocab_en.txt")
        vocab_fg = Vocabulary.load(tmp_path / "vec_out" / "vocab_fg.txt")
        tm = read_translation_matrix(
            tmp_path / "vec_out" / "translation_matrix.txt", vocab_fg, vocab_en
        )
        mapping = {fg: en for en, fg in fx.dictionary}
        correct = total = 0
        for i, row in enumerate(tm.rows):
            if not row:
                continue
            total += 1
            best = max(row, key=lambda e: e[1])[0]
            expected = mapping.get(vocab_fg.tokens[i])
            correct += expected is not None and vocab_en.tokens[best] == expected
        assert total > 20
        assert correct / total >= 0.9


class TestStageCache:
    @pytest.mark.parametrize("text", ['{"vocab": {"key": "ab', "[]", "\udcff"])
    def test_unreadable_cache_reruns_every_stage(self, fixture_paths, tmp_path, text):
        paths, _ = fixture_paths
        out = tmp_path / "out"
        out.mkdir()
        (out / "cache.json").write_text(text, errors="surrogateescape")
        summary = run_all(small_config(paths, out))
        assert set(summary["stages"].values()) == {"ran"}
        entries = json.loads((out / "cache.json").read_text())
        assert set(entries) == set(summary["stages"])

    def test_failed_write_keeps_previous_cache(self, tmp_path, monkeypatch):
        cache = StageCache(tmp_path)
        cache.store("s", "k1", [])
        before = cache.path.read_bytes()

        def disk_full(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError, match="No space"):
            cache.store("s", "k2", [])
        assert cache.path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        assert StageCache(tmp_path).entries == {"s": {"key": "k1", "outputs": []}}

    def test_key_changes_with_params_and_content(self, tmp_path):
        (tmp_path / "in.txt").write_text("alpha\n")
        cache = StageCache(tmp_path)
        k1 = cache.key("s", {"a": 1}, [tmp_path / "in.txt"])
        k2 = cache.key("s", {"a": 2}, [tmp_path / "in.txt"])
        (tmp_path / "in.txt").write_text("beta\n")
        k3 = cache.key("s", {"a": 1}, [tmp_path / "in.txt"])
        assert len({k1, k2, k3}) == 3

    def test_hit_requires_outputs_present(self, tmp_path):
        cache = StageCache(tmp_path)
        out = tmp_path / "artifact.txt"
        key = cache.key("s", {}, [])
        assert not cache.hit("s", key, [out])
        out.write_text("x")
        cache.store("s", key, [out])
        assert cache.hit("s", key, [out])
        out.unlink()
        assert not cache.hit("s", key, [out])


class TestVerifiedCacheHits:
    """A stage is served from cache only while its outputs keep the content
    they were stored with."""

    @staticmethod
    def outputs(out):
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()
                and p.name not in ("cache.json", "telemetry.csv", "summary.json")}

    def test_truncated_output_reruns_its_stage(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        out = tmp_path / "out"
        first = run_all(small_config(paths, out))
        before = self.outputs(out)
        pack = out / "pack_en_train.npy"
        np.save(pack, np.load(pack)[:3])
        again = run_all(small_config(paths, out))
        assert again["stages"]["vocab"] == "cached"
        assert again["stages"]["pack"] == "ran"
        # the rerun restored the rows byte for byte, so every later stage's
        # inputs and outputs are what they were: all of them verify as cached
        assert all(again["stages"][s] == "cached"
                   for s in ("pretrain", "translation", "init", "transfer"))
        assert self.outputs(out) == before
        assert again["foreign_loss_final"] == first["foreign_loss_final"]

    def test_changed_checkpoint_reruns_pretrain(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        out = tmp_path / "out"
        run_all(small_config(paths, out))
        before = self.outputs(out)
        ck = out / "pretrain" / "checkpoints" / "step_0000020"
        (ck / "manifest.json").write_text((ck / "manifest.json").read_text() + " ")
        again = run_all(small_config(paths, out))
        assert again["stages"]["pretrain"] == "ran"
        assert again["stages"]["init"] == again["stages"]["transfer"] == "cached"
        assert self.outputs(out) == before

    def test_old_format_entries_rerun_every_stage(self, fixture_paths, tmp_path):
        paths, _ = fixture_paths
        out = tmp_path / "out"
        run_all(small_config(paths, out))
        entries = json.loads((out / "cache.json").read_text())
        old = {stage: {"key": e["key"], "outputs": [path for path, _ in e["outputs"]]}
               for stage, e in entries.items()}
        (out / "cache.json").write_text(json.dumps(old))
        summary = run_all(small_config(paths, out))
        assert set(summary["stages"].values()) == {"ran"}
        assert json.loads((out / "cache.json").read_text()) == entries

    def test_hit_requires_unchanged_content(self, tmp_path):
        cache = StageCache(tmp_path)
        (tmp_path / "ck").mkdir()
        outs = [tmp_path / "a.txt", tmp_path / "ck"]
        outs[0].write_text("x")
        (tmp_path / "ck" / "w.bin").write_bytes(b"12")
        key = cache.key("s", {}, [])
        cache.store("s", key, outs)
        assert cache.hit("s", key, outs)
        outs[0].write_text("y")
        assert not cache.hit("s", key, outs)
        outs[0].write_text("x")
        assert StageCache(tmp_path).hit("s", key, outs)
        (tmp_path / "ck" / "w.bin").write_bytes(b"13")
        assert not cache.hit("s", key, outs)
        (tmp_path / "ck" / "w.bin").write_bytes(b"12")
        (tmp_path / "ck" / "extra").write_bytes(b"")
        assert not cache.hit("s", key, outs)


def old_dictionary_pairs(path, vocab_fg, vocab_en):
    """Oracle: the dictionary-route parser that read_dictionary replaced."""
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        en_w, fg_w = line.split("\t")
        i, j = vocab_fg.index.get(fg_w), vocab_en.index.get(en_w)
        if i is None or j is None or i < 5 or j < 5:
            continue
        pairs.append((i, j))
    return pairs


class TestDictionaryRoute:
    def test_matches_old_parser_and_warns_on_out_of_vocabulary(self, fixture_paths,
                                                               tmp_path):
        from langxfer.corpus import Vocabulary
        from langxfer.translation import (
            dictionary_translation_matrix,
            write_translation_matrix,
        )

        paths, _ = fixture_paths
        lines = Path(paths["noisy_dictionary.tsv"]).read_text().splitlines()
        dictionary = tmp_path / "d.tsv"
        dictionary.write_text("\n".join(lines[:10] + ["nope\tnada", "<unk>\t<unk>"]
                                        + lines[10:]) + "\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="skipped 1 out-of-vocabulary entries"):
            run_all(small_config(paths, out, route="dictionary", dictionary=str(dictionary)))
        vocab_en = Vocabulary.load(out / "vocab_en.txt")
        vocab_fg = Vocabulary.load(out / "vocab_fg.txt")
        tm = dictionary_translation_matrix(
            old_dictionary_pairs(dictionary, vocab_fg, vocab_en), vocab_fg, vocab_en)
        write_translation_matrix(tm, vocab_fg, vocab_en, tmp_path / "oracle.txt")
        assert (out / "translation_matrix.txt").read_bytes() == (
            tmp_path / "oracle.txt").read_bytes()

    @pytest.mark.parametrize("text", ["nope\tnada\nzip\tzap\n", "<unk>\t<unk>\n</s>\t</s>\n"],
                             ids=["out-of-vocabulary", "special-tokens"])
    def test_no_usable_pair_fails(self, fixture_paths, tmp_path, text):
        paths, _ = fixture_paths
        (tmp_path / "d.tsv").write_text(text)
        cfg = small_config(paths, tmp_path / "out", route="dictionary",
                           dictionary=str(tmp_path / "d.tsv"))
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match="no in-vocabulary dictionary pairs"):
            warnings.simplefilter("ignore")
            run_all(cfg)
        assert not (tmp_path / "out" / "translation_matrix.txt").exists()
        assert "translation" not in json.loads((tmp_path / "out" / "cache.json").read_text())
