import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    from langxfer.cipher import generate_cipher_fixture, write_fixture

    fx = generate_cipher_fixture(vocab_size=25, sentences=200, seed=21, heldout=25)
    paths = write_fixture(fx, tmp / "bundle")
    return tmp, paths


class TestBasicCommands:
    def test_bpe_and_vocab(self, bundle, capsys):
        tmp, paths = bundle
        code, out = run_cli(capsys, "bpe", "--input", paths["en_train.txt"],
                            "--num-codes", "50",
                            "--output", str(tmp / "codes.txt"))
        assert code == 0
        assert out["merges"] == 50
        code, out = run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                            "--max-size", "500",
                            "--codes", str(tmp / "codes.txt"),
                            "--output", str(tmp / "vocab_bpe.txt"))
        assert code == 0
        assert out["size"] <= 500

    def test_missing_input_errors_with_path(self, capsys, tmp_path):
        code, out = run_cli(capsys, "bpe", "--input", "/missing/corpus.txt",
                            "--num-codes", "10",
                            "--output", str(tmp_path / "c.txt"))
        assert code == 1
        assert out["status"] == "error"
        assert out["code"] == "not_found"
        assert "/missing/corpus.txt" in out["message"]

    def test_identity_translation_matrix(self, capsys, tmp_path):
        dim = 4
        for name in ("fg", "en"):
            lines = [f"{dim} {dim}"]
            for i in range(dim):
                vec = ["0.0"] * dim
                vec[i] = "1.0"
                lines.append(f"w{i} " + " ".join(vec))
            (tmp_path / f"{name}.vec").write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "translation-matrix",
                            "--foreign-vectors", str(tmp_path / "fg.vec"),
                            "--english-vectors", str(tmp_path / "en.vec"),
                            "--output", str(tmp_path / "tm.txt"))
        assert code == 0
        assert out["mean_nonzeros"] == 1.0
        body = (tmp_path / "tm.txt").read_text().splitlines()
        assert "w0 w0:1" in body[5]

    def test_align_vectors_identity(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (8, 3))
        lines = ["8 3"] + [f"t{i} " + " ".join(map(str, data[i])) for i in range(8)]
        (tmp_path / "v.vec").write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "align-vectors",
                            "--foreign-vectors", str(tmp_path / "v.vec"),
                            "--english-vectors", str(tmp_path / "v.vec"),
                            "--output", str(tmp_path / "aligned.vec"))
        assert code == 0
        assert out["pairs"] == 8
        assert out["residual"] < 1e-5

    def test_subword_vectors(self, bundle, capsys, tmp_path):
        tmp, paths = bundle
        run_cli(capsys, "bpe", "--input", paths["en_train.txt"],
                "--num-codes", "40", "--output", str(tmp_path / "codes.txt"))
        run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                "--max-size", "200", "--codes", str(tmp_path / "codes.txt"),
                "--output", str(tmp_path / "subvocab.txt"))
        # word vectors for a few corpus words
        words = sorted({w for line in open(paths["en_train.txt"])
                        for w in line.split()})[:30]
        rng = np.random.default_rng(5)
        with open(tmp_path / "words.vec", "w") as fh:
            fh.write(f"{len(words)} 6\n")
            for w in words:
                fh.write(w + " " + " ".join(map(str, rng.normal(0, 1, 6))) + "\n")
        code, out = run_cli(capsys, "subword-vectors",
                            "--vectors", str(tmp_path / "words.vec"),
                            "--corpus", paths["en_train.txt"],
                            "--vocab", str(tmp_path / "subvocab.txt"),
                            "--codes", str(tmp_path / "codes.txt"),
                            "--output", str(tmp_path / "sub.vec"))
        assert code == 0
        assert out["covered"] > 0
        assert (tmp_path / "sub.vec").exists()

    def test_cipher_fixture_emits_runnable_config(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "15",
                            "--sentences", "30", "--heldout", "5",
                            "--seed", "9", "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        assert out["dictionary_entries"] == 15
        from langxfer.pipeline import load_config

        cfg = load_config(out["config"])
        assert cfg.route == "parallel"


class TestAlignmentCommands:
    def test_ibm1(self, bundle, capsys):
        tmp, paths = bundle
        for side in ("en", "fg"):
            run_cli(capsys, "vocab", "--input", paths[f"{side}_train.txt"],
                    "--max-size", "100", "--output", str(tmp / f"v_{side}.txt"))
        code, out = run_cli(capsys, "ibm1",
                            "--foreign", paths["fg_train.txt"],
                            "--english", paths["en_train.txt"],
                            "--foreign-vocab", str(tmp / "v_fg.txt"),
                            "--english-vocab", str(tmp / "v_en.txt"),
                            "--iterations", "5",
                            "--output", str(tmp / "tm_ibm1.txt"))
        assert code == 0
        assert out["covered_rows"] > 0
        assert out["iterations"] == 5

    def test_parse_fastalign(self, bundle, capsys, tmp_path):
        tmp, paths = bundle
        (tmp_path / "f.txt").write_text("aa bb\n")
        (tmp_path / "e.txt").write_text("xx yy\n")
        (tmp_path / "fv.txt").write_text(
            "<pad>\n<unk>\n<mask>\n<s>\n</s>\naa\nbb\n"
        )
        (tmp_path / "ev.txt").write_text(
            "<pad>\n<unk>\n<mask>\n<s>\n</s>\nxx\nyy\n"
        )
        (tmp_path / "al.txt").write_text("0-0 1-1\n")
        code, out = run_cli(capsys, "parse-fastalign",
                            "--foreign", str(tmp_path / "f.txt"),
                            "--english", str(tmp_path / "e.txt"),
                            "--foreign-vocab", str(tmp_path / "fv.txt"),
                            "--english-vocab", str(tmp_path / "ev.txt"),
                            "--alignments", str(tmp_path / "al.txt"),
                            "--output", str(tmp_path / "tm_fa.txt"))
        assert code == 0
        body = (tmp_path / "tm_fa.txt").read_text()
        assert "aa xx:1" in body
        assert "bb yy:1" in body


class TestTrainingCommands:
    def test_pretrain_transfer_eval_chain(self, bundle, capsys, tmp_path):
        tmp, paths = bundle
        run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                "--max-size", "100", "--output", str(tmp_path / "v_en.txt"))
        run_cli(capsys, "vocab", "--input", paths["fg_train.txt"],
                "--max-size", "100", "--output", str(tmp_path / "v_fg.txt"))
        cfg_text = (
            "total_updates = 12\nwarmup_updates = 3\nbatch_size = 8\n"
            "seq_len = 16\nfreeze_phase_updates = 4\ncheckpoint_every = 12\n"
        )
        (tmp_path / "train.cfg").write_text(cfg_text)

        code, out = run_cli(capsys, "pretrain",
                            "--corpus", paths["en_train.txt"],
                            "--heldout", paths["en_heldout.txt"],
                            "--vocab", str(tmp_path / "v_en.txt"),
                            "--dim", "16", "--layers", "1", "--heads", "2",
                            "--ffn-dim", "32",
                            "--config", str(tmp_path / "train.cfg"),
                            "--out-dir", str(tmp_path / "pre"))
        assert code == 0
        checkpoint = str(tmp_path / "pre" / "checkpoints" / "step_0000012")

        code, out = run_cli(capsys, "ibm1",
                            "--foreign", paths["fg_train.txt"],
                            "--english", paths["en_train.txt"],
                            "--foreign-vocab", str(tmp_path / "v_fg.txt"),
                            "--english-vocab", str(tmp_path / "v_en.txt"),
                            "--output", str(tmp_path / "tm.txt"))
        assert code == 0

        code, out = run_cli(capsys, "init-embeddings",
                            "--translation-matrix", str(tmp_path / "tm.txt"),
                            "--checkpoint", checkpoint,
                            "--foreign-vocab", str(tmp_path / "v_fg.txt"),
                            "--output-emb", str(tmp_path / "emb.bin"),
                            "--output-bias", str(tmp_path / "bias.bin"))
        assert code == 0
        assert out["coverage_ratio"] > 0.5

        code, out = run_cli(capsys, "transfer",
                            "--checkpoint", checkpoint,
                            "--init-emb", str(tmp_path / "emb.bin"),
                            "--init-bias", str(tmp_path / "bias.bin"),
                            "--en-train", paths["en_train.txt"],
                            "--fg-train", paths["fg_train.txt"],
                            "--en-heldout", paths["en_heldout.txt"],
                            "--fg-heldout", paths["fg_heldout.txt"],
                            "--config", str(tmp_path / "train.cfg"),
                            "--out-dir", str(tmp_path / "xfer"))
        assert code == 0
        metrics = (tmp_path / "xfer" / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 12  # header + one row per configured update

        code, out = run_cli(capsys, "eval",
                            "--checkpoint", str(tmp_path / "xfer" / "checkpoints" / "step_0000012"),
                            "--corpus", paths["fg_heldout.txt"],
                            "--language", "fg")
        assert code == 0
        assert out["loss"] > 0


class TestRunAllCommand:
    def test_run_all_from_emitted_config(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "150", "--heldout", "20",
                            "--seed", "2", "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        config_path = out["config"]
        # shrink the emitted config for test runtime
        text = []
        overrides = {
            "dim": "16", "layers": "1", "heads": "2", "ffn_dim": "32",
            "pretrain_updates": "15", "pretrain_warmup": "3",
            "total_updates": "20", "warmup_updates": "4",
            "freeze_phase_updates": "4", "seq_len": "16",
            "checkpoint_every": "20",
        }
        for line in open(config_path):
            key = line.split("=")[0].strip()
            text.append(f"{key} = {overrides[key]}\n" if key in overrides else line)
        with open(config_path, "w") as fh:
            fh.writelines(text)
        code, out = run_cli(capsys, "run-all", "--config", config_path)
        assert code == 0
        assert out["stages"]["transfer"] == "ran"
        assert 0 <= out["init_coverage"]["coverage_ratio"] <= 1


class TestConfigValidation:
    @pytest.mark.parametrize("key,value", [
        ("checkpoint_every", "0"), ("mask_prob", "1.5"), ("mask_prob", "0.0"),
    ])
    def test_run_all_rejects_bad_schedule_before_any_output(self, capsys, tmp_path,
                                                            key, value):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "50", "--heldout", "10",
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        config_path = out["config"]
        lines = [f"{key} = {value}\n" if line.split("=")[0].strip() == key else line
                 for line in open(config_path)]
        with open(config_path, "w") as fh:
            fh.writelines(lines)
        code, out = run_cli(capsys, "run-all", "--config", config_path)
        assert code == 1
        assert out["status"] == "error"
        assert out["code"] == "invalid_input"
        assert key in out["message"]
        assert not (tmp_path / "fx" / "pipeline").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("word_limit", "0", "word_limit must be >= 1, got 0"),
        ("word_limit", "-3", "word_limit must be >= 1, got -3"),
        ("vocab_size_en", "5", "vocab_size_en must exceed the 5 special tokens, got 5"),
        ("vocab_size_fg", "2", "vocab_size_fg must exceed the 5 special tokens, got 2"),
        ("ibm1_iterations", "0", "ibm1_iterations must be >= 1, got 0"),
        ("align_pairs", "0", "align_pairs must be >= 1, got 0"),
        ("bpe_codes", "-1", "bpe_codes must be >= 0, got -1"),
        ("heads", "5", "model: dim must be divisible by heads"),
        ("norm", "mid", "model: unknown norm placement: 'mid'"),
    ])
    def test_run_all_rejects_bad_size_or_model_before_any_output(self, capsys, tmp_path,
                                                                 key, value, message):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "50", "--heldout", "10",
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        config_path = out["config"]
        with open(config_path, "a") as fh:
            fh.write(f"{key} = {value}\n")
        code, out = run_cli(capsys, "run-all", "--config", config_path)
        assert code == 1
        assert out == {"status": "error", "stage": "run-all", "code": "invalid_input",
                       "message": message}
        assert not (tmp_path / "fx" / "pipeline").exists()

    @pytest.mark.parametrize("command,config,updates,key", [
        ("pretrain", "checkpoint_every = 0\n", [], "checkpoint_every"),
        ("transfer", "checkpoint_every = 0\n", [], "checkpoint_every"),
        ("pretrain", "warmup_updates = 3\n", ["--updates", "0"], "warmup_updates"),
    ])
    def test_training_commands_reject_bad_schedule(self, bundle, capsys, tmp_path,
                                                   command, config, updates, key):
        _, paths = bundle
        (tmp_path / "train.cfg").write_text(config)
        common = ["--config", str(tmp_path / "train.cfg"), *updates,
                  "--out-dir", str(tmp_path / "run")]
        if command == "pretrain":
            args = ["--corpus", paths["en_train.txt"], "--vocab", str(tmp_path / "v.txt")]
        else:
            args = ["--checkpoint", str(tmp_path / "ck"), "--init-emb", str(tmp_path / "e.bin"),
                    "--en-train", paths["en_train.txt"], "--fg-train", paths["fg_train.txt"]]
        code, out = run_cli(capsys, command, *args, *common)
        assert code == 1
        assert out["code"] == "invalid_input"
        assert key in out["message"]
        assert not (tmp_path / "run").exists()


class TestCommandsShareRunAllStages:
    """Each subcommand runs the same stage function as run-all."""

    def test_init_and_transfer_match_run_all(self, bundle, capsys, tmp_path):
        from langxfer.pipeline import PipelineConfig, run_all, write_config

        _, paths = bundle
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "ra"), en_train=paths["en_train.txt"],
            en_heldout=paths["en_heldout.txt"], fg_train=paths["fg_train.txt"],
            fg_heldout=paths["fg_heldout.txt"], dim=16, layers=1, heads=2, ffn_dim=32,
            pretrain_updates=15, pretrain_warmup=3, total_updates=12, warmup_updates=3,
            freeze_phase_updates=4, seq_len=16, checkpoint_every=5, seed=4,
        )
        run_all(cfg)
        work = tmp_path / "ra"
        checkpoint = work / "pretrain" / "checkpoints" / "step_0000015"
        code, out = run_cli(capsys, "init-embeddings",
                            "--translation-matrix", str(work / "translation_matrix.txt"),
                            "--checkpoint", str(checkpoint),
                            "--foreign-vocab", str(work / "vocab_fg.txt"), "--seed", "4",
                            "--output-emb", str(tmp_path / "emb.bin"),
                            "--output-bias", str(tmp_path / "bias.bin"))
        assert code == 0
        report = json.loads((work / "init_report.json").read_text())
        assert {k: out[k] for k in report} == report
        for name in ("emb", "bias"):
            assert (tmp_path / f"{name}.bin").read_bytes() == (
                work / f"init_{name}.bin").read_bytes()

        write_config(cfg.training_config(), tmp_path / "train.cfg")
        code, out = run_cli(capsys, "transfer", "--checkpoint", str(checkpoint),
                            "--init-emb", str(tmp_path / "emb.bin"),
                            "--init-bias", str(tmp_path / "bias.bin"),
                            "--en-train", paths["en_train.txt"],
                            "--fg-train", paths["fg_train.txt"],
                            "--en-heldout", paths["en_heldout.txt"],
                            "--fg-heldout", paths["fg_heldout.txt"],
                            "--config", str(tmp_path / "train.cfg"),
                            "--out-dir", str(tmp_path / "xfer"))
        assert code == 0
        final = "checkpoints/step_0000012"

        def checkpoint_files(out):
            return sorted(str(p.relative_to(out)) for p in (out / final).rglob("*")
                          if p.is_file())

        cli_files = checkpoint_files(tmp_path / "xfer")
        assert len(cli_files) > 3 and cli_files == checkpoint_files(work / "transfer")
        for rel in ["metrics.csv", "evals.csv"] + cli_files:
            assert (tmp_path / "xfer" / rel).read_bytes() == (
                work / "transfer" / rel).read_bytes(), rel

    def test_transfer_without_token_list_reports_it(self, bundle, capsys, tmp_path):
        from langxfer.corpus import Vocabulary
        from langxfer.embeddings import write_array
        from langxfer.tiny_mlm import ModelConfig, init_model, save_checkpoint

        _, paths = bundle
        vocab = Vocabulary.from_tokens(["a", "b"])
        model = init_model(ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=16),
                           vocab, vocab, 0)
        save_checkpoint(model, tmp_path / "ck", step=0)
        write_array(tmp_path / "e.bin", np.zeros((7, 8), dtype=np.float32))
        code, out = run_cli(capsys, "transfer", "--checkpoint", str(tmp_path / "ck"),
                            "--init-emb", str(tmp_path / "e.bin"),
                            "--en-train", paths["en_train.txt"],
                            "--fg-train", paths["fg_train.txt"],
                            "--out-dir", str(tmp_path / "run"))
        assert code == 1
        assert out["message"] == f"{tmp_path / 'e.bin'}: binary file has no token list"

    def test_dictionary_route_without_usable_pairs_fails(self, capsys, tmp_path):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "60", "--heldout", "10", "--route", "dictionary",
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        config_path = out["config"]
        overrides = {"dim": "16", "layers": "1", "heads": "2", "ffn_dim": "32",
                     "pretrain_updates": "4", "pretrain_warmup": "2", "seq_len": "16"}
        text = []
        for line in open(config_path):
            key = line.split("=")[0].strip()
            text.append(f"{key} = {overrides[key]}\n" if key in overrides else line)
        with open(config_path, "w") as fh:
            fh.writelines(text)
        dictionary = tmp_path / "fx" / "noisy_dictionary.tsv"
        dictionary.write_text("nope\tnada\n")
        with pytest.warns(UserWarning, match="out-of-vocabulary"):
            code, out = run_cli(capsys, "run-all", "--config", config_path)
        assert code == 1
        assert out == {"status": "error", "stage": "run-all", "code": "invalid_input",
                       "message": f"{dictionary}: no in-vocabulary dictionary pairs"}
        assert not (tmp_path / "fx" / "pipeline" / "translation_matrix.txt").exists()


class TestBadSizesFailEarly:
    @pytest.mark.parametrize("key,value,message", [
        ("heads", "0", "model: heads must be >= 1, got 0"),
        ("seq_len", "0", "pretrain schedule: seq_len must be >= 1, got 0"),
        ("dim", "0", "model: dim must be >= 1, got 0"),
        ("ffn_dim", "0", "model: ffn_dim must be >= 1, got 0"),
        ("batch_size", "0", "pretrain schedule: batch_size must be >= 2, got 0"),
        ("seed", "-1", "pretrain schedule: seed must be >= 0, got -1"),
    ])
    def test_run_all_reports_bad_size_before_any_output(self, capsys, tmp_path,
                                                        key, value, message):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "50", "--heldout", "10",
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        with open(out["config"], "a") as fh:
            fh.write(f"{key} = {value}\n")
        code, out = run_cli(capsys, "run-all", "--config", str(tmp_path / "fx" / "pipeline.cfg"))
        assert code == 1
        assert out == {"status": "error", "stage": "run-all", "code": "invalid_input",
                       "message": message}
        assert not (tmp_path / "fx" / "pipeline").exists()


class TestSenselessValuesFailEarly:
    @pytest.mark.parametrize("key,value,message", [
        ("peak_lr", "0.0", "transfer schedule: peak_lr must be > 0, got 0.0"),
        ("peak_lr", "-1.0", "transfer schedule: peak_lr must be > 0, got -1.0"),
        ("pretrain_peak_lr", "0.0", "pretrain schedule: peak_lr must be > 0, got 0.0"),
        ("pretrain_peak_lr", "-0.002", "pretrain schedule: peak_lr must be > 0, got -0.002"),
        ("freeze_phase_updates", "-1",
         "transfer schedule: freeze_phase_updates must be >= 0, got -1"),
        ("ibm1_prune", "-0.5", "ibm1_prune must be >= 0, got -0.5"),
    ])
    def test_run_all_rejects_senseless_value(self, capsys, tmp_path, key, value, message):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20",
                            "--sentences", "50", "--heldout", "10",
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 0
        with open(out["config"], "a") as fh:
            fh.write(f"{key} = {value}\n")
        code, out = run_cli(capsys, "run-all", "--config", out["config"])
        assert code == 1
        assert out == {"status": "error", "stage": "run-all", "code": "invalid_input",
                       "message": message}
        assert not (tmp_path / "fx" / "pipeline").exists()

    @pytest.mark.parametrize("command,config,message", [
        ("pretrain", "peak_lr = 0.0\n", "peak_lr must be > 0, got 0.0"),
        ("transfer", "peak_lr = -1.0\n", "peak_lr must be > 0, got -1.0"),
        ("pretrain", "floor_lr = -1e-07\n", "floor_lr must be >= 0, got -1e-07"),
        ("transfer", "freeze_phase_updates = -5\n",
         "freeze_phase_updates must be >= 0, got -5"),
    ])
    def test_training_commands_reject_senseless_schedule(self, bundle, capsys, tmp_path,
                                                         command, config, message):
        _, paths = bundle
        (tmp_path / "train.cfg").write_text(config)
        common = ["--config", str(tmp_path / "train.cfg"), "--out-dir", str(tmp_path / "run")]
        if command == "pretrain":
            args = ["--corpus", paths["en_train.txt"], "--vocab", str(tmp_path / "v.txt")]
        else:
            args = ["--checkpoint", str(tmp_path / "ck"), "--init-emb", str(tmp_path / "e.bin"),
                    "--en-train", paths["en_train.txt"], "--fg-train", paths["fg_train.txt"]]
        code, out = run_cli(capsys, command, *args, *common)
        assert code == 1
        assert out == {"status": "error", "stage": command, "code": "invalid_input",
                       "message": message}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--sentences", "-4", "sentences must be >= 1, got -4"),
        ("--sentences", "0", "sentences must be >= 1, got 0"),
        ("--heldout", "-3", "heldout must be >= 0, got -3"),
        ("--split-prob", "1.5", "split_prob must be in [0, 1], got 1.5"),
    ])
    def test_cipher_fixture_rejects_bad_size(self, capsys, tmp_path, flag, value, message):
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "20", flag, value,
                            "--out-dir", str(tmp_path / "fx"))
        assert code == 1
        assert out == {"status": "error", "stage": "cipher-fixture", "code": "invalid_input",
                       "message": message}
        assert not (tmp_path / "fx").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv,stage,message", [
        (["pretrain", "--dim", "abc"], "pretrain", "argument --dim: invalid int value: 'abc'"),
        (["run-all"], "run-all", "the following arguments are required: --config"),
        (["eval", "--checkpoint", "c", "--corpus", "x", "--language", "de"], "eval",
         "argument --language: invalid choice: 'de' (choose from 'en', 'fg')"),
        (["run-all", "--config", "c", "--bogus", "1"], "run-all",
         "unrecognized arguments: --bogus 1"),
        ([], None, "the following arguments are required: command"),
    ], ids=["bad-int", "missing-flag", "bad-choice", "unknown-flag", "no-command"])
    def test_usage_error_prints_the_json_error(self, capsys, argv, stage, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out = capsys.readouterr().out.splitlines()
        assert exit_info.value.code == 2 and len(out) == 1
        assert json.loads(out[0]) == {
            "status": "error", "stage": stage, "code": "invalid_argument", "message": message}

    def test_help_is_still_text(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["pretrain", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: langxfer pretrain")


class TestParallelFlags:
    @pytest.mark.parametrize("command", ["ibm1", "parse-fastalign"])
    @pytest.mark.parametrize("corpus", [
        [], ["--foreign", "fg"], ["--english", "en"], ["--parallel", "p", "--foreign", "fg"],
    ], ids=["none", "foreign-only", "english-only", "parallel-and-foreign"])
    def test_bad_corpus_flags_fail_before_reading(self, capsys, tmp_path, command, corpus):
        # no file named here exists: the flags are checked before any is read
        argv = [command, *corpus, "--foreign-vocab", "vf", "--english-vocab", "ve",
                "--output", str(tmp_path / "tm.txt")]
        if command == "parse-fastalign":
            argv += ["--alignments", "al"]
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == {"status": "error", "stage": command, "code": "invalid_input",
                       "message": "give --parallel alone, or both --foreign and --english"}
        assert not (tmp_path / "tm.txt").exists()


# the values a fuzzed flag takes, by its type: numbers at and past the
# edges of their ranges and one that does not parse; for a path, an empty
# string and files that are missing, empty, or of some other kind
FUZZ_FILES = {"empty.txt": "", "junk.txt": "a b\nc d e\n", "pairs.tsv": "a b\tc d\n",
              "vocab.txt": "<pad>\n<unk>\n<mask>\n<s>\n</s>\na\nb\nc\n"}
FUZZ_VALUES = {
    int: ["-1", "0", "1", "2", "abc"],
    float: ["-1", "0", "0.5", "1.5", "nan", "abc"],
    None: ["", "missing.txt", *FUZZ_FILES, "out", "-1"],
}
OUT_DIR_COMMANDS = ("run-all", "pretrain", "transfer", "cipher-fixture")


@st.composite
def fuzzed_argv(draw):
    """A subcommand and a draw of its flags, each from `build_parser()`:
    a required flag is left out one time in ten, an optional one six."""
    command, parser = draw(st.sampled_from(sorted(build_parser().commands.items())))
    argv = [command]
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if draw(st.integers(0, 9)) < (1 if action.required else 6):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            pool = [*action.choices, "bogus"] if action.choices else FUZZ_VALUES[action.type]
            argv.append(draw(st.sampled_from(pool)))
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from([["--bogus"], ["stray"], ["--seed"]]))
    return argv


class TestArgvFuzz:
    @pytest.mark.filterwarnings("ignore:corpus ran out of pairs:UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(argv=fuzzed_argv())
    def test_every_argv_gives_one_json_line(self, argv):
        """No traceback, one JSON line on stdout, and a failed command
        leaves no output directory behind."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for name, text in FUZZ_FILES.items():
                    Path(name).write_text(text)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                created = set(os.listdir()) - set(FUZZ_FILES)
            finally:
                os.chdir(cwd)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        payload = json.loads(lines[0])
        assert "Traceback" not in err.getvalue()
        assert (payload.get("status") == "error") == (code != 0), (argv, code, payload)
        if code != 0 and argv[0] in OUT_DIR_COMMANDS:
            assert "out" not in created, (argv, payload)
