import argparse
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

    @pytest.mark.parametrize("command,flag", [("translation-matrix", "--foreign-vectors"),
                                              ("vocab", "--input")])
    def test_file_not_utf8_is_the_json_error_naming_it(self, capsys, tmp_path, command, flag):
        (tmp_path / "en.vec").write_text("1 2\nw 1.0 0.0\n")
        (tmp_path / "bad.vec").write_bytes(b"1 2\n\xff 1.0 0.0\n")
        argv = {"translation-matrix": ["--english-vectors", str(tmp_path / "en.vec")],
                "vocab": ["--max-size", "10"]}[command]
        code, out = run_cli(capsys, command, flag, str(tmp_path / "bad.vec"), *argv,
                            "--output", str(tmp_path / "out.txt"))
        assert code == 1 and out["code"] == "invalid_input"
        assert out["message"].startswith(f"{tmp_path / 'bad.vec'}: 'utf-8' codec can't decode")
        assert not (tmp_path / "out.txt").exists()

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

    def test_cipher_fixture_config_in_a_hash_directory_reads_back(self, capsys, tmp_path):
        from langxfer.pipeline import load_config

        out_dir = tmp_path / "a#b" / "bundle"
        code, out = run_cli(capsys, "cipher-fixture", "--vocab-size", "15",
                            "--sentences", "30", "--heldout", "5", "--out-dir", str(out_dir))
        assert code == 0
        cfg = load_config(out["config"])
        assert cfg.out_dir == str(out_dir / "pipeline")
        assert cfg.dictionary == str(out_dir / "noisy_dictionary.tsv")
        for name in ("en_train", "en_heldout", "fg_train", "fg_heldout"):
            assert getattr(cfg, name) == str(out_dir / f"{name}.txt")
            assert Path(getattr(cfg, name)).is_file()


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

    @pytest.mark.parametrize("prune", ["nan", "-1"])
    def test_ibm1_rejects_nan_or_negative_prune(self, bundle, capsys, tmp_path, prune):
        tmp, paths = bundle
        for side in ("en", "fg"):
            run_cli(capsys, "vocab", "--input", paths[f"{side}_train.txt"],
                    "--max-size", "100", "--output", str(tmp_path / f"v_{side}.txt"))
        code, out = run_cli(capsys, "ibm1",
                            "--foreign", paths["fg_train.txt"],
                            "--english", paths["en_train.txt"],
                            "--foreign-vocab", str(tmp_path / "v_fg.txt"),
                            "--english-vocab", str(tmp_path / "v_en.txt"),
                            "--prune", prune,
                            "--output", str(tmp_path / "tm.txt"))
        assert code == 1
        assert out == {"status": "error", "stage": "ibm1", "code": "invalid_input",
                       "message": f"prune must be >= 0, got {float(prune)}"}
        assert not (tmp_path / "tm.txt").exists()

    @pytest.mark.parametrize("subsample", ["0", "-1"])
    def test_ibm1_rejects_subsample_below_one(self, bundle, capsys, tmp_path, subsample):
        tmp, paths = bundle
        for side in ("en", "fg"):
            run_cli(capsys, "vocab", "--input", paths[f"{side}_train.txt"],
                    "--max-size", "100", "--output", str(tmp_path / f"v_{side}.txt"))
        code, out = run_cli(capsys, "ibm1",
                            "--foreign", paths["fg_train.txt"],
                            "--english", paths["en_train.txt"],
                            "--foreign-vocab", str(tmp_path / "v_fg.txt"),
                            "--english-vocab", str(tmp_path / "v_en.txt"),
                            "--subsample", subsample,
                            "--output", str(tmp_path / "tm.txt"))
        assert code == 1
        assert out == {"status": "error", "stage": "ibm1", "code": "invalid_input",
                       "message": f"subsample size must be >= 1, got {subsample}"}
        assert not (tmp_path / "tm.txt").exists()

    def test_ibm1_parallel_file_matches_two_files(self, bundle, capsys, tmp_path):
        tmp, paths = bundle
        for side in ("en", "fg"):
            run_cli(capsys, "vocab", "--input", paths[f"{side}_train.txt"],
                    "--max-size", "100", "--output", str(tmp_path / f"v_{side}.txt"))
        fg = Path(paths["fg_train.txt"]).read_text().splitlines()[:60] + ["", "x y"]
        en = Path(paths["en_train.txt"]).read_text().splitlines()[:60] + ["a b", ""]
        (tmp_path / "fg.txt").write_text("\n".join(fg) + "\n")
        (tmp_path / "en.txt").write_text("\n".join(en) + "\n")
        (tmp_path / "p.tsv").write_text("".join(f"{f}\t{e}\n" for f, e in zip(fg, en)))
        vocabs = ["--foreign-vocab", str(tmp_path / "v_fg.txt"),
                  "--english-vocab", str(tmp_path / "v_en.txt"), "--iterations", "3"]
        outputs = {}
        for name, corpus in (("two", ["--foreign", str(tmp_path / "fg.txt"),
                                      "--english", str(tmp_path / "en.txt")]),
                             ("tsv", ["--parallel", str(tmp_path / "p.tsv")])):
            code = main(["ibm1", *corpus, *vocabs, "--output", str(tmp_path / f"{name}.txt")])
            captured = capsys.readouterr()
            assert code == 0 and "dropped 2 empty pairs" in captured.err
            outputs[name] = json.loads(captured.out)
        assert outputs["two"]["pairs"] == 60
        assert {k: v for k, v in outputs["two"].items() if k != "output"} == {
            k: v for k, v in outputs["tsv"].items() if k != "output"}
        assert (tmp_path / "two.txt").read_bytes() == (tmp_path / "tsv.txt").read_bytes()

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

    def test_eval_of_foreign_text_on_a_pretrain_checkpoint_names_the_vocabulary(
            self, bundle, capsys, tmp_path):
        tmp, paths = bundle
        run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                "--max-size", "100", "--output", str(tmp_path / "v_en.txt"))
        (tmp_path / "train.cfg").write_text(
            "total_updates = 2\nwarmup_updates = 1\nbatch_size = 4\n"
            "seq_len = 8\ncheckpoint_every = 2\n"
        )
        code, _ = run_cli(capsys, "pretrain",
                          "--corpus", paths["en_train.txt"],
                          "--vocab", str(tmp_path / "v_en.txt"),
                          "--dim", "8", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
                          "--config", str(tmp_path / "train.cfg"),
                          "--out-dir", str(tmp_path / "pre"))
        assert code == 0
        code, out = run_cli(capsys, "eval",
                            "--checkpoint", str(tmp_path / "pre" / "checkpoints" / "step_0000002"),
                            "--corpus", paths["fg_heldout.txt"],
                            "--language", "fg")
        assert code == 1
        assert out == {"status": "error", "stage": "eval", "code": "invalid_input",
                       "message": "the fg vocabulary has no non-special tokens"}

    @pytest.mark.parametrize("held,message", [
        (b"a b c\n", "corpus too small to fill one row of 16 tokens (4 tokens available)"),
        (b"a \xff c\n", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    ], ids=["too-small", "not-utf8"])
    def test_corpus_that_cannot_be_packed_is_named_once(self, bundle, capsys, tmp_path, held,
                                                        message):
        tmp, paths = bundle
        run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                "--max-size", "100", "--output", str(tmp_path / "v_en.txt"))
        (tmp_path / "train.cfg").write_text(
            "total_updates = 2\nwarmup_updates = 1\nbatch_size = 4\n"
            "seq_len = 16\ncheckpoint_every = 2\n"
        )
        (tmp_path / "tiny.txt").write_bytes(held)
        code, out = run_cli(capsys, "pretrain",
                            "--corpus", paths["en_train.txt"],
                            "--heldout", str(tmp_path / "tiny.txt"),
                            "--vocab", str(tmp_path / "v_en.txt"),
                            "--dim", "8", "--layers", "1", "--heads", "2", "--ffn-dim", "16",
                            "--config", str(tmp_path / "train.cfg"),
                            "--out-dir", str(tmp_path / "pre"))
        assert code == 1
        assert out == {"status": "error", "stage": "pretrain", "code": "invalid_input",
                       "message": f"{tmp_path / 'tiny.txt'}: {message}"}


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
        ("dim", "abc"), ("grad_clip", "none"),
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
        ("norm", "mid", "model: unknown norm: 'mid'"),
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

    def test_word_chain_matches_run_all_vectors_route(self, bundle, capsys, tmp_path):
        """README's word chain on 300-d vectors that hold a word outside the
        model vocabulary writes run-all's matrix, embeddings and bias."""
        from langxfer.pipeline import PipelineConfig, run_all

        _, paths = bundle
        pairs = [line.split("\t") for line in
                 Path(paths["dictionary.tsv"]).read_text().splitlines()]
        # small values, so that sparsemax rows hold several entries and the
        # matrix shows the last bits of the aligned vectors
        rng = np.random.default_rng(3)
        for side, words in (("en", [en for en, _ in pairs]), ("fg", [fg for _, fg in pairs])):
            rows = [f"{w} " + " ".join(f"{x:.6f}" for x in rng.normal(0, 0.05, 300))
                    for w in [*words, f"{side}_not_in_any_corpus"]]
            (tmp_path / f"{side}.vec").write_text(f"{len(rows)} 300\n" + "\n".join(rows) + "\n")
        (tmp_path / "seed.tsv").write_text("".join(f"{fg}\t{en}\n" for en, fg in pairs))
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "ra"), en_train=paths["en_train.txt"],
            en_heldout=paths["en_heldout.txt"], fg_train=paths["fg_train.txt"],
            fg_heldout=paths["fg_heldout.txt"], route="vectors",
            en_vectors=str(tmp_path / "en.vec"), fg_vectors=str(tmp_path / "fg.vec"),
            seed_dictionary=str(tmp_path / "seed.tsv"), dim=16, layers=1, heads=2,
            ffn_dim=32, pretrain_updates=6, pretrain_warmup=2, total_updates=4,
            warmup_updates=1, freeze_phase_updates=2, seq_len=16, checkpoint_every=4, seed=5,
        )
        with pytest.warns(UserWarning, match="underdetermined"):
            run_all(cfg)
        work = tmp_path / "ra"
        with pytest.warns(UserWarning, match="underdetermined"):
            code, _ = run_cli(capsys, "align-vectors",
                              "--foreign-vectors", str(tmp_path / "fg.vec"),
                              "--english-vectors", str(tmp_path / "en.vec"),
                              "--dictionary", str(tmp_path / "seed.tsv"),
                              "--output", str(tmp_path / "fg_aligned.vec"))
        assert code == 0
        for side, vec in (("fg", "fg_aligned.vec"), ("en", "en.vec")):
            code, out = run_cli(capsys, "subword-vectors", "--vectors", str(tmp_path / vec),
                                "--vocab", str(work / f"vocab_{side}.txt"),
                                "--output", str(tmp_path / f"{side}_vocab.vec"))
            assert code == 0 and out["covered"] == len(pairs), out
        code, _ = run_cli(capsys, "translation-matrix",
                          "--foreign-vectors", str(tmp_path / "fg_vocab.vec"),
                          "--english-vectors", str(tmp_path / "en_vocab.vec"),
                          "--output", str(tmp_path / "tm.txt"))
        assert code == 0
        code, _ = run_cli(capsys, "init-embeddings", "--translation-matrix",
                          str(tmp_path / "tm.txt"), "--checkpoint",
                          str(work / "pretrain" / "checkpoints" / "step_0000006"),
                          "--foreign-vocab", str(work / "vocab_fg.txt"), "--seed", "5",
                          "--output-emb", str(tmp_path / "emb.bin"),
                          "--output-bias", str(tmp_path / "bias.bin"))
        assert code == 0
        for chain, ra in (("tm.txt", "translation_matrix.txt"), ("emb.bin", "init_emb.bin"),
                          ("bias.bin", "init_bias.bin")):
            assert (tmp_path / chain).read_bytes() == (work / ra).read_bytes(), chain

    @pytest.mark.parametrize("flag", ["--codes", "--corpus"])
    def test_subword_vectors_takes_codes_and_corpus_together(self, bundle, capsys, tmp_path,
                                                             flag):
        _, paths = bundle
        (tmp_path / "w.vec").write_text("1 2\na 1 2\n")
        (tmp_path / "v.txt").write_text("<pad>\n<unk>\n<mask>\n<s>\n</s>\na\n")
        (tmp_path / "codes.txt").write_text("a b\n")
        given = {"--codes": str(tmp_path / "codes.txt"), "--corpus": paths["en_train.txt"]}
        code, out = run_cli(capsys, "subword-vectors", "--vectors", str(tmp_path / "w.vec"),
                            "--vocab", str(tmp_path / "v.txt"), flag, given[flag],
                            "--output", str(tmp_path / "out.vec"))
        assert code == 1
        assert out == {"status": "error", "stage": "subword-vectors", "code": "invalid_input",
                       "message": "BPE codes and a corpus go together: give both or neither"}
        assert not (tmp_path / "out.vec").exists()

    def test_init_embeddings_rejects_a_negative_seed_with_every_row_covered(
            self, capsys, tmp_path):
        from langxfer.corpus import Vocabulary
        from langxfer.tiny_mlm import ModelConfig, init_model, save_checkpoint

        vocab = Vocabulary.from_tokens(["a", "b"])
        model = init_model(ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=16),
                           vocab, Vocabulary.from_tokens([]), 0)
        save_checkpoint(model, tmp_path / "ck", step=0)
        Vocabulary.from_tokens(["x", "y"]).save(tmp_path / "vfg.txt")
        (tmp_path / "tm.txt").write_text("x a:1\ny b:0.5 a:0.5\n")
        code, out = run_cli(capsys, "init-embeddings",
                            "--translation-matrix", str(tmp_path / "tm.txt"),
                            "--checkpoint", str(tmp_path / "ck"),
                            "--foreign-vocab", str(tmp_path / "vfg.txt"), "--seed", "-1",
                            "--output-emb", str(tmp_path / "emb.bin"),
                            "--output-bias", str(tmp_path / "bias.bin"))
        assert code == 1
        assert out == {"status": "error", "stage": "init-embeddings", "code": "invalid_input",
                       "message": "seed must be >= 0, got -1"}
        assert not (tmp_path / "emb.bin").exists() and not (tmp_path / "bias.bin").exists()
        (tmp_path / "text.txt").write_text("a b a\n" * 8)
        code, out = run_cli(capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
                            "--corpus", str(tmp_path / "text.txt"), "--language", "en",
                            "--seed", "-1")
        assert code == 1
        assert out == {"status": "error", "stage": "eval", "code": "invalid_input",
                       "message": "seed must be >= 0, got -1"}
        code, out = run_cli(capsys, "init-embeddings",
                            "--translation-matrix", str(tmp_path / "tm.txt"),
                            "--checkpoint", str(tmp_path / "ck"),
                            "--foreign-vocab", str(tmp_path / "vfg.txt"),
                            "--output-emb", str(tmp_path / "emb.bin"),
                            "--output-bias", str(tmp_path / "bias.bin"))
        assert code == 0 and out["covered"] == 2 and out["fallback"] == 0

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


def _edited(text, edit):
    """`edit` applied to JSON text: raw bytes replace it, a function edits its value."""
    return edit if isinstance(edit, bytes) else json.dumps(edit(json.loads(text))).encode()


def _corrupt_manifest(ck, edit):
    (ck / "manifest.json").write_bytes(_edited((ck / "manifest.json").read_bytes(), edit))


def _corrupt_header(path, edit):
    """Edit the first line: a binary file's header, or a vocabulary's first token."""
    header, data = path.read_bytes().split(b"\n", 1)
    path.write_bytes(_edited(header, edit) + b"\n" + data)


MALFORMED = {
    "manifest-without-config": ("ck", lambda m: {"step": 1},
                                "ck/manifest.json: manifest lacks 'config', 'params'"),
    "manifest-not-an-object": ("ck", lambda m: [m],
                               "ck/manifest.json: manifest is not a JSON object"),
    "unknown-config-key": ("ck", lambda m: {**m, "config": {**m["config"], "width": 3}},
                           "ck/manifest.json: config keys that ModelConfig does not have: "
                           "['width']"),
    **{f"config-{key}-{value}": (
        "ck", lambda m, key=key, value=value: {**m, "config": {**m["config"], key: value}},
        f"ck/manifest.json: config: {message}")
       for key, value, message in [
           ("dim", "x", "dim must be an int, got 'x'"),
           ("dim", True, "dim must be an int, got True"),
           ("ln_eps", "x", "ln_eps must be a float, got 'x'"),
           ("norm", 5, "unknown norm: 5"),
           ("layers", -1, "layers must be >= 0, got -1"),
           ("ln_eps", float("nan"), "ln_eps must be > 0, got nan"),
           ("ln_eps", -1, "ln_eps must be > 0, got -1"),
       ]},
    "param-entry-without-file": (
        "ck", lambda m: {**m, "params": {**m["params"], "emb_en": {"shape": [7, 8]}}},
        "ck/manifest.json: params entry 'emb_en' lacks 'file'"),
    "header-without-row-count": ("e.bin", lambda h: {k: v for k, v in h.items()
                                                     if k != "row_count"},
                                 "e.bin: binary header lacks 'row_count'"),
    "header-not-an-object": ("e.bin", lambda h: [1, 2],
                             "e.bin: binary header is not a JSON object"),
    "header-sizes-disagree": ("e.bin", lambda h: {**h, "row_count": "7"},
                              "e.bin: binary header sizes are not counts that agree: "
                              "row_count 7, dim 8, shape [7, 8]"),
    "param-header-without-dim": ("ck/emb_en.bin", lambda h: {k: v for k, v in h.items()
                                                            if k != "dim"},
                                 "ck/emb_en.bin: binary header lacks 'dim'"),
    # raw bytes in place of the JSON: text that does not parse, or is not UTF-8
    "manifest-not-json": ("ck", b'{"step": 0,', "ck/manifest.json: manifest is not a JSON object"),
    "manifest-not-utf8": ("ck", b"\xff{}", "ck/manifest.json: manifest is not a JSON object"),
    "header-not-json": ("e.bin", b"float32 7 8", "e.bin: binary header is not a JSON object"),
    "param-header-not-json": ("ck/emb_en.bin", b"",
                              "ck/emb_en.bin: binary header is not a JSON object"),
    "vocab-without-specials": ("ck/vocab_en.txt", b"a",
                               "ck/vocab_en.txt: vocabulary must start with the special "
                               "tokens ('<pad>', '<unk>', '<mask>', '<s>', '</s>')"),
    "vocab-duplicate": ("ck/vocab_fg.txt", b"<pad>\n<unk>\n<mask>\n<s>\n</s>\na",
                        "ck/vocab_fg.txt: duplicate tokens in vocabulary: "
                        "['<unk>', '<mask>', '<s>', '</s>', 'a']"),
}


class TestMalformedArtifacts:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_checkpoint_or_header_is_the_json_error(self, bundle, capsys, tmp_path,
                                                             case):
        from langxfer.corpus import Vocabulary
        from langxfer.embeddings import write_array
        from langxfer.tiny_mlm import ModelConfig, init_model, save_checkpoint

        _, paths = bundle
        vocab = Vocabulary.from_tokens(["a", "b"])
        model = init_model(ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=16),
                           vocab, vocab, 0)
        save_checkpoint(model, tmp_path / "ck", step=0)
        write_array(tmp_path / "e.bin", np.zeros((7, 8), dtype=np.float32),
                    tokens=vocab.tokens)
        target, edit, message = MALFORMED[case]
        if target == "ck":
            _corrupt_manifest(tmp_path / "ck", edit)
        else:
            _corrupt_header(tmp_path / target, edit)
        if target == "e.bin":
            argv = ["transfer", "--checkpoint", str(tmp_path / "ck"),
                    "--init-emb", str(tmp_path / "e.bin"), "--en-train", paths["en_train.txt"],
                    "--fg-train", paths["fg_train.txt"], "--out-dir", str(tmp_path / "run")]
        else:
            argv = ["eval", "--checkpoint", str(tmp_path / "ck"),
                    "--corpus", paths["en_heldout.txt"], "--language", "en"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        out = json.loads(captured.out)
        assert (out["status"], out["stage"], out["code"]) == ("error", argv[0], "invalid_input")
        assert out["message"] == f"{tmp_path}/{message}"
        assert not (tmp_path / "run").exists()


class TestTransferInputs:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        """A checkpoint `ck` of max_len 16 and its init embeddings `e.bin`."""
        from langxfer.corpus import Vocabulary
        from langxfer.embeddings import write_array
        from langxfer.tiny_mlm import ModelConfig, init_model, save_checkpoint

        vocab = Vocabulary.from_tokens(["a", "b"])
        model = init_model(ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=16),
                           vocab, vocab, 0)
        save_checkpoint(model, tmp_path / "ck", step=0)
        write_array(tmp_path / "e.bin", np.zeros((7, 8), dtype=np.float32),
                    tokens=vocab.tokens)

    def transfer(self, capsys, tmp_path, paths, *extra):
        code, out = run_cli(capsys, "transfer", "--checkpoint", str(tmp_path / "ck"),
                            "--init-emb", str(tmp_path / "e.bin"),
                            "--en-train", paths["en_train.txt"],
                            "--fg-train", paths["fg_train.txt"],
                            "--out-dir", str(tmp_path / "run"), *extra)
        assert code == 1 and not (tmp_path / "run").exists()
        assert (out["status"], out["stage"], out["code"]) == ("error", "transfer",
                                                              "invalid_input")
        return out["message"]

    def test_seq_len_past_the_model_max_len(self, bundle, artifacts, capsys, tmp_path):
        (tmp_path / "t.cfg").write_text("seq_len = 17\n")
        assert self.transfer(capsys, tmp_path, bundle[1], "--config",
                             str(tmp_path / "t.cfg")) == "seq_len exceeds the model's max_len"

    def test_truncated_init_emb(self, bundle, artifacts, capsys, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(path.read_bytes()[:-4])
        assert self.transfer(capsys, tmp_path, bundle[1]) == f"{path}: truncated binary data"


@pytest.mark.parametrize("header", ["x 3", "1 -3", "3"])
def test_vec_header_that_is_not_two_counts_is_the_json_error(capsys, tmp_path, header):
    (tmp_path / "fg.vec").write_text(f"{header}\na 1 2 3\n")
    (tmp_path / "en.vec").write_text("1 3\nb 1 2 3\n")
    code, out = run_cli(capsys, "translation-matrix", "--foreign-vectors",
                        str(tmp_path / "fg.vec"), "--english-vectors", str(tmp_path / "en.vec"),
                        "--output", str(tmp_path / "tm.txt"))
    assert code == 1
    assert out == {"status": "error", "stage": "translation-matrix", "code": "invalid_input",
                   "message": f"{tmp_path / 'fg.vec'}: expected 'row_count dim' header"}


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


    def test_vocab_rejects_max_size_within_the_specials(self, bundle, capsys, tmp_path):
        _, paths = bundle
        code, out = run_cli(capsys, "vocab", "--input", paths["en_train.txt"],
                            "--max-size", "3", "--output", str(tmp_path / "v.txt"))
        assert code == 1
        assert out == {"status": "error", "stage": "vocab", "code": "invalid_input",
                       "message": "max_size must exceed the 5 special tokens, got 3"}
        assert not (tmp_path / "v.txt").exists()


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
        ("pretrain", "adam_eps = -1\n", "adam_eps must be > 0, got -1.0"),
        ("transfer", "adam_eps = nan\n", "adam_eps must be > 0, got nan"),
        ("pretrain", "adam_beta1 = 1.5\n", "adam_beta1 must be in [0, 1), got 1.5"),
        ("transfer", "adam_beta1 = 1\n", "adam_beta1 must be in [0, 1), got 1.0"),
        ("pretrain", "adam_beta2 = nan\n", "adam_beta2 must be in [0, 1), got nan"),
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

    def test_cipher_fixture_writes_the_library_bundle_with_generator_flags(
            self, capsys, tmp_path):
        from langxfer.cipher import generate_cipher_fixture, write_fixture

        code, _ = run_cli(capsys, "cipher-fixture", "--vocab-size", "60",
                          "--sentences", "8000", "--heldout", "300",
                          "--bigram-alpha", "0.08", "--out-dir", str(tmp_path / "cli"))
        assert code == 0
        paths = write_fixture(
            generate_cipher_fixture(vocab_size=60, sentences=8000, seed=0, heldout=300,
                                    bigram_alpha=0.08),
            tmp_path / "lib",
        )
        assert len(paths) > 4
        for name, path in paths.items():
            assert (tmp_path / "cli" / name).read_bytes() == Path(path).read_bytes(), name

    @pytest.mark.parametrize("flag,value,message", [
        ("--bigram-alpha", "nan", "bigram_alpha must be > 0, got nan"),
        ("--sentences", "-4", "sentences must be >= 1, got -4"),
        ("--sentences", "0", "sentences must be >= 1, got 0"),
        ("--heldout", "-3", "heldout must be >= 0, got -3"),
        ("--split-prob", "1.5", "split_prob must be in [0, 1], got 1.5"),
        ("--vocab-size", "310676", "vocab_size must be <= 310675, got 310676"),
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


# Every subcommand's flags in declaration order, as (option, dest, type,
# default, required, choices, switch). The order is part of the contract:
# argparse lists missing required flags in it, and the JSON error carries
# that message. A default of argparse.SUPPRESS reads as None: either way a
# flag left out is not passed on.
S, REQ = None, True  # a string flag's type; a required flag
PARSER_TABLE = {
    "bpe": [
        ("--input", "input", S, None, REQ, None, False),
        ("--num-codes", "num_codes", int, None, REQ, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "vocab": [
        ("--input", "input", S, None, REQ, None, False),
        ("--max-size", "max_size", int, None, REQ, None, False),
        ("--codes", "codes", S, None, False, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "align-vectors": [
        ("--foreign-vectors", "foreign_vectors", S, None, REQ, None, False),
        ("--english-vectors", "english_vectors", S, None, REQ, None, False),
        ("--dictionary", "dictionary", S, None, False, None, False),
        ("--normalize", "normalize", S, False, False, None, True),
        ("--limit", "limit", int, 50000, False, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "ibm1": [
        ("--foreign", "foreign", S, None, False, None, False),
        ("--english", "english", S, None, False, None, False),
        ("--parallel", "parallel", S, None, False, None, False),
        ("--foreign-vocab", "foreign_vocab", S, None, REQ, None, False),
        ("--english-vocab", "english_vocab", S, None, REQ, None, False),
        ("--foreign-codes", "foreign_codes", S, None, False, None, False),
        ("--english-codes", "english_codes", S, None, False, None, False),
        ("--iterations", "iterations", int, 10, False, None, False),
        ("--prune", "prune", float, 1e-4, False, None, False),
        ("--subsample", "subsample", int, None, False, None, False),
        ("--seed", "seed", int, 0, False, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "parse-fastalign": [
        ("--foreign", "foreign", S, None, False, None, False),
        ("--english", "english", S, None, False, None, False),
        ("--parallel", "parallel", S, None, False, None, False),
        ("--foreign-vocab", "foreign_vocab", S, None, REQ, None, False),
        ("--english-vocab", "english_vocab", S, None, REQ, None, False),
        ("--foreign-codes", "foreign_codes", S, None, False, None, False),
        ("--english-codes", "english_codes", S, None, False, None, False),
        ("--alignments", "alignments", S, None, REQ, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "subword-vectors": [
        ("--vectors", "vectors", S, None, REQ, None, False),
        ("--corpus", "corpus", S, None, False, None, False),
        ("--vocab", "vocab", S, None, REQ, None, False),
        ("--codes", "codes", S, None, False, None, False),
        ("--limit", "limit", int, 50000, False, None, False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "translation-matrix": [
        ("--foreign-vectors", "foreign_vectors", S, None, REQ, None, False),
        ("--english-vectors", "english_vectors", S, None, REQ, None, False),
        ("--mode", "mode", S, "sparsemax", False, ("sparsemax", "softmax"), False),
        ("--output", "output", S, None, REQ, None, False),
    ],
    "init-embeddings": [
        ("--translation-matrix", "translation_matrix", S, None, REQ, None, False),
        ("--checkpoint", "checkpoint", S, None, REQ, None, False),
        ("--foreign-vocab", "foreign_vocab", S, None, REQ, None, False),
        ("--seed", "seed", int, 0, False, None, False),
        ("--output-emb", "output_emb", S, None, REQ, None, False),
        ("--output-bias", "output_bias", S, None, REQ, None, False),
    ],
    "pretrain": [
        ("--corpus", "corpus", S, None, REQ, None, False),
        ("--heldout", "heldout", S, None, False, None, False),
        ("--vocab", "vocab", S, None, REQ, None, False),
        ("--codes", "codes", S, None, False, None, False),
        ("--dim", "dim", int, 64, False, None, False),
        ("--layers", "layers", int, 2, False, None, False),
        ("--heads", "heads", int, 4, False, None, False),
        ("--ffn-dim", "ffn_dim", int, 256, False, None, False),
        ("--out-dir", "out_dir", S, None, REQ, None, False),
        ("--config", "config", S, None, False, None, False),
        ("--updates", "updates", int, None, False, None, False),
        ("--seed", "seed", int, None, False, None, False),
    ],
    "transfer": [
        ("--checkpoint", "checkpoint", S, None, REQ, None, False),
        ("--init-emb", "init_emb", S, None, REQ, None, False),
        ("--init-bias", "init_bias", S, None, False, None, False),
        ("--en-train", "en_train", S, None, REQ, None, False),
        ("--fg-train", "fg_train", S, None, REQ, None, False),
        ("--en-heldout", "en_heldout", S, None, False, None, False),
        ("--fg-heldout", "fg_heldout", S, None, False, None, False),
        ("--codes-en", "codes_en", S, None, False, None, False),
        ("--codes-fg", "codes_fg", S, None, False, None, False),
        ("--out-dir", "out_dir", S, None, REQ, None, False),
        ("--config", "config", S, None, False, None, False),
        ("--updates", "updates", int, None, False, None, False),
        ("--seed", "seed", int, None, False, None, False),
    ],
    "eval": [
        ("--checkpoint", "checkpoint", S, None, REQ, None, False),
        ("--corpus", "corpus", S, None, REQ, None, False),
        ("--language", "language", S, None, REQ, ("en", "fg"), False),
        ("--codes", "codes", S, None, False, None, False),
        ("--seed", "seed", int, 0, False, None, False),
        ("--mask-prob", "mask_prob", float, 0.15, False, None, False),
    ],
    "cipher-fixture": [
        ("--vocab-size", "vocab_size", int, 120, False, None, False),
        ("--sentences", "sentences", int, 3000, False, None, False),
        ("--heldout", "heldout", int, 200, False, None, False),
        ("--seed", "seed", int, 0, False, None, False),
        ("--dict-dropout", "dict_dropout", float, 0.0, False, None, False),
        ("--split-prob", "split_prob", float, 0.0, False, None, False),
        ("--bigram-alpha", "bigram_alpha", float, None, False, None, False),
        ("--route", "route", S, "parallel", False, ("parallel", "dictionary"), False),
        ("--out-dir", "out_dir", S, None, REQ, None, False),
    ],
    "run-all": [
        ("--config", "config", S, None, REQ, None, False),
    ],
}


def test_parser_flags_match_the_table():
    """Each subcommand's flags, in order, with their types, defaults,
    required-ness, choices and switches; help text is left out."""
    commands = build_parser().commands
    assert list(commands) == list(PARSER_TABLE)
    for name, parser in commands.items():
        rows = [(a.option_strings[0], a.dest, a.type,
                 None if a.default == argparse.SUPPRESS else a.default, a.required,
                 tuple(a.choices) if a.choices else None, a.nargs == 0)
                for a in parser._actions if a.option_strings and a.dest != "help"]
        assert rows == PARSER_TABLE[name], name


@pytest.mark.parametrize("command", ["pretrain", "transfer"])
def test_nan_grad_clip_in_a_training_config_is_the_json_error(bundle, capsys, tmp_path,
                                                               command):
    _, paths = bundle
    (tmp_path / "train.cfg").write_text("grad_clip = nan\n")
    if command == "pretrain":
        args = ["--corpus", paths["en_train.txt"], "--vocab", str(tmp_path / "v.txt")]
    else:
        args = ["--checkpoint", str(tmp_path / "ck"), "--init-emb", str(tmp_path / "e.bin"),
                "--en-train", paths["en_train.txt"], "--fg-train", paths["fg_train.txt"]]
    code, out = run_cli(capsys, command, *args, "--config", str(tmp_path / "train.cfg"),
                        "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert out == {"status": "error", "stage": command, "code": "invalid_input",
                   "message": "grad_clip must not be NaN (0 or less means no clipping)"}
    assert not (tmp_path / "run").exists()
