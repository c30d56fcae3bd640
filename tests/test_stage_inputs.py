"""Each run_all stage is keyed by exactly the files it reads, and a config
is checked (sizes, then input files) before any stage writes an output."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from langxfer.cipher import generate_cipher_fixture, write_fixture
from langxfer.pipeline import PipelineConfig, StageCache, load_config, run_all, write_config

TINY = dict(dim=8, layers=1, heads=2, ffn_dim=16, seq_len=8, batch_size=4,
            pretrain_updates=4, pretrain_warmup=2, total_updates=4, warmup_updates=2,
            freeze_phase_updates=2, checkpoint_every=4, seed=1)
TRANSLATION_PARAMS = ("route", "tokenization", "align_pairs", "ibm1_iterations",
                      "ibm1_prune", "word_limit", "seed")


def write_vec(path, table):
    dim = len(next(iter(table.values())))
    lines = [f"{len(table)} {dim}"]
    lines += [w + " " + " ".join(f"{x:.6f}" for x in v) for w, v in table.items()]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def letters(tmp_path):
    """A corpus whose 0-merge BPE vocabulary of 5 subwords survives a change
    of its word counts, and small word vectors for both sides."""
    text = "ab ac ad aa aa aa\n" * 30 + "b c d\n" * 5
    for name in ("en_train", "fg_train", "en_heldout", "fg_heldout"):
        (tmp_path / f"{name}.txt").write_text(text)
    rng = np.random.default_rng(4)
    words = ["ab", "ac", "ad", "aa", "b", "c", "d"]
    # small norms keep the sparsemax rows spread over several subwords
    en = {w: rng.normal(0, 0.2, 4) for w in words}
    write_vec(tmp_path / "en.vec", en)
    write_vec(tmp_path / "fg.vec", {w: v[::-1] + rng.normal(0, 0.01, 4) for w, v in en.items()})
    return tmp_path


def letters_config(root, out, **overrides):
    return PipelineConfig(
        out_dir=str(out), **{n: str(root / f"{n}.txt") for n in
                             ("en_train", "en_heldout", "fg_train", "fg_heldout")},
        **{**TINY, "route": "vectors", "en_vectors": str(root / "en.vec"),
           "fg_vectors": str(root / "fg.vec"), "tokenization": "bpe", "bpe_codes": 0,
           "vocab_size_en": 10, "vocab_size_fg": 10, **overrides})


class TestVectorsBpeKey:
    def test_changed_corpus_reruns_translation(self, letters):
        out = letters / "out"
        run_all(letters_config(letters, out))
        before = {n: (out / n).read_bytes() for n in ("vocab_en.txt", "codes_en.txt")}
        with open(letters / "en_train.txt", "a") as fh:
            fh.write("ab ab ab ab ab\n")
        again = run_all(letters_config(letters, out))
        # the tokenizer files did not change; only the corpus's word counts did
        assert {n: (out / n).read_bytes() for n in before} == before
        assert again["stages"]["translation"] == "ran"
        fresh = letters / "fresh"
        run_all(letters_config(letters, fresh))
        for name in ("translation_matrix.txt", "init_emb.bin", "transfer/evals.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def expected_translation_inputs(cfg, work):
    """The files the translation key hashes on each route, in key order."""
    vocabs = [work / "vocab_en.txt", work / "vocab_fg.txt"]
    codes = [work / "codes_en.txt", work / "codes_fg.txt"] if cfg.tokenization == "bpe" else []
    if cfg.route == "parallel":
        return vocabs + [cfg.fg_train, cfg.en_train] + codes
    if cfg.route == "dictionary":
        return vocabs + [cfg.dictionary]
    files = vocabs + [cfg.en_vectors, cfg.fg_vectors]
    files += [cfg.seed_dictionary] if cfg.seed_dictionary else []
    return files + ([cfg.en_train, cfg.fg_train] + codes if codes else [])


class TestTranslationKeys:
    @pytest.mark.parametrize("route,extra", [
        ("parallel", {}),
        ("parallel", {"tokenization": "bpe", "bpe_codes": 2}),
        ("dictionary", {"dictionary": "dict.tsv"}),
        ("dictionary", {"dictionary": "dict.tsv", "tokenization": "bpe", "bpe_codes": 2}),
        ("vectors", {"tokenization": "word"}),
        ("vectors", {"tokenization": "word", "seed_dictionary": "seed.tsv"}),
        ("vectors", {}),
        ("vectors", {"seed_dictionary": "seed.tsv"}),
    ])
    @pytest.mark.filterwarnings("ignore:.*out-of-vocabulary entries:UserWarning")
    def test_key_hashes_the_route_files(self, letters, route, extra):
        (letters / "dict.tsv").write_text("ab\tab\nac\tac\na\ta\nb</w>\tb</w>\n")
        (letters / "seed.tsv").write_text("ab\tab\nad\tad\naa\taa\nac\tac\nb\tb\n")
        extra = {k: str(letters / v) if k in ("dictionary", "seed_dictionary") else v
                 for k, v in extra.items()}
        cfg = letters_config(letters, letters / "out", route=route, **extra)
        run_all(cfg)
        work = letters / "out"
        inputs = [Path(p) for p in expected_translation_inputs(cfg, work)]
        params = {n: getattr(cfg, n) for n in TRANSLATION_PARAMS}
        key = StageCache(work).key("translation", params, inputs)
        assert json.loads((work / "cache.json").read_text())["translation"]["key"] == key


class TestInputsCheckedFirst:
    @pytest.mark.parametrize("field", ["fg_heldout", "en_vectors", "fg_vectors",
                                       "seed_dictionary"])
    def test_missing_route_file_fails_before_any_output(self, letters, field):
        cfg = letters_config(letters, letters / "out", seed_dictionary=str(letters / "s.tsv"))
        (letters / "s.tsv").write_text("ab\tab\n")
        missing = str(letters / "missing.txt")
        cfg = dataclasses.replace(cfg, **{field: missing})
        with pytest.raises(FileNotFoundError, match=f"input file not found: {missing}"):
            run_all(cfg)
        assert not (letters / "out").exists()

    def test_dictionary_route_needs_its_dictionary(self, letters):
        cfg = letters_config(letters, letters / "out", route="dictionary")
        with pytest.raises(FileNotFoundError, match="input file not found"):
            run_all(cfg)
        assert not (letters / "out").exists()

    def test_unused_route_files_are_not_required(self, tmp_path):
        fx = generate_cipher_fixture(vocab_size=20, sentences=60, seed=3, heldout=10)
        paths = write_fixture(fx, tmp_path / "fx")
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "out"), en_train=paths["en_train.txt"],
            en_heldout=paths["en_heldout.txt"], fg_train=paths["fg_train.txt"],
            fg_heldout=paths["fg_heldout.txt"], en_vectors="/no/such.vec",
            dictionary="/no/such.tsv", **TINY)
        assert run_all(cfg)["stages"]["transfer"] == "ran"


# every PipelineConfig field and the stage keys that hash it as a parameter;
# the fields that name files are hashed by content, as inputs
KEYED_BY = {
    **{n: set() for n in ("out_dir", "en_train", "en_heldout", "fg_train", "fg_heldout",
                          "dictionary", "en_vectors", "fg_vectors", "seed_dictionary")},
    "route": {"translation"},
    "tokenization": {"vocab", "pack", "translation"},
    **{n: {"vocab"} for n in ("bpe_codes", "vocab_size_en", "vocab_size_fg")},
    **{n: {"translation"} for n in ("word_limit", "align_pairs", "ibm1_iterations",
                                    "ibm1_prune")},
    **{n: {"pretrain"} for n in ("dim", "layers", "heads", "ffn_dim", "norm",
                                 "pretrain_updates", "pretrain_warmup", "pretrain_peak_lr")},
    **{n: {"transfer"} for n in ("total_updates", "warmup_updates", "peak_lr",
                                 "freeze_phase_updates", "checkpoint_every")},
    **{n: {"pretrain", "transfer"} for n in ("batch_size", "mask_prob", "grad_clip")},
    "seq_len": {"pack", "pretrain", "transfer"},
    "seed": {"pretrain", "translation", "init", "transfer"},
}
FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)]


def fields_read(cfg, method):
    """The PipelineConfig fields that `cfg.method()` reads."""
    reads = set()

    class Recording(PipelineConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return object.__getattribute__(self, name)

    recording = Recording(**dataclasses.asdict(cfg))
    reads.clear()
    getattr(recording, method)()
    return reads & set(FIELDS)


class TestStageParams:
    def test_each_field_is_hashed_by_its_stages(self, letters, monkeypatch):
        hashed = {}
        real_key = StageCache.key

        def spy(self, stage, params, inputs):
            hashed[stage] = params
            return real_key(self, stage, params, inputs)

        monkeypatch.setattr(StageCache, "key", spy)
        cfg = letters_config(letters, letters / "out", grad_clip=0.0, norm="post")
        run_all(cfg)
        assert set(KEYED_BY) == set(FIELDS)
        for name in FIELDS:
            assert {s for s, params in hashed.items() if name in params} == KEYED_BY[name], name
        for params in hashed.values():  # the config's values, before any conversion
            assert params == {n: getattr(cfg, n) for n in params}
        # a stage key hashes exactly the fields its sub-configs read
        assert set(hashed["pretrain"]) == (fields_read(cfg, "pretrain_config")
                                           | fields_read(cfg, "model_config"))
        assert set(hashed["transfer"]) == fields_read(cfg, "training_config")


NUMERIC = {f.name: f.type for f in dataclasses.fields(PipelineConfig)
           if f.type in ("int", "float")}


@st.composite
def numeric_overrides(draw):
    names = draw(st.lists(st.sampled_from(sorted(NUMERIC)), min_size=1, unique=True))
    return {n: draw(st.integers(-3, 3) if NUMERIC[n] == "int"
                    else st.floats(-2.0, 2.0) | st.sampled_from([0.0, -1.0]))
            for n in names}


class TestConfigFuzz:
    def test_fuzzed_fields_cover_every_number(self):
        assert {"dim", "heads", "seed", "batch_size", "mask_prob", "peak_lr",
                "ibm1_prune", "grad_clip"} <= set(NUMERIC)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(overrides=numeric_overrides())
    def test_load_config_returns_or_raises_value_error(self, tmp_path, overrides):
        base = PipelineConfig(out_dir="o", en_train="a", en_heldout="b", fg_train="c",
                              fg_heldout="d", **TINY)
        path = tmp_path / "fuzz.cfg"
        write_config(base, path)
        with open(path, "a") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in overrides.items())
        try:
            cfg = load_config(path)
        except ValueError:
            return
        assert isinstance(cfg, PipelineConfig)
        for name, value in overrides.items():
            assert getattr(cfg, name) == value
