"""The benchmark workloads: seeded set-up, a timed body, and output checks.

Each workload is a batch job run by one client in a closed loop: a rep
starts only after the previous one has ended. `setup` generates the inputs
from the seed and builds the starting model; `rep` runs the body, returns
the timed seconds and the quality figures, and appends a message to
`failures` for every check that does not hold. The benchmark times only its
own top-level calls into langxfer, each through `clock` (calibration.Clock),
which gives it a span and rescales it to a quiet core's speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from langxfer import (
    cipher,
    corpus,
    embeddings,
    initializer,
    pipeline,
    tiny_mlm,
    trainer,
    translation,
    word_alignment,
)
from langxfer.corpus import NUM_SPECIALS

V8K = 8000  # vocabulary size of the V=8000 workloads, specials included
MODEL = dict(dim=48, layers=2, heads=4, ffn_dim=192)
SEQ_LEN = 32
BATCH = 16  # 8 english + 8 foreign rows per update
TRANSFER_UPDATES = 20
IBM1_PAIRS, IBM1_SENTENCES, IBM1_ITERATIONS = 10_000, 12_000, 2
VEC_DIM, VEC_ANCHORS, VEC_NOISE = 300, 600, 0.1
CIPHER_SCHEDULE = dict(  # the standard schedule's ratios at 1/100 of its updates
    pretrain_updates=30, pretrain_warmup=3, total_updates=50, warmup_updates=4,
    freeze_phase_updates=5, checkpoint_every=25, ibm1_iterations=4,
)
MIN_TM_ACCURACY = 0.85
CIPHER_LOSS_GAP = 0.1  # nats; a perfect cipher init scores like english
ZERO_SHOT_TOLERANCE = 1e-6
STOCHASTIC_TOLERANCE = 1e-6


@dataclass
class Setup:
    files: list[Path]
    arrays: dict[str, np.ndarray]
    data: dict = field(default_factory=dict)

    def input_hash(self) -> str:
        return inputs.hash_inputs(self.files, self.arrays)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _finite(*values: float) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _read_tm_file(path: Path) -> dict[str, list[tuple[str, float]]]:
    """Parse a translation-matrix text file independently of langxfer."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        token, *entries = line.split(" ")
        row = []
        for entry in entries:
            src, _, weight = entry.rpartition(":")
            row.append((src, float(weight)))
        rows[token] = row
    return rows


def check_tm_file(path: Path, truth: list[tuple[str, str]], failures: list[str]) -> float:
    """Rows stochastic and positive; returns the argmax accuracy on `truth`.

    `truth` lists (english word, foreign word) pairs; a pair counts when
    the foreign word's row puts its largest weight on the english word.
    """
    rows = _read_tm_file(path)
    for token, row in rows.items():
        if not row:
            continue
        total = math.fsum(w for _, w in row)
        if abs(total - 1.0) > STOCHASTIC_TOLERANCE or min(w for _, w in row) <= 0:
            failures.append(f"translation row {token!r} is not stochastic (sum {total})")
            break
    hits = total = 0
    for en_w, fg_w in truth:
        row = rows.get(fg_w)
        if row is None:
            continue
        total += 1
        hits += bool(row) and max(row, key=lambda e: e[1])[0] == en_w
    _check(failures, total > 0, "no ground-truth word is in the translation matrix")
    return hits / max(total, 1)


class Workload:
    name: str
    expected: tuple[str, ...]  # traced boundaries the body must call

    def setup(self, seed: int, work: Path) -> Setup:
        raise NotImplementedError

    def verify(self, s: Setup, seed: int, failures: list[str]) -> dict:
        """Checks on the set-up itself, run once per process, untimed."""
        return {}

    def rep(self, s: Setup, seed: int, work: Path, tracer, clock,
            failures: list[str]) -> tuple[float, dict]:
        """One batch job: (timed seconds, figures), failed checks in `failures`."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CipherPipeline(Workload):
    name = "cipher-pipeline"
    expected = (
        "pipeline.run_all", "pipeline.StageCache.key", "corpus.build_vocab",
        "trainer.pack_sequences", "trainer.pretrain", "trainer.run_transfer",
        "tiny_mlm.backward", "tiny_mlm.make_masked_batch", "tiny_mlm.mlm_loss",
        "tiny_mlm.save_checkpoint", "tiny_mlm.load_checkpoint", "trainer.adam_step",
        "trainer.clip_gradients", "trainer.balanced_batch", "trainer.evaluate_mlm",
        "corpus.read_parallel", "word_alignment.subsample", "word_alignment.train_ibm1",
        "word_alignment.translation_matrix_from_alignment",
        "translation.write_translation_matrix", "translation.read_translation_matrix",
        "initializer.init_foreign_embeddings", "initializer.init_foreign_bias",
        "cipher.generate_cipher_fixture",
    )

    def setup(self, seed, work):
        fx = cipher.generate_cipher_fixture(
            vocab_size=60, sentences=8000, seed=seed, heldout=300, bigram_alpha=0.08,
        )
        paths = cipher.write_fixture(fx, work / "bundle")
        names = ("en_train.txt", "en_heldout.txt", "fg_train.txt", "fg_heldout.txt")
        return Setup([Path(paths[n]) for n in names], {},
                     {"paths": paths, "dictionary": fx.dictionary})

    def rep(self, s, seed, work, tracer, clock, failures):
        p = s.data["paths"]
        cfg = pipeline.PipelineConfig(
            out_dir=str(work / "run"), en_train=p["en_train.txt"],
            en_heldout=p["en_heldout.txt"], fg_train=p["fg_train.txt"],
            fg_heldout=p["fg_heldout.txt"], route="parallel", tokenization="word",
            batch_size=BATCH, seq_len=SEQ_LEN, seed=seed, **MODEL, **CIPHER_SCHEDULE,
        )
        # cut at each stage's cache lookup, so that no piece is seconds long
        cold, seconds = clock("bench.run_all.cold", lambda: pipeline.run_all(cfg),
                              marks=((pipeline.StageCache, "key"),))
        with tracer.span("bench.run_all.warm"):
            warm = pipeline.run_all(cfg)
        with tracer.paused():
            _check(failures, all(v == "ran" for v in cold["stages"].values()),
                   f"cold run_all did not run every stage: {cold['stages']}")
            _check(failures, all(v == "cached" for v in warm["stages"].values()),
                   f"warm run_all did not serve every stage from cache: {warm['stages']}")
            fg_loss, en_loss = cold["foreign_loss_final"], cold["english_loss_after"]
            _check(failures, _finite(fg_loss, en_loss, cold["foreign_loss_step0"]),
                   "non-finite held-out loss")
            _check(failures, abs(fg_loss - en_loss) <= CIPHER_LOSS_GAP,
                   f"the cipher did not transfer: foreign {fg_loss} vs english {en_loss}")
            acc = check_tm_file(work / "run" / "translation_matrix.txt",
                                s.data["dictionary"], failures)
            _check(failures, acc >= MIN_TM_ACCURACY, f"tm_acc_parallel {acc} too low")
        return seconds, {"fg_eval_loss": fg_loss, "en_eval_loss": en_loss,
                         "tm_acc_parallel": acc}


# ---------------------------------------------------------------------------


def _cipher_ids(rng: np.random.Generator, v: int) -> np.ndarray:
    """Token-id map english -> foreign: specials fixed, words permuted."""
    ids = np.arange(v)
    ids[NUM_SPECIALS:] = NUM_SPECIALS + rng.permutation(v - NUM_SPECIALS)
    return ids


def _transfer_config(seed: int, freeze_phase_updates: int) -> trainer.TrainingConfig:
    n = TRANSFER_UPDATES
    return trainer.TrainingConfig(
        total_updates=n, warmup_updates=n // 10, batch_size=BATCH, seq_len=SEQ_LEN,
        freeze_phase_updates=freeze_phase_updates, checkpoint_every=n, seed=seed,
    )


class TransferV8k(Workload):
    """Two run_transfer calls at V=8000 from one random starting model, then
    held-out evaluation; no alignment.

    The first call uses the embedding-only schedule, the second the joint
    one. The foreign table starts as the dictionary one-hot image of the
    english table, so before training both languages must score alike.
    """

    name = "transfer-v8k"
    expected = ("trainer.run_transfer", "trainer.balanced_batch", "tiny_mlm.backward",
                "tiny_mlm.make_masked_batch", "trainer.clip_gradients", "trainer.adam_step",
                "trainer.evaluate_mlm", "tiny_mlm.mlm_loss")

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        lang = inputs.ZipfLanguage(rng, V8K - NUM_SPECIALS)
        en_train, en_heldout = (
            trainer.pack_sequences([(sent + NUM_SPECIALS).tolist()
                                    for sent in lang.sentences(rng, n)], SEQ_LEN)
            for n in (4000, 500))
        to_fg = _cipher_ids(rng, V8K)
        fg_tokens = [""] * V8K
        for i, w in enumerate(lang.fg_of):
            fg_tokens[to_fg[NUM_SPECIALS + i]] = w
        vocab_en = corpus.Vocabulary.from_tokens(lang.en_words)
        vocab_fg = corpus.Vocabulary.from_tokens(fg_tokens[NUM_SPECIALS:])
        model = tiny_mlm.init_model(
            tiny_mlm.ModelConfig(max_len=SEQ_LEN, **MODEL), vocab_en, vocab_fg, seed)
        pairs = [(int(to_fg[j]), j) for j in range(NUM_SPECIALS, V8K)]
        tm = translation.dictionary_translation_matrix(pairs, vocab_fg, vocab_en)
        src = embeddings.EmbeddingMatrix(vocab_en, model.params["emb_en"])
        emb, _ = initializer.init_foreign_embeddings(tm, src, vocab_fg, seed)
        bias = initializer.init_foreign_bias(tm, model.params["out_bias_en"], vocab_fg)
        arrays = {"en_train": en_train, "fg_train": to_fg[en_train],
                  "en_heldout": en_heldout, "fg_heldout": to_fg[en_heldout]}
        return Setup([], arrays, {"model": model, "emb": emb, "bias": bias})

    def eval_losses(self, state, s: Setup, seed: int) -> tuple[float, float]:
        eval_seed = seed + trainer.EVAL_SEED_OFFSET
        le, _ = trainer.evaluate_mlm(state, s.arrays["en_heldout"], "en", eval_seed)
        lf, _ = trainer.evaluate_mlm(state, s.arrays["fg_heldout"], "fg", eval_seed)
        return le, lf

    def verify(self, s, seed, failures):
        """Criterion 5 at V=8000: a one-hot foreign table scores like english."""
        state = tiny_mlm.plug_foreign(s.data["model"], s.data["emb"].vocab,
                                      s.data["emb"].data, s.data["bias"])
        le, lf = self.eval_losses(state, s, seed)
        _check(failures, abs(le - lf) <= ZERO_SHOT_TOLERANCE,
               f"zero-shot losses differ: en {le} fg {lf}")
        s.data["zero_shot_fg"] = lf
        return {"zero_shot_en_loss": le, "zero_shot_fg_loss": lf}

    def rep(self, s, seed, work, tracer, clock, failures):
        model, emb, bias = s.data["model"], s.data["emb"], s.data["bias"]
        tokens = BATCH * SEQ_LEN * TRANSFER_UPDATES

        def transfer(freeze_phase_updates: int):
            return trainer.run_transfer(
                _transfer_config(seed, freeze_phase_updates), model, emb,
                s.arrays["en_train"], s.arrays["fg_train"], init_bias=bias)

        frozen, frozen_s = clock("bench.transfer.frozen", lambda: transfer(TRANSFER_UPDATES))
        joint, joint_s = clock("bench.transfer.joint", lambda: transfer(0))
        (le, lf), eval_s = clock("bench.transfer.eval",
                                 lambda: self.eval_losses(joint.state, s, seed))
        with tracer.paused():
            _check(failures, all(_finite(m[2], m[3]) for r in (frozen, joint) for m in r.metrics),
                   "non-finite training loss")
            moved = [k for k, p in frozen.state.params.items()
                     if tiny_mlm.param_group(k) in trainer.EMBEDDING_PHASE_FREEZE
                     and not np.array_equal(p, model.params[k])]
            _check(failures, not moved, f"frozen groups changed: {moved[:3]}")
            _check(failures, not np.array_equal(frozen.state.params["emb_fg"], emb.data),
                   "the foreign table did not train in the embedding-only phase")
            _check(failures, _finite(le, lf), "non-finite held-out loss")
            _check(failures, lf < s.data["zero_shot_fg"],
                   f"joint training did not lower the foreign loss "
                   f"({s.data['zero_shot_fg']} -> {lf})")
        return frozen_s + joint_s + eval_s, {
            "frozen_tokens_per_s": tokens / frozen_s, "joint_tokens_per_s": tokens / joint_s,
            "fg_eval_loss": lf, "en_eval_loss": le,
        }


# ---------------------------------------------------------------------------


class TranslateV8k(Workload):
    """Both translation routes at V=8000, from text inputs to initialised
    foreign embeddings and bias; no training.

    The parallel route aligns a Zipfian corpus and its word-substitution
    cipher with IBM-1. The vectors route maps 300-d foreign vectors, a
    planted rotation of the english ones plus noise, by Procrustes on the
    words both languages spell alike, then sparsemax. Both .vec files list
    the model vocabularies in order, so one starting model serves both.
    """

    name = "translate-v8k"
    expected = ("corpus.build_vocab", "corpus.read_parallel", "word_alignment.subsample",
                "word_alignment.train_ibm1", "word_alignment.translation_matrix_from_alignment",
                "embeddings.load_vectors", "embeddings.identical_word_dictionary",
                "embeddings.procrustes", "embeddings.align", "translation.sparsemax",
                "translation.translation_matrix_from_vectors",
                "translation.write_translation_matrix", "translation.read_translation_matrix",
                "initializer.init_foreign_embeddings", "initializer.init_foreign_bias")

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        lang = inputs.ZipfLanguage(rng, V8K - NUM_SPECIALS, anchors=VEC_ANCHORS)
        sentences = lang.sentences(rng, IBM1_SENTENCES)
        en, fg = work / "en.txt", work / "fg.txt"
        inputs.write_lines(en, lang.lines(sentences, foreign=False))
        inputs.write_lines(fg, lang.lines(sentences, foreign=True))
        vocab_en = corpus.build_vocab(corpus.iter_tokens(en), V8K)
        vocab_fg = corpus.build_vocab(corpus.iter_tokens(fg), V8K)
        en_vec, fg_vec = inputs.planted_vectors(rng, len(lang), VEC_DIM, VEC_NOISE)
        row_of = {w: i for i, w in enumerate(lang.en_words)}
        row_of_fg = {w: i for i, w in enumerate(lang.fg_of)}
        en_words = vocab_en.tokens[NUM_SPECIALS:]
        fg_words = vocab_fg.tokens[NUM_SPECIALS:]
        en_v, fg_v = work / "en.vec", work / "fg.vec"
        inputs.write_vec(en_v, en_words, en_vec[[row_of[w] for w in en_words]])
        inputs.write_vec(fg_v, fg_words, fg_vec[[row_of_fg[w] for w in fg_words]])
        emb_en, bias_en = _starting_embeddings(rng, len(vocab_en))
        return Setup([en, fg, en_v, fg_v], {"emb_en": emb_en, "bias_en": bias_en},
                     {"vocab_en": vocab_en.tokens,
                      "truth": list(zip(lang.en_words, lang.fg_of))})

    def rep(self, s, seed, work, tracer, clock, failures):
        en, fg, en_v, fg_v = s.files

        def read():
            vocab_en = corpus.build_vocab(corpus.iter_tokens(en), V8K)
            vocab_fg = corpus.build_vocab(corpus.iter_tokens(fg), V8K)
            pairs = corpus.read_parallel(fg, en, corpus.Tokenizer(vocab_fg),
                                         corpus.Tokenizer(vocab_en))
            return vocab_en, vocab_fg, word_alignment.subsample(pairs, IBM1_PAIRS, seed)

        def map_vectors():
            pairs = embeddings.identical_word_dictionary(fg_vec.vocab, en_vec.vocab)
            mapping = embeddings.procrustes(fg_vec, en_vec, pairs)
            aligned = embeddings.align(fg_vec, mapping)
            return translation.translation_matrix_from_vectors(aligned, en_vec)

        # each route in three timed parts of about a second, so that the
        # calibration kernel runs often enough to follow the host's speed
        (vocab_en, vocab_fg, pairs), read_s = clock("bench.parallel.read", read)
        model, ibm1_s = clock("bench.parallel.ibm1",
                              lambda: word_alignment.train_ibm1(pairs, IBM1_ITERATIONS))
        init_parallel, init_parallel_s = clock("bench.parallel.init", lambda: _init_from_tm(
            word_alignment.translation_matrix_from_alignment(model, vocab_fg, vocab_en),
            vocab_fg, vocab_en, work / "tm_parallel.txt", s, seed))
        (en_vec, fg_vec), load_s = clock("bench.vectors.load", lambda: (
            embeddings.load_vectors(en_v), embeddings.load_vectors(fg_v)))
        tm, map_s = clock("bench.vectors.map", map_vectors)
        init_vectors, init_vectors_s = clock("bench.vectors.init", lambda: _init_from_tm(
            tm, fg_vec.vocab, en_vec.vocab, work / "tm_vectors.txt", s, seed))
        routes = {"parallel": ((vocab_en, init_parallel), read_s + ibm1_s + init_parallel_s),
                  "vectors": ((en_vec.vocab, init_vectors), load_s + map_s + init_vectors_s)}
        figures = {}
        with tracer.paused():
            for route, ((vocab_en, (emb, bias)), seconds) in routes.items():
                _check(failures, vocab_en.tokens == s.data["vocab_en"],
                       f"{route}: the english vocabulary differs from the starting model's")
                _check(failures, bool(np.all(np.isfinite(emb.data)) and np.all(np.isfinite(bias))),
                       f"{route}: non-finite initialised foreign embeddings")
                acc = check_tm_file(work / f"tm_{route}.txt", s.data["truth"], failures)
                _check(failures, acc >= MIN_TM_ACCURACY, f"tm_acc_{route} {acc} too low")
                figures.update({f"tm_{route}_s": seconds, f"tm_acc_{route}": acc})
        return sum(seconds for _, seconds in routes.values()), figures


def _starting_embeddings(rng: np.random.Generator, v: int) -> tuple[np.ndarray, np.ndarray]:
    d = MODEL["dim"]
    emb = rng.normal(0.0, 1.0 / np.sqrt(d), size=(v, d)).astype(np.float32)
    bias = rng.normal(0.0, 0.1, size=v).astype(np.float32)
    return emb, bias


def _init_from_tm(tm, vocab_fg, vocab_en, tm_path: Path, s: Setup, seed: int):
    """Write the translation matrix, read it back, initialise the foreign side."""
    translation.write_translation_matrix(tm, vocab_fg, vocab_en, tm_path)
    tm = translation.read_translation_matrix(tm_path, vocab_fg, vocab_en)
    src = embeddings.EmbeddingMatrix(vocab_en, s.arrays["emb_en"])
    emb, _ = initializer.init_foreign_embeddings(tm, src, vocab_fg, seed)
    return emb, initializer.init_foreign_bias(tm, s.arrays["bias_en"], vocab_fg)


WORKLOADS = {w.name: w for w in (CipherPipeline(), TransferV8k(), TranslateV8k())}
