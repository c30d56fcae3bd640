"""Acceptance suite: one test per criterion, each at a fixed tolerance.

Each test prints a single "[acceptance] criterion N (name): PASS/FAIL" line
(run with `pytest tests/test_acceptance.py -v -s` to see them inline).
Heavy artifacts (the cipher bundle and the pretrained english model) are
built once per session and shared across criteria.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from langxfer.cipher import generate_cipher_fixture, write_fixture
from langxfer.corpus import NUM_SPECIALS, Tokenizer, Vocabulary, build_vocab
from langxfer.embeddings import EmbeddingMatrix, procrustes
from langxfer.initializer import (
    init_foreign_bias,
    init_foreign_embeddings,
    random_init,
)
from langxfer.pipeline import PipelineConfig, run_all
from langxfer.tiny_mlm import (
    ModelConfig,
    backward,
    init_model,
    load_checkpoint,
    make_masked_batch,
    mlm_loss,
    save_checkpoint,
)
from langxfer.corpus import ParallelCorpus
from langxfer.trainer import (
    TrainingConfig,
    evaluate_mlm,
    lr_schedule,
    pack_sequences,
    pretrain,
    run_transfer,
)
from langxfer.translation import dictionary_translation_matrix, sparsemax
from langxfer.word_alignment import (
    parse_fastalign,
    train_ibm1,
    translation_matrix_from_alignment,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL", file=sys.stderr)
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS", file=sys.stderr)


def project_simplex_dykstra_batch(z, iterations=3000):
    """Independent oracle: Dykstra's alternating projections, batched rows."""
    x = z.copy()
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    n = z.shape[1]
    for _ in range(iterations):
        s = x + p
        y = s + (1.0 - s.sum(axis=1, keepdims=True)) / n
        p = s - y
        x = np.maximum(y + q, 0.0)
        q = y + q - x
    return x


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# shared desk-scale experiment fixtures

SEED = 100
SEQ_LEN = 32
MODEL = ModelConfig(dim=32, layers=2, heads=4, ffn_dim=128, max_len=SEQ_LEN)


@dataclass
class CipherSetup:
    fixture: object
    vocab_en: Vocabulary
    vocab_fg: Vocabulary
    rows: dict
    full_pairs: list  # (fg index, en index), whole dictionary
    noisy_pairs: list  # after 20% dropout


@pytest.fixture(scope="session")
def cipher(tmp_path_factory):
    fx = generate_cipher_fixture(
        vocab_size=60, sentences=8000, seed=SEED, heldout=300,
        dict_dropout=0.2, bigram_alpha=0.08,
    )
    vocab_en = build_vocab((w for l in fx.en_train for w in l.split()), 500)
    vocab_fg = build_vocab((w for l in fx.fg_train for w in l.split()), 500)

    def pack(lines, vocab):
        tok = Tokenizer(vocab)
        return pack_sequences([tok.encode_line(l) for l in lines], SEQ_LEN)

    rows = {
        "en": pack(fx.en_train, vocab_en),
        "fg": pack(fx.fg_train, vocab_fg),
        "en_heldout": pack(fx.en_heldout, vocab_en),
        "fg_heldout": pack(fx.fg_heldout, vocab_fg),
    }

    def index_pairs(dictionary):
        pairs = []
        for en_w, fg_w in dictionary:
            i, j = vocab_fg.index.get(fg_w), vocab_en.index.get(en_w)
            if i is not None and j is not None:
                pairs.append((i, j))
        return pairs

    return CipherSetup(fx, vocab_en, vocab_fg, rows,
                       index_pairs(fx.dictionary), index_pairs(fx.noisy_dictionary))


@pytest.fixture(scope="session")
def pretrained(cipher):
    model = init_model(MODEL, cipher.vocab_en, Vocabulary.from_tokens([]), SEED)
    cfg = TrainingConfig(
        total_updates=6000, warmup_updates=300, peak_lr=2e-3, batch_size=16,
        seq_len=SEQ_LEN, freeze_phase_updates=0, checkpoint_every=6000, seed=SEED,
    )
    result = pretrain(cfg, model, cipher.rows["en"], cipher.rows["en_heldout"])
    return result.state, result.evals[-1][1]  # model, english held-out loss


def vec_initialization(cipher, state, pairs):
    tm = dictionary_translation_matrix(pairs, cipher.vocab_fg, cipher.vocab_en)
    src = EmbeddingMatrix(cipher.vocab_en, state.params["emb_en"])
    emb, report = init_foreign_embeddings(tm, src, cipher.vocab_fg, SEED)
    bias = init_foreign_bias(tm, state.params["out_bias_en"], cipher.vocab_fg)
    return emb, bias, report


def random_initialization(cipher, state):
    emb = random_init(cipher.vocab_fg, MODEL.dim, SEED + 1)
    data = emb.data.copy()
    data[:NUM_SPECIALS] = state.params["emb_en"][:NUM_SPECIALS]
    return EmbeddingMatrix(cipher.vocab_fg, data), None


# ---------------------------------------------------------------------------


def test_criterion_1_sparsemax_oracle_equivalence():
    with criterion(1, "sparsemax oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        for d in (2, 3, 4, 5):
            z = rng.normal(0.0, 3.0, size=(250, d))
            ours = sparsemax(z)
            oracle = project_simplex_dykstra_batch(z)
            assert np.max(np.abs(ours - oracle)) <= 1e-6
            shifts = rng.normal(0.0, 5.0, size=(250, 1))
            assert np.max(np.abs(sparsemax(z + shifts) - ours)) <= 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_2_procrustes_recovery():
    with criterion(2, "procrustes planted-map recovery"):
        start = time.monotonic()
        rng = np.random.default_rng(1)
        cases = [2] * 34 + [8] * 33 + [32] * 33
        for d in cases:
            q = random_orthogonal(d, rng)
            n = max(3 * d, 12)
            x = rng.standard_normal((n, d)).astype(np.float32)
            tokens = [f"t{i}" for i in range(n)]
            src = EmbeddingMatrix(
                Vocabulary.from_tokens(tokens),
                np.vstack([np.zeros((NUM_SPECIALS, d), np.float32), x]),
            )
            tgt = EmbeddingMatrix(
                Vocabulary.from_tokens(tokens),
                np.vstack([np.zeros((NUM_SPECIALS, d), np.float32),
                           (x.astype(np.float64) @ q).astype(np.float32)]),
            )
            pairs = [(i, i) for i in range(NUM_SPECIALS, n + NUM_SPECIALS)]
            mapping = procrustes(src, tgt, pairs)
            assert np.linalg.norm(mapping.matrix - q) <= 1e-5
            assert np.linalg.norm(
                mapping.matrix.T @ mapping.matrix - np.eye(d)
            ) <= 1e-6
        assert time.monotonic() - start < 30.0


def test_criterion_3_ibm1_correctness():
    with criterion(3, "IBM Model 1 EM correctness"):
        start = time.monotonic()
        rng = np.random.default_rng(2)
        n_types = 150
        vf = Vocabulary.from_tokens([f"f{i}" for i in range(n_types)])
        ve = Vocabulary.from_tokens([f"e{i}" for i in range(n_types)])
        mapping = {NUM_SPECIALS + i: NUM_SPECIALS + int(p)
                   for i, p in enumerate(rng.permutation(n_types))}
        # zipf-ish type frequencies so rare and common types both occur
        weights = 1.0 / np.arange(1, n_types + 1)
        weights /= weights.sum()
        pairs = []
        freq = defaultdict(int)
        for _ in range(5000):
            length = int(rng.integers(3, 9))
            fg = [NUM_SPECIALS + int(t)
                  for t in rng.choice(n_types, size=length, p=weights)]
            en = [mapping[f] for f in fg]
            for f in fg:
                freq[f] += 1
            pairs.append((fg, en))
        model = train_ibm1(ParallelCorpus(pairs), iterations=10, prune=1e-4)

        diffs = np.diff(model.log_likelihoods)
        assert np.all(diffs >= -1e-9), "log-likelihood decreased"

        tm = translation_matrix_from_alignment(model, vf, ve)
        rows = tm.rows
        checked = correct = 0
        for f, count in freq.items():
            if count < 5 or not rows[f]:
                continue
            checked += 1
            best = max(rows[f], key=lambda e: e[1])[0]
            correct += best == mapping[f]
        assert checked >= 50
        assert correct / checked >= 0.95
        assert time.monotonic() - start < 60.0


def test_criterion_4_gradient_exactness():
    with criterion(4, "finite-difference gradient exactness"):
        start = time.monotonic()
        cfg = ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=8)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(11)])
        state = init_model(cfg, vocab, vocab, seed=3).astype(np.float64)
        rng = np.random.default_rng(4)
        batches = [
            make_masked_batch(rng.integers(5, 16, (2, 5)), 0.4, 5, 16, "en"),
            make_masked_batch(rng.integers(5, 16, (2, 5)), 0.4, 6, 16, "fg"),
        ]

        def total_loss():
            return sum(mlm_loss(state, b)[0] for b in batches)

        grads = None
        for b in batches:
            _, g = backward(state, b)
            grads = g if grads is None else {k: grads[k] + g[k] for k in g}

        eps = 1e-4
        for name, p in state.params.items():
            flat = p.reshape(-1)
            analytic = grads[name].reshape(-1)
            for ix in range(flat.size):
                orig = flat[ix]
                flat[ix] = orig + eps
                up = total_loss()
                flat[ix] = orig - eps
                down = total_loss()
                flat[ix] = orig
                fd = (up - down) / (2 * eps)
                assert abs(analytic[ix] - fd) <= 1e-5 * max(1.0, abs(fd)), (
                    f"{name}[{ix}]: analytic {analytic[ix]} vs fd {fd}"
                )
        assert time.monotonic() - start < 60.0


def test_criterion_5_cipher_exactness(cipher, pretrained):
    with criterion(5, "cipher zero-shot exactness"):
        state, _ = pretrained
        emb, bias, report = vec_initialization(cipher, state, cipher.full_pairs)
        assert report.coverage_ratio == 1.0

        # E_fg must equal the permuted english table exactly, bit for bit
        for i, j in cipher.full_pairs:
            assert np.array_equal(emb.data[i], state.params["emb_en"][j])
            assert bias[i] == state.params["out_bias_en"][j]
        assert np.array_equal(emb.data[:NUM_SPECIALS],
                              state.params["emb_en"][:NUM_SPECIALS])

        from langxfer.tiny_mlm import plug_foreign

        plugged = plug_foreign(state, cipher.vocab_fg, emb.data, bias)
        eval_seed = SEED + 0x5EED
        loss_en, _ = evaluate_mlm(plugged, cipher.rows["en_heldout"], "en", eval_seed)
        loss_fg, _ = evaluate_mlm(plugged, cipher.rows["fg_heldout"], "fg", eval_seed)
        assert abs(loss_en - loss_fg) <= 1e-6


@pytest.fixture(scope="session")
def ordering_runs(cipher, pretrained):
    state, _ = pretrained
    cfg = TrainingConfig(
        total_updates=2000, warmup_updates=400, peak_lr=1e-3, batch_size=16,
        seq_len=SEQ_LEN, freeze_phase_updates=0, checkpoint_every=500, seed=SEED,
    )
    vec_emb, vec_bias, report = vec_initialization(cipher, state, cipher.noisy_pairs)
    rnd_emb, rnd_bias = random_initialization(cipher, state)
    common = dict(
        train_en=cipher.rows["en"], train_fg=cipher.rows["fg"],
        heldout_en=cipher.rows["en_heldout"], heldout_fg=cipher.rows["fg_heldout"],
    )
    vec = run_transfer(cfg, state, vec_emb, init_bias=vec_bias, **common)
    rnd = run_transfer(cfg, state, rnd_emb, init_bias=rnd_bias, **common)
    return vec, rnd, report


def test_criterion_6_initialization_quality_ordering(ordering_runs):
    with criterion(6, "vec-init beats random-init"):
        start = time.monotonic()
        vec, rnd, report = ordering_runs
        assert 0.7 <= report.coverage_ratio <= 0.9  # 20% dictionary dropout

        fg_loss = {run: {step: lf for step, _, _, lf, _ in r.evals}
                   for run, r in (("vec", vec), ("rnd", rnd))}
        # after 2,000 joint updates the gap is at least 0.2 nats
        assert fg_loss["vec"][2000] <= fg_loss["rnd"][2000] - 0.2
        # a good start beats a quarter of the training budget from random
        assert fg_loss["vec"][0] < fg_loss["rnd"][500]
        assert time.monotonic() - start < 600.0


def test_criterion_7_english_retention(cipher, pretrained):
    with criterion(7, "english retention through transfer"):
        state, english_before = pretrained
        emb, bias, _ = vec_initialization(cipher, state, cipher.noisy_pairs)
        cfg = TrainingConfig(seq_len=SEQ_LEN, seed=SEED)  # desk-scale defaults
        assert cfg.total_updates == 5000 and cfg.freeze_phase_updates == 500
        result = run_transfer(
            cfg, state, emb,
            cipher.rows["en"], cipher.rows["fg"],
            cipher.rows["en_heldout"], cipher.rows["fg_heldout"],
            init_bias=bias,
        )
        assert len(result.metrics) == cfg.total_updates
        english_after = result.evals[-1][1]
        assert english_after <= english_before + 0.1


def test_criterion_8_schedule_anchors():
    with criterion(8, "learning-rate schedule anchors"):
        cfg = TrainingConfig.paper_scale()
        assert lr_schedule(0, cfg) == 1e-7
        assert lr_schedule(4000, cfg) == 1e-4
        assert lr_schedule(16_000, cfg) == 1e-4 * 0.5
        desk = TrainingConfig()
        assert lr_schedule(0, desk) == 1e-7
        assert lr_schedule(desk.warmup_updates, desk) == desk.peak_lr
        assert lr_schedule(4 * desk.warmup_updates, desk) == desk.peak_lr * 0.5


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "byte-identical reruns"):
        fx = generate_cipher_fixture(vocab_size=25, sentences=400, seed=7,
                                     heldout=40, bigram_alpha=0.1)
        paths = write_fixture(fx, tmp_path / "bundle")

        def run(tag):
            cfg = PipelineConfig(
                out_dir=str(tmp_path / tag),
                en_train=paths["en_train.txt"], en_heldout=paths["en_heldout.txt"],
                fg_train=paths["fg_train.txt"], fg_heldout=paths["fg_heldout.txt"],
                route="parallel", dim=16, layers=1, heads=2, ffn_dim=32,
                pretrain_updates=60, pretrain_warmup=10,
                total_updates=80, warmup_updates=10, freeze_phase_updates=20,
                seq_len=16, checkpoint_every=40, seed=7,
            )
            return run_all(cfg), tmp_path / tag

        _, dir_a = run("a")
        _, dir_b = run("b")
        for rel in ("transfer/metrics.csv", "transfer/evals.csv",
                    "pretrain/metrics.csv", "init_emb.bin", "init_bias.bin",
                    "translation_matrix.txt"):
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel
        ck = "transfer/checkpoints/step_0000080"
        for tensor in sorted((dir_a / ck).glob("*.bin")):
            twin = dir_b / ck / tensor.name
            assert tensor.read_bytes() == twin.read_bytes(), tensor.name


def test_criterion_10_format_fidelity(tmp_path):
    with criterion(10, "file-format fidelity"):
        # fast-align "i-j" parsing against a handwritten fixture
        vf = Vocabulary.from_tokens(["aa", "bb", "cc"])
        ve = Vocabulary.from_tokens(["xx", "yy", "zz"])
        corpus = ParallelCorpus(
            [
                ([vf.index["aa"], vf.index["bb"]], [ve.index["xx"], ve.index["yy"]]),
                ([vf.index["cc"]], [ve.index["zz"]]),
            ]
        )
        (tmp_path / "al.txt").write_text("0-0 1-1\n0-0\n")
        model = parse_fastalign(tmp_path / "al.txt", corpus)
        assert model.table[vf.index["aa"]] == {ve.index["xx"]: 1.0}
        assert model.table[vf.index["cc"]] == {ve.index["zz"]: 1.0}

        # .vec text round-trip at 1e-5 relative
        from langxfer.embeddings import load_vectors, save_vectors

        rng = np.random.default_rng(8)
        data = np.vstack([np.zeros((NUM_SPECIALS, 6), np.float32),
                          rng.normal(0, 1, (20, 6)).astype(np.float32)])
        emb = EmbeddingMatrix(
            Vocabulary.from_tokens([f"w{i}" for i in range(20)]), data
        )
        save_vectors(emb, tmp_path / "v.vec", format="text")
        loaded = load_vectors(tmp_path / "v.vec")
        orig = emb.data[NUM_SPECIALS:]
        got = loaded.data[NUM_SPECIALS:]
        rel = np.abs(orig - got) / np.maximum(np.abs(orig), 1e-12)
        assert np.max(rel) <= 1e-5

        # binary checkpoint round-trip, bit-exact
        cfg = ModelConfig(dim=8, layers=1, heads=2, ffn_dim=16, max_len=8)
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(6)])
        state = init_model(cfg, vocab, vocab, seed=9)
        save_checkpoint(state, tmp_path / "ck", step=5)
        loaded_state, step, _ = load_checkpoint(tmp_path / "ck")
        assert step == 5
        for name, p in state.params.items():
            assert np.array_equal(loaded_state.params[name], p), name
