import dataclasses
import filecmp
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer import cipher
from langxfer.cipher import CipherFixture, _pseudo_words, generate_cipher_fixture, write_fixture


class TestCipherFixture:
    def test_deterministic(self):
        a = generate_cipher_fixture(vocab_size=20, sentences=50, seed=7, heldout=5)
        b = generate_cipher_fixture(vocab_size=20, sentences=50, seed=7, heldout=5)
        assert a.en_train == b.en_train
        assert a.fg_train == b.fg_train
        assert a.dictionary == b.dictionary

    def test_counts_are_permuted_without_noise(self):
        fx = generate_cipher_fixture(vocab_size=25, sentences=80, seed=1)
        mapping = dict(fx.dictionary)
        en_counts = Counter(w for line in fx.en_train for w in line.split())
        fg_counts = Counter(w for line in fx.fg_train for w in line.split())
        assert sorted(en_counts.values()) == sorted(fg_counts.values())
        for en_word, n in en_counts.items():
            assert fg_counts[mapping[en_word]] == n

    def test_dictionary_size(self):
        fx = generate_cipher_fixture(vocab_size=33, sentences=10, seed=2)
        assert len(fx.dictionary) == 33
        assert len(set(en for en, _ in fx.dictionary)) == 33
        assert len(set(fg for _, fg in fx.dictionary)) == 33

    def test_disjoint_languages(self):
        fx = generate_cipher_fixture(vocab_size=30, sentences=10, seed=3)
        en_words = {en for en, _ in fx.dictionary}
        fg_words = {fg for _, fg in fx.dictionary}
        assert not en_words & fg_words

    def test_dropout_shrinks_emitted_dictionary(self):
        fx = generate_cipher_fixture(vocab_size=50, sentences=10, seed=4,
                                     dict_dropout=0.2)
        assert len(fx.noisy_dictionary) < 50
        assert set(fx.noisy_dictionary) <= set(fx.dictionary)

    def test_dropout_of_every_entry_keeps_the_first_pair(self):
        # each entry survives with probability 1e-4: all 20 are dropped
        fx = generate_cipher_fixture(vocab_size=20, sentences=10, seed=4,
                                     dict_dropout=0.9999)
        assert fx.noisy_dictionary == fx.dictionary[:1]

    def test_split_noise_creates_two_token_words(self):
        fx = generate_cipher_fixture(vocab_size=40, sentences=60, seed=5,
                                     split_prob=0.5)
        en_tokens = sum(len(l.split()) for l in fx.en_train)
        fg_tokens = sum(len(l.split()) for l in fx.fg_train)
        assert fg_tokens > en_tokens

    def test_line_alignment_preserved(self):
        fx = generate_cipher_fixture(vocab_size=20, sentences=30, seed=6,
                                     split_prob=0.3)
        assert len(fx.en_train) == len(fx.fg_train)

    @pytest.mark.parametrize("vocab_size,message", [
        (5, "vocab_size must be >= 10, got 5"),
        # both sides draw distinct 2- or 3-syllable words of 17 x 5 syllables;
        # one word more per side would sample forever, so nothing is drawn
        (310676, "vocab_size must be <= 310675, got 310676"),
    ])
    def test_vocab_size_out_of_range_rejected(self, vocab_size, message):
        assert 2 * cipher.MAX_VOCAB == 85**2 + 85**3
        with mock.patch.object(cipher, "_pseudo_words", side_effect=AssertionError), \
                pytest.raises(ValueError, match=f"^{message}$"):
            generate_cipher_fixture(vocab_size=vocab_size, sentences=10, seed=0)

    def test_write_fixture(self, tmp_path):
        fx = generate_cipher_fixture(vocab_size=15, sentences=12, seed=8, heldout=3)
        paths = write_fixture(fx, tmp_path / "bundle")
        assert (tmp_path / "bundle" / "en_train.txt").read_text().count("\n") == 12
        assert (tmp_path / "bundle" / "en_heldout.txt").read_text().count("\n") == 3
        dict_lines = (tmp_path / "bundle" / "dictionary.tsv").read_text().splitlines()
        assert len(dict_lines) == 15
        assert all("\t" in line for line in dict_lines)
        assert "meta.json" in paths


# --- the per-token generator, kept as the oracle of the batched one ---------


def oracle_cipher_fixture(
    vocab_size: int,
    sentences: int,
    seed: int,
    heldout: int = 0,
    dict_dropout: float = 0.0,
    split_prob: float = 0.0,
    min_len: int = 4,
    max_len: int = 11,
    bigram_alpha: float = 0.25,
) -> CipherFixture:
    """Deterministic corpus bundle for the cipher-transfer experiment."""
    if vocab_size < 10:
        raise ValueError("vocab_size must be >= 10")
    if not 0.0 <= dict_dropout < 1.0:
        raise ValueError("dict_dropout must be in [0, 1)")
    rng = np.random.default_rng(seed)

    taken: set[str] = set()
    en_words = _pseudo_words(rng, vocab_size, taken)
    fg_words = _pseudo_words(rng, vocab_size, taken)
    dictionary = list(zip(en_words, fg_words))

    # deterministic per-word rendering on the cipher side
    split_flags = rng.random(vocab_size) < split_prob
    fg_render = {}
    for i, (en_w, fg_w) in enumerate(dictionary):
        if split_flags[i] and len(fg_w) >= 4:
            cut = int(rng.integers(2, len(fg_w) - 1))
            fg_render[en_w] = f"{fg_w[:cut]} {fg_w[cut:]}"
        else:
            fg_render[en_w] = fg_w

    init_probs = rng.dirichlet(np.full(vocab_size, 1.0))
    transitions = rng.dirichlet(np.full(vocab_size, bigram_alpha), size=vocab_size)

    def sample_sentence() -> list[str]:
        length = int(rng.integers(min_len, max_len + 1))
        idx = [int(rng.choice(vocab_size, p=init_probs))]
        for _ in range(length - 1):
            idx.append(int(rng.choice(vocab_size, p=transitions[idx[-1]])))
        return [en_words[i] for i in idx]

    en_all = [" ".join(sample_sentence()) for _ in range(sentences + heldout)]
    fg_all = [" ".join(fg_render[w] for w in line.split()) for line in en_all]

    if dict_dropout > 0.0:
        keep = rng.random(vocab_size) >= dict_dropout
        if not keep.any():
            keep[0] = True
        noisy = [pair for pair, k in zip(dictionary, keep) if k]
    else:
        noisy = list(dictionary)

    return CipherFixture(
        en_train=en_all[:sentences],
        en_heldout=en_all[sentences:],
        fg_train=fg_all[:sentences],
        fg_heldout=fg_all[sentences:],
        dictionary=dictionary,
        noisy_dictionary=noisy,
        seed=seed,
        meta={
            "vocab_size": vocab_size,
            "sentences": sentences,
            "heldout": heldout,
            "dict_dropout": dict_dropout,
            "split_prob": split_prob,
        },
    )


BUNDLE_FILES = ("en_train.txt", "en_heldout.txt", "fg_train.txt", "fg_heldout.txt",
                "dictionary.tsv", "noisy_dictionary.tsv", "meta.json")


def assert_same_bundle(kwargs, tmp_path):
    want = oracle_cipher_fixture(**kwargs)
    got = generate_cipher_fixture(**kwargs)
    for f in dataclasses.fields(CipherFixture):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    # drawn after every sentence, so equal only if the sentences drew the same
    assert got.noisy_dictionary == want.noisy_dictionary
    write_fixture(want, tmp_path / "oracle")
    paths = write_fixture(got, tmp_path / "batched")
    assert sorted(paths) == sorted(BUNDLE_FILES)
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "oracle", tmp_path / "batched",
                                           BUNDLE_FILES, shallow=False)
    assert mismatch == errors == []


@st.composite
def fixture_args(draw):
    min_len = draw(st.integers(1, 6))
    return dict(
        vocab_size=draw(st.integers(10, 300)),
        sentences=draw(st.integers(1, 40)),
        heldout=draw(st.integers(0, 10)),
        min_len=min_len,
        max_len=draw(st.integers(min_len, 12)),
        # near 0.01 many transitions have probability 0
        bigram_alpha=draw(st.sampled_from([0.008, 0.01, 0.012, 0.08, 0.25, 1.0])
                          | st.floats(0.005, 3.0)),
        split_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        dict_dropout=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.95)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBatchedMatchesPerTokenOracle:
    @settings(max_examples=120, deadline=None)
    @given(kwargs=fixture_args())
    def test_sweep(self, tmp_path_factory, kwargs):
        assert_same_bundle(kwargs, tmp_path_factory.mktemp("sweep"))

    @pytest.mark.parametrize("min_len,max_len", [(1, 1), (1, 2), (11, 11)])
    def test_fixed_lengths(self, tmp_path, min_len, max_len):
        assert_same_bundle(dict(vocab_size=12, sentences=30, seed=9, heldout=4,
                                min_len=min_len, max_len=max_len), tmp_path)

    def test_benchmark_configuration(self, tmp_path):
        assert_same_bundle(dict(vocab_size=60, sentences=8000, seed=1, heldout=300,
                                bigram_alpha=0.08), tmp_path)

    def test_acceptance_configuration(self, tmp_path):
        assert_same_bundle(dict(vocab_size=60, sentences=8000, seed=100, heldout=300,
                                dict_dropout=0.2, bigram_alpha=0.08), tmp_path)


class TestChainOnBoundaries:
    """Draws that hit a cdf value exactly; random draws almost never do."""

    def test_boundary_draw_skips_zero_probability_words(self):
        # choice takes the first word whose cdf exceeds the draw (side="right")
        init = np.array([0.0, 0.5, 0.0, 0.5])
        trans = np.array([[0.25] * 4, [0.0, 0.0, 0.5, 0.5], [0.25] * 4, [0.5, 0.0, 0.0, 0.5]])
        draws = np.array([[0.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
        words = cipher._bigram_chain(init, trans, np.array([3, 2]), draws)
        assert words[0].tolist() == [1, 2, 2]
        assert words[1, :2].tolist() == [3, 3]

    def test_cdf_is_normalised_to_end_at_one(self):
        # ten 0.1s sum to 1 - 2**-53, the largest draw `random` can return
        probs = np.full(10, 0.1)
        top = np.nextafter(1.0, 0.0)
        assert probs.cumsum()[-1] == top
        words = cipher._bigram_chain(probs, np.tile(probs, (10, 1)), np.array([2]),
                                     np.array([[top, top]]))
        assert words.tolist() == [[9, 9]]


class TestBadFixtureSizes:
    @pytest.mark.parametrize("override,message", [
        ({"vocab_size": 9}, "vocab_size must be >= 10, got 9"),
        ({"sentences": 0}, "sentences must be >= 1, got 0"),
        ({"sentences": -4}, "sentences must be >= 1, got -4"),
        ({"heldout": -3}, "heldout must be >= 0, got -3"),
        ({"min_len": 0}, "min_len must be >= 1, got 0"),
        ({"min_len": 5, "max_len": 4}, "max_len must be >= min_len, got 4 < 5"),
        ({"dict_dropout": 1.0}, "dict_dropout must be in [0, 1), got 1.0"),
        ({"split_prob": -0.1}, "split_prob must be in [0, 1], got -0.1"),
        ({"split_prob": 1.5}, "split_prob must be in [0, 1], got 1.5"),
        ({"split_prob": float("nan")}, "split_prob must be in [0, 1], got nan"),
        ({"bigram_alpha": 0.0}, "bigram_alpha must be > 0, got 0.0"),
        ({"bigram_alpha": -1.0}, "bigram_alpha must be > 0, got -1.0"),
    ])
    def test_rejected_before_any_draw(self, monkeypatch, override, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made for a rejected input")

        monkeypatch.setattr(cipher.np.random, "default_rng", no_draws)
        kwargs = {"vocab_size": 20, "sentences": 10, "seed": 0, **override}
        with pytest.raises(ValueError) as err:
            generate_cipher_fixture(**kwargs)
        assert str(err.value) == message
