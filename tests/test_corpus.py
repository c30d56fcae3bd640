import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langxfer.corpus import (
    NUM_SPECIALS,
    SPECIAL_TOKENS,
    UNK_ID,
    BpeCodes,
    Tokenizer,
    Vocabulary,
    apply_bpe,
    build_vocab,
    learn_bpe,
    read_parallel,
)

from helpers import detokenize

WORD_ALPHABET = st.characters(
    blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf")
)
WORDS = st.text(alphabet=WORD_ALPHABET, min_size=1, max_size=12)
# words that a UTF-8 file can hold: no lone surrogates
FILE_WORDS = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf", "Cs")),
    min_size=1, max_size=12,
)


class TestLearnBpe:
    def test_most_frequent_pair_merged_first(self):
        # hand-run: "aaab" has (a,a) twice per word, (a,b</w>) once
        codes = learn_bpe(["aaab"] * 10, num_codes=1)
        assert codes.merges == [("a", "a")]
        assert not codes.exhausted

    def test_zero_codes(self):
        assert learn_bpe(["anything"], num_codes=0).merges == []

    def test_thirty_thousand_codes(self):
        # 180 x 180 two-character words: one distinct mergeable pair each
        chars = [chr(0x4E00 + i) for i in range(180)]
        corpus = [a + b for a in chars for b in chars]
        codes = learn_bpe(corpus, num_codes=30_000)
        assert codes.num_codes == 30_000
        assert not codes.exhausted

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty"):
            learn_bpe(["", "   "], num_codes=5)

    def test_exhaustion_returns_fewer_with_flag(self):
        with pytest.warns(UserWarning, match="ran out"):
            codes = learn_bpe(["ab ab"], num_codes=10)
        assert codes.exhausted
        assert codes.num_codes < 10

    def test_deterministic(self):
        corpus = ["the cat sat on the mat", "the bat", "a cat"]
        first = learn_bpe(corpus, 8)
        second = learn_bpe(corpus, 8)
        assert first.merges == second.merges
        assert len(first.merges) == 8

    def test_tie_broken_lexicographically(self):
        # "xy" and "ab" both occur once; (a,b</w>) < (x,y</w>)
        codes = learn_bpe(["xy ab"], num_codes=1)
        assert codes.merges == [("a", "b</w>")]

    def test_codes_file_roundtrip(self, tmp_path):
        codes = learn_bpe(["banana bandana banana"], num_codes=6)
        codes.save(tmp_path / "codes.txt")
        loaded = BpeCodes.load(tmp_path / "codes.txt")
        assert loaded.merges == codes.merges
        assert apply_bpe("banana", loaded) == apply_bpe("banana", codes)


class TestApplyBpe:
    def test_hand_run_merge(self):
        codes = BpeCodes([("a", "a")])
        assert apply_bpe("aaab", codes) == ["aa", "a", "b</w>"]

    def test_no_merges_gives_characters(self):
        assert apply_bpe("abc", BpeCodes([])) == ["a", "b", "c</w>"]

    def test_single_learned_symbol(self):
        codes = learn_bpe(["dog"] * 3, num_codes=2)
        assert apply_bpe("dog", codes) == ["dog</w>"]

    def test_empty_word_raises(self):
        with pytest.raises(ValueError):
            apply_bpe("", BpeCodes([]))

    @settings(max_examples=200, deadline=None)
    @given(word=WORDS, corpus=st.lists(WORDS, min_size=1, max_size=20))
    def test_roundtrip_identity(self, word, corpus):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # exhaustion is expected here
            codes = learn_bpe([" ".join(corpus)], num_codes=10)
        assert detokenize(apply_bpe(word, codes)) == word

    def test_learned_segmentation_applies_in_order(self):
        codes = learn_bpe(["abab abab abab"], num_codes=3)
        segmented = apply_bpe("abab", codes)
        assert detokenize(segmented) == "abab"
        assert len(segmented) <= 2


class TestVocabulary:
    def test_specials_lead(self):
        vocab = Vocabulary.from_tokens(["x", "y"])
        assert vocab.tokens[:NUM_SPECIALS] == list(SPECIAL_TOKENS)
        assert vocab.id("x") == 5
        assert vocab.id("missing") == 1  # UNK

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary.from_tokens(["x", "x"])

    def test_missing_specials_rejected(self):
        with pytest.raises(ValueError, match="special"):
            Vocabulary(["a", "b", "c", "d", "e", "f"])

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary.from_tokens(["alpha", "beta"])
        vocab.save(tmp_path / "v.txt")
        assert Vocabulary.load(tmp_path / "v.txt").tokens == vocab.tokens

    @pytest.mark.parametrize("text,message", [
        ("a\nb\n", f"vocabulary must start with the special tokens {SPECIAL_TOKENS}"),
        ("".join(t + "\n" for t in SPECIAL_TOKENS) + "a\nb\na\n",
         "duplicate tokens in vocabulary: ['a']"),
    ], ids=["no-specials", "duplicate"])
    def test_bad_file_names_its_path(self, tmp_path, text, message):
        (tmp_path / "v.txt").write_text(text)
        with pytest.raises(ValueError) as exc:
            Vocabulary.load(tmp_path / "v.txt")
        assert str(exc.value) == f"{tmp_path / 'v.txt'}: {message}"

    def test_file_not_utf8_names_its_path(self, tmp_path):
        (tmp_path / "v.txt").write_bytes(b"\xff\n")
        with pytest.raises(ValueError, match=f"^{tmp_path / 'v.txt'}: 'utf-8' codec"):
            Vocabulary.load(tmp_path / "v.txt")

    def test_indices_are_minus_one_where_absent(self):
        vocab = Vocabulary.from_tokens(["x", "y"])
        got = vocab.indices(["y", "<unk>", "z", "x", ""])
        assert got.dtype == np.int64 and got.tolist() == [6, 1, -1, 5, -1]
        assert vocab.indices([]).shape == (0,)


class TestBuildVocab:
    def test_large_sizes(self):
        tokens = (f"t{i:05d}" for i in range(60_000) for _ in (0,))
        vocab = build_vocab(tokens, max_size=32_000)
        assert len(vocab) == 32_000
        vocab = build_vocab((f"t{i:05d}" for i in range(60_000)), max_size=50_000)
        assert len(vocab) == 50_000

    def test_small_corpus_untruncated(self):
        vocab = build_vocab(["a", "b", "c", "a"], max_size=100)
        assert len(vocab) == 3 + NUM_SPECIALS

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["b", "b", "c", "a"], max_size=100)
        assert vocab.tokens[NUM_SPECIALS:] == ["b", "a", "c"]

    def test_max_size_must_exceed_specials(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=5)


def _word_tokenizer(*tokens):
    return Tokenizer(Vocabulary.from_tokens(list(tokens)))


class TestReadParallel:
    def test_two_files(self, tmp_path):
        (tmp_path / "f.txt").write_text("un chien\nle chat\n")
        (tmp_path / "e.txt").write_text("a dog\nthe cat\n")
        corpus = read_parallel(
            tmp_path / "f.txt", tmp_path / "e.txt",
            _word_tokenizer("un", "chien", "le", "chat"),
            _word_tokenizer("a", "dog", "the", "cat"),
        )
        assert len(corpus) == 2
        assert corpus.dropped == 0

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "f.txt").write_text("a\nb\nc\n")
        (tmp_path / "e.txt").write_text("x\ny\n")
        with pytest.raises(ValueError, match="3.*2"):
            read_parallel(tmp_path / "f.txt", tmp_path / "e.txt",
                          _word_tokenizer("a"), _word_tokenizer("x"))

    def test_empty_side_dropped_and_counted(self, tmp_path):
        (tmp_path / "f.txt").write_text("a\n\n")
        (tmp_path / "e.txt").write_text("x\ny\n")
        corpus = read_parallel(tmp_path / "f.txt", tmp_path / "e.txt",
                               _word_tokenizer("a"), _word_tokenizer("x", "y"))
        assert len(corpus) == 1
        assert corpus.dropped == 1

    def test_tab_separated_single_file(self, tmp_path):
        (tmp_path / "p.tsv").write_text("un\ta\nle\tthe\n")
        corpus = read_parallel(tmp_path / "p.tsv", None,
                               _word_tokenizer("un", "le"),
                               _word_tokenizer("a", "the"))
        assert len(corpus) == 2

    def test_bad_tab_count(self, tmp_path):
        (tmp_path / "p.tsv").write_text("no tab here\n")
        with pytest.raises(ValueError, match="tab"):
            read_parallel(tmp_path / "p.tsv", None,
                          _word_tokenizer("a"), _word_tokenizer("x"))


class TestEncodeLine:
    """encode_line against the per-token lookup it replaced."""

    @staticmethod
    def per_token_encode(tokenizer, line):
        return [tokenizer.vocab.id(t) for t in tokenizer.tokenize_line(line)]

    @settings(max_examples=100, deadline=None)
    @given(
        vocab_words=st.lists(WORDS, max_size=8, unique=True),
        lines=st.lists(st.lists(WORDS, max_size=6).map(" ".join), max_size=5),
    )
    def test_matches_per_token_lookup(self, vocab_words, lines):
        codes = learn_bpe(["low lower newest widest"] + lines, 10)
        subwords = ["lo", "w</w>", "e"]  # appended below: a drawn copy would be a duplicate
        words = [w for w in vocab_words if w not in (*SPECIAL_TOKENS, *subwords)]
        for tokenizer in (
            Tokenizer(Vocabulary.from_tokens(words)),
            Tokenizer(Vocabulary.from_tokens(words + subwords), codes),
        ):
            for line in lines + ["", "  <unk> <pad>\tnever-seen "]:
                assert tokenizer.encode_line(line) == self.per_token_encode(tokenizer, line)

    @staticmethod
    def comprehension_encode(tokenizer, line):
        """Oracle: encode_line as one list comprehension over dict.get, before
        it mapped dict.get over the tokens."""
        get = tokenizer.vocab.index.get
        if tokenizer.codes is None:
            return [get(w, UNK_ID) for w in line.split()]
        return [get(t, UNK_ID) for t in tokenizer.tokenize_line(line)]

    @settings(max_examples=100, deadline=None)
    @given(
        vocab_words=st.lists(WORDS, max_size=8, unique=True),
        pieces=st.lists(st.one_of(WORDS, st.sampled_from(
            [" ", "\t", "\u00a0", "\u2003", "\u3000", "\u2028", "\x0b", "\x1c", "\n"])),
            max_size=12),
    )
    def test_matches_comprehension(self, vocab_words, pieces):
        line = "".join(pieces)
        codes = learn_bpe(["low lower newest widest", line], 10)
        words = [w for w in vocab_words if w not in SPECIAL_TOKENS]
        for tokenizer in (
            Tokenizer(Vocabulary.from_tokens(words)),
            Tokenizer(Vocabulary.from_tokens(words + [w for w in ("lo", "e") if w not in words]),
                      codes),
        ):
            for text in (line, line + " never-seen\t<unk>"):
                assert tokenizer.encode_line(text) == self.comprehension_encode(tokenizer, text)

    def test_unknown_words_are_unk(self):
        tokenizer = _word_tokenizer("un", "chien")
        assert tokenizer.encode_line("un chat  chien\n") == [
            NUM_SPECIALS, SPECIAL_TOKENS.index("<unk>"), NUM_SPECIALS + 1
        ]


class TestBpeMemo:
    """One memo of `apply_bpe` per codes object, shared by its tokenizers and
    by `iter_tokens`; segmentations are those of `apply_bpe`."""

    @settings(max_examples=50, deadline=None)
    @given(lines=st.lists(st.lists(FILE_WORDS, min_size=1, max_size=6).map(" ".join),
                          min_size=1, max_size=5))
    def test_memo_matches_apply_bpe(self, tmp_path_factory, lines):
        from langxfer.corpus import iter_tokens

        codes = learn_bpe(["low lower newest widest"] + lines, 10)
        path = tmp_path_factory.mktemp("memo") / "c.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        words = [w for line in lines for w in line.split()]
        expected = [s for w in words for s in apply_bpe(w, codes)]
        assert list(iter_tokens(path, codes)) == expected
        tok = Tokenizer(Vocabulary.from_tokens([]), codes)
        assert [s for w in words for s in tok.tokenize_word(w)] == expected
        # a second pass is served from the memo iter_tokens filled
        assert all(tok.tokenize_word(w) is codes.segment(w) for w in words)

    def test_load_tokenizer_takes_a_vocabulary_or_its_file(self, tmp_path):
        from langxfer.pipeline import load_tokenizer

        vocab = Vocabulary.from_tokens(["lo", "w</w>"])
        vocab.save(tmp_path / "v.txt")
        learn_bpe(["low low"], 2).save(tmp_path / "codes.txt")
        for tok in (load_tokenizer(vocab, tmp_path / "codes.txt"),
                    load_tokenizer(tmp_path / "v.txt", tmp_path / "codes.txt")):
            assert tok.vocab == vocab
            assert tok.tokenize_line("low") == ["low</w>"]
        assert load_tokenizer(vocab).tokenize_line("low") == ["low"]
