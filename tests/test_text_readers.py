"""Every text reader names its file when the file is not UTF-8."""

import pytest

from langxfer.corpus import (
    BpeCodes,
    ParallelCorpus,
    Tokenizer,
    Vocabulary,
    iter_lines,
    read_parallel,
)
from langxfer.embeddings import load_vectors, read_dictionary
from langxfer.pipeline import load_config, pack_corpus
from langxfer.translation import read_translation_matrix
from langxfer.word_alignment import parse_fastalign

VOCAB = Vocabulary.from_tokens(["a", "b"])
TOK = Tokenizer(VOCAB)
GOOD = "a b\nb a\n"

# reader name -> (call on the bad file, contents of a good second file or None)
READERS = {
    "load_vectors": lambda bad, good: load_vectors(bad),
    "read_translation_matrix": lambda bad, good: read_translation_matrix(bad, VOCAB, VOCAB),
    "read_dictionary": lambda bad, good: read_dictionary(bad, VOCAB, VOCAB),
    "BpeCodes.load": lambda bad, good: BpeCodes.load(bad),
    "iter_lines": lambda bad, good: list(iter_lines(bad)),
    "read_parallel-source": lambda bad, good: read_parallel(bad, good, TOK, TOK),
    "read_parallel-target": lambda bad, good: read_parallel(good, bad, TOK, TOK),
    "read_parallel-tsv": lambda bad, good: read_parallel(bad, None, TOK, TOK),
    "pack_corpus": lambda bad, good: pack_corpus(bad, TOK, 8),
    "load_config": lambda bad, good: load_config(bad),
    "parse_fastalign": lambda bad, good: parse_fastalign(
        bad, ParallelCorpus([([4], [5]), ([5], [4])])),
}


@pytest.mark.parametrize("reader", READERS)
def test_bad_utf8_names_the_file(tmp_path, reader):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(b"2 1\n\xff 0.5\n")
    good.write_text(GOOD, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        READERS[reader](bad, good)
    assert str(exc.value).startswith(f"{bad}: 'utf-8' codec can't decode byte 0xff")
