"""Every artifact writer replaces its target through `corpus.replacing`: a
write that fails halfway leaves the target with its previous bytes, or
absent when it had none, and leaves no temporary entry behind."""

import builtins
import errno
import io
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from langxfer.cipher import generate_cipher_fixture, write_fixture
from langxfer.corpus import Vocabulary, iter_lines, learn_bpe, replace_text
from langxfer.embeddings import EmbeddingMatrix, save_vectors
from langxfer.initializer import InitReport
from langxfer.pipeline import (
    CACHE_DIR_ENV,
    PipelineConfig,
    StageCache,
    init_foreign,
    run_all,
    write_config,
)
from langxfer.tiny_mlm import load_checkpoint, save_checkpoint
from langxfer.translation import read_translation_matrix, write_translation_matrix

LEFTOVER = (".tmp", ".tmp.old")  # the endings of `replacing`'s temporary names


def small_config(paths, out_dir):
    return PipelineConfig(
        out_dir=str(out_dir), en_train=paths["en_train.txt"],
        en_heldout=paths["en_heldout.txt"], fg_train=paths["fg_train.txt"],
        fg_heldout=paths["fg_heldout.txt"], route="parallel",
        dim=16, layers=1, heads=2, ffn_dim=32, pretrain_updates=4, pretrain_warmup=1,
        total_updates=4, warmup_updates=1, freeze_phase_updates=2, seq_len=16,
        checkpoint_every=4, ibm1_iterations=2, seed=3,
    )


@pytest.fixture(scope="module")
def ref(tmp_path_factory):
    """A bundle and one `run_all` over it: the inputs the writers write from."""
    tmp = tmp_path_factory.mktemp("writes")
    fixture = generate_cipher_fixture(vocab_size=30, sentences=220, seed=11, heldout=30)
    paths = write_fixture(fixture, tmp / "bundle")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CACHE_DIR_ENV, raising=False)
        run_all(small_config(paths, tmp / "work"))
    work = tmp / "work"
    checkpoint = work / "pretrain" / "checkpoints" / "step_0000004"
    state, _, _ = load_checkpoint(checkpoint)
    vocab_fg = Vocabulary.load(work / "vocab_fg.txt")
    return SimpleNamespace(
        fixture=fixture, paths=paths, work=work, checkpoint=checkpoint, state=state,
        vocab_fg=vocab_fg, emb=EmbeddingMatrix(state.vocab_en, state.params["emb_en"]),
        tm=read_translation_matrix(work / "translation_matrix.txt", vocab_fg, state.vocab_en))


def rerun_all(ref, root):
    (root / "cache.json").unlink(missing_ok=True)  # so that every stage writes again
    run_all(small_config(ref.paths, root))


# writer -> (the write, into a directory; the target it replaces there)
WRITERS = {
    "Vocabulary.save": (lambda ref, root: ref.vocab_fg.save(root / "vocab.txt"), "vocab.txt"),
    "BpeCodes.save": (lambda ref, root: learn_bpe(iter_lines(ref.paths["en_train.txt"]), 30)
                      .save(root / "codes.txt"), "codes.txt"),
    "save_vectors-text": (lambda ref, root: save_vectors(ref.emb, root / "e.vec"), "e.vec"),
    "save_vectors-binary": (lambda ref, root: save_vectors(ref.emb, root / "e.bin", "binary"),
                            "e.bin"),
    "write_translation_matrix": (lambda ref, root: write_translation_matrix(
        ref.tm, ref.vocab_fg, ref.state.vocab_en, root / "tm.txt"), "tm.txt"),
    "save_checkpoint": (lambda ref, root: save_checkpoint(ref.state, root / "step_0000010", 10),
                        "step_0000010"),
    **{f"init_foreign-{part}": (lambda ref, root: init_foreign(
        ref.work / "translation_matrix.txt", ref.checkpoint, ref.work / "vocab_fg.txt", 0,
        root / "init_emb.bin", root / "init_bias.bin"), f"init_{part}.bin")
       for part in ("emb", "bias")},
    "InitReport.save": (lambda ref, root: InitReport(7, 3).save(root / "init_report.json"),
                        "init_report.json"),
    "StageCache.store": (lambda ref, root: StageCache(root).store("s", "k", []), "cache.json"),
    "write_config": (lambda ref, root: write_config(small_config(ref.paths, root),
                                                    root / "pipeline.cfg"), "pipeline.cfg"),
    **{f"write_fixture-{name}": (lambda ref, root: write_fixture(ref.fixture, root), name)
       for name in ("en_train.txt", "meta.json")},
    **{f"run_all-{name}": (rerun_all, name) for name in (
        "pack_en_heldout.npy", "alignment_info.json", "translation_report.json",
        "summary.json")},
}


def filling_disk(monkeypatch, root: Path, target: str, budget: int) -> None:
    """From here on, files opened for writing under `root` whose path there
    names `target` stop with ENOSPC once `budget` characters (or bytes) have
    gone to them in all; the write that crosses it puts its first part down."""
    real_open = io.open
    left = [budget]

    class Filling:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            room = left[0]
            left[0] -= len(data)
            if left[0] < 0:
                self._fh.write(data[:max(room, 0)])
                raise OSError(errno.ENOSPC, "No space left on device")
            return self._fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def __getattr__(self, name):
            return getattr(self._fh, name)

    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = os.fspath(file) if isinstance(file, (str, os.PathLike)) else ""
        if set(mode) & set("wax") and name.startswith(str(root) + os.sep) \
                and target in name[len(str(root)):]:
            return Filling(fh)
        return fh

    monkeypatch.setattr(builtins, "open", fake_open)
    monkeypatch.setattr(io, "open", fake_open)


def content(path: Path):
    """A file's bytes, a directory's {relative path: bytes}, or None."""
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    return path.read_bytes() if path.exists() else None


def size(path: Path) -> int:
    return sum(map(len, content(path).values())) if path.is_dir() else len(content(path))


@pytest.mark.parametrize("previous", [True, False], ids=["previous", "absent"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_write_that_fails_halfway_leaves_the_target_as_it_was(ref, tmp_path, monkeypatch,
                                                              writer, previous):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    write, target = WRITERS[writer]
    first = tmp_path / "first"
    first.mkdir()
    write(ref, first)
    full = size(first / target)
    root = tmp_path / "root"
    if previous:
        shutil.copytree(first, root)
    else:
        root.mkdir()
    before = content(root / target)
    filling_disk(monkeypatch, root, target, full // 2)
    with pytest.raises(OSError, match="No space"):
        write(ref, root)
    assert content(root / target) == before
    assert [p for p in root.rglob("*") if p.name.endswith(LEFTOVER)] == []


def test_what_a_crashed_write_left_is_cleared(tmp_path):
    """A process killed mid-write leaves its temporary entry, or the `.old`
    one of a replacement; a later write under the same pid removes both."""
    stale = tmp_path / f".t.txt.{os.getpid()}.tmp"
    stale.mkdir()
    (stale / "part").write_text("x")
    stale.with_name(stale.name + ".old").write_text("previous\n")
    replace_text(tmp_path / "t.txt", "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]
    assert (tmp_path / "t.txt").read_text() == "new\n"


@pytest.mark.parametrize("target", ["d", "."])
def test_a_file_never_replaces_a_directory(tmp_path, monkeypatch, target):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "kept.txt").write_text("kept\n")
    monkeypatch.chdir(tmp_path / "d" if target == "." else tmp_path)
    with pytest.raises(IsADirectoryError):
        replace_text(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert (tmp_path / "d" / "kept.txt").read_text() == "kept\n"
