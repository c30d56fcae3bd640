#!/usr/bin/env python3
"""Compare the outputs of two source trees of langxfer, file by file.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree's code (imported from TREE/src, in a subprocess) runs the same
small jobs on the same inputs: every `run_all` route (parallel and
vectors, each with word and with BPE tokens, and dictionary, once more on a
dictionary that lists one foreign word twice, with different english
words, and holds a line outside both vocabularies), the parallel
word route with an embedding-only phase of none, some and all of the
updates, and once with the settings that `PipelineConfig` renames on their
way into its sub-configs, or that a sub-config converts, set to values no
other route uses (post-norm, no clipping, other pretraining and masking
rates), the parallel word route with two encoder layers and 16-row
batches under pre-norm and under post-norm, a warm rerun, and each CLI
subcommand once (BPE `subword-vectors`
on vectors that hold a word its corpus lacks, checked before the job
runs, so that the unigram floor weighs it), plus a second
`cipher-fixture` at the benchmark's size and bigram weight with split
noise and dictionary dropout, so that every draw path of the generator is
compared, a second `ibm1` on a subsample of the bundle's pairs, a third
on its first 20 pairs, whose link keys span a wider range than there are
links (checked before the job runs), so that the aligner ranks them by
sorting where every other alignment job ranks by counting, a fourth on
the noisy bundle, whose first link block spans several of the E-step's
chunks (checked before the job runs), an `eval` whose held-out rows leave
a chunk that is not a whole number of the encoder's row groups (checked
before the job runs), a
`pretrain` and an `eval` whose vocabulary holds 8,000 unseen tokens
besides the corpus's, so that the masked positions of one eval chunk span
several of the loss's row slices, a `subword-vectors` table of as many
rows, a `translation-matrix` from it that spans several of the writer's
blocks, an odd number of score blocks and two foreign words without a
vector, and an `init-embeddings` on that matrix, and the word chain (`subword-vectors`
without `--codes` onto the vectors route's vocabularies,
`translation-matrix`, `init-embeddings`); a tree that cannot run a step of
that chain writes its JSON error and skips the rest. Last come
inputs that must be rejected, so that a changed error message shows as a
differing JSON line: a `run-all` config value out of range, of the wrong
type and outside its choices, a checkpoint manifest whose `config` holds a
value of the wrong type, and `eval --seed -1`. Every job
writes into one fixed run directory, which is then moved aside, so paths
that outputs record are the same on both sides. The CLI's JSON lines are
kept as files too. Before the run directory is moved aside, the script
checks that no job left a temporary entry of an atomic write in it (a
name ending in `.tmp` or `.tmp.old`), and stops naming them if one did.

A file differs when its bytes differ, except that the `wall_ms` column of
`telemetry.csv` is not compared. Since both sides write into the same
path, `summary.json`'s `work_dir` and the paths in `cache.json` agree, and
both files are compared whole. The script prints each file that differs
or exists on one side only, and the number of files compared; it exits 1
when any differs. Under each CSV that differs it prints the largest
absolute difference in each numeric column that differs, so that the size
of a change that is not bit-equal shows at a glance.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# small enough that one side runs in well under a minute
FIXTURE = ["--vocab-size", "40", "--sentences", "500", "--heldout", "60", "--seed", "5"]
NOISY_FIXTURE = ["--vocab-size", "60", "--sentences", "8000", "--heldout", "300",
                 "--split-prob", "0.3", "--dict-dropout", "0.2", "--bigram-alpha", "0.08"]
MODEL = {"dim": 16, "layers": 1, "heads": 2, "ffn_dim": 32}
TRAIN = {"total_updates": 12, "warmup_updates": 3, "batch_size": 8, "seq_len": 16,
         "checkpoint_every": 6, "seed": 2}
RUN_ALL = {**MODEL, "pretrain_updates": 10, "pretrain_warmup": 2, "total_updates": 12,
           "warmup_updates": 3, "seq_len": 16, "checkpoint_every": 6, "seed": 3,
           "ibm1_iterations": 3, "bpe_codes": 30}
VEC_DIM = 8
BIG_VOCAB = 8000  # tokens added to a vocabulary: 65 float32 rows fill a 2 MB slice
# foreign words (five score blocks of 512 rows, an odd count) and dimension
# of the big vectors job, and the foreign words in it without a vector
BIG_FOREIGN, BIG_DIM, BIG_ZERO = 2100, 16, (7, 1500)
NUM_SPECIALS = 5  # the special tokens that open every vocabulary file
UNK_ID = 1  # the id of a token outside the vocabulary
IBM1_FEW = 20  # pairs of the third ibm1 job
ROW_GROUP, EVAL_CHUNK = 16, 64  # rows per no-cache encoder pass and per eval chunk
BLOCK_LINKS, E_STEP_CHUNK = 1 << 20, 1 << 16  # IBM-1 links per block and per E-step chunk


def write_flat(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def make_inputs(tree: Path, inputs: Path) -> None:
    """The cipher bundle (from `tree`'s generator), word vectors and dictionaries."""
    cli(tree, inputs.parent, "fixture", "cipher-fixture", *FIXTURE, "--out-dir", str(inputs))
    pairs = [line.split("\t") for line in
             (inputs / "dictionary.tsv").read_text(encoding="utf-8").splitlines()]
    rng = random.Random(7)
    en_vecs = {en: [rng.gauss(0.0, 1.0) for _ in range(VEC_DIM)] for en, _ in pairs}
    # the foreign space: the english one with its coordinates reversed, plus noise
    fg_vecs = {fg: [x + rng.gauss(0.0, 0.01) for x in reversed(en_vecs[en])]
               for en, fg in pairs}
    # two corpus words run together: a word the corpus lacks, which the BPE
    # subword-vectors job weighs by the unigram floor
    floor_word = pairs[0][0] + pairs[1][0]
    corpus_words = set((inputs / "en_train.txt").read_text(encoding="utf-8").split())
    if floor_word in corpus_words:
        raise SystemExit(f"{inputs / 'en_train.txt'}: holds {floor_word!r}")
    floor_vecs = {**en_vecs, floor_word: [rng.gauss(0.0, 1.0) for _ in range(VEC_DIM)]}
    for name, table in (("en.vec", en_vecs), ("fg.vec", fg_vecs), ("en_floor.vec", floor_vecs)):
        lines = [f"{len(table)} {VEC_DIM}"]
        lines += [tok + " " + " ".join(f"{x:.6f}" for x in vec) for tok, vec in table.items()]
        (inputs / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    seed = [f"{fg}\t{en}" for en, fg in pairs[: len(pairs) // 2]]
    (inputs / "seed.tsv").write_text("\n".join(seed) + "\n", encoding="utf-8")


def cli(tree: Path, run: Path, name: str, *argv: str, check: bool = True) -> bool:
    """One CLI call with `tree`'s code; its stdout goes to run/cli/NAME.json.
    A failed call ends the script, or with `check` False returns False."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("LANGXFER_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "langxfer.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=run)
    (run / "cli").mkdir(parents=True, exist_ok=True)
    (run / "cli" / f"{name}.json").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0 and check:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: `langxfer {' '.join(argv)}` exited {proc.returncode}")
    return proc.returncode == 0


def run_jobs(tree: Path, inputs: Path, run: Path) -> None:
    run.mkdir(parents=True)
    i = {name: str(inputs / name) for name in (
        "en_train.txt", "en_heldout.txt", "fg_train.txt", "fg_heldout.txt",
        "dictionary.tsv", "en.vec", "fg.vec", "en_floor.vec", "seed.tsv")}
    sides = {"en": "en_train.txt", "fg": "fg_train.txt"}
    # english<TAB>foreign: the first foreign word again, with the second
    # english word (the later pair wins), and a line in neither vocabulary
    entries = Path(i["dictionary.tsv"]).read_text(encoding="utf-8").splitlines()
    (_, fg0), (en1, _) = (line.split("\t") for line in entries[:2])
    (run / "dictionary_repeat.tsv").write_text(
        "\n".join([*entries, "nope\tnada", f"{en1}\t{fg0}"]) + "\n", encoding="utf-8")

    # run_all: every route, the embedding-only phase for none, some and all
    # updates, and the mapped settings at values of their own
    routes = {
        "parallel-word-f0": {"route": "parallel", "freeze_phase_updates": 0},
        "parallel-word-f5": {"route": "parallel", "freeze_phase_updates": 5},
        "parallel-word-f12": {"route": "parallel", "freeze_phase_updates": 12},
        "parallel-word-mapped": {"route": "parallel", "norm": "post", "grad_clip": 0,
                                 "pretrain_peak_lr": 0.003, "pretrain_warmup": 4,
                                 "mask_prob": 0.25},
        "parallel-bpe": {"route": "parallel", "tokenization": "bpe"},
        # two layers, so that the last layer, which the loss runs at the
        # masked positions only, is not also the first
        "parallel-word-2layer-pre": {"route": "parallel", "layers": 2, "batch_size": 16},
        "parallel-word-2layer-post": {"route": "parallel", "layers": 2, "batch_size": 16,
                                      "norm": "post"},
        "dictionary": {"route": "dictionary", "dictionary": i["dictionary.tsv"]},
        "dictionary-repeat": {"route": "dictionary",
                              "dictionary": str(run / "dictionary_repeat.tsv")},
        "vectors": {"route": "vectors", "en_vectors": i["en.vec"], "fg_vectors": i["fg.vec"],
                    "seed_dictionary": i["seed.tsv"]},
        "vectors-bpe": {"route": "vectors", "tokenization": "bpe", "en_vectors": i["en.vec"],
                        "fg_vectors": i["fg.vec"], "seed_dictionary": i["seed.tsv"]},
    }
    for name, extra in routes.items():
        cfg = {"out_dir": str(run / name), "en_train": i["en_train.txt"],
               "en_heldout": i["en_heldout.txt"], "fg_train": i["fg_train.txt"],
               "fg_heldout": i["fg_heldout.txt"], **RUN_ALL, **extra}
        write_flat(run / f"{name}.cfg", cfg)
        cli(tree, run, f"run-all-{name}", "run-all", "--config", str(run / f"{name}.cfg"))
    cli(tree, run, "run-all-warm", "run-all", "--config", str(run / "parallel-word-f5.cfg"))

    # each subcommand
    cli(tree, run, "fixture", "cipher-fixture", *FIXTURE, "--route", "dictionary",
        "--out-dir", str(run / "fixture"))
    cli(tree, run, "fixture-noisy", "cipher-fixture", *NOISY_FIXTURE,
        "--out-dir", str(run / "fixture-noisy"))
    for side, corpus in sides.items():
        cli(tree, run, f"bpe-{side}", "bpe", "--input", i[corpus], "--num-codes", "30",
            "--output", str(run / f"codes_{side}.txt"))
        cli(tree, run, f"vocab-{side}", "vocab", "--input", i[corpus], "--max-size", "200",
            "--output", str(run / f"vocab_{side}.txt"))
        cli(tree, run, f"vocab-bpe-{side}", "vocab", "--input", i[corpus],
            "--max-size", "200", "--codes", str(run / f"codes_{side}.txt"),
            "--output", str(run / f"vocab_bpe_{side}.txt"))
    vocabs = ["--foreign-vocab", str(run / "vocab_fg.txt"),
              "--english-vocab", str(run / "vocab_en.txt")]
    cli(tree, run, "ibm1", "ibm1", "--foreign", i["fg_train.txt"],
        "--english", i["en_train.txt"], *vocabs, "--iterations", "3",
        "--output", str(run / "ibm1_tm.txt"))
    # fewer pairs than the bundle holds, so that the subsampled alignment runs
    cli(tree, run, "ibm1-subsample", "ibm1", "--foreign", i["fg_train.txt"],
        "--english", i["en_train.txt"], *vocabs, "--iterations", "3",
        "--subsample", "200", "--seed", "7", "--output", str(run / "ibm1_sub_tm.txt"))
    few = {side: run / f"{side}_few.txt" for side in sides}
    write_few_pairs(i, few, run / "vocab_fg.txt", run / "vocab_en.txt")
    cli(tree, run, "ibm1-few", "ibm1", "--foreign", str(few["fg"]), "--english",
        str(few["en"]), *vocabs, "--iterations", "3", "--output", str(run / "ibm1_few_tm.txt"))
    # the noisy bundle's pairs, whose first link block spans several E-step chunks
    noisy = {side: run / "fixture-noisy" / corpus for side, corpus in sides.items()}
    check_chunked_block(noisy["fg"], noisy["en"])
    for side, corpus in noisy.items():
        cli(tree, run, f"vocab-noisy-{side}", "vocab", "--input", str(corpus),
            "--max-size", "200", "--output", str(run / f"vocab_noisy_{side}.txt"))
    cli(tree, run, "ibm1-noisy", "ibm1", "--foreign", str(noisy["fg"]), "--english",
        str(noisy["en"]), "--foreign-vocab", str(run / "vocab_noisy_fg.txt"),
        "--english-vocab", str(run / "vocab_noisy_en.txt"), "--iterations", "3",
        "--output", str(run / "ibm1_noisy_tm.txt"))
    links = [" ".join(f"{k}-{k}" for k in range(min(len(fg.split()), len(en.split()))))
             for fg, en in zip(Path(i["fg_train.txt"]).read_text().splitlines(),
                               Path(i["en_train.txt"]).read_text().splitlines())]
    (run / "links.txt").write_text("\n".join(links) + "\n", encoding="utf-8")
    cli(tree, run, "parse-fastalign", "parse-fastalign", "--foreign", i["fg_train.txt"],
        "--english", i["en_train.txt"], *vocabs, "--alignments", str(run / "links.txt"),
        "--output", str(run / "fastalign_tm.txt"))
    cli(tree, run, "align-vectors", "align-vectors", "--foreign-vectors", i["fg.vec"],
        "--english-vectors", i["en.vec"], "--dictionary", i["seed.tsv"],
        "--output", str(run / "aligned.vec"))
    for mode in ("sparsemax", "softmax"):
        cli(tree, run, f"translation-matrix-{mode}", "translation-matrix",
            "--foreign-vectors", str(run / "aligned.vec"), "--english-vectors", i["en.vec"],
            "--mode", mode, "--output", str(run / f"vec_tm_{mode}.txt"))
    cli(tree, run, "subword-vectors", "subword-vectors", "--vectors", i["en_floor.vec"],
        "--corpus", i["en_train.txt"], "--vocab", str(run / "vocab_bpe_en.txt"),
        "--codes", str(run / "codes_en.txt"), "--output", str(run / "subword_en.vec"))
    # the word chain, onto the vectors route's vocabularies and pretrained
    # model; a tree whose subword-vectors needs --codes fails at its first
    # step, which ends the chain
    words = run / "vectors"
    vectors = {"fg": str(run / "aligned.vec"), "en": i["en.vec"]}
    chain = {f"word-vectors-{side}": [
        "subword-vectors", "--vectors", vec, "--vocab", str(words / f"vocab_{side}.txt"),
        "--output", str(run / f"word_{side}.vec")] for side, vec in vectors.items()}
    chain["word-translation-matrix"] = [
        "translation-matrix", "--foreign-vectors", str(run / "word_fg.vec"),
        "--english-vectors", str(run / "word_en.vec"), "--output", str(run / "word_tm.txt")]
    chain["word-init-embeddings"] = [
        "init-embeddings", "--translation-matrix", str(run / "word_tm.txt"),
        "--checkpoint", str(words / "pretrain" / "checkpoints"
                            / f"step_{RUN_ALL['pretrain_updates']:07d}"),
        "--foreign-vocab", str(words / "vocab_fg.txt"), "--seed", str(RUN_ALL["seed"]),
        "--output-emb", str(run / "word_init_emb.bin"),
        "--output-bias", str(run / "word_init_bias.bin")]
    for name, argv in chain.items():
        if not cli(tree, run, name, *argv, check=False):
            break

    write_flat(run / "train.cfg", TRAIN)
    model = [f"--{k.replace('_', '-')}={v}" for k, v in MODEL.items()]
    cli(tree, run, "pretrain", "pretrain", "--corpus", i["en_train.txt"],
        "--heldout", i["en_heldout.txt"], "--vocab", str(run / "vocab_en.txt"), *model,
        "--config", str(run / "train.cfg"), "--out-dir", str(run / "pretrain"))
    checkpoint = str(run / "pretrain" / "checkpoints" / f"step_{TRAIN['total_updates']:07d}")
    cli(tree, run, "init-embeddings", "init-embeddings",
        "--translation-matrix", str(run / "ibm1_tm.txt"), "--checkpoint", checkpoint,
        "--foreign-vocab", str(run / "vocab_fg.txt"), "--seed", "4",
        "--output-emb", str(run / "init_emb.bin"), "--output-bias", str(run / "init_bias.bin"))
    for frozen in (0, 5, TRAIN["total_updates"]):
        write_flat(run / f"transfer_{frozen}.cfg", {**TRAIN, "freeze_phase_updates": frozen})
        cli(tree, run, f"transfer-{frozen}", "transfer", "--checkpoint", checkpoint,
            "--init-emb", str(run / "init_emb.bin"), "--init-bias", str(run / "init_bias.bin"),
            "--en-train", i["en_train.txt"], "--fg-train", i["fg_train.txt"],
            "--en-heldout", i["en_heldout.txt"], "--fg-heldout", i["fg_heldout.txt"],
            "--config", str(run / f"transfer_{frozen}.cfg"),
            "--out-dir", str(run / f"transfer_{frozen}"))
    check_eval_chunks(Path(i["fg_heldout.txt"]), TRAIN["seq_len"])
    cli(tree, run, "eval", "eval", "--checkpoint",
        str(run / "transfer_5" / "checkpoints" / f"step_{TRAIN['total_updates']:07d}"),
        "--corpus", i["fg_heldout.txt"], "--language", "fg")
    # a vocabulary far past the corpus's, so that an eval chunk's masked
    # positions span several of the loss's row slices
    (run / "vocab_big_en.txt").write_text(
        (run / "vocab_en.txt").read_text(encoding="utf-8")
        + "".join(f"unseen{k}\n" for k in range(BIG_VOCAB)), encoding="utf-8")
    cli(tree, run, "pretrain-big-vocab", "pretrain", "--corpus", i["en_train.txt"],
        "--heldout", i["en_heldout.txt"], "--vocab", str(run / "vocab_big_en.txt"), *model,
        "--config", str(run / "train.cfg"), "--out-dir", str(run / "pretrain_big_vocab"))
    cli(tree, run, "eval-big-vocab", "eval", "--checkpoint",
        str(run / "pretrain_big_vocab" / "checkpoints" / f"step_{TRAIN['total_updates']:07d}"),
        "--corpus", i["en_train.txt"], "--language", "en")
    big_vectors(tree, run)

    # rejected inputs: only their JSON error lines are kept
    base = {"out_dir": str(run / "rejected"), **RUN_ALL,
            **{n: i[f"{n}.txt"] for n in ("en_train", "en_heldout", "fg_train", "fg_heldout")}}
    bad_values = {"range": ("mask_prob", 1.5), "type": ("dim", "abc"),
                  "choice": ("norm", "mid"), "choice-route": ("route", "bogus")}
    for name, (key, value) in bad_values.items():
        write_flat(run / f"bad-{name}.cfg", {**base, key: value})
        cli(tree, run, f"bad-config-{name}", "run-all", "--config",
            str(run / f"bad-{name}.cfg"), check=False)
    shutil.copytree(checkpoint, run / "bad_manifest")
    manifest = json.loads((run / "bad_manifest" / "manifest.json").read_text())
    manifest["config"]["dim"] = "x"
    (run / "bad_manifest" / "manifest.json").write_text(json.dumps(manifest))
    held = ["--corpus", i["en_heldout.txt"], "--language", "en"]
    cli(tree, run, "bad-manifest", "eval", "--checkpoint", str(run / "bad_manifest"), *held,
        check=False)
    cli(tree, run, "bad-eval-seed", "eval", "--checkpoint", checkpoint, *held, "--seed", "-1",
        check=False)


def write_few_pairs(i: dict[str, str], few: dict[str, Path], vocab_fg: Path,
                    vocab_en: Path) -> None:
    """The bundle's first IBM1_FEW training pairs, after checking that the
    largest key of their IBM-1 links, foreign id x (largest english id + 2)
    + english id + 1, is at least their link count."""
    lines = {side: Path(i[f"{side}_train.txt"]).read_text(encoding="utf-8").splitlines()
             for side in few}
    index = {side: {t: k for k, t in enumerate(path.read_text(encoding="utf-8").splitlines())}
             for side, path in (("fg", vocab_fg), ("en", vocab_en))}
    pairs = [([index["fg"].get(t, UNK_ID) for t in fg.split()],
              [index["en"].get(t, UNK_ID) for t in en.split()])
             for fg, en in zip(lines["fg"][:IBM1_FEW], lines["en"][:IBM1_FEW])]
    pairs = [(fg, en) for fg, en in pairs if fg and en]
    n_links = sum(len(fg) * (len(en) + 1) for fg, en in pairs)
    width = max(max(en) for _, en in pairs) + 2
    top_key = max(max(fg) * width + max(en) + 1 for fg, en in pairs)
    if top_key < n_links:
        raise SystemExit(f"the first {IBM1_FEW} pairs have {n_links} links, more "
                         f"than their largest link key {top_key}")
    for side, path in few.items():
        path.write_text("".join(line + "\n" for line in lines[side][:IBM1_FEW]),
                        encoding="utf-8")


def check_chunked_block(fg: Path, en: Path) -> None:
    """Stop unless the IBM-1 links of the word pairs in `fg` and `en`
    (pairs with an empty side dropped) put more than two E-step chunks in
    the aligner's first block."""
    first_block = 0
    for f, e in zip(fg.read_text(encoding="utf-8").splitlines(),
                    en.read_text(encoding="utf-8").splitlines()):
        n_fg, n_en = len(f.split()), len(e.split())
        if n_fg and n_en:
            if first_block and first_block + n_fg * (n_en + 1) > BLOCK_LINKS:
                break
            first_block += n_fg * (n_en + 1)
    if first_block <= 2 * E_STEP_CHUNK:
        raise SystemExit(f"{fg}: the first IBM-1 block holds {first_block} links, "
                         f"not more than two E-step chunks of {E_STEP_CHUNK}")


def check_eval_chunks(corpus: Path, seq_len: int) -> None:
    """Stop unless packing `corpus`'s words into rows of `seq_len` leaves an
    evaluation chunk whose row count is not a multiple of ROW_GROUP."""
    lines = [line.split() for line in corpus.read_text(encoding="utf-8").splitlines()]
    rows = sum(len(tokens) + 1 for tokens in lines if tokens) // seq_len
    chunks = [min(EVAL_CHUNK, rows - a) for a in range(0, rows, EVAL_CHUNK)]
    if all(n % ROW_GROUP == 0 for n in chunks):
        raise SystemExit(f"{corpus}: every evaluation chunk of its {rows} rows is a "
                         f"whole number of {ROW_GROUP}-row groups")


def big_vectors(tree: Path, run: Path) -> None:
    """`subword-vectors` onto the 8,000-token english vocabulary (a
    `save_vectors` table of that many rows), then `translation-matrix` from
    BIG_FOREIGN foreign vectors small enough that sparsemax rows hold about
    150 entries (several of the writer's 131,072-entry blocks), in five
    score blocks split unevenly between the two workers, and with the
    BIG_ZERO words' vectors all zero (rows left uncovered), then
    `init-embeddings` on the big-vocabulary checkpoint."""
    rng = random.Random(11)
    tokens = (run / "vocab_big_en.txt").read_text(encoding="utf-8").split()
    specials, en_words = tokens[:NUM_SPECIALS], tokens[NUM_SPECIALS:]
    fg_words = [f"big{k}" for k in range(BIG_FOREIGN)]
    zero = {fg_words[k] for k in BIG_ZERO}
    (run / "vocab_big_fg.txt").write_text(
        "".join(t + "\n" for t in specials + fg_words), encoding="utf-8")
    for name, words, sigma in (("big_en_words.vec", en_words, 0.1),
                               ("big_fg.vec", fg_words, 0.05)):
        lines = [f"{len(words)} {BIG_DIM}"]
        lines += [w + (" 0" * BIG_DIM if w in zero else
                       "".join(f" {rng.gauss(0.0, sigma):.6f}" for _ in range(BIG_DIM)))
                  for w in words]
        (run / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    cli(tree, run, "big-vectors-en", "subword-vectors", "--vectors",
        str(run / "big_en_words.vec"), "--vocab", str(run / "vocab_big_en.txt"),
        "--output", str(run / "big_en.vec"))
    cli(tree, run, "big-translation-matrix", "translation-matrix",
        "--foreign-vectors", str(run / "big_fg.vec"), "--english-vectors",
        str(run / "big_en.vec"), "--output", str(run / "big_tm.txt"))
    cli(tree, run, "big-init-embeddings", "init-embeddings",
        "--translation-matrix", str(run / "big_tm.txt"), "--checkpoint",
        str(run / "pretrain_big_vocab" / "checkpoints" / f"step_{TRAIN['total_updates']:07d}"),
        "--foreign-vocab", str(run / "vocab_big_fg.txt"), "--seed", "6",
        "--output-emb", str(run / "big_init_emb.bin"),
        "--output-bias", str(run / "big_init_bias.bin"))


def comparable(path: Path) -> bytes | list[str]:
    """The part of a file's content that must match."""
    if path.name == "telemetry.csv":  # drop the wall_ms column
        lines = path.read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]
    return path.read_bytes()


def column_gaps(a: Path, b: Path) -> list[str]:
    """The largest absolute difference in each numeric column of two CSVs
    that differs (not telemetry's wall_ms), one line per column."""
    with a.open(newline="", encoding="utf-8") as fa, b.open(newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    shape = [len(row) for row in rows_a]
    if not rows_a or rows_a[0] != rows_b[0] or shape != [len(row) for row in rows_b]:
        return ["  header or shape differs"]
    lines = []
    for j, name in enumerate(rows_a[0]):
        if a.name == "telemetry.csv" and name == "wall_ms":
            continue
        pairs = [(x[j], y[j]) for x, y in zip(rows_a[1:], rows_b[1:]) if x[j] != y[j]]
        try:
            gap = max((abs(float(x) - float(y)) for x, y in pairs), default=None)
        except ValueError:  # not a numeric column, or a value missing on one side
            lines.append(f"  {name}: {len(pairs)} values differ")
            continue
        if gap is not None:
            lines.append(f"  {name}: largest |difference| {gap:.3g} over {len(pairs)} values")
    return lines


def compare(a: Path, b: Path) -> tuple[list[str], int, int]:
    """The report, one line per file that differs or exists on one side
    only, a CSV's followed by its column gaps; the number of those files;
    and the number of files compared."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    report = [f"only in parent: {f}" for f in sorted(fa - fb)]
    report += [f"only in change: {f}" for f in sorted(fb - fa)]
    n_diffs = len(report)
    for f in sorted(fa & fb):
        if comparable(a / f) != comparable(b / f):
            n_diffs += 1
            report.append(f"differs: {f}")
            if f.endswith(".csv"):
                report += column_gaps(a / f, b / f)
    return report, n_diffs, len(fa & fb)


def leftovers(run: Path) -> list[str]:
    """The entries under `run` named like a temporary entry of an atomic write."""
    return sorted(str(p.relative_to(run)) for p in run.rglob("*")
                  if p.name.endswith((".tmp", ".tmp.old")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "langxfer" / "__init__.py").is_file():
            parser.error(f"{tree} is not a langxfer source tree")
    with tempfile.TemporaryDirectory(prefix="langxfer-compare-") as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        make_inputs(trees["parent"], inputs)
        for side, tree in trees.items():
            run_jobs(tree, inputs, work / "run")
            left = leftovers(work / "run")
            if left:
                raise SystemExit(f"{tree}: temporary entries left in the run directory: "
                                 f"{', '.join(left)}")
            shutil.move(work / "run", work / side)
        report, n_diffs, compared = compare(work / "parent", work / "change")
    for line in report:
        print(line)
    print(f"{compared} files compared, {n_diffs} differ")
    return 1 if n_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
