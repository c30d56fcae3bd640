#!/usr/bin/env python3
"""Compare the outputs of two source trees of langxfer, file by file.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree's code (imported from TREE/src, in a subprocess) runs the same
small jobs on the same inputs: every `run_all` route (parallel and
vectors, each with word and with BPE tokens, and dictionary), the parallel
word route with an embedding-only phase of none, some and all of the
updates, and once with the settings that `PipelineConfig` renames or
converts on their way into its sub-configs set to values no other route
uses (post-norm, no clipping, other pretraining and masking rates), a warm
rerun, and each CLI subcommand once, plus a second `cipher-fixture` at the
benchmark's size with split noise and dictionary dropout, so that every
draw path of the generator is compared. Every job
writes into one fixed run directory, which is then moved aside, so paths
that outputs record are the same on both sides. The CLI's JSON lines are
kept as files too.

A file differs when its bytes differ, except that the `wall_ms` column of
`telemetry.csv` is not compared. Since both sides write into the same
path, `summary.json`'s `work_dir` and the paths in `cache.json` agree, and
both files are compared whole. The script prints each file that differs
or exists on one side only, and the number of files compared; it exits 1
when any differs.
"""

from __future__ import annotations

import argparse
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
                 "--split-prob", "0.3", "--dict-dropout", "0.2"]
MODEL = {"dim": 16, "layers": 1, "heads": 2, "ffn_dim": 32}
TRAIN = {"total_updates": 12, "warmup_updates": 3, "batch_size": 8, "seq_len": 16,
         "checkpoint_every": 6, "seed": 2}
RUN_ALL = {**MODEL, "pretrain_updates": 10, "pretrain_warmup": 2, "total_updates": 12,
           "warmup_updates": 3, "seq_len": 16, "checkpoint_every": 6, "seed": 3,
           "ibm1_iterations": 3, "bpe_codes": 30}
VEC_DIM = 8


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
    for name, table in (("en.vec", en_vecs), ("fg.vec", fg_vecs)):
        lines = [f"{len(table)} {VEC_DIM}"]
        lines += [tok + " " + " ".join(f"{x:.6f}" for x in vec) for tok, vec in table.items()]
        (inputs / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    seed = [f"{fg}\t{en}" for en, fg in pairs[: len(pairs) // 2]]
    (inputs / "seed.tsv").write_text("\n".join(seed) + "\n", encoding="utf-8")


def cli(tree: Path, run: Path, name: str, *argv: str) -> None:
    """One CLI call with `tree`'s code; its stdout goes to run/cli/NAME.json."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("LANGXFER_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "langxfer.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=run)
    (run / "cli").mkdir(parents=True, exist_ok=True)
    (run / "cli" / f"{name}.json").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: `langxfer {' '.join(argv)}` exited {proc.returncode}")


def run_jobs(tree: Path, inputs: Path, run: Path) -> None:
    run.mkdir(parents=True)
    i = {name: str(inputs / name) for name in (
        "en_train.txt", "en_heldout.txt", "fg_train.txt", "fg_heldout.txt",
        "dictionary.tsv", "en.vec", "fg.vec", "seed.tsv")}
    sides = {"en": "en_train.txt", "fg": "fg_train.txt"}

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
        "dictionary": {"route": "dictionary", "dictionary": i["dictionary.tsv"]},
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
    cli(tree, run, "subword-vectors", "subword-vectors", "--vectors", i["en.vec"],
        "--corpus", i["en_train.txt"], "--vocab", str(run / "vocab_bpe_en.txt"),
        "--codes", str(run / "codes_en.txt"), "--output", str(run / "subword_en.vec"))

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
    cli(tree, run, "eval", "eval", "--checkpoint",
        str(run / "transfer_5" / "checkpoints" / f"step_{TRAIN['total_updates']:07d}"),
        "--corpus", i["fg_heldout.txt"], "--language", "fg")


def comparable(path: Path) -> bytes | list[str]:
    """The part of a file's content that must match."""
    if path.name == "telemetry.csv":  # drop the wall_ms column
        lines = path.read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]
    return path.read_bytes()


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    diffs = [f"only in parent: {f}" for f in sorted(fa - fb)]
    diffs += [f"only in change: {f}" for f in sorted(fb - fa)]
    diffs += [f"differs: {f}" for f in sorted(fa & fb)
              if comparable(a / f) != comparable(b / f)]
    return diffs, len(fa & fb)


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
            shutil.move(work / "run", work / side)
        diffs, compared = compare(work / "parent", work / "change")
    for line in diffs:
        print(line)
    print(f"{compared} files compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
