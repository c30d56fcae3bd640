"""End-to-end pipeline: vocabularies, pretraining, translation matrix,
initialization, transfer, summary — with content-addressed stage caching.

A stage reruns only when the hash of its inputs (file contents) or its
parameters changes, or when one of its outputs no longer has the content it
was stored with; artifacts of completed stages are kept on failure of a
later stage. The work directory defaults to the output directory and can be
overridden with the LANGXFER_CACHE_DIR environment variable. Each stage is
a plain function, files in and files out, that the CLI subcommands share.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from . import corpus as corpus_mod
from .corpus import (
    BpeCodes,
    Tokenizer,
    Vocabulary,
    build_vocab,
    check_fields,
    iter_lines,
    iter_tokens,
    learn_bpe,
    read_parallel,
    replace_text,
    replacing,
    ruled,
)
from .embeddings import (
    EmbeddingMatrix,
    align_to,
    load_binary_vectors,
    load_vectors,
    read_array,
    read_dictionary,
    save_vectors,
    write_array,
)
from .initializer import InitReport, init_foreign_bias, init_foreign_embeddings
from .tiny_mlm import ModelConfig, init_model, load_checkpoint
from .trainer import TrainingConfig, pack_sequences, pretrain, run_transfer
from .translation import (
    SubwordVectorTable,
    TranslationMatrix,
    dictionary_translation_matrix,
    read_translation_matrix,
    row_entropy_report,
    subword_vectors,
    translation_matrix_from_vectors,
    write_translation_matrix,
)
from .word_alignment import (
    ParallelCorpus,
    subsample,
    train_ibm1,
    translation_matrix_from_alignment,
)

CACHE_DIR_ENV = "LANGXFER_CACHE_DIR"

# Each sub-config a PipelineConfig derives, under the name its errors give
# it: its class, the PipelineConfig field each of its fields comes from,
# and its fixed values. Its other fields keep their defaults.
_SHARED = ("batch_size", "seq_len", "mask_prob", "seed", "grad_clip")
SUB_CONFIGS: dict[str, tuple[type, dict[str, str], dict]] = {
    "pretrain schedule": (TrainingConfig, {
        **{n: n for n in _SHARED}, "total_updates": "pretrain_updates",
        "warmup_updates": "pretrain_warmup", "peak_lr": "pretrain_peak_lr",
        "checkpoint_every": "pretrain_updates"}, {"freeze_phase_updates": 0}),
    "transfer schedule": (TrainingConfig, {n: n for n in (
        *_SHARED, "total_updates", "warmup_updates", "peak_lr", "freeze_phase_updates",
        "checkpoint_every")}, {}),
    "model": (ModelConfig, {"dim": "dim", "layers": "layers", "heads": "heads",
                            "ffn_dim": "ffn_dim", "norm": "norm", "max_len": "seq_len"}, {}),
}


def _read_by(*parts: str) -> tuple[str, ...]:
    """The PipelineConfig fields the named sub-configs read."""
    return tuple(sorted({n for part in parts for n in SUB_CONFIGS[part][1].values()}))


# the PipelineConfig fields each run_all stage's cache key hashes
STAGE_PARAMS: dict[str, tuple[str, ...]] = {
    "vocab": ("tokenization", "bpe_codes", "vocab_size_en", "vocab_size_fg"),
    "pack": ("tokenization", "seq_len"),
    "pretrain": _read_by("pretrain schedule", "model"),
    "translation": ("route", "tokenization", "align_pairs", "ibm1_iterations",
                    "ibm1_prune", "word_limit", "seed"),
    "init": ("seed",),
    "transfer": _read_by("transfer schedule"),
}


@dataclass
class PipelineConfig:
    out_dir: str
    en_train: str
    en_heldout: str
    fg_train: str
    fg_heldout: str
    route: Literal["parallel", "dictionary", "vectors"] = "parallel"
    dictionary: str = ""  # TSV (english<TAB>foreign) for route=dictionary
    en_vectors: str = ""  # .vec files for route=vectors
    fg_vectors: str = ""
    seed_dictionary: str = ""  # optional TSV (foreign<TAB>english) for Procrustes
    tokenization: Literal["word", "bpe"] = "word"
    bpe_codes: int = ruled(300, ">= 0")
    vocab_size_en: int = 8000
    vocab_size_fg: int = 8000
    word_limit: int = ruled(50000, ">= 1")
    align_pairs: int = ruled(2000000, ">= 1")
    ibm1_iterations: int = ruled(10, ">= 1")
    ibm1_prune: float = ruled(1e-4, ">= 0")
    dim: int = 48
    layers: int = 2
    heads: int = 4
    ffn_dim: int = 192
    norm: str = "pre"
    pretrain_updates: int = 3000
    pretrain_warmup: int = 300
    pretrain_peak_lr: float = 2e-3
    total_updates: int = 5000
    warmup_updates: int = 400
    peak_lr: float = 1e-3
    batch_size: int = 16
    seq_len: int = 32
    mask_prob: float = 0.15
    freeze_phase_updates: int = 500
    checkpoint_every: int = 1000
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        # fail on bad sizes, a bad schedule or model now, before any output exists
        check_fields(self)
        for name in ("vocab_size_en", "vocab_size_fg"):
            if getattr(self, name) <= corpus_mod.NUM_SPECIALS:
                raise ValueError(
                    f"{name} must exceed the {corpus_mod.NUM_SPECIALS} special tokens, "
                    f"got {getattr(self, name)}"
                )
        for part in SUB_CONFIGS:
            try:
                self._derive(part)
            except ValueError as exc:
                raise ValueError(f"{part}: {exc}") from None

    def _derive(self, part: str):
        cls, fields, fixed = SUB_CONFIGS[part]
        return cls(**fixed, **{f: getattr(self, n) for f, n in fields.items()})

    def pretrain_config(self) -> TrainingConfig:
        return self._derive("pretrain schedule")

    def training_config(self) -> TrainingConfig:
        return self._derive("transfer schedule")

    def model_config(self) -> ModelConfig:
        return self._derive("model")


def _parse_scalar(text: str, like) -> object:
    if not isinstance(like, bool):
        return type(like)(text)  # int, float or str
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def load_flat_dataclass(path: str | Path, cls):
    """Parse a flat "key = value" config file ('#' starts a comment). A
    value in double quotes is read up to its closing quote, '#' and all."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values: dict[str, object] = {}
    for n, raw in enumerate(iter_lines(path), 1):
        key, eq, value = raw.partition("=")
        if "#" in key:  # a comment starts before any '='
            key, eq = key.split("#", 1)[0], ""
        if not key.strip() and not eq:
            continue
        if not eq:
            raise ValueError(f"{path}: line {n}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if value.startswith('"'):
            value, closed, rest = value[1:].partition('"')
            if not closed or rest.strip()[:1] not in ("", "#"):
                raise ValueError(f"{path}: line {n}: a quoted value must end in '\"'")
        else:
            value = value.split("#", 1)[0].strip()
        if key not in fields:
            raise ValueError(f"{path}: line {n}: unknown config key {key!r}")
        f = fields[key]
        default = f.default if f.default is not dataclasses.MISSING else ""
        try:
            values[key] = _parse_scalar(value, default)
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {key}: {exc}") from None
    missing = [name for name, f in fields.items()
               if f.default is dataclasses.MISSING and name not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {missing}")
    return cls(**values)


def load_config(path: str | Path) -> PipelineConfig:
    return load_flat_dataclass(path, PipelineConfig)


def write_config(cfg, path: str | Path) -> None:
    """Write a config dataclass as the flat file `load_flat_dataclass` reads.
    A string holding '#' or with whitespace at either end is double-quoted;
    one holding a line break or a '"' cannot be written."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, str):
            if any(c in value for c in '\n\r"'):
                raise ValueError(f"{f.name}: a config value cannot hold a line break or "
                                 f"'\"': {value!r}")
            if "#" in value or value != value.strip():
                value = f'"{value}"'
        lines.append(f"{f.name} = {value}\n")
    replace_text(path, "".join(lines))


def _hash_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _hash_tree(path: Path, memo: dict[str, str] | None = None) -> str:
    """sha256 of a file, or of a directory's relative paths and file digests.

    `memo` maps absolute file paths to digests taken before; a file found
    there is not read again, and new digests are added to it.
    """

    def digest(file: Path) -> str:
        if memo is None:
            return _hash_file(file)
        key = os.path.abspath(file)
        if key not in memo:
            memo[key] = _hash_file(file)
        return memo[key]

    if path.is_file():
        return digest(path)
    h = hashlib.sha256()
    for sub in sorted(path.rglob("*")):
        if sub.is_file():
            h.update(str(sub.relative_to(path)).encode())
            h.update(digest(sub).encode())
    return h.hexdigest()


class StageCache:
    """Content-addressed skip logic: (stage, params, input hashes) -> outputs.

    With `memo`, a dict of file digests, each file is hashed once for as
    long as the dict lives, by `key`, `hit` and `store` alike; `drop`
    forgets the digests of the outputs a stage is about to rewrite. Only a
    caller that writes the files itself, through stages, can share one:
    `run_all` does, for the length of one call.
    """

    def __init__(self, work_dir: Path, memo: dict[str, str] | None = None) -> None:
        self.path = work_dir / "cache.json"
        self.memo = memo
        try:
            entries = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # missing, unreadable or torn: rerun every stage
            entries = {}
        self.entries: dict[str, dict] = entries if isinstance(entries, dict) else {}

    def key(self, stage: str, params: dict, inputs: list[Path]) -> str:
        payload = {
            "stage": stage,
            "params": params,
            "inputs": [_hash_tree(Path(p), self.memo) for p in inputs],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def hit(self, stage: str, key: str, outputs: list[Path]) -> bool:
        """True when `stage` last stored `key` and every output still has the
        content it was stored with. An entry that lists outputs without their
        digests (the older format) never hits."""
        entry = self.entries.get(stage)
        if entry is None or entry.get("key") != key:
            return False
        return (all(Path(p).exists() for p in outputs)
                and entry.get("outputs") == self._digests(outputs))

    def store(self, stage: str, key: str, outputs: list[Path]) -> None:
        self.entries[stage] = {"key": key, "outputs": self._digests(outputs)}
        self._save()

    def _digests(self, outputs: list[Path]) -> list[list[str]]:
        return [[str(p), _hash_tree(Path(p), self.memo)] for p in outputs]

    def drop(self, stage: str, outputs: list[Path] = ()) -> None:
        """Forget a stage about to run: if it fails, no entry points at its
        partial outputs. The memo forgets every file under `outputs`."""
        if self.memo:
            gone = [os.path.abspath(p) for p in outputs]
            for key in [k for k in self.memo
                        if any(k == g or k.startswith(g + os.sep) for g in gone)]:
                del self.memo[key]
        if self.entries.pop(stage, None) is not None:
            self._save()

    def _save(self) -> None:
        replace_text(self.path, json.dumps(self.entries, indent=1, sort_keys=True) + "\n")


def load_tokenizer(vocab: Vocabulary | str | Path, codes: str | Path | None = None) -> Tokenizer:
    """A tokenizer over a vocabulary or its file, with BPE codes when a codes file is given."""
    vocab = vocab if isinstance(vocab, Vocabulary) else Vocabulary.load(vocab)
    return Tokenizer(vocab, BpeCodes.load(codes) if codes else None)


def pack_corpus(path: str | Path, tok: Tokenizer, seq_len: int) -> np.ndarray:
    """A text file's non-empty lines, tokenized and packed into rows."""
    ids = [tok.encode_line(line) for line in iter_lines(path)]
    try:
        return pack_sequences([s for s in ids if s], seq_len)
    except ValueError as exc:  # a decode error, raised above, names the file already
        raise ValueError(f"{path}: {exc}") from None


def align_parallel(corpus: ParallelCorpus, vocab_fg: Vocabulary, vocab_en: Vocabulary,
                   iterations: int, prune: float, max_pairs: int | None = None,
                   seed: int = 0) -> tuple[TranslationMatrix, dict]:
    """IBM-1 translation matrix of a parallel corpus, first subsampled to
    `max_pairs` pairs when given, and the alignment's log."""
    if max_pairs is not None:
        corpus = subsample(corpus, max_pairs, seed)
    model = train_ibm1(corpus, iterations, prune)
    info = {
        "pairs": len(corpus),
        "iterations": model.iterations_run,
        "final_log_likelihood": model.final_log_likelihood,
        "log_likelihoods": model.log_likelihoods,
    }
    return translation_matrix_from_alignment(model, vocab_fg, vocab_en), info


def vocab_vectors(vectors: EmbeddingMatrix, tok: Tokenizer,
                  corpus: str | Path | None = None) -> SubwordVectorTable:
    """A loaded vector table put on `tok`'s vocabulary. Without BPE codes
    each word takes its own vector, or zeros with support 0 when absent;
    with codes, each subword takes its words' vectors weighted by the
    corpus's word unigram counts. A corpus goes with codes, and only with them."""
    if (corpus is None) != (tok.codes is None):
        raise ValueError("BPE codes and a corpus go together: give both or neither")
    vocab = tok.vocab
    if corpus is not None:
        return subword_vectors(vectors, Counter(iter_tokens(corpus)), vocab, tok.codes)
    j = vectors.vocab.indices(vocab.tokens)
    found = j >= corpus_mod.NUM_SPECIALS  # a model special's row stays zero
    out = np.zeros((len(vocab), vectors.dim), dtype=np.float32)
    out[found] = vectors.data[j[found]]
    return SubwordVectorTable(EmbeddingMatrix(vocab, out), found)


def init_foreign(tm_path: str | Path, checkpoint: str | Path, vocab_fg: str | Path,
                 seed: int, emb_path: str | Path, bias_path: str | Path) -> InitReport:
    """Foreign embeddings and output bias from a translation matrix over the
    checkpoint's english vocabulary; writes both binary files."""
    model, _, _ = load_checkpoint(checkpoint)
    vocab_fg = Vocabulary.load(vocab_fg)
    tm = read_translation_matrix(tm_path, vocab_fg, model.vocab_en)
    src_emb = EmbeddingMatrix(model.vocab_en, model.params["emb_en"])
    emb, report = init_foreign_embeddings(tm, src_emb, vocab_fg, seed)
    bias = init_foreign_bias(tm, model.params["out_bias_en"], vocab_fg)
    save_vectors(emb, emb_path, format="binary")
    with replacing(bias_path) as tmp:
        write_array(tmp, bias)
    return report


SIDES = ("en", "fg")
CORPORA = ("en_train", "en_heldout", "fg_train", "fg_heldout")


def _tokenizers(files: dict[str, Path]) -> dict[str, Tokenizer]:
    """Each side's tokenizer from a stage's inputs: `vocab_<side>`, with the
    BPE codes `codes_<side>` when the inputs name them."""
    return {s: load_tokenizer(files[f"vocab_{s}"], files.get(f"codes_{s}")) for s in SIDES}


def _translation_route(cfg: PipelineConfig, corpora: dict[str, Path],
                       vocabs: dict[str, Path], codes: dict[str, Path], log_path: Path):
    """The translation route of `cfg`: its body, the files it reads in key
    order, and what it writes beside the matrix and its report. The body
    takes those files and `_tokenizers` of them and returns the matrix."""
    if cfg.route == "parallel":
        def parallel(f, tok) -> TranslationMatrix:
            pairs = read_parallel(f["fg_train"], f["en_train"], tok["fg"], tok["en"])
            tm, info = align_parallel(pairs, tok["fg"].vocab, tok["en"].vocab,
                                      cfg.ibm1_iterations, cfg.ibm1_prune,
                                      cfg.align_pairs, cfg.seed)
            replace_text(log_path, json.dumps(info) + "\n")
            return tm

        files = {**vocabs, "fg_train": corpora["fg_train"],
                 "en_train": corpora["en_train"], **codes}
        return parallel, files, [log_path]
    if cfg.route == "dictionary":
        def dictionary(f, tok) -> TranslationMatrix:  # english<TAB>foreign; specials never map
            ns = corpus_mod.NUM_SPECIALS
            vocab_en, vocab_fg = tok["en"].vocab, tok["fg"].vocab
            pairs = [(i, j) for j, i in read_dictionary(f["dictionary"], vocab_en, vocab_fg)
                     if i >= ns and j >= ns]
            if not pairs:  # only special tokens matched
                raise ValueError(f"{f['dictionary']}: no in-vocabulary dictionary pairs")
            return dictionary_translation_matrix(pairs, vocab_fg, vocab_en)

        return dictionary, {**vocabs, "dictionary": Path(cfg.dictionary)}, []

    def vectors(f, tok) -> TranslationMatrix:  # f names the corpora only under BPE
        vec = {s: load_vectors(f[f"{s}_vectors"], cfg.word_limit) for s in SIDES}
        vec["fg"] = align_to(vec["fg"], vec["en"], f.get("seed_dictionary"))[0]
        fg, en = (vocab_vectors(vec[s], tok[s], f.get(f"{s}_train")).emb for s in ("fg", "en"))
        return translation_matrix_from_vectors(fg, en)

    files = {**vocabs, "en_vectors": Path(cfg.en_vectors), "fg_vectors": Path(cfg.fg_vectors)}
    if cfg.seed_dictionary:
        files["seed_dictionary"] = Path(cfg.seed_dictionary)
    if codes:
        files.update(en_train=corpora["en_train"], fg_train=corpora["fg_train"], **codes)
    return vectors, files, []


def run_all(cfg: PipelineConfig) -> dict:
    """Execute all stages in dependency order with caching; returns a summary.

    A stage body gets the mapping of the files its key hashes and reads no
    other path. Every external input is checked before any stage runs.
    """
    out_dir = Path(cfg.out_dir)
    work = Path(os.environ.get(CACHE_DIR_ENV, cfg.out_dir))
    corpora = {n: Path(getattr(cfg, n)) for n in CORPORA}
    # the tokenizer files: the vocab stage's outputs, every tokenizing stage's inputs
    vocabs = {f"vocab_{s}": work / f"vocab_{s}.txt" for s in SIDES}
    codes = {f"codes_{s}": work / f"codes_{s}.txt" for s in SIDES} \
        if cfg.tokenization == "bpe" else {}
    tok_files = {**vocabs, **codes}
    route, tm_inputs, tm_logs = _translation_route(cfg, corpora, vocabs, codes,
                                                   work / "alignment_info.json")
    # the input files the config names for its route
    external = {n: getattr(cfg, n) for n in [*CORPORA, *tm_inputs] if n not in tok_files}
    for name, p in external.items():
        if not p or not Path(p).exists():
            raise FileNotFoundError(f"input file not found: {p} ({name})")
    out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    cache = StageCache(work, memo={})
    summary: dict = {"stages": {}, "work_dir": str(work)}

    def stage(name, inputs: dict[str, Path], outputs, fn) -> None:
        params = {n: getattr(cfg, n) for n in STAGE_PARAMS[name]}
        key = cache.key(name, params, list(inputs.values()))
        outs = [Path(p) for p in outputs]
        if cache.hit(name, key, outs):
            summary["stages"][name] = "cached"
            return
        cache.drop(name, outs)
        fn(inputs)
        cache.store(name, key, outs)
        summary["stages"][name] = "ran"

    # 1. vocabularies (and BPE codes)
    def build_vocabs(f) -> None:
        for side in SIDES:
            bpe = None
            if codes:
                bpe = learn_bpe(iter_lines(f[f"{side}_train"]), cfg.bpe_codes)
                bpe.save(codes[f"codes_{side}"])
            build_vocab(iter_tokens(f[f"{side}_train"], bpe),
                        getattr(cfg, f"vocab_size_{side}")).save(vocabs[f"vocab_{side}"])

    stage("vocab", {n: corpora[n] for n in ("en_train", "fg_train")},
          list(tok_files.values()), build_vocabs)

    # 2. tokenize + pack all corpora into fixed-length rows
    packs = {f"pack_{n}": work / f"pack_{n}.npy" for n in CORPORA}

    def pack_all(f) -> None:
        tok = _tokenizers(f)
        for n in CORPORA:
            with replacing(packs[f"pack_{n}"]) as tmp, open(tmp, "wb") as fh:
                np.save(fh, pack_corpus(f[n], tok[n[:2]], cfg.seq_len))

    stage("pack", {**corpora, **tok_files}, list(packs.values()), pack_all)

    # 3. pretrain the english model
    pretrain_dir = work / "pretrain"
    pretrain_ck = pretrain_dir / "checkpoints" / f"step_{cfg.pretrain_updates:07d}"

    def do_pretrain(f) -> None:
        model = init_model(cfg.model_config(), Vocabulary.load(f["vocab_en"]),
                           Vocabulary.from_tokens([]), cfg.seed)
        pretrain(cfg.pretrain_config(), model, np.load(f["pack_en_train"]),
                 np.load(f["pack_en_heldout"]), out_dir=pretrain_dir)

    en_packs = {n: packs[n] for n in ("pack_en_train", "pack_en_heldout")}
    stage("pretrain", {**en_packs, "vocab_en": vocabs["vocab_en"]}, [pretrain_ck], do_pretrain)

    # 4. translation matrix, by the route chosen above
    tm_path = work / "translation_matrix.txt"
    report_path = work / "translation_report.json"

    def build_translation_matrix(f) -> None:
        tok = _tokenizers(f)
        tm = route(f, tok)
        write_translation_matrix(tm, tok["fg"].vocab, tok["en"].vocab, tm_path)
        replace_text(report_path,
                     json.dumps(dataclasses.asdict(row_entropy_report(tm)), sort_keys=True) + "\n")

    stage("translation", tm_inputs, [tm_path, report_path, *tm_logs], build_translation_matrix)

    # 5. initialize foreign embeddings and bias
    init_files = {n: work / f"{n}.bin" for n in ("init_emb", "init_bias")}
    init_report = work / "init_report.json"

    def do_init(f) -> None:
        init_foreign(f["translation_matrix"], f["pretrain"], f["vocab_fg"], cfg.seed,
                     *init_files.values()).save(init_report)

    stage("init", {"translation_matrix": tm_path, "pretrain": pretrain_ck,
                   "vocab_fg": vocabs["vocab_fg"]}, [*init_files.values(), init_report], do_init)

    # 6. transfer
    transfer_dir = work / "transfer"
    transfer_outputs = [transfer_dir / "metrics.csv", transfer_dir / "evals.csv",
                        transfer_dir / "checkpoints" / f"step_{cfg.total_updates:07d}"]

    def do_transfer(f) -> None:
        model, _, _ = load_checkpoint(f["pretrain"])
        rows = [np.load(f[f"pack_{n}"]) for n in ("en_train", "fg_train", "en_heldout",
                                                   "fg_heldout")]
        run_transfer(cfg.training_config(), model, load_binary_vectors(f["init_emb"]), *rows,
                     init_bias=read_array(f["init_bias"])[0], out_dir=transfer_dir)

    stage("transfer", {**init_files, "pretrain": pretrain_ck, **packs}, transfer_outputs,
          do_transfer)

    # 7. summary
    report = json.loads(init_report.read_text(encoding="utf-8"))
    evals = _read_evals(transfer_dir / "evals.csv")
    first, last = evals[0], evals[-1]
    retention = last["eval_loss_en"] - first["eval_loss_en"]
    summary.update(
        {
            "init_coverage": report,
            "english_loss_before": first["eval_loss_en"],
            "english_loss_after": last["eval_loss_en"],
            "english_retention_delta": retention,
            "english_retention_ok": retention <= 0.1,
            "foreign_loss_step0": first["eval_loss_fg"],
            "foreign_loss_final": last["eval_loss_fg"],
            "foreign_accuracy_final": last["eval_acc_fg"],
        }
    )
    replace_text(out_dir / "summary.json", json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return summary


def _read_evals(path: Path) -> list[dict]:
    """evals.csv rows by column name; an empty field reads as NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) if v else float("nan") for k, v in row.items()}
                for row in csv.DictReader(fh)]
