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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .corpus import (
    BpeCodes,
    Tokenizer,
    Vocabulary,
    build_vocab,
    iter_lines,
    iter_tokens,
    learn_bpe,
    read_parallel,
    unigram_probs,
)
from .embeddings import (
    EmbeddingMatrix,
    align_to,
    load_binary_vectors,
    load_vectors,
    read_array,
    read_dictionary,
    replacing,
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


@dataclass
class PipelineConfig:
    out_dir: str
    en_train: str
    en_heldout: str
    fg_train: str
    fg_heldout: str
    route: str = "parallel"  # parallel | dictionary | vectors
    dictionary: str = ""  # TSV (english<TAB>foreign) for route=dictionary
    en_vectors: str = ""  # .vec files for route=vectors
    fg_vectors: str = ""
    seed_dictionary: str = ""  # optional TSV (foreign<TAB>english) for Procrustes
    tokenization: str = "word"  # word | bpe
    bpe_codes: int = 300
    vocab_size_en: int = 8000
    vocab_size_fg: int = 8000
    word_limit: int = 50000
    align_pairs: int = 2000000
    ibm1_iterations: int = 10
    ibm1_prune: float = 1e-4
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
        if self.route not in ("parallel", "dictionary", "vectors"):
            raise ValueError(f"unknown route: {self.route!r}")
        if self.tokenization not in ("word", "bpe"):
            raise ValueError(f"unknown tokenization: {self.tokenization!r}")
        # fail on bad sizes, a bad schedule or model now, before any output exists
        for name, low in (("word_limit", 1), ("align_pairs", 1), ("ibm1_iterations", 1),
                          ("bpe_codes", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("vocab_size_en", "vocab_size_fg"):
            if getattr(self, name) <= corpus_mod.NUM_SPECIALS:
                raise ValueError(
                    f"{name} must exceed the {corpus_mod.NUM_SPECIALS} special tokens, "
                    f"got {getattr(self, name)}"
                )
        for part, make in (("pretrain schedule", self.pretrain_config),
                           ("transfer schedule", self.training_config),
                           ("model", self.model_config)):
            try:
                make()
            except ValueError as exc:
                raise ValueError(f"{part}: {exc}") from None

    def validate_paths(self) -> None:
        required = [self.en_train, self.en_heldout, self.fg_train, self.fg_heldout]
        if self.route == "dictionary":
            required.append(self.dictionary)
        if self.route == "vectors":
            required += [self.en_vectors, self.fg_vectors]
            if self.seed_dictionary:
                required.append(self.seed_dictionary)
        for p in required:
            if not Path(p).exists():
                raise FileNotFoundError(f"input file not found: {p}")

    def _schedule(self, total: int, warmup: int, peak_lr: float, freeze: int,
                  every: int) -> TrainingConfig:
        return TrainingConfig(
            total_updates=total,
            warmup_updates=warmup,
            peak_lr=peak_lr,
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            mask_prob=self.mask_prob,
            freeze_phase_updates=freeze,
            seed=self.seed,
            checkpoint_every=every,
            grad_clip=self.grad_clip if self.grad_clip > 0 else None,
        )

    def pretrain_config(self) -> TrainingConfig:
        return self._schedule(self.pretrain_updates, self.pretrain_warmup,
                              self.pretrain_peak_lr, 0, self.pretrain_updates)

    def training_config(self) -> TrainingConfig:
        return self._schedule(self.total_updates, self.warmup_updates, self.peak_lr,
                              self.freeze_phase_updates, self.checkpoint_every)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            dim=self.dim,
            layers=self.layers,
            heads=self.heads,
            ffn_dim=self.ffn_dim,
            max_len=self.seq_len,
            norm=self.norm,
        )


def _parse_scalar(text: str, like) -> object:
    if isinstance(like, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    return text


def load_flat_dataclass(path: str | Path, cls):
    """Parse a flat "key = value" config file ('#' starts a comment)."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values: dict[str, object] = {}
    for n, raw in enumerate(iter_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {n}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        if key not in fields:
            raise ValueError(f"{path}: line {n}: unknown config key {key!r}")
        f = fields[key]
        default = f.default if f.default is not dataclasses.MISSING else ""
        values[key] = _parse_scalar(value, default)
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.name not in values
    ]
    if missing:
        raise ValueError(f"{path}: missing required keys: {missing}")
    return cls(**values)


def load_config(path: str | Path) -> PipelineConfig:
    return load_flat_dataclass(path, PipelineConfig)


def write_config(cfg, path: str | Path) -> None:
    """Write a config dataclass as the flat file `load_flat_dataclass` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(cfg):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


def _hash_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _hash_tree(path: Path) -> str:
    if path.is_file():
        return _hash_file(path)
    h = hashlib.sha256()
    for sub in sorted(path.rglob("*")):
        if sub.is_file():
            h.update(str(sub.relative_to(path)).encode())
            h.update(_hash_file(sub).encode())
    return h.hexdigest()


class StageCache:
    """Content-addressed skip logic: (stage, params, input hashes) -> outputs."""

    def __init__(self, work_dir: Path) -> None:
        self.path = work_dir / "cache.json"
        try:
            entries = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # missing, unreadable or torn: rerun every stage
            entries = {}
        self.entries: dict[str, dict] = entries if isinstance(entries, dict) else {}

    def key(self, stage: str, params: dict, inputs: list[Path]) -> str:
        payload = {
            "stage": stage,
            "params": params,
            "inputs": [_hash_tree(Path(p)) for p in inputs],
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

    @staticmethod
    def _digests(outputs: list[Path]) -> list[list[str]]:
        return [[str(p), _hash_tree(Path(p))] for p in outputs]

    def drop(self, stage: str) -> None:
        """Forget a stage about to run: if it fails, no entry points at its
        partial outputs."""
        if self.entries.pop(stage, None) is not None:
            self._save()

    def _save(self) -> None:
        with replacing(self.path) as tmp:
            tmp.write_text(
                json.dumps(self.entries, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def _params(cfg: PipelineConfig, *names: str) -> dict:
    return {n: getattr(cfg, n) for n in names}


def load_tokenizer(vocab: str | Path, codes: str | Path | None = None) -> Tokenizer:
    """A vocabulary file's tokenizer, with BPE codes when a codes file is given."""
    return Tokenizer(Vocabulary.load(vocab), BpeCodes.load(codes) if codes else None)


def pack_corpus(path: str | Path, tok: Tokenizer, seq_len: int) -> np.ndarray:
    """A text file's non-empty lines, tokenized and packed into rows."""
    ids = [tok.encode_line(line) for line in iter_lines(path)]
    return pack_sequences([s for s in ids if s], seq_len)


def align_parallel(corpus: ParallelCorpus, vocab_fg: Vocabulary, vocab_en: Vocabulary,
                   iterations: int, prune: float, max_pairs: int | None = None,
                   seed: int = 0) -> tuple[TranslationMatrix, dict]:
    """IBM-1 translation matrix of a parallel corpus, first subsampled to
    `max_pairs` pairs when given, and the alignment's log."""
    if max_pairs:
        corpus = subsample(corpus, max_pairs, seed)
    model = train_ibm1(corpus, iterations, prune)
    info = {
        "pairs": len(corpus),
        "iterations": model.iterations_run,
        "final_log_likelihood": model.final_log_likelihood,
        "log_likelihoods": model.log_likelihoods,
    }
    return translation_matrix_from_alignment(model, vocab_fg, vocab_en), info


def corpus_subword_vectors(word_emb: EmbeddingMatrix, corpus: str | Path,
                           tok: Tokenizer) -> SubwordVectorTable:
    """Subword vectors of `tok`, weighted by the corpus's word unigram counts."""
    words = build_vocab(iter_tokens(corpus), max_size=1 << 30)
    unigrams = unigram_probs(iter_tokens(corpus), words)
    return subword_vectors(word_emb, unigrams, tok.vocab, tok.codes)


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
    write_array(emb_path, emb.data, tokens=vocab_fg.tokens)
    write_array(bias_path, bias)
    return report


def _vocab_ref(vec_emb: EmbeddingMatrix, vocab: Vocabulary) -> EmbeddingMatrix:
    """Re-index a loaded vector table onto a model vocabulary (zeros if absent)."""
    out = np.zeros((len(vocab), vec_emb.dim), dtype=np.float32)
    for i in range(corpus_mod.NUM_SPECIALS, len(vocab)):
        j = vec_emb.vocab.index.get(vocab.tokens[i])
        if j is not None and j >= corpus_mod.NUM_SPECIALS:
            out[i] = vec_emb.data[j]
    return EmbeddingMatrix(vocab, out)


def run_all(cfg: PipelineConfig) -> dict:
    """Execute all stages in dependency order with caching; returns a summary."""
    cfg.validate_paths()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(os.environ.get(CACHE_DIR_ENV, cfg.out_dir))
    work.mkdir(parents=True, exist_ok=True)
    cache = StageCache(work)
    summary: dict = {"stages": {}, "work_dir": str(work)}

    def stage(name, params, inputs, outputs, fn) -> None:
        key = cache.key(name, params, [Path(p) for p in inputs])
        outs = [Path(p) for p in outputs]
        if cache.hit(name, key, outs):
            summary["stages"][name] = "cached"
            return
        cache.drop(name)
        fn()
        cache.store(name, key, outs)
        summary["stages"][name] = "ran"

    # 1. vocabularies (and BPE codes)
    vocab_outputs = [work / "vocab_en.txt", work / "vocab_fg.txt"]
    if cfg.tokenization == "bpe":
        vocab_outputs += [work / "codes_en.txt", work / "codes_fg.txt"]

    def build_vocabs() -> None:
        for side, train in (("en", cfg.en_train), ("fg", cfg.fg_train)):
            size = cfg.vocab_size_en if side == "en" else cfg.vocab_size_fg
            codes = None
            if cfg.tokenization == "bpe":
                codes = learn_bpe(iter_lines(train), cfg.bpe_codes)
                codes.save(work / f"codes_{side}.txt")
            build_vocab(iter_tokens(train, codes), size).save(work / f"vocab_{side}.txt")

    stage(
        "vocab",
        _params(cfg, "tokenization", "bpe_codes", "vocab_size_en", "vocab_size_fg"),
        [cfg.en_train, cfg.fg_train],
        vocab_outputs,
        build_vocabs,
    )

    def tokenizer(side: str) -> Tokenizer:
        codes = work / f"codes_{side}.txt" if cfg.tokenization == "bpe" else None
        return load_tokenizer(work / f"vocab_{side}.txt", codes)

    # 2. tokenize + pack all corpora into fixed-length rows
    pack_names = ["en_train", "en_heldout", "fg_train", "fg_heldout"]
    pack_outputs = [work / f"pack_{n}.npy" for n in pack_names]

    def pack_all() -> None:
        tok = {s: tokenizer(s) for s in ("en", "fg")}
        for name, path in zip(
            pack_names, (cfg.en_train, cfg.en_heldout, cfg.fg_train, cfg.fg_heldout)
        ):
            np.save(work / f"pack_{name}.npy", pack_corpus(path, tok[name[:2]], cfg.seq_len))

    stage(
        "pack",
        _params(cfg, "tokenization", "seq_len"),
        [cfg.en_train, cfg.en_heldout, cfg.fg_train, cfg.fg_heldout] + vocab_outputs,
        pack_outputs,
        pack_all,
    )

    # 3. pretrain the english model
    pretrain_dir = work / "pretrain"
    pretrain_ck = pretrain_dir / "checkpoints" / f"step_{cfg.pretrain_updates:07d}"

    def do_pretrain() -> None:
        vocab_en = Vocabulary.load(work / "vocab_en.txt")
        placeholder_fg = Vocabulary.from_tokens([])
        model = init_model(cfg.model_config(), vocab_en, placeholder_fg, cfg.seed)
        pretrain(
            cfg.pretrain_config(),
            model,
            np.load(work / "pack_en_train.npy"),
            np.load(work / "pack_en_heldout.npy"),
            out_dir=pretrain_dir,
        )

    stage(
        "pretrain",
        _params(
            cfg, "dim", "layers", "heads", "ffn_dim", "norm", "seq_len",
            "pretrain_updates", "pretrain_warmup", "pretrain_peak_lr",
            "batch_size", "mask_prob", "grad_clip", "seed",
        ),
        [work / "pack_en_train.npy", work / "pack_en_heldout.npy",
         work / "vocab_en.txt"],
        [pretrain_ck],
        do_pretrain,
    )

    # 4. translation matrix, by route
    tm_path = work / "translation_matrix.txt"
    report_path = work / "translation_report.json"
    tm_outputs = [tm_path, report_path]
    route_inputs: list = [work / "vocab_en.txt", work / "vocab_fg.txt"]
    if cfg.route == "parallel":
        tm_outputs.append(work / "alignment_info.json")
        route_inputs += [cfg.fg_train, cfg.en_train]
        if cfg.tokenization == "bpe":
            route_inputs += [work / "codes_en.txt", work / "codes_fg.txt"]
    elif cfg.route == "dictionary":
        route_inputs.append(cfg.dictionary)
    else:
        route_inputs += [cfg.en_vectors, cfg.fg_vectors]
        if cfg.seed_dictionary:
            route_inputs.append(cfg.seed_dictionary)

    def build_translation_matrix() -> None:
        tok_en, tok_fg = tokenizer("en"), tokenizer("fg")
        vocab_en, vocab_fg = tok_en.vocab, tok_fg.vocab
        if cfg.route == "parallel":
            parallel = read_parallel(cfg.fg_train, cfg.en_train, tok_fg, tok_en)
            tm, info = align_parallel(parallel, vocab_fg, vocab_en, cfg.ibm1_iterations,
                                      cfg.ibm1_prune, cfg.align_pairs, cfg.seed)
            (work / "alignment_info.json").write_text(json.dumps(info) + "\n",
                                                      encoding="utf-8")
        elif cfg.route == "dictionary":  # english<TAB>foreign; specials never map
            ns = corpus_mod.NUM_SPECIALS
            pairs = [(i, j) for j, i in read_dictionary(cfg.dictionary, vocab_en, vocab_fg)
                     if i >= ns and j >= ns]
            if not pairs:  # only special tokens matched
                raise ValueError(f"{cfg.dictionary}: no in-vocabulary dictionary pairs")
            tm = dictionary_translation_matrix(pairs, vocab_fg, vocab_en)
        else:
            en_vec = load_vectors(cfg.en_vectors, cfg.word_limit)
            fg_vec = load_vectors(cfg.fg_vectors, cfg.word_limit)
            fg_aligned, _, _ = align_to(fg_vec, en_vec, cfg.seed_dictionary)
            if cfg.tokenization == "bpe":
                en_sub = corpus_subword_vectors(en_vec, cfg.en_train, tok_en)
                fg_sub = corpus_subword_vectors(fg_aligned, cfg.fg_train, tok_fg)
                tm = translation_matrix_from_vectors(fg_sub.emb, en_sub.emb)
            else:
                tm = translation_matrix_from_vectors(
                    _vocab_ref(fg_aligned, vocab_fg), _vocab_ref(en_vec, vocab_en)
                )
        write_translation_matrix(tm, vocab_fg, vocab_en, tm_path)
        report_path.write_text(
            json.dumps(dataclasses.asdict(row_entropy_report(tm)), sort_keys=True) + "\n",
            encoding="utf-8",
        )

    stage(
        "translation",
        _params(
            cfg, "route", "tokenization", "align_pairs", "ibm1_iterations",
            "ibm1_prune", "word_limit", "seed",
        ),
        route_inputs,
        tm_outputs,
        build_translation_matrix,
    )

    # 5. initialize foreign embeddings and bias
    init_outputs = [work / "init_emb.bin", work / "init_bias.bin",
                    work / "init_report.json"]

    def do_init() -> None:
        report = init_foreign(tm_path, pretrain_ck, work / "vocab_fg.txt", cfg.seed,
                              work / "init_emb.bin", work / "init_bias.bin")
        report.save(work / "init_report.json")

    stage(
        "init",
        _params(cfg, "seed"),
        [tm_path, pretrain_ck, work / "vocab_fg.txt"],
        init_outputs,
        do_init,
    )

    # 6. transfer
    transfer_dir = work / "transfer"
    transfer_outputs = [transfer_dir / "metrics.csv", transfer_dir / "evals.csv",
                        transfer_dir / "checkpoints" / f"step_{cfg.total_updates:07d}"]

    def do_transfer() -> None:
        model, _, _ = load_checkpoint(pretrain_ck)
        run_transfer(
            cfg.training_config(),
            model,
            load_binary_vectors(work / "init_emb.bin"),
            np.load(work / "pack_en_train.npy"),
            np.load(work / "pack_fg_train.npy"),
            np.load(work / "pack_en_heldout.npy"),
            np.load(work / "pack_fg_heldout.npy"),
            init_bias=read_array(work / "init_bias.bin")[0],
            out_dir=transfer_dir,
        )

    stage(
        "transfer",
        _params(
            cfg, "total_updates", "warmup_updates", "peak_lr", "batch_size",
            "seq_len", "mask_prob", "freeze_phase_updates", "checkpoint_every",
            "grad_clip", "seed",
        ),
        init_outputs[:2] + [pretrain_ck] + pack_outputs,
        transfer_outputs,
        do_transfer,
    )

    # 7. summary
    report = json.loads((work / "init_report.json").read_text(encoding="utf-8"))
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
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def _read_evals(path: Path) -> list[dict]:
    """evals.csv rows by column name; an empty field reads as NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) if v else float("nan") for k, v in row.items()}
                for row in csv.DictReader(fh)]
