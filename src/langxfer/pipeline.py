"""End-to-end pipeline: vocabularies, pretraining, translation matrix,
initialization, transfer, summary — with content-addressed stage caching.

A stage reruns only when the hash of its inputs (file contents) or its
parameters changes; artifacts of completed stages are kept on failure of a
later stage. The work directory defaults to the output directory and can be
overridden with the LANGXFER_CACHE_DIR environment variable.
"""

from __future__ import annotations

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
    identical_word_dictionary,
    load_vectors,
    procrustes,
    read_dictionary,
    align,
    write_array,
    read_array,
)
from .initializer import init_foreign_bias, init_foreign_embeddings
from .tiny_mlm import ModelConfig, init_model, load_checkpoint
from .trainer import TrainingConfig, pack_sequences, pretrain, run_transfer
from .translation import (
    dictionary_translation_matrix,
    read_translation_matrix,
    row_entropy_report,
    subword_vectors,
    translation_matrix_from_vectors,
    write_translation_matrix,
)
from .word_alignment import subsample, train_ibm1, translation_matrix_from_alignment

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

    def pretrain_config(self) -> TrainingConfig:
        return TrainingConfig(
            total_updates=self.pretrain_updates,
            warmup_updates=self.pretrain_warmup,
            peak_lr=self.pretrain_peak_lr,
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            mask_prob=self.mask_prob,
            freeze_phase_updates=0,
            seed=self.seed,
            checkpoint_every=self.pretrain_updates,
            grad_clip=self.grad_clip if self.grad_clip > 0 else None,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            total_updates=self.total_updates,
            warmup_updates=self.warmup_updates,
            peak_lr=self.peak_lr,
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            mask_prob=self.mask_prob,
            freeze_phase_updates=self.freeze_phase_updates,
            seed=self.seed,
            checkpoint_every=self.checkpoint_every,
            grad_clip=self.grad_clip if self.grad_clip > 0 else None,
        )

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


def write_config(cfg: PipelineConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(PipelineConfig):
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
        self.entries: dict[str, dict] = {}
        if self.path.exists():
            self.entries = json.loads(self.path.read_text(encoding="utf-8"))

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
        entry = self.entries.get(stage)
        if entry is None or entry.get("key") != key:
            return False
        return all(Path(p).exists() for p in entry.get("outputs", []))

    def store(self, stage: str, key: str, outputs: list[Path]) -> None:
        self.entries[stage] = {"key": key, "outputs": [str(p) for p in outputs]}
        self._save()

    def drop(self, stage: str) -> None:
        """Forget a stage about to run: if it fails, no entry points at its
        partial outputs."""
        if self.entries.pop(stage, None) is not None:
            self._save()

    def _save(self) -> None:
        self.path.write_text(
            json.dumps(self.entries, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _params(cfg: PipelineConfig, *names: str) -> dict:
    return {n: getattr(cfg, n) for n in names}


def _load_tokenizer(work: Path, side: str, cfg: PipelineConfig) -> Tokenizer:
    vocab = Vocabulary.load(work / f"vocab_{side}.txt")
    codes = None
    if cfg.tokenization == "bpe":
        codes = BpeCodes.load(work / f"codes_{side}.txt")
    return Tokenizer(vocab, codes)


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
            if cfg.tokenization == "bpe":
                codes = learn_bpe(iter_lines(train), cfg.bpe_codes)
                codes.save(work / f"codes_{side}.txt")
                vocab = build_vocab(iter_tokens(train, codes), size)
            else:
                vocab = build_vocab(iter_tokens(train), size)
            vocab.save(work / f"vocab_{side}.txt")

    stage(
        "vocab",
        _params(cfg, "tokenization", "bpe_codes", "vocab_size_en", "vocab_size_fg"),
        [cfg.en_train, cfg.fg_train],
        vocab_outputs,
        build_vocabs,
    )

    # 2. tokenize + pack all corpora into fixed-length rows
    pack_names = ["en_train", "en_heldout", "fg_train", "fg_heldout"]
    pack_outputs = [work / f"pack_{n}.npy" for n in pack_names]

    def pack_all() -> None:
        tok = {s: _load_tokenizer(work, s, cfg) for s in ("en", "fg")}
        for name, path in zip(
            pack_names, (cfg.en_train, cfg.en_heldout, cfg.fg_train, cfg.fg_heldout)
        ):
            t = tok[name[:2]]
            ids = [t.encode_line(line) for line in iter_lines(path)]
            ids = [s for s in ids if s]
            rows = pack_sequences(ids, cfg.seq_len)
            np.save(work / f"pack_{name}.npy", rows)

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
        tok_en = _load_tokenizer(work, "en", cfg)
        tok_fg = _load_tokenizer(work, "fg", cfg)
        vocab_en, vocab_fg = tok_en.vocab, tok_fg.vocab
        if cfg.route == "parallel":
            parallel = read_parallel(cfg.fg_train, cfg.en_train, tok_fg, tok_en)
            parallel = subsample(parallel, cfg.align_pairs, cfg.seed)
            model = train_ibm1(parallel, cfg.ibm1_iterations, cfg.ibm1_prune)
            tm = translation_matrix_from_alignment(model, vocab_fg, vocab_en)
            (work / "alignment_info.json").write_text(
                json.dumps(
                    {
                        "pairs": len(parallel),
                        "iterations": model.iterations_run,
                        "final_log_likelihood": model.final_log_likelihood,
                        "log_likelihoods": model.log_likelihoods,
                    }
                )
                + "\n",
                encoding="utf-8",
            )
        elif cfg.route == "dictionary":
            pairs = []
            for n, line in enumerate(iter_lines(cfg.dictionary), 1):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{cfg.dictionary}: line {n}: expected two columns")
                en_w, fg_w = parts
                i = vocab_fg.index.get(fg_w)
                j = vocab_en.index.get(en_w)
                ns = corpus_mod.NUM_SPECIALS
                if i is None or j is None or i < ns or j < ns:
                    continue
                pairs.append((i, j))
            tm = dictionary_translation_matrix(pairs, vocab_fg, vocab_en)
        else:
            en_vec = load_vectors(cfg.en_vectors, cfg.word_limit)
            fg_vec = load_vectors(cfg.fg_vectors, cfg.word_limit)
            if cfg.seed_dictionary:
                dict_pairs = read_dictionary(cfg.seed_dictionary, fg_vec.vocab, en_vec.vocab)
            else:
                dict_pairs = identical_word_dictionary(fg_vec.vocab, en_vec.vocab)
            mapping = procrustes(fg_vec, en_vec, dict_pairs)
            fg_aligned = align(fg_vec, mapping)
            if cfg.tokenization == "bpe":
                tok_en_codes = tok_en.codes
                tok_fg_codes = tok_fg.codes
                uni_en = unigram_probs(iter_tokens(cfg.en_train), _word_vocab(cfg.en_train))
                uni_fg = unigram_probs(iter_tokens(cfg.fg_train), _word_vocab(cfg.fg_train))
                en_sub = subword_vectors(en_vec, uni_en, vocab_en, tok_en_codes)
                fg_sub = subword_vectors(fg_aligned, uni_fg, vocab_fg, tok_fg_codes)
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
        vocab_en = Vocabulary.load(work / "vocab_en.txt")
        vocab_fg = Vocabulary.load(work / "vocab_fg.txt")
        tm = read_translation_matrix(tm_path, vocab_fg, vocab_en)
        model, _, _ = load_checkpoint(pretrain_ck)
        src_emb = EmbeddingMatrix(vocab_en, model.params["emb_en"])
        emb, report = init_foreign_embeddings(tm, src_emb, vocab_fg, cfg.seed)
        bias = init_foreign_bias(tm, model.params["out_bias_en"], vocab_fg)
        write_array(work / "init_emb.bin", emb.data, tokens=vocab_fg.tokens)
        write_array(work / "init_bias.bin", bias)
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
        vocab_fg = Vocabulary.load(work / "vocab_fg.txt")
        model, _, _ = load_checkpoint(pretrain_ck)
        emb_data, _ = read_array(work / "init_emb.bin")
        bias, _ = read_array(work / "init_bias.bin")
        run_transfer(
            cfg.training_config(),
            model,
            EmbeddingMatrix(vocab_fg, emb_data),
            np.load(work / "pack_en_train.npy"),
            np.load(work / "pack_fg_train.npy"),
            np.load(work / "pack_en_heldout.npy"),
            np.load(work / "pack_fg_heldout.npy"),
            init_bias=bias,
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


def _word_vocab(path: str | Path) -> Vocabulary:
    return build_vocab(iter_tokens(path), max_size=1 << 30)


def _read_evals(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = {}
            for k, v in zip(header, parts):
                row[k] = float(v) if v and k != "step" else (int(v) if v else float("nan"))
            rows.append(row)
    return rows
