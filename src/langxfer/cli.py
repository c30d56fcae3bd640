"""Command-line entry points for each pipeline stage.

Every subcommand wraps one library operation, writes its artifact, and
prints a JSON summary to stdout (human-readable logs go to stderr). Exit
status is 0 on success; failures print a JSON error object with a
machine-readable code and exit nonzero: 2 for a usage error (code
`invalid_argument`), 1 for any other.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .cipher import generate_cipher_fixture, write_fixture
from .corpus import (
    BpeCodes,
    Vocabulary,
    build_vocab,
    iter_lines,
    iter_tokens,
    learn_bpe,
    read_parallel,
)
from .embeddings import (
    align_to,
    load_binary_vectors,
    load_vectors,
    read_array,
    save_vectors,
)
from .pipeline import (
    PipelineConfig,
    align_parallel,
    corpus_subword_vectors,
    init_foreign,
    load_config,
    load_flat_dataclass,
    load_tokenizer,
    pack_corpus,
    run_all,
    write_config,
)
from .tiny_mlm import ModelConfig, init_model, load_checkpoint
from .trainer import TrainingConfig, evaluate_mlm, pretrain, run_transfer
from .translation import (
    row_entropy_report,
    translation_matrix_from_vectors,
    write_translation_matrix,
)
from .word_alignment import parse_fastalign, translation_matrix_from_alignment


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict) -> int:
    print(json.dumps(payload, sort_keys=True))
    return 0


def _emit_error(stage: str | None, code: str, message: str) -> None:
    _emit({"status": "error", "stage": stage, "code": code, "message": message})


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as the JSON error
    object on stdout (its usage line on stderr) and exits with status 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        _emit_error(self.prog.partition(" ")[2] or None, "invalid_argument", message)
        self.exit(2)


def cmd_bpe(args) -> int:
    codes = learn_bpe(iter_lines(args.input), args.num_codes)
    codes.save(args.output)
    return _emit(
        {"merges": codes.num_codes, "exhausted": codes.exhausted, "output": args.output}
    )


def cmd_vocab(args) -> int:
    codes = BpeCodes.load(args.codes) if args.codes else None
    vocab = build_vocab(iter_tokens(args.input, codes), args.max_size)
    vocab.save(args.output)
    return _emit({"size": len(vocab), "output": args.output})


def cmd_align_vectors(args) -> int:
    fg = load_vectors(args.foreign_vectors, args.limit)
    en = load_vectors(args.english_vectors, args.limit)
    aligned, mapping, n_pairs = align_to(fg, en, args.dictionary, args.normalize)
    save_vectors(aligned, args.output, format="text")
    return _emit(
        {
            "pairs": n_pairs,
            "residual": mapping.residual,
            "rank": mapping.rank,
            "output": args.output,
        }
    )


def _read_aligned_parallel(args) -> tuple:
    sides = (args.foreign, args.english)
    if (args.parallel and any(sides)) or not (args.parallel or all(sides)):
        raise ValueError("give --parallel alone, or both --foreign and --english")
    tok_fg = load_tokenizer(args.foreign_vocab, args.foreign_codes)
    tok_en = load_tokenizer(args.english_vocab, args.english_codes)
    if args.parallel:
        corpus = read_parallel(args.parallel, None, tok_fg, tok_en)
    else:
        corpus = read_parallel(args.foreign, args.english, tok_fg, tok_en)
    if corpus.dropped:
        _log(f"dropped {corpus.dropped} empty pairs")
    return corpus, tok_fg.vocab, tok_en.vocab


def cmd_ibm1(args) -> int:
    corpus, vocab_fg, vocab_en = _read_aligned_parallel(args)
    tm, info = align_parallel(corpus, vocab_fg, vocab_en, args.iterations, args.prune,
                              args.subsample, args.seed)
    write_translation_matrix(tm, vocab_fg, vocab_en, args.output)
    return _emit(
        {
            "pairs": info["pairs"],
            "iterations": info["iterations"],
            "final_log_likelihood": info["final_log_likelihood"],
            "covered_rows": sum(tm.coverage),
            "output": args.output,
        }
    )


def cmd_parse_fastalign(args) -> int:
    corpus, vocab_fg, vocab_en = _read_aligned_parallel(args)
    model = parse_fastalign(args.alignments, corpus)
    tm = translation_matrix_from_alignment(model, vocab_fg, vocab_en)
    write_translation_matrix(tm, vocab_fg, vocab_en, args.output)
    return _emit(
        {"pairs": len(corpus), "covered_rows": sum(tm.coverage), "output": args.output}
    )


def cmd_subword_vectors(args) -> int:
    tok = load_tokenizer(args.vocab, args.codes)
    table = corpus_subword_vectors(load_vectors(args.vectors, args.limit), args.corpus, tok)
    save_vectors(table.emb, args.output, format="text")
    return _emit(
        {
            "subwords": len(tok.vocab),
            "covered": int(np.sum(table.support > 0)),
            "output": args.output,
        }
    )


def cmd_translation_matrix(args) -> int:
    fg = load_vectors(args.foreign_vectors)
    en = load_vectors(args.english_vectors)
    tm = translation_matrix_from_vectors(fg, en, mode=args.mode)
    write_translation_matrix(tm, fg.vocab, en.vocab, args.output)
    report = row_entropy_report(tm)
    return _emit(
        {
            "rows": report.n_rows,
            "covered": report.n_covered,
            "mean_nonzeros": report.mean_nonzeros,
            "mean_entropy": report.mean_entropy,
            "output": args.output,
        }
    )


def cmd_init_embeddings(args) -> int:
    report = init_foreign(args.translation_matrix, args.checkpoint, args.foreign_vocab,
                          args.seed, args.output_emb, args.output_bias)
    _log(report.summary())
    return _emit(
        {**report.as_dict(), "output_emb": args.output_emb, "output_bias": args.output_bias}
    )


def _training_config(args) -> TrainingConfig:
    if args.config:
        cfg = load_flat_dataclass(args.config, TrainingConfig)
    else:
        cfg = TrainingConfig()
    overrides = {"total_updates": args.updates, "seed": args.seed}
    # replace() re-runs the config's validation on the overridden values
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None}
    )


def cmd_pretrain(args) -> int:
    cfg = _training_config(args)
    tok = load_tokenizer(args.vocab, args.codes)
    mcfg = ModelConfig(
        dim=args.dim, layers=args.layers, heads=args.heads,
        ffn_dim=args.ffn_dim, max_len=cfg.seq_len,
    )
    model = init_model(mcfg, tok.vocab, Vocabulary.from_tokens([]), cfg.seed)
    train = pack_corpus(args.corpus, tok, cfg.seq_len)
    heldout = pack_corpus(args.heldout, tok, cfg.seq_len) if args.heldout else None
    result = pretrain(cfg, model, train, heldout, out_dir=args.out_dir)
    final = result.metrics[-1]
    payload = {"updates": cfg.total_updates, "final_loss_en": final[2],
               "out_dir": args.out_dir}
    if result.evals:
        payload["eval_loss_en"] = result.evals[-1][1]
    return _emit(payload)


def cmd_transfer(args) -> int:
    cfg = _training_config(args)
    model, _, _ = load_checkpoint(args.checkpoint)
    emb = load_binary_vectors(args.init_emb)
    bias = read_array(args.init_bias)[0] if args.init_bias else None
    tok_en = load_tokenizer(model.vocab_en, args.codes_en)
    tok_fg = load_tokenizer(emb.vocab, args.codes_fg)
    result = run_transfer(
        cfg,
        model,
        emb,
        pack_corpus(args.en_train, tok_en, cfg.seq_len),
        pack_corpus(args.fg_train, tok_fg, cfg.seq_len),
        pack_corpus(args.en_heldout, tok_en, cfg.seq_len) if args.en_heldout else None,
        pack_corpus(args.fg_heldout, tok_fg, cfg.seq_len) if args.fg_heldout else None,
        init_bias=bias,
        out_dir=args.out_dir,
    )
    final = result.metrics[-1]
    payload = {
        "updates": cfg.total_updates,
        "final_loss_en": final[2],
        "final_loss_fg": final[3],
        "out_dir": args.out_dir,
    }
    if result.evals:
        last = result.evals[-1]
        payload.update({"eval_loss_en": last[1], "eval_loss_fg": last[3]})
    return _emit(payload)


def cmd_eval(args) -> int:
    model, step, _ = load_checkpoint(args.checkpoint)
    tok = load_tokenizer(model.vocab(args.language), args.codes)
    rows = pack_corpus(args.corpus, tok, model.cfg.max_len)
    loss, acc = evaluate_mlm(model, rows, args.language, args.seed, args.mask_prob)
    return _emit(
        {"step": step, "language": args.language, "loss": loss, "accuracy": acc}
    )


def cmd_cipher_fixture(args) -> int:
    fixture = generate_cipher_fixture(
        vocab_size=args.vocab_size,
        sentences=args.sentences,
        seed=args.seed,
        heldout=args.heldout,
        dict_dropout=args.dict_dropout,
        split_prob=args.split_prob,
    )
    paths = write_fixture(fixture, args.out_dir)
    out = Path(args.out_dir)
    config = PipelineConfig(
        out_dir=str(out / "pipeline"),
        en_train=paths["en_train.txt"],
        en_heldout=paths["en_heldout.txt"],
        fg_train=paths["fg_train.txt"],
        fg_heldout=paths["fg_heldout.txt"],
        route=args.route,
        dictionary=paths["noisy_dictionary.tsv"],
        seed=args.seed,
    )
    config_path = out / "pipeline.cfg"
    write_config(config, config_path)
    return _emit(
        {
            "out_dir": args.out_dir,
            "config": str(config_path),
            "dictionary_entries": len(fixture.dictionary),
            "sentences": len(fixture.en_train),
        }
    )


def cmd_run_all(args) -> int:
    config = load_config(args.config)
    summary = run_all(config)
    return _emit(summary)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="langxfer",
        description="Cross-lingual MLM transfer via sparse embedding initialization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bpe", help="learn BPE merge rules")
    p.add_argument("--input", required=True)
    p.add_argument("--num-codes", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_bpe)

    p = sub.add_parser("vocab", help="build a frequency vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--codes", default=None, help="BPE codes for subword tokens")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_vocab)

    p = sub.add_parser("align-vectors", help="Procrustes-align foreign vectors into english space")
    p.add_argument("--foreign-vectors", required=True)
    p.add_argument("--english-vectors", required=True)
    p.add_argument("--dictionary", default=None, help="seed TSV: foreign<TAB>english")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--limit", type=int, default=50000)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_align_vectors)

    def add_parallel_args(p):
        p.add_argument("--foreign", default=None, help="foreign side, one sentence per line")
        p.add_argument("--english", default=None)
        p.add_argument("--parallel", default=None, help="single tab-separated file")
        p.add_argument("--foreign-vocab", required=True)
        p.add_argument("--english-vocab", required=True)
        p.add_argument("--foreign-codes", default=None)
        p.add_argument("--english-codes", default=None)

    p = sub.add_parser("ibm1", help="estimate p(english|foreign) by IBM Model 1 EM")
    add_parallel_args(p)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--prune", type=float, default=1e-4)
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_ibm1)

    p = sub.add_parser("parse-fastalign", help="translation probabilities from fast-align output")
    add_parallel_args(p)
    p.add_argument("--alignments", required=True, help='file of "i-j" pairs, foreign as source')
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_parse_fastalign)

    p = sub.add_parser("subword-vectors", help="aggregate word vectors into subword vectors")
    p.add_argument("--vectors", required=True)
    p.add_argument("--corpus", required=True, help="monolingual text for unigram weights")
    p.add_argument("--vocab", required=True, help="subword vocabulary")
    p.add_argument("--codes", required=True)
    p.add_argument("--limit", type=int, default=50000)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_subword_vectors)

    p = sub.add_parser("translation-matrix", help="sparsemax translation matrix from aligned vectors")
    p.add_argument("--foreign-vectors", required=True, help="aligned foreign .vec")
    p.add_argument("--english-vectors", required=True)
    p.add_argument("--mode", choices=("sparsemax", "softmax"), default="sparsemax")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_translation_matrix)

    p = sub.add_parser("init-embeddings", help="initialize foreign embeddings from a translation matrix")
    p.add_argument("--translation-matrix", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrained english model")
    p.add_argument("--foreign-vocab", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-emb", required=True)
    p.add_argument("--output-bias", required=True)
    p.set_defaults(fn=cmd_init_embeddings)

    def add_training_args(p):
        p.add_argument("--config", default=None, help="flat key=value training config")
        p.add_argument("--updates", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pretrain", help="pretrain the english masked LM")
    p.add_argument("--corpus", required=True)
    p.add_argument("--heldout", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--codes", default=None)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--ffn-dim", type=int, default=256)
    p.add_argument("--out-dir", required=True)
    add_training_args(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("transfer", help="two-phase bilingual fine-tuning")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--init-emb", required=True, help="binary foreign embeddings")
    p.add_argument("--init-bias", default=None)
    p.add_argument("--en-train", required=True)
    p.add_argument("--fg-train", required=True)
    p.add_argument("--en-heldout", default=None)
    p.add_argument("--fg-heldout", default=None)
    p.add_argument("--codes-en", default=None)
    p.add_argument("--codes-fg", default=None)
    p.add_argument("--out-dir", required=True)
    add_training_args(p)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("eval", help="held-out loss and accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", choices=("en", "fg"), required=True)
    p.add_argument("--codes", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-prob", type=float, default=0.15)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cipher-fixture", help="generate a synthetic cipher-language bundle")
    p.add_argument("--vocab-size", type=int, default=120)
    p.add_argument("--sentences", type=int, default=3000)
    p.add_argument("--heldout", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dict-dropout", type=float, default=0.0)
    p.add_argument("--split-prob", type=float, default=0.0)
    p.add_argument("--route", choices=("parallel", "dictionary"), default="parallel")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_cipher_fixture)

    p = sub.add_parser("run-all", help="run every stage with content-hash caching")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run_all)

    parser.commands = sub.choices
    return parser


_ERROR_CODES = {
    FileNotFoundError: "not_found",
    ValueError: "invalid_input",
    FloatingPointError: "numeric_error",
    OSError: "io_error",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported by the subcommand, so that the error names it
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        code = next(
            (c for t, c in _ERROR_CODES.items() if isinstance(exc, t)), "error"
        )
        _emit_error(args.command, code, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
