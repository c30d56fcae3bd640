"""Command-line entry points for each pipeline stage.

Every subcommand wraps one library operation, writes its artifact, and
prints a JSON summary to stdout (human-readable logs go to stderr). Exit
status is 0 on success; failures print a JSON error object with a
machine-readable code and exit nonzero: 2 for a usage error (code
`invalid_argument`), 1 for any other. Each subcommand is a `cmd_*`
handler, and its keyword-only parameters are its flags (`_add_flag`).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path
from typing import Annotated, Literal

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
    init_foreign,
    load_config,
    load_flat_dataclass,
    load_tokenizer,
    pack_corpus,
    run_all,
    vocab_vectors,
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


def cmd_bpe(*, input: str, num_codes: int, output: str) -> int:
    """learn BPE merge rules"""
    codes = learn_bpe(iter_lines(input), num_codes)
    codes.save(output)
    return _emit({"merges": codes.num_codes, "exhausted": codes.exhausted, "output": output})


def cmd_vocab(*, input: str, max_size: int,
              codes: Annotated[str | None, "BPE codes for subword tokens"] = None,
              output: str) -> int:
    """build a frequency vocabulary"""
    vocab = build_vocab(iter_tokens(input, BpeCodes.load(codes) if codes else None), max_size)
    vocab.save(output)
    return _emit({"size": len(vocab), "output": output})


def cmd_align_vectors(
    *, foreign_vectors: str, english_vectors: str,
    dictionary: Annotated[str | None, "seed TSV: foreign<TAB>english"] = None,
    normalize: bool = False, limit: int = PipelineConfig.word_limit, output: str,
) -> int:
    """Procrustes-align foreign vectors into english space"""
    fg = load_vectors(foreign_vectors, limit)
    en = load_vectors(english_vectors, limit)
    aligned, mapping, n_pairs = align_to(fg, en, dictionary, normalize)
    save_vectors(aligned, output, format="text")
    return _emit({"pairs": n_pairs, "residual": mapping.residual, "rank": mapping.rank,
                  "output": output})


# the corpus flags of ibm1 and parse-fastalign
_Foreign = Annotated[str | None, "foreign side, one sentence per line"]
_Parallel = Annotated[str | None, "single tab-separated file"]


def _read_aligned_parallel(foreign, english, parallel, foreign_vocab, english_vocab,
                           foreign_codes, english_codes) -> tuple:
    if (parallel and (foreign or english)) or not (parallel or (foreign and english)):
        raise ValueError("give --parallel alone, or both --foreign and --english")
    tok_fg = load_tokenizer(foreign_vocab, foreign_codes)
    tok_en = load_tokenizer(english_vocab, english_codes)
    corpus = read_parallel(parallel or foreign, None if parallel else english, tok_fg, tok_en)
    if corpus.dropped:
        _log(f"dropped {corpus.dropped} empty pairs")
    return corpus, tok_fg.vocab, tok_en.vocab


def cmd_ibm1(
    *, foreign: _Foreign = None, english: str | None = None, parallel: _Parallel = None,
    foreign_vocab: str, english_vocab: str, foreign_codes: str | None = None,
    english_codes: str | None = None, iterations: int = PipelineConfig.ibm1_iterations,
    prune: float = PipelineConfig.ibm1_prune, subsample: int | None = None,
    seed: int = PipelineConfig.seed, output: str,
) -> int:
    """estimate p(english|foreign) by IBM Model 1 EM"""
    corpus, vocab_fg, vocab_en = _read_aligned_parallel(
        foreign, english, parallel, foreign_vocab, english_vocab, foreign_codes, english_codes)
    tm, info = align_parallel(corpus, vocab_fg, vocab_en, iterations, prune, subsample, seed)
    write_translation_matrix(tm, vocab_fg, vocab_en, output)
    return _emit({**{k: info[k] for k in ("pairs", "iterations", "final_log_likelihood")},
                  "covered_rows": sum(tm.coverage), "output": output})


def cmd_parse_fastalign(
    *, foreign: _Foreign = None, english: str | None = None, parallel: _Parallel = None,
    foreign_vocab: str, english_vocab: str, foreign_codes: str | None = None,
    english_codes: str | None = None,
    alignments: Annotated[str, 'file of "i-j" pairs, foreign as source'], output: str,
) -> int:
    """translation probabilities from fast-align output"""
    corpus, vocab_fg, vocab_en = _read_aligned_parallel(
        foreign, english, parallel, foreign_vocab, english_vocab, foreign_codes, english_codes)
    tm = translation_matrix_from_alignment(parse_fastalign(alignments, corpus), vocab_fg, vocab_en)
    write_translation_matrix(tm, vocab_fg, vocab_en, output)
    return _emit({"pairs": len(corpus), "covered_rows": sum(tm.coverage), "output": output})


def cmd_subword_vectors(
    *, vectors: str,
    corpus: Annotated[str | None, "monolingual text for unigram weights, with --codes"] = None,
    vocab: Annotated[str, "model vocabulary: words, or subwords with --codes"],
    codes: str | None = None, limit: int = PipelineConfig.word_limit, output: str,
) -> int:
    """put word vectors on a model vocabulary: words, or BPE subwords"""
    tok = load_tokenizer(vocab, codes)
    table = vocab_vectors(load_vectors(vectors, limit), tok, corpus)
    save_vectors(table.emb, output, format="text")
    return _emit({"subwords": len(tok.vocab), "covered": int(np.sum(table.support > 0)),
                  "output": output})


def cmd_translation_matrix(
    *, foreign_vectors: Annotated[str, "aligned foreign .vec"], english_vectors: str,
    mode: Literal["sparsemax", "softmax"] = "sparsemax", output: str,
) -> int:
    """sparsemax translation matrix from aligned vectors"""
    fg = load_vectors(foreign_vectors)
    en = load_vectors(english_vectors)
    tm = translation_matrix_from_vectors(fg, en, mode=mode)
    write_translation_matrix(tm, fg.vocab, en.vocab, output)
    report = row_entropy_report(tm)
    return _emit({"rows": report.n_rows, "covered": report.n_covered,
                  "mean_nonzeros": report.mean_nonzeros, "mean_entropy": report.mean_entropy,
                  "output": output})


def cmd_init_embeddings(
    *, translation_matrix: str, checkpoint: Annotated[str, "pretrained english model"],
    foreign_vocab: str, seed: int = PipelineConfig.seed, output_emb: str, output_bias: str,
) -> int:
    """initialize foreign embeddings from a translation matrix"""
    report = init_foreign(translation_matrix, checkpoint, foreign_vocab, seed, output_emb,
                          output_bias)
    _log(report.summary())
    return _emit({**report.as_dict(), "output_emb": output_emb, "output_bias": output_bias})


# the training flags pretrain and transfer end with
_Config = Annotated[str | None, "flat key=value training config"]


def _training_config(config: str | None, updates: int | None,
                     seed: int | None) -> TrainingConfig:
    cfg = load_flat_dataclass(config, TrainingConfig) if config else TrainingConfig()
    overrides = {"total_updates": updates, "seed": seed}
    # replace() re-runs the config's validation on the overridden values
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_pretrain(
    *, corpus: str, heldout: str | None = None, vocab: str, codes: str | None = None,
    dim: int = ModelConfig.dim, layers: int = ModelConfig.layers,
    heads: int = ModelConfig.heads, ffn_dim: int = ModelConfig.ffn_dim, out_dir: str,
    config: _Config = None, updates: int | None = None, seed: int | None = None,
) -> int:
    """pretrain the english masked LM"""
    cfg = _training_config(config, updates, seed)
    tok = load_tokenizer(vocab, codes)
    mcfg = ModelConfig(dim=dim, layers=layers, heads=heads, ffn_dim=ffn_dim,
                       max_len=cfg.seq_len)
    model = init_model(mcfg, tok.vocab, Vocabulary.from_tokens([]), cfg.seed)
    train = pack_corpus(corpus, tok, cfg.seq_len)
    held = pack_corpus(heldout, tok, cfg.seq_len) if heldout else None
    result = pretrain(cfg, model, train, held, out_dir=out_dir)
    payload = {"updates": cfg.total_updates, "final_loss_en": result.metrics[-1][2],
               "out_dir": out_dir}
    if result.evals:
        payload["eval_loss_en"] = result.evals[-1][1]
    return _emit(payload)


def cmd_transfer(
    *, checkpoint: str, init_emb: Annotated[str, "binary foreign embeddings"],
    init_bias: str | None = None, en_train: str, fg_train: str,
    en_heldout: str | None = None, fg_heldout: str | None = None,
    codes_en: str | None = None, codes_fg: str | None = None, out_dir: str,
    config: _Config = None, updates: int | None = None, seed: int | None = None,
) -> int:
    """two-phase bilingual fine-tuning"""
    cfg = _training_config(config, updates, seed)
    model, _, _ = load_checkpoint(checkpoint)
    emb = load_binary_vectors(init_emb)
    tok_en = load_tokenizer(model.vocab_en, codes_en)
    tok_fg = load_tokenizer(emb.vocab, codes_fg)
    rows = [pack_corpus(path, tok, cfg.seq_len) if path else None for path, tok in
            ((en_train, tok_en), (fg_train, tok_fg), (en_heldout, tok_en), (fg_heldout, tok_fg))]
    result = run_transfer(cfg, model, emb, *rows,
                          init_bias=read_array(init_bias)[0] if init_bias else None,
                          out_dir=out_dir)
    final = result.metrics[-1]
    payload = {"updates": cfg.total_updates, "final_loss_en": final[2],
               "final_loss_fg": final[3], "out_dir": out_dir}
    if result.evals:
        last = result.evals[-1]
        payload.update({"eval_loss_en": last[1], "eval_loss_fg": last[3]})
    return _emit(payload)


def cmd_eval(
    *, checkpoint: str, corpus: str, language: Literal["en", "fg"], codes: str | None = None,
    seed: int = 0, mask_prob: float = TrainingConfig.mask_prob,
) -> int:
    """held-out loss and accuracy of a checkpoint"""
    model, step, _ = load_checkpoint(checkpoint)
    tok = load_tokenizer(model.vocab(language), codes)
    rows = pack_corpus(corpus, tok, model.cfg.max_len)
    loss, acc = evaluate_mlm(model, rows, language, seed, mask_prob)
    return _emit({"step": step, "language": language, "loss": loss, "accuracy": acc})


def cmd_cipher_fixture(
    *, vocab_size: int = 120, sentences: int = 3000, heldout: int = 200, seed: int = 0,
    dict_dropout: float = 0.0, split_prob: float = 0.0, bigram_alpha: float | None = None,
    route: Literal["parallel", "dictionary"] = "parallel", out_dir: str,
) -> int:
    """generate a synthetic cipher-language bundle"""
    fixture = generate_cipher_fixture(
        vocab_size=vocab_size, sentences=sentences, seed=seed, heldout=heldout,
        dict_dropout=dict_dropout, split_prob=split_prob,
        # the generator owns the default: pass the flag only when given
        **({} if bigram_alpha is None else {"bigram_alpha": bigram_alpha}),
    )
    paths = write_fixture(fixture, out_dir)
    config = PipelineConfig(
        out_dir=str(Path(out_dir) / "pipeline"), route=route,
        **{n: paths[f"{n}.txt"] for n in ("en_train", "en_heldout", "fg_train", "fg_heldout")},
        dictionary=paths["noisy_dictionary.tsv"], seed=seed,
    )
    config_path = Path(out_dir) / "pipeline.cfg"
    write_config(config, config_path)
    return _emit({"out_dir": out_dir, "config": str(config_path),
                  "dictionary_entries": len(fixture.dictionary),
                  "sentences": len(fixture.en_train)})


def cmd_run_all(*, config: str) -> int:
    """run every stage with content-hash caching"""
    return _emit(run_all(load_config(config)))


def _add_flag(parser: argparse.ArgumentParser, param: inspect.Parameter, hint) -> None:
    """The flag of one keyword parameter: `--kebab-case`; required without
    a default, a switch with a False one; `choices` from a Literal, `type`
    from int or float (alone or with None; a string keeps type None), and
    the help text from Annotated."""
    kwargs = {}
    if typing.get_origin(hint) is Annotated:
        hint, kwargs["help"] = typing.get_args(hint)
    if param.default is param.empty:
        kwargs["required"] = True
    elif param.default is False:
        kwargs["action"] = "store_true"
    else:
        kwargs["default"] = param.default
    if typing.get_origin(hint) is Literal:
        kwargs["choices"] = typing.get_args(hint)
    elif param.default is not False:
        kwargs["type"] = next((t for t in (int, float) if t in (hint, *typing.get_args(hint))),
                              None)
    parser.add_argument("--" + param.name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="langxfer",
        description="Cross-lingual MLM transfer via sparse embedding initialization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # one subcommand per cmd_* handler, in the order they are defined
    for name, fn in globals().items():
        if name.startswith("cmd_"):
            p = sub.add_parser(name[4:].replace("_", "-"), help=fn.__doc__)
            hints = typing.get_type_hints(fn, include_extras=True)
            for param in inspect.signature(fn).parameters.values():
                _add_flag(p, param, hints[param.name])
            p.set_defaults(fn=fn)
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
    kwargs = vars(args)
    command, fn = kwargs.pop("command"), kwargs.pop("fn")
    try:
        return fn(**kwargs)
    except (ValueError, OSError, FloatingPointError) as exc:
        code = next((c for t, c in _ERROR_CODES.items() if isinstance(exc, t)), "error")
        _emit_error(command, code, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
