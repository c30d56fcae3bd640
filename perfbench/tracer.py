"""Spans around calls into langxfer's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a timing wrapper in
every langxfer module that holds it, which is the attribute its callers
look up (`langxfer.trainer.backward`, `langxfer.pipeline.run_transfer`,
...). Methods are replaced on their class. Spans stay in memory as
(id, name, parent, start_ns, end_ns, attrs). Per-call counts are computed
from arguments and results after the span has ended: their cost falls in
the parent span's self time and in the reported tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from langxfer import (
    cipher,
    corpus,
    embeddings,
    initializer,
    pipeline,
    tiny_mlm,
    trainer,
    translation,
    word_alignment,
)

# ---------------------------------------------------------------------------
# computed per-call counts


def _freeze_arg(args, kwargs, position: int) -> frozenset:
    if len(args) > position:
        return frozenset(args[position])
    return frozenset(kwargs.get("freeze", frozenset()))


def _phase(freeze: frozenset) -> str:
    if not freeze:
        return "joint"
    if freeze == trainer.EMBEDDING_PHASE_FREEZE:
        return "frozen"
    return "pretrain"  # only the not-yet-existing foreign side is frozen


def _count_backward(args, kwargs, result) -> dict:
    state, batch = args[0], args[1]
    freeze = _freeze_arg(args, kwargs, 2)
    grads = result[1]
    elements = sum(g.size for g in grads.values())
    useful = sum(g.size for k, g in grads.items()
                 if tiny_mlm.param_group(k) not in freeze)
    n, v, d = batch.n_masked, len(state.vocab(batch.language)), state.cfg.dim
    return {
        "phase": _phase(freeze),
        "grad_bytes": sum(g.size * g.itemsize for g in grads.values()),
        "grad_elements": elements,
        "useful_elements": useful,
        # masked logits (n x d)(d x V), then dlogits @ E and dlogits' @ ctx
        "logit_flops": 3 * 2 * n * v * d,
    }


ADAM_BYTES_PER_ELEMENT = 7  # reads param, grad, m, v; writes param, m, v


def _count_adam(args, kwargs, result) -> dict:
    state = args[0]
    freeze = _freeze_arg(args, kwargs, 4)
    active = [p for k, p in state.params.items()
              if tiny_mlm.param_group(k) not in freeze]
    elements = sum(p.size for p in active)
    return {
        "phase": _phase(freeze),
        "elements": elements,
        "bytes": ADAM_BYTES_PER_ELEMENT * sum(p.size * p.itemsize for p in active),
    }


def _count_ibm1(args, kwargs, result) -> dict:
    pairs = args[0].pairs
    return {
        "iterations": result.iterations_run,
        "links": sum(len(fg) * (len(en) + 1) for fg, en in pairs),
        "table_entries": sum(len(row) for row in result.table.values()),
    }


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _count_checkpoint(args, kwargs, result) -> dict:
    return {"bytes": _tree_bytes(Path(args[1]))}


def _count_cache_key(args, kwargs, result) -> dict:
    inputs = args[3] if len(args) > 3 else kwargs["inputs"]
    return {"bytes_hashed": sum(_tree_bytes(Path(p)) for p in inputs)}


def _count_sparsemax(args, kwargs, result) -> dict:
    return {"rows": 1 if result.ndim == 1 else result.shape[0]}


def _count_tm(args, kwargs, result) -> dict:
    return {"nnz": sum(len(row) for row in result.rows)}


def _count_init(args, kwargs, result) -> dict:
    return {"covered": result[1].covered}


# (module, attribute path, counter): every boundary the benchmark can trace
BOUNDARIES = [
    (cipher, "generate_cipher_fixture", None),
    (corpus, "build_vocab", None),
    (corpus, "read_parallel", None),
    (embeddings, "load_vectors", None),
    (embeddings, "identical_word_dictionary", None),
    (embeddings, "procrustes", None),
    (embeddings, "align", None),
    (translation, "sparsemax", _count_sparsemax),
    (translation, "translation_matrix_from_vectors", _count_tm),
    (translation, "write_translation_matrix", None),
    (translation, "read_translation_matrix", None),
    (word_alignment, "subsample", None),
    (word_alignment, "train_ibm1", _count_ibm1),
    (word_alignment, "translation_matrix_from_alignment", None),
    (initializer, "init_foreign_embeddings", _count_init),
    (initializer, "init_foreign_bias", None),
    (tiny_mlm, "make_masked_batch", None),
    (tiny_mlm, "backward", _count_backward),
    (tiny_mlm, "mlm_loss", None),
    (tiny_mlm, "save_checkpoint", _count_checkpoint),
    (tiny_mlm, "load_checkpoint", None),
    (trainer, "pack_sequences", None),
    (trainer, "balanced_batch", None),
    (trainer, "clip_gradients", None),
    (trainer, "adam_step", _count_adam),
    (trainer, "evaluate_mlm", None),
    (trainer, "pretrain", None),
    (trainer, "run_transfer", None),
    (pipeline, "StageCache.key", _count_cache_key),
    (pipeline, "run_all", None),
]


class Tracer:
    """In-memory span recorder; `install` and `uninstall` patch langxfer."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent, start_ns, end_ns, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, 0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own top-level calls (only while installed)."""
        if not self.installed:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self.installed:
            return
        modules = [m for n, m in sys.modules.items()
                   if n == "langxfer" or n.startswith("langxfer.")]
        for module, path, counter in BOUNDARIES:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{path}"
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: replace it on its class
                owner = getattr(module, owner_path)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig, counter))
                continue
            orig = getattr(module, attr)
            traced = self._wrap(name, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, traced)

    def _patch(self, owner, attr: str, orig, traced) -> None:
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was = self.installed
        self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()
