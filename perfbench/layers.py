"""Per-layer metrics, self times and the spans file, from a traced run's spans.

A layer is one langxfer module; the benchmark's own top-level spans form
the `bench` layer. A span's self time is its duration minus the durations
of its direct children. Counts marked "computed" come from array shapes
and corpus sizes, not from timing.
"""

from __future__ import annotations

import csv
import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("corpus", "embeddings", "translation", "word_alignment", "initializer",
          "tiny_mlm", "trainer", "pipeline", "cipher")
PHASES = ("pretrain", "frozen", "joint")

COMPUTED = ("tiny_mlm.backward.grad_bytes", "tiny_mlm.backward.useful_grad_ratio",
            "tiny_mlm.backward.logit_flops", "trainer.adam_step.elements",
            "trainer.adam_step.bytes", "word_alignment.train_ibm1.links",
            "word_alignment.train_ibm1.table_entries", "translation.nnz",
            "initializer.covered", "tiny_mlm.save_checkpoint.bytes",
            "pipeline.StageCache.key.bytes_hashed")

SETUP_SPAN = "bench.setup"
WARM_SPAN = "bench.run_all.warm"
COLD_SPAN = "bench.run_all.cold"
CALIBRATION_SPAN = "bench.calibration"  # calibration.Clock's kernel runs


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class SpanIndex:
    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int | None, list[list]] = defaultdict(list)
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for s in spans:
            self.children[s[2]].append(s)
            self.by_name[s[1]].append(s)

    @staticmethod
    def dur(s) -> float:
        return (s[4] - s[3]) / 1e9

    def self_time(self, s) -> float:
        return self.dur(s) - sum(self.dur(c) for c in self.children[s[0]])

    def root(self, s) -> list:
        while s[2] is not None:
            s = self.spans[s[2]]
        return s

    def named(self, name: str, setup: bool = False) -> list[list]:
        """Spans called `name`, inside set-up or (default) inside the reps."""
        return [s for s in self.by_name[name]
                if (self.root(s)[1] == SETUP_SPAN) == setup]

    def ms(self, name: str) -> list[float]:
        return [1e3 * self.dur(s) for s in self.named(name)]

    def attrs(self, name: str, key: str) -> list:
        return [s[5][key] for s in self.named(name)]


def _steps(ix: SpanIndex) -> tuple[dict[str, list[float]], float]:
    """Update spans per phase, from a batch call to the end of its adam_step,
    and the loop time per step that no child span covers."""
    steps: dict[str, list[float]] = defaultdict(list)
    loop_self = n_steps = 0
    for loop, batch_name in (("trainer.run_transfer", "trainer.balanced_batch"),
                             ("trainer.pretrain", "tiny_mlm.make_masked_batch")):
        for span in ix.named(loop):
            kids = ix.children[span[0]]
            start = first = last = None
            for c in kids:
                if c[1] == batch_name and start is None:
                    start = c[3]
                elif c[1] == "trainer.adam_step" and start is not None:
                    steps[c[5]["phase"]].append((c[4] - start) / 1e6)
                    first = start if first is None else first
                    last, start = c[4], None
            if first is None:
                continue
            covered = sum(c[4] - c[3] for c in kids if c[3] >= first and c[4] <= last)
            loop_self += (last - first - covered) / 1e6
            n_steps += sum(1 for c in kids if c[1] == "trainer.adam_step")
    return steps, loop_self / n_steps if n_steps else 0.0


def per_layer_metrics(spans: list[list], traced_reps: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload never reaches the layer."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    backward = ix.named("tiny_mlm.backward")
    for p in PHASES:
        m[f"tiny_mlm.backward.{p}.ms_p50"] = _median(
            [1e3 * ix.dur(s) for s in backward if s[5]["phase"] == p])
    m["tiny_mlm.backward.grad_bytes"] = _median([s[5]["grad_bytes"] for s in backward])
    elements = sum(s[5]["grad_elements"] for s in backward)
    m["tiny_mlm.backward.useful_grad_ratio"] = (
        sum(s[5]["useful_elements"] for s in backward) / elements if elements else 0.0)
    m["tiny_mlm.backward.logit_flops"] = _median([s[5]["logit_flops"] for s in backward])
    m["tiny_mlm.make_masked_batch.ms_p50"] = _median(ix.ms("tiny_mlm.make_masked_batch"))
    m["tiny_mlm.mlm_loss.ms_p50"] = _median(ix.ms("tiny_mlm.mlm_loss"))
    m["tiny_mlm.save_checkpoint.ms"] = _median(ix.ms("tiny_mlm.save_checkpoint"))
    m["tiny_mlm.save_checkpoint.bytes"] = _median(ix.attrs("tiny_mlm.save_checkpoint", "bytes"))
    m["tiny_mlm.load_checkpoint.ms"] = _median(ix.ms("tiny_mlm.load_checkpoint"))

    steps, loop_self = _steps(ix)
    for p in PHASES:
        m[f"trainer.step_ms.{p}.p50"] = _median(steps[p])
        m[f"trainer.step_ms.{p}.p90"] = _p90(steps[p])
    m["trainer.adam_step.ms_p50"] = _median(ix.ms("trainer.adam_step"))
    m["trainer.adam_step.elements"] = _mean(ix.attrs("trainer.adam_step", "elements"))
    m["trainer.adam_step.bytes"] = _mean(ix.attrs("trainer.adam_step", "bytes"))
    m["trainer.clip_gradients.ms_p50"] = _median(ix.ms("trainer.clip_gradients"))
    m["trainer.balanced_batch.ms_p50"] = _median(ix.ms("trainer.balanced_batch"))
    m["trainer.loop_self_ms_per_step"] = loop_self
    m["trainer.evaluate_mlm.ms"] = _median(ix.ms("trainer.evaluate_mlm"))
    m["trainer.pack_sequences.ms"] = _median(ix.ms("trainer.pack_sequences"))

    ibm1 = ix.named("word_alignment.train_ibm1")
    iters = sum(s[5]["iterations"] for s in ibm1)
    links = sum(s[5]["links"] * s[5]["iterations"] for s in ibm1)
    seconds = sum(ix.dur(s) for s in ibm1)
    m["word_alignment.train_ibm1.s_per_iter"] = seconds / iters if iters else 0.0
    m["word_alignment.train_ibm1.links"] = _median([s[5]["links"] for s in ibm1])
    m["word_alignment.train_ibm1.links_per_s"] = links / seconds if seconds else 0.0
    m["word_alignment.train_ibm1.table_entries"] = _median(
        [s[5]["table_entries"] for s in ibm1])
    for name in ("word_alignment.subsample", "word_alignment.translation_matrix_from_alignment",
                 "embeddings.procrustes", "embeddings.align",
                 "translation.write_translation_matrix", "translation.read_translation_matrix",
                 "initializer.init_foreign_embeddings", "initializer.init_foreign_bias"):
        m[f"{name}.ms"] = _median(ix.ms(name))
    for name in ("corpus.read_parallel", "corpus.build_vocab", "embeddings.load_vectors",
                 "translation.translation_matrix_from_vectors"):
        m[f"{name}.s"] = _median(ix.ms(name)) / 1e3

    sparsemax = ix.named("translation.sparsemax")
    sm_seconds = sum(ix.dur(s) for s in sparsemax)
    m["translation.sparsemax.rows_per_s"] = (
        sum(s[5]["rows"] for s in sparsemax) / sm_seconds if sm_seconds else 0.0)
    m["translation.nnz"] = _median(ix.attrs("translation.translation_matrix_from_vectors", "nnz"))
    m["initializer.covered"] = (
        sum(ix.attrs("initializer.init_foreign_embeddings", "covered")) / max(traced_reps, 1))

    cold = ix.named(COLD_SPAN)
    keys = [s for s in ix.named("pipeline.StageCache.key") if ix.root(s)[1] == COLD_SPAN]
    m["pipeline.StageCache.key.ms"] = (
        1e3 * sum(ix.dur(s) for s in keys) / len(cold) if cold else 0.0)
    m["pipeline.StageCache.key.bytes_hashed"] = (
        sum(s[5]["bytes_hashed"] for s in keys) / len(cold) if cold else 0.0)
    m["pipeline.run_all.warm_ms"] = _median(
        [1e3 * ix.dur(s) for s in ix.named("pipeline.run_all")
         if ix.root(s)[1] == WARM_SPAN])
    m["cipher.generate_cipher_fixture.s"] = _median(
        [ix.dur(s) for s in ix.named("cipher.generate_cipher_fixture", setup=True)])

    table = layer_table(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table.get(layer, {}).get("self_s", 0.0) / max(traced_reps, 1)
    m["bench.trace_overhead_s"] = overhead_s
    return m


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Calls and self seconds per layer over the reps (set-up and the
    calibration kernel excluded)."""
    ix = SpanIndex(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        if ix.root(s)[1] == SETUP_SPAN or s[1] == CALIBRATION_SPAN:
            continue
        row = table[s[1].split(".", 1)[0]]
        row["calls"] += 1
        row["self_s"] += ix.self_time(s)
    return dict(table)


def missing_boundaries(spans: list[list], expected: tuple[str, ...]) -> list[str]:
    seen = {s[1] for s in spans}
    return [name for name in expected if name not in seen]


def write_trace_files(spans: list[list], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spans.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "parent", "start_ns", "end_ns", "attrs"])
        for sid, name, parent, start, end, attrs in spans:
            w.writerow([sid, name, "" if parent is None else parent, start, end,
                        json.dumps(attrs, sort_keys=True) if attrs else ""])
    table = layer_table(spans)
    total = sum(row["self_s"] for row in table.values()) or 1.0
    with open(out_dir / "layers.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "calls", "self_s", "self_share"])
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            w.writerow([layer, row["calls"], f"{row['self_s']:.6f}",
                        f"{row['self_s'] / total:.4f}"])
