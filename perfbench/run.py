#!/usr/bin/env python3
"""langxfer benchmark: one workload, one seed, one process, one BLAS thread.

    python3 perfbench/run.py --workload cipher-pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; it imports langxfer from ./src and
reads metric names, units and directions from ./BENCHMARK.json.

1. Set-up generates the inputs from --seed and builds the starting model.
   It is repeated (at least MIN_SETUPS times, more while it is cheap);
   setup_s is the median, and the inputs' hash must repeat exactly.
2. Reps run one after another, closed loop with one client, until
   --seconds have passed and at least MIN_REPS have run; wall_s is the
   median rep time, peak_rss_mb the process's peak resident memory.

Every timed call, a set-up or a part of a rep, is rescaled to a quiet
core's speed by a reference kernel timed just before and just after it
(calibration.py), so that a shared host's changing speed does not show as
a change of the program; the raw seconds and kernel times are kept in the
record.

Every set-up and rep checks its outputs; a failed check or an exception is
a failed operation. --trace 1 alternates untraced and traced reps, reports
the per-layer metrics and the tracing overhead (traced minus untraced
median), and writes spans.csv and layers.csv. The last stdout line is the
JSON result; the full record, with the environment, the input hash and
the quality figures of every rep, goes to .bench_work/results/.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LANGXFER_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
MIN_REPS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Operation accounting: every set-up, check and rep is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn):
        """Call fn(failures); its result, or None if it raised or a check failed."""
        self.attempted += 1
        failures: list[str] = []
        try:
            result = fn(failures)
        except Exception:  # a failed operation is counted, never dropped
            failures.append(traceback.format_exc())
        if not failures:
            return result
        self.failed += 1
        self.errors += [f"{label}: {f}" for f in failures]
        log(f"FAILED {label}: {failures[0]}")
        return None


def run(wl, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import layers
    from calibration import Clock
    from tracer import Tracer

    work = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer()
    ops = Ops()
    clock = Clock(tracer)
    try:
        if trace:
            tracer.install()
        setup, setup_times, raw_setup_times, hashes = None, [], [], []
        clock.tick()
        budget_end = time.perf_counter() + SETUP_BUDGET_S
        k = 0
        while k < MIN_SETUPS or (k < MAX_SETUPS and time.perf_counter() < budget_end):
            setup_dir = work / f"setup{k}"
            setup_dir.mkdir(parents=True)

            def do_setup(failures, k=k, setup_dir=setup_dir):
                s, elapsed = clock(layers.SETUP_SPAN, lambda: wl.setup(seed, setup_dir))
                h = s.input_hash()
                if hashes and h != hashes[0]:
                    failures.append(f"set-up {k} inputs hash {h}, set-up 0 hashed {hashes[0]}")
                return s, elapsed, clock.raw_s[-1], h

            out = ops.run(f"setup {k}", do_setup)
            if out is not None:
                setup, elapsed, raw, h = out
                setup_times.append(elapsed)
                raw_setup_times.append(raw)
                hashes.append(h)
            k += 1
        if setup is None:
            log("no set-up succeeded")
            return 1
        with tracer.paused():
            verified = ops.run("verify", lambda f: wl.verify(setup, seed, f))

        def rep(n: int, traced: bool):
            rep_dir = work / f"rep{n}"
            rep_dir.mkdir()
            if traced:
                tracer.install()
            try:
                return ops.run(f"rep {n}",
                               lambda f: wl.rep(setup, seed, rep_dir, tracer, clock, f))
            finally:
                tracer.uninstall()
                shutil.rmtree(rep_dir, ignore_errors=True)

        tracer.uninstall()
        timed: dict[bool, list[float]] = {False: [], True: []}
        raw_timed: dict[bool, list[float]] = {False: [], True: []}
        figures: list[dict] = []
        start = time.perf_counter()
        n = 0
        while n < MIN_REPS * (1 + trace) or time.perf_counter() - start < seconds:
            traced = trace and n % 2 == 1
            calls = len(clock.raw_s)
            out = rep(n, traced)
            if out is not None:
                timed[traced].append(out[0])
                raw_timed[traced].append(sum(clock.raw_s[calls:]))
                figures.append(out[1])
            n += 1
        if not timed[False] or (trace and not timed[True]):
            log("no rep succeeded")
            return 1

        record = {
            "workload": wl.name,
            "trace": trace,
            "environment": environment(seed),
            "input_sha256": hashes[0] if hashes else None,
            "setup_s": setup_times,
            "rep_wall_s": timed[False],
            "traced_rep_wall_s": timed[True],
            "raw_setup_s": raw_setup_times,
            "raw_rep_wall_s": raw_timed[False],
            "raw_traced_rep_wall_s": raw_timed[True],
            "kernel_s": clock.kernel_s,
            "peak_rss_mb": peak_rss_mb(),
            "verify": verified,
            "figures": figures,
            "errors": ops.errors,
        }
        if trace:
            missing = layers.missing_boundaries(tracer.spans, wl.expected)
            if missing:
                log(f"traced boundaries recorded zero calls: {missing}")
                return 1
            overhead = statistics.median(timed[True]) - statistics.median(timed[False])
            metrics = layers.per_layer_metrics(tracer.spans, len(timed[True]), overhead)
            layers.write_trace_files(tracer.spans, WORK / "results" / f"{wl.name}-seed{seed}-trace")
            record["computed"] = list(layers.COMPUTED)
            declared = spec["per_layer"]
        else:
            metrics = {"setup_s": statistics.median(setup_times),
                       "wall_s": statistics.median(timed[False]),
                       "peak_rss_mb": record["peak_rss_mb"]}
            declared = spec["end_to_end"]
        declared = {m["name"]: m for m in declared}
        if set(metrics) != set(declared):
            log(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
            return 1
        record["metrics"] = metrics
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        result_path = WORK / "results" / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
        result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

        for name, value in metrics.items():
            m = declared[name]
            print(f"{name:52s} {value:18.6f} {m['unit']:8s} {m['better']} is better")
        print(json.dumps({
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()},
        }), flush=True)
        return 0
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "langxfer" / "__init__.py").is_file():
        log(f"langxfer sources not found under {SRC}; run from a source checkout")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import langxfer
    import workloads

    if Path(langxfer.__file__).resolve().parent != SRC / "langxfer":
        log(f"imported langxfer from {langxfer.__file__}, not from {SRC}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
