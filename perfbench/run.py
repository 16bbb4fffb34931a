"""Benchmark of the honeypot study: its workloads, untraced or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_seeds --seed 1 --seconds 50 --trace 0

``BENCHMARK.json`` lists the workloads the regression gate runs
(``paper_seeds``, ``durable_recover``); ``world_10x`` is run by hand.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
from untraced iterations; their times are CPU seconds of this process,
because wall time on a shared disk and host swings far more than any
bound a regression gate can use (wall times are printed beside them).
The gated time, ``best_iter_cpu_s``, is the sum over an iteration's
stages of each stage's least CPU time in the run: neighbours on a shared
host only ever add CPU time (through caches, memory bandwidth and sibling
threads), so the least time of repeated identical work is the estimate
they disturb least.  The median per iteration is printed beside it.
``--trace 1`` reports the per-layer metrics: it runs pairs of iterations
on the same seed, one untraced and one with every layer entry point
wrapped (alternating which goes first); the traced one gives per-layer
wall self time, counts, ``unattributed_s`` and ``span_coverage``, and the
pair's CPU difference gives ``trace_overhead_s``.

One process, one thread.  Every iteration checks its output; an iteration
that fails its check counts as failed and its timing is not reported.
Human-readable lines (machine fingerprint, per-workload figures, paper
fidelity per seed) go to stdout before the result, which is the last
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from spans import NULL_TRACER, Tracer

# One thread: NumPy's BLAS would otherwise start a pool of one per CPU.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space inside the checkout, removed when a run ends.
WORK_PARENT = ROOT / ".perfbench-work"
#: How many times set-up runs; ``setup_s`` reports the median.
SETUP_REPEATS = 3


@contextmanager
def work_dir(prefix: str):
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_PARENT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program():
    """Import the program from this checkout's ``src``; returns CPU seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.process_time()
    import workloads  # noqa: F401  (imports every repro module the runs use)
    import_s = time.process_time() - start
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")
    return import_s


def fingerprint() -> dict:
    """CPU count, interpreter and NumPy versions, and a fixed calibration loop."""
    import numpy

    loops = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        loops.append(time.perf_counter() - start)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": statistics.median(loops),
    }


def attempt(workload, index, tracer, corrupt=None):
    """One checked iteration; returns its sample, or None if it failed."""
    import layers  # imports repro, so only after import_program()

    gc.collect()
    if tracer is not None:
        tracer.reset()
        layers.install(tracer)
    try:
        sample = workload.iterate(index, tracer if tracer is not None else NULL_TRACER)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    if tracer is not None:
        sample.layers = layers.layer_values(tracer, sample.wall_s)
    if corrupt is not None:
        corrupt(sample)
    try:
        problems = workload.check(sample)
    except Exception:
        traceback.print_exc()
        problems = ["the output check could not run"]
    if problems:
        print(f"{workload.name} iteration {index} failed: {problems}", file=sys.stderr)
        return None
    return sample


def measure(workload, seconds, trace, corrupt=None) -> dict:
    """Iterate until ``seconds`` is used up (at least the workload's minimum).

    An iteration is not started when the median iteration so far would
    overrun ``seconds``.  With ``trace`` each step is an untraced/traced
    pair on the same index, alternating which runs first.
    """
    tracer = Tracer() if trace else None
    plain, traced, overheads, steps = [], [], [], []
    attempted = 0
    minimum = 1 if trace else workload.min_iterations
    start = time.perf_counter()
    index = 0
    while index < minimum or (
        time.perf_counter() - start + statistics.median(steps) <= seconds
    ):
        step_start = time.perf_counter()
        modes = (False, True) if index % 2 == 0 else (True, False)
        pair = {}
        for traced_mode in modes if trace else (False,):
            attempted += 1
            sample = attempt(workload, index, tracer if traced_mode else None, corrupt)
            if sample is not None:
                pair[traced_mode] = sample
                (traced if traced_mode else plain).append(sample)
        if len(pair) == 2:
            overheads.append(pair[True].cpu_s - pair[False].cpu_s)
        steps.append(time.perf_counter() - step_start)
        index += 1
    return {
        "plain": plain,
        "traced": traced,
        "overheads": overheads,
        "attempted": attempted,
        "failed": attempted - len(plain) - len(traced),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SQLite reads this once, at its first use: keep its temp files in the
    # checkout too (work_dir creates the directory before any store opens).
    os.environ["SQLITE_TMPDIR"] = str(WORK_PARENT)
    try:
        import_s = import_program()
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, fidelity

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"fingerprint": fingerprint()}), flush=True)

    with work_dir(args.workload) as work:
        workload = WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            start = time.process_time()
            workload.setup()
            setups.append(time.process_time() - start)
        run = measure(workload, args.seconds, bool(args.trace))

    plain, traced = run["plain"], run["traced"]
    samples = plain or traced
    best_stages = {
        name: min(s.stages[name] for s in plain) for name in (plain[0].stages if plain else ())
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "error_rate": run["failed"] / run["attempted"],
        "iteration_s": [s.wall_s for s in samples],
        "iteration_cpu_s": [s.cpu_s for s in samples],
        "median_iter_cpu_s": statistics.median(s.cpu_s for s in samples) if samples else None,
        "best_stage_cpu_s": best_stages,
        "figures": {
            name: statistics.median(s.figures[name] for s in samples)
            for name in (samples[0].figures if samples else ())
        },
        "paper": fidelity(samples),
    }), flush=True)

    if args.trace:
        values = {}
        if traced:
            values = {
                name: statistics.median(s.layers[name] for s in traced)
                for name in traced[0].layers
            }
        overheads = run["overheads"]
        values["trace_overhead_s"] = statistics.median(overheads) if overheads else 0.0
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if plain:
            values["best_iter_cpu_s"] = sum(best_stages.values())
        wanted = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    print(json.dumps({
        "correct": run["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
