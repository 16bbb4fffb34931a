"""The workloads, each driven through the public ``repro`` API.

Every workload has the same shape:

* ``setup()`` builds what the output checks compare against (run several
  times by the harness, which reports the median as part of ``setup_s``);
* ``iterate(index, tracer)`` runs one iteration and returns a
  :class:`Sample` whose ``wall_s``, ``cpu_s`` and ``stages`` cover only
  the timed work;
* ``check(sample)`` returns the problems found in the iteration's output
  (an empty list means correct).  A sample with problems counts as
  failed and its timing is not reported.

All files go to the harness's work directory inside the checkout.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro import failpoints
from repro.ckpt import CheckpointConfig
from repro.core.comparison import full_comparison
from repro.core.experiment import HoneypotExperiment
from repro.core.results import ExperimentResults
from repro.honeypot.storage import HoneypotDataset
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.faults import FaultProfile
from repro.store import HoneypotStore
from repro.store import queries

from layers import add_request_stats
from spans import NULL_TRACER

#: Consecutive seeds per paper_seeds run: seed, seed + 1, ... seed + K - 1.
PAPER_SEEDS_K = 6
#: The journal record (counting the header) at which durable_recover's
#: first run is made to fail: about the middle of a run's ~9.3k records,
#: inside the liker crawl.
CRASH_RECORD = 4600
#: The world_10x population and campaign multiplier.
WORLD_SCALE = 10


@dataclass
class Sample:
    """One iteration's timed work and what its output checks need."""

    wall_s: float
    #: CPU seconds (user + system) of this process in the timed work.
    cpu_s: float
    seed: int
    #: CPU seconds of each stage of the timed work, in order; together
    #: they cover it.  A run reports the sum of each stage's least time.
    stages: Dict[str, float]
    #: Named end-to-end figures of this iteration (``study_s`` ...).
    figures: Dict[str, float] = field(default_factory=dict)
    outputs: Dict = field(default_factory=dict)
    #: Per-layer metrics, filled in by the harness for traced iterations.
    layers: Dict[str, float] = field(default_factory=dict)


def _clock() -> tuple:
    """Wall and process CPU time, for :func:`_elapsed`."""
    return time.perf_counter(), time.process_time()


def _elapsed(start: tuple) -> tuple:
    """(wall, cpu) seconds since ``start`` (a :func:`_clock` reading)."""
    wall, cpu = _clock()
    return wall - start[0], cpu - start[1]


class StageClock:
    """CPU seconds of consecutive stages of one iteration's timed work."""

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}
        self._last = time.process_time()

    def lap(self, name: str) -> None:
        """End the stage ``name``, which began where the last one ended."""
        now = time.process_time()
        self.stages[name] = now - self._last
        self._last = now


def count_values(value) -> int:
    """Leaf values in a JSON-like row: what a row count hides."""
    if isinstance(value, dict):
        return sum(count_values(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(count_values(item) for item in value)
    return 1


def paper_comparison(results: ExperimentResults, tracer) -> Dict:
    """The shape checks and paper-band rows of one study, as sample outputs."""
    with tracer.span("analysis.results"):
        for table in ("table1", "table2", "table3", "figure4", "figure5"):
            getattr(results, table)
        checks = results.shape_checks()
    with tracer.span("core.comparison"):
        rows = full_comparison(results)
    return {
        "failed_checks": [check.name for check in checks if not check.passed],
        "shape_checks": len(checks),
        "bands_missed": [row.quantity for row in rows if not row.within_band],
        "bands": len(rows),
    }


def add_comparison_counts(tracer, comparison: Dict) -> None:
    tracer.add("core.shape_checks", comparison["shape_checks"])
    tracer.add(
        "core.shape_checks_passed",
        comparison["shape_checks"] - len(comparison["failed_checks"]),
    )
    tracer.add("core.bands", comparison["bands"])
    tracer.add("core.bands_held", comparison["bands"] - len(comparison["bands_missed"]))


def fidelity(samples: List[Sample]) -> Dict:
    """Paper shape checks and bands held over the distinct seeds studied.

    The failures of each seed are listed, so a seed that misses a check
    shows by name.  Empty for a workload that runs no paper comparison.
    """
    first = {}
    for sample in samples:
        if "shape_checks" in sample.outputs:
            first.setdefault(sample.seed, sample.outputs)
    if not first:
        return {}
    outputs = list(first.values())
    checks = sum(o["shape_checks"] for o in outputs)
    bands = sum(o["bands"] for o in outputs)
    return {
        "seeds": sorted(first),
        "shape_checks_frac": 1 - sum(len(o["failed_checks"]) for o in outputs) / checks,
        "bands_held_frac": 1 - sum(len(o["bands_missed"]) for o in outputs) / bands,
        "misses": {
            seed: o["failed_checks"] + o["bands_missed"]
            for seed, o in sorted(first.items())
            if o["failed_checks"] or o["bands_missed"]
        },
    }


class PaperSeeds:
    """K paper-scale studies on consecutive seeds, with analyses and export.

    The researcher's main loop: every layer from world build to JSONL
    export runs; ``ckpt`` and ``store`` do no work.
    """

    name = "paper_seeds"

    def __init__(self, seed: int, work: Path) -> None:
        self.seeds = [seed + offset for offset in range(PAPER_SEEDS_K)]
        self.min_iterations = PAPER_SEEDS_K
        self.work = work
        #: sha256 of each seed's JSONL the first time it is studied, once
        #: that JSONL has passed the round trip.
        self.digests: Dict[int, str] = {}

    def setup(self) -> None:
        # No reference is needed: the check is a round trip.  One small
        # study with its analyses and export fills lazy caches first.
        results = HoneypotExperiment.small(self.seeds[0]).run()
        full_comparison(results)
        results.shape_checks()
        results.dataset.to_jsonl(self.work / "warmup.jsonl")

    def iterate(self, index: int, tracer) -> Sample:
        seed = self.seeds[index % len(self.seeds)]
        path = self.work / f"study-{index}.jsonl"
        start = _clock()
        experiment = HoneypotExperiment(StudyConfig(seed=seed))
        results = experiment.run()
        study_s, _ = _elapsed(start)
        comparison = paper_comparison(results, tracer)
        with tracer.span("honeypot.to_jsonl"):
            results.dataset.to_jsonl(path)
        wall_s, cpu_s = _elapsed(start)

        dataset = results.dataset
        add_comparison_counts(tracer, comparison)
        tracer.add("honeypot.jsonl_bytes", path.stat().st_size)
        tracer.add(
            "honeypot.rows",
            1 + len(dataset.campaigns) + len(dataset.likers) + len(dataset.baseline),
        )
        add_request_stats(tracer, experiment.artifacts.api.stats)
        return Sample(
            wall_s=wall_s,
            cpu_s=cpu_s,
            seed=seed,
            # One stage: the seeds differ, so their parts are not the same work.
            stages={"study": cpu_s},
            figures={"study_s": study_s, "export_s": wall_s - study_s},
            outputs={"jsonl": path, **comparison},
        )

    def check(self, sample: Sample) -> List[str]:
        """The first study of a seed round-trips byte for byte through
        ``from_jsonl``; a seed studied again writes the same bytes as its
        first study (compared by digest, so repeats cost little to check)."""
        path = sample.outputs["jsonl"]
        again = path.with_name(path.name + ".again")
        try:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.get(sample.seed)
            if first is not None:
                if digest != first:
                    return [f"seed {sample.seed}: JSONL differs from this seed's first study"]
                return []
            HoneypotDataset.from_jsonl(path).to_jsonl(again)
            if again.read_bytes() != data:
                return [f"seed {sample.seed}: JSONL changed in a from_jsonl round trip"]
            self.digests[sample.seed] = digest
            return []
        except ValueError as error:
            return [f"seed {sample.seed}: JSONL does not load: {error}"]
        finally:
            path.unlink(missing_ok=True)
            again.unlink(missing_ok=True)


def _chaos_config(seed: int) -> StudyConfig:
    config = StudyConfig(seed=seed)
    config.fault_profile = FaultProfile.default()
    return config


class DurableRecover:
    """A checkpointed chaos study killed mid-crawl, resumed, then stored.

    Exercises what no other workload runs: journal fsyncs, verified replay
    of the crashed run's records, snapshot barriers, the retrying crawl,
    and store ingest / queries / verify / export.
    """

    name = "durable_recover"
    min_iterations = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.reference = b""
        #: The paper comparison of the recovered dataset.  Every iteration
        #: recovers the same bytes (the check makes sure), so it is made once.
        self.comparison = None

    def setup(self) -> None:
        failpoints.reset()
        results = HoneypotExperiment(_chaos_config(self.seed)).run()
        path = self.work / "reference.jsonl"
        results.dataset.to_jsonl(path)
        self.reference = path.read_bytes()
        path.unlink()

    def iterate(self, index: int, tracer) -> Sample:
        run_dir = Path(tempfile.mkdtemp(prefix="durable-", dir=self.work))
        checkpoint = run_dir / "checkpoint"
        crashed = _chaos_config(self.seed)
        crashed.checkpoint = CheckpointConfig(directory=checkpoint, every_days=7.0)
        crashed.failpoints = f"ckpt.journal.record=raise@{CRASH_RECORD}"
        resumed = _chaos_config(self.seed)
        resumed.checkpoint = CheckpointConfig(
            directory=checkpoint, every_days=7.0, resume=True
        )

        failpoints.reset()
        start = _clock()
        laps = StageClock()
        try:
            HoneypotExperiment(crashed).run()
            crash = "the run was not stopped at the failpoint"
        except failpoints.FailpointError:
            crash = None
        laps.lap("crash")
        failpoints.reset()
        experiment = HoneypotExperiment(resumed)
        results = experiment.run()
        dataset = results.dataset
        laps.lap("resume")
        durable_s, _ = _elapsed(start)

        store_start = _clock()
        with HoneypotStore.create(run_dir / "study.sqlite") as store:
            with tracer.span("store.ingest"):
                store.ingest_dataset(dataset)
            laps.lap("store.ingest")
            with tracer.span("store.query"):
                queries.overlap_summary(store)
                queries.shared_liker_counts(store)
                for campaign_id in store.campaign_ids():
                    queries.temporal_profile(store, campaign_id)
                queries.table1(store)
            laps.lap("store.query")
            with tracer.span("store.verify"):
                problems = store.verify()
            laps.lap("store.verify")
            with tracer.span("store.export"):
                store.to_jsonl(run_dir / "store.jsonl")
            rows_written = sum(store.rows_written.values())
            rows_read = sum(store.rows_read.values())
        laps.lap("store.export")
        store_s, _ = _elapsed(store_start)

        if tracer.enabled:
            tracer.add(
                "store.values_written",
                sum(count_values(row) for row in dataset.iter_rows()),
            )
        # Outside the timed work: the paper comparison of the recovered data.
        if self.comparison is None:
            self.comparison = paper_comparison(results, NULL_TRACER)
        comparison = self.comparison
        add_comparison_counts(tracer, comparison)
        tracer.add("store.rows_written", rows_written)
        tracer.add("store.rows_read", rows_read)
        add_request_stats(tracer, experiment.artifacts.api.stats)
        return Sample(
            wall_s=durable_s + store_s,
            cpu_s=sum(laps.stages.values()),
            seed=self.seed,
            stages=laps.stages,
            figures={"durable_s": durable_s, "store_s": store_s},
            outputs={
                "run_dir": run_dir,
                "crash": crash,
                "dataset": dataset,
                "verify": problems,
                **comparison,
            },
        )

    def check(self, sample: Sample) -> List[str]:
        # The run directory (~33 MB) stays until the harness removes the
        # work directory at the end of the run: the disk discards freed
        # blocks as they are freed, and removing it here took ~2 s, a third
        # of an iteration, which cost a run one or two iterations.
        run_dir = sample.outputs["run_dir"]
        problems = []
        if sample.outputs["crash"]:
            problems.append(sample.outputs["crash"])
        problems += [f"store verify: {p}" for p in sample.outputs["verify"]]
        resumed = run_dir / "resumed.jsonl"
        sample.outputs.pop("dataset").to_jsonl(resumed)
        if resumed.read_bytes() != self.reference:
            problems.append("resumed JSONL differs from the plain chaos run")
        if (run_dir / "store.jsonl").read_bytes() != self.reference:
            problems.append("store export differs from the plain chaos run")
        return problems


class World10x:
    """Build (only) a world with 10x the paper's population and campaigns.

    The working set grows about tenfold; world build and campaign launch
    do nearly all the work, and the event loop, crawl, ``ckpt`` and
    ``store`` do none.
    """

    name = "world_10x"
    min_iterations = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.reference = None

    def _build(self) -> tuple:
        study = HoneypotStudy(StudyConfig.at_scale(WORLD_SCALE, seed=self.seed))
        network = study.build_world().network
        return network.user_count, len(network.likes), network.graph.edge_count

    def setup(self) -> None:
        self.reference = self._build()

    def iterate(self, index: int, tracer) -> Sample:
        start = _clock()
        counts = self._build()
        build_s, cpu_s = _elapsed(start)
        return Sample(
            wall_s=build_s,
            cpu_s=cpu_s,
            seed=self.seed,
            stages={"build": cpu_s},
            figures={"build_s": build_s},
            outputs={"counts": counts},
        )

    def check(self, sample: Sample) -> List[str]:
        if sample.outputs["counts"] != self.reference:
            return [
                f"(users, like events, edges) {sample.outputs['counts']} != "
                f"set-up's {self.reference}"
            ]
        return []


WORKLOADS = {
    workload.name: workload for workload in (PaperSeeds, DurableRecover, World10x)
}
