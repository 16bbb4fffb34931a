"""The layers the traced run measures and the wrappers that measure them.

Layers are the ``src/repro`` packages on the study path.  ``repro.shard``
is left out because it is being retired; ``repro.lint`` and
``repro.detection`` are not on the study path.

:func:`install` wraps each layer's public entry point for one traced
iteration.  Self time is reported as ``<span>_s``; counts are read from
public handles (the wrapped call's ``self``, its arguments or its result)
after the call returns.  ``README.md`` maps each metric to the end-to-end
figure and workloads it should move.
"""

from __future__ import annotations

from repro.ads.delivery import AdDeliveryEngine
from repro.ads.reports import ReportsTool
from repro.ckpt.journal import DatasetJournal
from repro.ckpt.manager import CheckpointManager
from repro.farms.catalog import LikeFarmService
from repro.honeypot.crawler import ProfileCrawler
from repro.honeypot.storage import CRAWL_COMPLETE
from repro.osn.population import WorldBuilder
from repro.osn.termination import TerminationSweep
from repro.sim.engine import EventEngine

#: Every per-layer metric, in report order.  A layer that does no work on a
#: workload reports 0 for its metrics there.
LAYER_METRICS = (
    "osn.world_build_s", "osn.users", "osn.like_events", "osn.edges",
    "ads.launch_s", "farms.place_order_s", "ads.global_report_s",
    "sim.run_until_s", "sim.events_fired",
    "honeypot.crawl_likers_s", "honeypot.crawl_baseline_s",
    "honeypot.recheck_s", "honeypot.likers_complete_ratio",
    "osn.api.requests", "osn.api.retries", "osn.api.failures",
    "osn.api.useful_ratio",
    "osn.termination_sweep_s",
    "analysis.results_s", "core.comparison_s",
    "core.shape_checks", "core.shape_checks_passed",
    "core.bands", "core.bands_held",
    "honeypot.to_jsonl_s", "honeypot.jsonl_bytes", "honeypot.rows",
    "ckpt.open_s", "ckpt.journal_append_s", "ckpt.journal_records",
    "ckpt.journal_replayed", "ckpt.fsyncs", "ckpt.barrier_s",
    "ckpt.snapshot_bytes",
    "store.ingest_s", "store.rows_written", "store.values_written",
    "store.query_s", "store.rows_read", "store.verify_s", "store.export_s",
    "unattributed_s", "span_coverage", "trace_overhead_s",
)


def _world_counts(tracer, args, built, before) -> None:
    network = args[1]
    tracer.add("osn.users", network.user_count)
    tracer.add("osn.like_events", len(network.likes))
    tracer.add("osn.edges", network.graph.edge_count)


def _fired_before(args):
    return args[0].fired


def _fired_after(tracer, args, result, fired_before) -> None:
    tracer.add("sim.events_fired", args[0].fired - fired_before)


def _likers_after(tracer, args, records, before) -> None:
    tracer.add("honeypot.likers_crawled", len(records))
    tracer.add(
        "honeypot.likers_complete",
        sum(1 for record in records.values() if record.crawl_status == CRAWL_COMPLETE),
    )


def _journal_before(args):
    journal = args[0]
    return journal.records_written, journal.replayed, journal.fsyncs


def _journal_after(tracer, args, result, before) -> None:
    journal = args[0]
    written, replayed, fsyncs = before
    tracer.add("ckpt.journal_records", journal.records_written - written)
    tracer.add("ckpt.journal_replayed", journal.replayed - replayed)
    tracer.add("ckpt.fsyncs", journal.fsyncs - fsyncs)


def _snapshot_bytes_before(args):
    return args[0].snapshot_bytes


def _snapshot_bytes_after(tracer, args, result, before) -> None:
    tracer.add("ckpt.snapshot_bytes", args[0].snapshot_bytes - before)


def install(tracer) -> None:
    """Wrap every layer entry point the program calls internally."""
    tracer.wrap(WorldBuilder, "build", "osn.world_build", after=_world_counts)
    tracer.wrap(AdDeliveryEngine, "launch", "ads.launch")
    tracer.wrap(LikeFarmService, "place_order", "farms.place_order")
    tracer.wrap(ReportsTool, "global_report", "ads.global_report")
    tracer.wrap(
        EventEngine, "run_until", "sim.run_until",
        before=_fired_before, after=_fired_after,
    )
    tracer.wrap(
        ProfileCrawler, "crawl_likers", "honeypot.crawl_likers",
        after=_likers_after,
    )
    tracer.wrap(ProfileCrawler, "crawl_baseline", "honeypot.crawl_baseline")
    tracer.wrap(ProfileCrawler, "recheck_terminations", "honeypot.recheck")
    tracer.wrap(TerminationSweep, "run", "osn.termination_sweep")
    tracer.wrap(CheckpointManager, "open", "ckpt.open")
    tracer.wrap(
        DatasetJournal, "append", "ckpt.journal_append",
        before=_journal_before, after=_journal_after,
    )
    tracer.wrap(
        CheckpointManager, "at_barrier", "ckpt.barrier",
        before=_snapshot_bytes_before, after=_snapshot_bytes_after,
    )


def add_request_stats(tracer, stats) -> None:
    """Fold one study's ``RequestStats`` into the iteration's counts."""
    tracer.add("osn.api.requests", stats.total)
    tracer.add("osn.api.useful", stats.total - stats.faults_injected)
    tracer.add("osn.api.retries", stats.retries)
    tracer.add("osn.api.failures", stats.failures)


def layer_values(tracer, wall_s: float) -> dict:
    """One traced iteration's per-layer metrics, 0 for idle layers."""
    values = {f"{name}_s": seconds for name, seconds in tracer.self_seconds().items()}
    values.update(tracer.counts)
    covered = tracer.top_level_seconds()
    values["unattributed_s"] = wall_s - covered
    values["span_coverage"] = covered / wall_s
    values["honeypot.likers_complete_ratio"] = _ratio(
        values.get("honeypot.likers_complete", 0), values.get("honeypot.likers_crawled", 0)
    )
    values["osn.api.useful_ratio"] = _ratio(
        values.get("osn.api.useful", 0), values.get("osn.api.requests", 0)
    )
    return {name: float(values.get(name, 0.0)) for name in LAYER_METRICS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
