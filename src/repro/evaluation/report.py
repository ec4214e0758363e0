"""Plain-text tables for experiment output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Table:
    """A simple column-aligned text table."""

    headers: List[str]
    rows: List[List[str]] = field(default_factory=list)
    title: str = ""

    def add_row(self, values: Sequence[object]) -> None:
        self.rows.append([_format_cell(value) for value in values])

    def render(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(self.headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_speedup_table(
    speedups: Dict[str, Dict[str, float]],
    methods: Optional[Sequence[str]] = None,
    title: str = "",
) -> Table:
    """Render {benchmark: {method: speedup}} as a table with a geomean row."""
    if methods is None:
        methods = sorted({m for per in speedups.values() for m in per})
    table = Table(headers=["benchmark"] + list(methods), title=title)
    for benchmark, per_method in speedups.items():
        table.add_row([benchmark] + [per_method.get(m, float("nan")) for m in methods])
    geomeans = []
    for method in methods:
        values = [per.get(method) for per in speedups.values() if per.get(method)]
        geomeans.append(geometric_mean([v for v in values if v and v > 0]))
    table.add_row(["geomean"] + geomeans)
    return table


def format_cache_stats_table(
    stats,
    title: str = "reward cache",
    simulator_memo=None,
    frontend=None,
    fleet=None,
) -> Table:
    """Render :class:`repro.cache.CacheStats` (or any object with the same
    counters) as a two-column table, including the derived hit rate and the
    number of pipeline evaluations the cache avoided.

    ``simulator_memo`` (a :meth:`CompileAndMeasure.simulator_memo_stats`
    dict: whole-function simulation memo hits/misses/evictions/entries, the
    playbook count and the memoised loop analyses) and ``frontend`` (a
    :class:`FrontendCacheStats` dict) append the hot-path memo counters to
    the same table so cache-pressure regressions in any layer are visible
    from one report.
    ``fleet`` (a fleet-backed service's
    :class:`repro.distributed.ServiceStats`) splits the hits into
    speculative vs demand-earned ones, so warm-start analysis can tell
    a genuinely warm store from one the prefetcher filled moments earlier.
    """
    table = Table(headers=["metric", "value"], title=title)
    table.add_row(["lookups", stats.lookups])
    table.add_row(["hits", stats.hits])
    if fleet is not None:
        table.add_row(["hits (speculative)", fleet.prefetch_hits])
        table.add_row(
            ["hits (demand)", max(0, stats.hits - fleet.prefetch_hits)]
        )
    table.add_row(["misses", stats.misses])
    table.add_row(["batch deduplicated", stats.batch_deduplicated])
    table.add_row(["hit rate", stats.hit_rate])
    table.add_row(["compiles avoided", stats.compiles_avoided])
    if fleet is not None:
        table.add_row(["prefetch issued", fleet.prefetch_issued])
        table.add_row(["prefetch joined in flight", fleet.prefetch_joined])
        table.add_row(["prefetch wasted", fleet.prefetch_wasted])
        table.add_row(["async waits converted", fleet.waits_converted])
    if simulator_memo is not None:
        table.add_row(["simulator memo hits", simulator_memo["hits"]])
        table.add_row(["simulator memo misses", simulator_memo["misses"]])
        table.add_row(["simulator memo evictions", simulator_memo["evictions"]])
        table.add_row(["simulator memo hit rate", simulator_memo["hit_rate"]])
        table.add_row(["simulator memo entries", simulator_memo["entries"]])
        table.add_row(["simulator playbooks", simulator_memo["playbook_entries"]])
        table.add_row(["loop analyses memoised", simulator_memo["analysis_entries"]])
    if frontend is not None:
        table.add_row(["frontend cache hits", frontend["hits"]])
        table.add_row(["frontend cache misses", frontend["misses"]])
        table.add_row(["frontend cache evictions", frontend["evictions"]])
        table.add_row(["frontend cache hit rate", frontend["hit_rate"]])
    return table


def format_no_evaluations_table(title: str = "reward cache") -> Table:
    """The explicit empty-state report: no reward queries have run yet.

    Reserved for runs that genuinely measured nothing.  A run whose every
    reward was answered by a warm cache *did* evaluate — report it with
    :func:`format_cache_stats_table` / :func:`format_comparison_cache_table`
    (which show the hits) rather than this table.
    """
    table = Table(headers=["metric", "value"], title=f"{title} (no evaluations yet)")
    table.add_row(["evaluations", 0])
    return table


def format_task_summary_table(comparison, title: str = "") -> Table:
    """Task-tagged per-method summary of a comparison run.

    ``comparison`` is a :class:`repro.evaluation.comparison.TaskComparison`
    (or anything with ``task``/``methods``/``speedups`` and
    ``geomean``/``average``): one row per method with its geomean and
    average speedup over the baseline and how many kernels it ran on.
    """
    table = Table(
        headers=["method", "geomean speedup", "average speedup", "kernels"],
        title=title or f"method summary (task: {comparison.task})",
    )
    for method in comparison.methods:
        measured = sum(
            1 for per in comparison.speedups.values() if method in per
        )
        table.add_row(
            [method, comparison.geomean(method), comparison.average(method), measured]
        )
    return table


def format_generalization_table(matrix, title: str = "") -> Table:
    """Render a held-out-kernel generalization matrix as a text table.

    ``matrix`` is a :class:`repro.evaluation.comparison.GeneralizationMatrix`
    (or anything with ``items()`` yielding ``(task, SplitComparison)`` and a
    ``methods`` list): two rows per task — the train-kernels geomeans and
    the held-out test-kernels geomeans per method — so the per-method
    generalization gap reads straight down each column.
    """
    methods = matrix.methods
    table = Table(
        headers=["task", "kernels", "count"] + list(methods),
        title=title or "generalization matrix (geomean speedup over baseline)",
    )
    for task, entry in matrix.items():
        for side, comparison in entry.sides.items():
            table.add_row(
                [task, side, len(comparison.speedups)]
                + [comparison.geomean(method) for method in methods]
            )
    return table


def format_comparison_cache_table(
    comparison, title: str = "comparison reward cache"
) -> Table:
    """How a comparison run's rewards were served: cache hits vs simulations.

    Distinguishes the fully-warm case (every measurement a cache hit, zero
    simulator calls) from a cold run — the table a warm-store rerun shows
    instead of the misleading "no evaluations" empty state.
    """
    table = Table(headers=["metric", "value"], title=title)
    table.add_row(["lookups", comparison.cache_lookups])
    table.add_row(["cache hits", comparison.cache_hits])
    table.add_row(["simulated (misses)", comparison.cache_misses])
    hit_rate = (
        comparison.cache_hits / comparison.cache_lookups
        if comparison.cache_lookups
        else 0.0
    )
    table.add_row(["hit rate", hit_rate])
    if comparison.cache_misses == 0:
        table.add_row(["fully cache-served", "yes"])
    return table


def format_service_stats_table(
    stats,
    store_stats=None,
    preloaded: int = 0,
    title: Optional[str] = None,
) -> Table:
    """Render :class:`repro.distributed.ServiceStats` with one row per worker
    plus, when a persistent store backs the cache, its load/append counters.

    A fleet-backed service's stats (``stats.remote``) add the robustness
    counters (workers lost, retries, re-shards, inline fallbacks) and the
    speculative-prefetch ledger with the derived waits-converted rate.
    ``preloaded`` is the number of measurements the cache warm-started from
    disk (i.e. compiles this whole run never had to do)."""
    if title is None:
        title = "fleet evaluation" if stats.remote else "evaluation service"
    table = Table(headers=["metric", "value"], title=title)
    table.add_row(["dispatched to workers", stats.dispatched])
    table.add_row(["completed by workers", stats.completed])
    table.add_row(["worker errors", stats.errors])
    table.add_row(["serial batches", stats.serial_batches])
    table.add_row(["serial requests", stats.serial_requests])
    if stats.remote:
        table.add_row(["demand dispatches", stats.demand_dispatched])
        table.add_row(["workers lost", stats.workers_lost])
        table.add_row(["retries", stats.retries])
        table.add_row(["re-shards", stats.reshards])
        table.add_row(["inline evaluations", stats.inline_evaluations])
        table.add_row(["prefetch issued", stats.prefetch_issued])
        table.add_row(["prefetch hits", stats.prefetch_hits])
        table.add_row(["prefetch joined in flight", stats.prefetch_joined])
        table.add_row(["prefetch wasted", stats.prefetch_wasted])
        table.add_row(["async waits converted", stats.waits_converted])
    for worker in sorted(stats.per_worker_completed):
        table.add_row(
            [f"worker {worker} completed", stats.per_worker_completed[worker]]
        )
    if store_stats is not None:
        table.add_row(["store: preloaded entries", preloaded])
        table.add_row(["store: records loaded", store_stats.records_loaded])
        table.add_row(["store: records appended", store_stats.appended])
        table.add_row(["store: segments loaded", store_stats.segments_loaded])
        table.add_row(["store: segments skipped", store_stats.segments_skipped])
        table.add_row(["store: corrupt records", store_stats.corrupt_records])
    return table


def format_serving_stats_table(
    report,
    title: str = "compile service",
) -> Table:
    """Render a :class:`repro.serving.stats.ServingReport` as a text table.

    One glanceable view of a serving run: request/error/coalescing counts,
    the p50/p95/p99/mean latency profile, sustained requests per second,
    per-tier hit rates (``store`` answered with zero simulation,
    ``frontend`` skipped parse/AST/embedding, ``cold`` ran the full
    pipeline), micro-batch shape, and — when a latency SLO is configured —
    its attainment.
    """
    table = Table(headers=["metric", "value"], title=title)
    table.add_row(["requests", report.requests])
    table.add_row(["errors", report.errors])
    table.add_row(["coalesced", report.coalesced])
    table.add_row(["coalesced rate", report.coalesced_rate])
    table.add_row(["latency p50 (ms)", report.latency_p50_ms])
    table.add_row(["latency p95 (ms)", report.latency_p95_ms])
    table.add_row(["latency p99 (ms)", report.latency_p99_ms])
    table.add_row(["latency mean (ms)", report.latency_mean_ms])
    table.add_row(["requests/s", report.requests_per_second])
    for tier in ("store", "frontend", "cold"):
        table.add_row(
            [f"tier {tier}", report.tier_counts.get(tier, 0)]
        )
        table.add_row([f"tier {tier} rate", report.tier_rate(tier)])
    table.add_row(["ticks", report.ticks])
    table.add_row(["mean batch size", report.mean_batch_size])
    table.add_row(["max batch size", report.max_batch_size])
    if report.slo_ms is not None:
        table.add_row(["SLO (ms)", report.slo_ms])
        table.add_row(["SLO attainment", report.slo_attainment])
    return table


def geometric_mean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
