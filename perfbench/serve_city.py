"""``serve-city-k2``: a seeded event scenario through K=2 process shards.

:func:`repro.serve.run_scenario` drives a seeded schedule of road
closures, demand surges and incidents through a
:class:`~repro.serve.ShardedServingEngine` with two worker processes, as
closed-loop ticks: each tick observes one row (scattered to both shards
with their halo rows and journalled), then issues a burst of
``READS_PER_TICK`` reads, of which the first misses the cache and the rest
hit it.  Every closure boundary publishes a rewritten bundle version.

A run repeats the same drive on a fresh engine until its time is spent;
the drives must agree exactly on every answer's source and on the MAE.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

import repro.serve.router as router_module
from repro.data.events import DemandSurge, Incident, RoadClosure, Scenario
from repro.serve import (
    ForecastResult, ServableBundle, ServeConfig, ShardedServingEngine, run_scenario,
)
from repro.utils.timer import now

from .common import (
    WORK_DIR, Outcome, SetupProbes, Tracer, beyond, check, chunk_rates, mean_ms, median,
    peak_rss_mb, percentile_ms, rss_mb, span_report,
)
from .serve_fresh import first_model_answer, prepare

SIZES = {
    "full": dict(nodes=128, steps=2016, hidden=16, layers=2, ticks=240,
                 closures=12, surges=2, incidents=2),
    "tiny": dict(nodes=16, steps=600, hidden=8, layers=1, ticks=24,
                 closures=2, surges=1, incidents=1),
}
SHARDS = 2
READS_PER_TICK = 4
# Three in four reads are cache hits, so p90 sits among the cache misses.
# A run holds ~3000 reads, but p99 would rest on the slowest thirty
# misses and swing by a quarter between runs.
TAIL_Q = 90
# Throughput is the median over chunks of this many ticks' reads.
RATE_CHUNK_TICKS = 40
# Fallback reasons that mean the program failed a request, not that it
# degraded by design (cold start, outage).
FAILURE_REASONS = ("error", "anomaly")


def scenario(num_nodes: int, size: dict, seed: int) -> Scenario:
    """Closures, surges and incidents on a fixed timetable, at seeded places.

    The timetable (starts, durations, strengths) is part of the workload,
    so every seed publishes the same number of versions and degrades the
    same share of windows; the seed picks which roads each event hits.
    Closures never overlap: at most one closure's sensors are dark at a
    time, which keeps the model path in use.
    """
    rng = np.random.default_rng([seed, 3])
    ticks = size["ticks"]
    spacing = ticks // size["closures"]

    def nodes(count: int) -> tuple[int, ...]:
        return tuple(int(n) for n in np.sort(rng.choice(num_nodes, count, replace=False)))

    events = [
        RoadClosure(start=k * spacing + spacing // 4, nodes=nodes(max(1, num_nodes // 8)),
                    duration=spacing // 2, seed=seed)
        for k in range(size["closures"])
    ]
    half = ticks // 2
    for k in range(size["surges"]):
        events.append(DemandSurge(start=k * half + half // 4, nodes=nodes(max(1, num_nodes // 3)),
                                  duration=half // 2, magnitude=0.6, seed=seed))
    for k in range(size["incidents"]):
        events.append(Incident(start=k * half + half // 8, node=int(rng.integers(num_nodes)),
                               duration=half // 3, severity=0.5, spillover=0.5, seed=seed))
    return Scenario(f"city-{seed}", tuple(events), seed=seed)


def open_engine(path) -> ShardedServingEngine:
    return ShardedServingEngine(
        ServableBundle.load(path), num_shards=SHARDS, config=ServeConfig(), transport="process"
    )


def _time_setup(path, series) -> float:
    start = now()
    engine = open_engine(path)
    try:
        first_model_answer(engine, series, series.values.shape[0] // 2)
        return now() - start
    finally:
        engine.close()


class _RouterProbe:
    """Spans and counters around the router's layers, from the outside.

    Wraps instance attributes of one engine and its transports; the only
    module-level change is ``shard_bundle`` in the router module, restored
    by :meth:`close`.
    """

    def __init__(self, engine: ShardedServingEngine, tracer: Tracer):
        self.engine, self.tracer = engine, tracer
        self.core_s: list[float] = []
        self.rss_before_publish: float | None = None
        self._local = threading.local()
        engine.observe = tracer.wrap(engine.observe, "router.observe")
        publish = engine.publish

        def traced_publish(bundle, activate=True):
            if self.rss_before_publish is None:
                self.rss_before_publish = rss_mb(self.pids())
            with tracer.span("router.publish"):
                return publish(bundle, activate)

        engine.publish = traced_publish
        self._shard_bundle = router_module.shard_bundle
        router_module.shard_bundle = tracer.wrap(self._shard_bundle, "shard.shard_bundle")
        for shard, worker in enumerate(engine.workers):
            worker.post = self._traced_post(shard, worker.post)
            worker.wait = self._traced_wait(shard, worker.wait)

    def pids(self) -> list:
        return ["self"] + [worker.process.pid for worker in self.engine.workers]

    def request_started(self, root, start: float) -> None:
        self._local.first_post = (root, start)

    def _traced_post(self, shard: int, post):
        def traced(op, payload=()):
            start = now()
            first = getattr(self._local, "first_post", None)
            if first is not None:
                self._local.first_post = None
                self.tracer.record("router.rpc_wait", first[1], start, parent=first[0])
            posted = getattr(self._local, "posted", None)
            if posted is None:
                posted = self._local.posted = {}
            posted[shard] = (op, start)
            return post(op, payload)
        return traced

    def _traced_wait(self, shard: int, wait):
        def traced():
            reply = None
            try:
                reply = wait()
                return reply
            finally:
                op, start = self._local.posted.pop(shard)
                name = "transport.roundtrip" if op == "forecast" else f"transport.{op}"
                self.tracer.record(name, start, now(), parent=self.tracer.current())
                if isinstance(reply, ForecastResult):
                    self.core_s.append(reply.latency_s)
        return traced

    def close(self) -> None:
        router_module.shard_bundle = self._shard_bundle


def drive(path, data, scenario, size: dict, tracer: Tracer) -> dict:
    """One scenario drive on a fresh engine; returns its samples."""
    engine = open_engine(path)
    probe = _RouterProbe(engine, tracer) if tracer.enabled else None
    latencies: list[float] = []
    starts: list[float] = []
    forecast = engine.forecast
    request_ids = itertools.count()

    def timed_forecast(horizon=None):
        start = now()
        starts.append(start)
        try:
            with tracer.span("router.request", rid=next(request_ids)) as root:
                if probe is not None:
                    probe.request_started(root, start)
                return forecast(horizon)
        finally:
            latencies.append(now() - start)

    engine.forecast = timed_forecast
    try:
        start = now()
        result = run_scenario(engine, data, scenario, steps=size["ticks"],
                              requests_per_step=READS_PER_TICK, concurrency=READS_PER_TICK - 1)
        end = now()
        pids = [worker.process.pid for worker in engine.workers]
        sample = {
            "latencies": latencies,
            "elapsed": end - start,
            "rates": chunk_rates(sorted(starts), RATE_CHUNK_TICKS * READS_PER_TICK, end),
            "report": result.report,
            "forecasts": result.forecasts,
            "worker_peak_mb": peak_rss_mb(pids),
            "journal_depth": max(engine.journal.depth(s) for s in range(SHARDS)),
        }
        if probe is not None:
            sample["core_s"] = probe.core_s
            sample["rss_growth_mb"] = (
                rss_mb(probe.pids()) - probe.rss_before_publish
                if probe.rss_before_publish is not None else 0.0
            )
        return sample
    finally:
        if probe is not None:
            probe.close()
        engine.close()


def run(seed: int, seconds: float, trace: bool, size_name: str = "full") -> Outcome:
    size = SIZES[size_name]
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"serve-city-{seed}-{size_name}.npz"
    data = prepare(size, path)
    events = scenario(size["nodes"], size, seed)
    try:
        probes = SetupProbes(lambda: _time_setup(path, data.dataset.series))
        try:
            quiet = Tracer(enabled=False)
            drives = [drive(path, data, events, size, quiet)]
            spent = drives[0]["elapsed"]
            probes.catch_up(spent / seconds)
            tracer = Tracer(enabled=trace)
            # At least two drives, so every run checks that drives repeat
            # exactly.  Set-up probes run between drives, outside drive time.
            while len(drives) < 2 or (not trace and spent + drives[-1]["elapsed"] < seconds):
                drives.append(drive(path, data, events, size, tracer if trace else quiet))
                spent += drives[-1]["elapsed"]
                probes.catch_up(spent / seconds)
            setups = probes.close()
        finally:
            probes.stop()
    finally:
        path.unlink(missing_ok=True)
    return _outcome(drives, setups, size, trace, tracer)


def _outcome(drives, setups, size, trace, tracer) -> Outcome:
    first = drives[0]["report"]
    for other in drives[1:]:
        report = other["report"]
        check(report["serving"]["sources"] == first["serving"]["sources"],
              f"answer sources differ between drives: {report['serving']['sources']} "
              f"vs {first['serving']['sources']}")
        check(report["overall"]["mae"] == first["overall"]["mae"],
              f"scenario MAE differs between drives: {report['overall']['mae']} "
              f"vs {first['overall']['mae']}")
        check(np.array_equal(other["forecasts"], drives[0]["forecasts"]),
              "first answers after each observe differ between drives")
    expected = size["ticks"] * READS_PER_TICK
    publishes = [u for u in first["graph_updates"] if u["version"] is not None]
    check(len(publishes) == len(first["graph_updates"]),
          "a closure boundary was not published as a bundle version")
    check(first["overall"]["mae"] is not None and np.isfinite(first["overall"]["mae"]),
          f"scenario MAE is not finite: {first['overall']['mae']}")

    attempted = failed = on_model = 0
    for sample in drives:
        serving = sample["report"]["serving"]
        check(serving["requests"] == expected,
              f"{serving['requests']} of {expected} requests were answered")
        attempted += serving["requests"]
        failed += sum(serving["fallback_reasons"].get(r, 0) for r in FAILURE_REASONS)
        on_model += serving["sources"].get("model", 0) + serving["sources"].get("cache", 0)

    timed = drives[:1] if trace else drives
    latencies = [t for sample in timed for t in sample["latencies"]]
    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.detail = {
        "drives": len(drives),
        "requests_timed": len(latencies),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": beyond(len(latencies), TAIL_Q),
        "publishes_per_drive": len(publishes),
        "sources": first["serving"]["sources"],
        "fallback_reasons": first["serving"]["fallback_reasons"],
        "setup_samples_s": setups,
    }
    outcome.end_to_end = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (percentile_ms(latencies, 50), "ms"),
        "latency_ms_tail": (percentile_ms(latencies, TAIL_Q), "ms"),
        "throughput_per_s": (median([r for s in timed for r in s["rates"]]), "1/s"),
        "forecast_mae": (float(first["overall"]["mae"]), "raw"),
        "availability": (on_model / attempted, "share"),
        "peak_rss_mb": (
            peak_rss_mb(["self"]) + max(s["worker_peak_mb"] for s in drives), "MB"
        ),
    }
    if trace:
        traced = drives[1]
        report = span_report(tracer.spans, "router.request")
        roundtrip = mean_ms(report, "transport.roundtrip")
        core_ms = float(np.mean(traced["core_s"]) * 1e3) if traced["core_s"] else 0.0
        telemetry = traced["report"]["telemetry"]
        outcome.per_layer = {
            "cache.hit_ratio": (telemetry["cache_hit_rate"], "share"),
            "router.observe_ms": (mean_ms(report, "router.observe"), "ms"),
            "router.rpc_wait_ms": (mean_ms(report, "router.rpc_wait"), "ms"),
            "transport.roundtrip_ms": (roundtrip, "ms"),
            "worker.core_ms": (core_ms, "ms"),
            "transport.overhead_ms": (roundtrip - core_ms, "ms"),
            "router.publish_ms": (mean_ms(report, "router.publish"), "ms"),
            "router.publish_count": (float(len(publishes)), "count"),
            "shard.shard_bundle_ms": (mean_ms(report, "shard.shard_bundle"), "ms"),
            "registry.rss_growth_mb_per_publish": (
                traced["rss_growth_mb"] / len(publishes) if publishes else 0.0, "MB"
            ),
            "journal.depth": (float(traced["journal_depth"]), "count"),
            "trace.coverage": (report["coverage"], "share"),
            "trace.unexplained_ms": (report["unexplained_ms_per_op"], "ms"),
            "trace.overhead_ms": (
                percentile_ms(traced["latencies"], 50) - percentile_ms(drives[0]["latencies"], 50),
                "ms",
            ),
        }
        outcome.detail["spans"] = report
        outcome.spans = tracer.spans
    return outcome

