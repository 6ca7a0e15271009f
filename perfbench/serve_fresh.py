"""``serve-fresh-k1``: open-loop forecasts that always miss the cache.

A single-process :class:`~repro.serve.ServingEngine` serves a seeded
D²STGNN bundle on pems08-sim.  Requests arrive on a Poisson schedule
and are sent from at most ``CLIENTS`` client threads; the window
advances every ``OBSERVE_EVERY`` arrivals and the requested horizon cycles
through all twelve, so no (window, horizon) key repeats and every answer
is a forward through the micro-batcher.  Latency is timed from each
request's due time, so a late generator or a full client pool shows.
Throughput is the rate ``CLIENTS`` closed-loop clients sustain.

A run alternates ``ROUNDS`` open-loop blocks with closed-loop blocks, so
a few seconds of interference from other work on the host land on a few
blocks of both kinds rather than on the whole of one metric; throughput
is the median over the closed-loop blocks.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.data import build_forecasting_data, load_dataset
from repro.models import build_model_from_parts
from repro.serve import (
    ModelRegistry, ServableBundle, ServeConfig, ServingEngine, SlidingWindowStore,
    make_servable, poisson_arrivals,
)
from repro.tensor import inference_mode
from repro.utils.seed import set_seed
from repro.utils.timer import now

from .common import (
    WORK_DIR, Outcome, SetupProbes, Tracer, beyond, check, mean_ms, median,
    peak_rss_mb, percentile_ms, span_report,
)

SIZES = {
    "full": dict(nodes=128, steps=2016, hidden=16, layers=2, score_windows=48),
    "tiny": dict(nodes=12, steps=600, hidden=8, layers=1, score_windows=6),
}
DATASET = "pems08-sim"
BUNDLE_SEED = 0
# The arrival schedule is part of the workload, like the bundle.  Drawn
# from the run's seed, which Poisson realisation a run got moved p90 by
# ~8% between seeds at ~250 samples; the run's seed instead picks where in
# the recording the stream starts.
ARRIVAL_SEED = 0
# One client thread: with two, the client threads, the batcher thread and
# the generator contend for the machine's two cores, and the latency swung
# by a fifth between runs.
CLIENTS = 1
OBSERVE_EVERY = 6
DEADLINE_S = 2.0  # a request answered later than this after its due time failed
# The fixed rate the latency metrics are measured at: well under what one
# client sustains, so queueing stays rare and the tail reflects service
# time rather than how close a run happened to come to saturation.
LATENCY_RPS = 10.0
# The share of the run spent in open-loop blocks (the rest is closed-loop),
# and how many blocks of each kind a run alternates.
OPEN_SHARE = 0.85
ROUNDS = 8
# ~250 requests at the latency rate, so p90 has twenty-five samples beyond it.
TAIL_Q = 90
# Model-tier answers must match an offline forward of the same bundle on
# the same window within this tolerance (float32 arithmetic, same order).
ATOL, RTOL = 1e-4, 1e-5


def prepare(size: dict, path):
    """The recorded stream, and the served bundle written to ``path``.

    The bundle's weights come from a fixed seed: the served model is part
    of the workload, like the recording.
    """
    data = build_forecasting_data(
        load_dataset(DATASET, num_nodes=size["nodes"], num_steps=size["steps"])
    )
    set_seed(BUNDLE_SEED)
    model, _ = build_model_from_parts(
        "D2STGNN", num_nodes=size["nodes"], steps_per_day=data.steps_per_day,
        adjacency=data.adjacency, hidden=size["hidden"], layers=size["layers"],
    )
    make_servable("D2STGNN", model, data, hidden=size["hidden"], layers=size["layers"]).save(path)
    return data


def open_engine(path) -> tuple[ServingEngine, ServableBundle]:
    bundle = ServableBundle.load(path)
    registry = ModelRegistry()
    registry.publish(bundle)
    engine = ServingEngine(registry, SlidingWindowStore.for_bundle(bundle), ServeConfig())
    return engine, bundle


def first_model_answer(engine, series, row: int) -> int:
    """Warm the window ending before ``row`` and forecast until the model answers.

    Works on the plain and the sharded engine; returns the next row to observe.
    """
    history = engine.store.history
    engine.store.warm_from(series.values[row - history:row],
                           series.time_of_day[row - history:row],
                           series.day_of_week[row - history:row])
    for _ in range(history):
        if engine.forecast().source == "model":
            return row
        engine.observe(series.values[row], int(series.time_of_day[row]),
                       int(series.day_of_week[row]))
        row += 1
    raise RuntimeError("the engine gave no model-tier answer after a full window")


def _time_setup(path, series, row: int) -> float:
    start = now()
    engine, _ = open_engine(path)
    try:
        first_model_answer(engine, series, row)
        return now() - start
    finally:
        engine.close()


class _Feeder:
    """Observes the recorded rows one after another, wrapping at the end."""

    def __init__(self, engine, series, row: int):
        self.engine, self.series = engine, series
        self.first = self.row = row

    def observe(self) -> None:
        s = self.series
        self.engine.observe(s.values[self.row], int(s.time_of_day[self.row]),
                            int(s.day_of_week[self.row]))
        self.row += 1
        if self.row >= s.values.shape[0]:
            self.row = self.first


class _TimedPending:
    """A micro-batcher handle whose wait is recorded as a span."""

    def __init__(self, pending, start: float, tracer: Tracer, parent):
        self._pending, self._start, self._tracer, self._parent = pending, start, tracer, parent

    def result(self, timeout=None):
        try:
            return self._pending.result(timeout)
        finally:
            self._tracer.record("microbatch.wait", self._start, now(), parent=self._parent)


def instrument(engine, tracer: Tracer) -> None:
    """Record spans around the engine's layers (instance attributes only)."""
    store, cache, batcher = engine.store, engine.cache, engine.batcher
    store.append = tracer.wrap(store.append, "window_store.append")
    store.window = tracer.wrap(store.window, "window_store.window")
    cache.get = tracer.wrap(cache.get, "cache.get")
    cache.put = tracer.wrap(cache.put, "cache.put")
    batcher.run_batch = tracer.wrap(batcher.run_batch, "microbatch.forward")
    submit = batcher.submit

    def traced_submit(request):
        start = now()
        return _TimedPending(submit(request), start, tracer, tracer.current())

    batcher.submit = traced_submit
    model = engine.registry.resolve()[1]
    object.__setattr__(model, "forward", tracer.wrap(model.forward, "core.forward"))


def _request(engine, horizon: int, due: float, submitted: float, tracer: Tracer, rid: int):
    """One read, timed from its due time.

    The request's children are the generator's lag, the wait in the client
    pool and the layer spans inside ``forecast()``; whatever ``forecast()``
    does outside those layers is left uncovered and reads as unexplained.
    """
    started = now()
    with tracer.span("serve.request", rid=rid, start=due) as root:
        tracer.record("loadgen.lag", due, submitted, parent=root, rid=rid)
        tracer.record("engine.queue", submitted, started, parent=root, rid=rid)
        try:
            result = engine.forecast(horizon)
        except Exception as error:  # counted as a failed request
            result = error
    return due, submitted, started, now(), result


def open_loop(engine, feeder, rps: float, duration: float, seed: int,
              tracer: Tracer, first_rid: int) -> list[tuple]:
    """One open-loop block: Poisson arrivals at ``rps`` for ``duration`` seconds."""
    arrivals = poisson_arrivals(rps, duration, seed)
    futures = []
    with ThreadPoolExecutor(max_workers=CLIENTS, thread_name_prefix="perfbench-client") as pool:
        begin = now()
        for index, offset in enumerate(arrivals):
            if index % OBSERVE_EVERY == 0:
                feeder.observe()
            due = begin + float(offset)
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            rid = first_rid + index
            horizon = rid % 12 + 1
            futures.append(pool.submit(_request, engine, horizon, due, now(), tracer, rid))
        return [future.result() for future in futures]


def _latencies(records) -> list[float]:
    return [done - due for due, _s, _b, done, _r in records]


def closed_loop(engine, feeder, duration: float, first_rid: int) -> tuple[list[tuple], float]:
    """``CLIENTS`` clients, each sending its next read when the last returns.

    Returns the records and the completed requests per second.
    """
    lock = threading.Lock()
    rids = itertools.count(first_rid)
    records: list[tuple] = []
    begin = now()
    stop = begin + duration

    def client() -> None:
        while now() < stop:
            rid = next(rids)
            if rid % OBSERVE_EVERY == 0:
                with lock:
                    feeder.observe()
            start = now()
            try:
                result = engine.forecast(rid % 12 + 1)
            except Exception as error:  # counted as a failed request
                result = error
            records.append((start, start, start, now(), result))

    clients = [threading.Thread(target=client, name="perfbench-closed") for _ in range(CLIENTS)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return records, len(records) / (max(r[3] for r in records) - begin)


def score(engine, bundle, series, size: dict) -> tuple[float, int, int]:
    """Closed-loop scoring: MAE of the first answer after each window.

    Every model-tier answer is checked against an offline forward of the
    same bundle on the same window.  Returns (MAE, answers, model answers).
    """
    history, horizon = bundle.spec.history, bundle.spec.horizon
    total = series.values.shape[0]
    # A fixed set of evenly spaced windows, whatever the seed: the scoring
    # pass checks the program on the same inputs every run, and covers
    # every time of day.
    stride = (total - history - horizon) // size["score_windows"]
    rows = history + stride * np.arange(size["score_windows"])
    scaler = bundle.scaler()
    offline = bundle.instantiate()
    errors, model_answers = [], 0
    for row in rows:
        window = slice(row - history, row)
        engine.store.warm_from(series.values[window], series.time_of_day[window],
                               series.day_of_week[window])
        answer = engine.forecast(horizon)
        if answer.source == "model":
            model_answers += 1
            x = scaler.transform(np.asarray(series.values[window], dtype=np.float32))
            with inference_mode():
                out = offline(x[None, :, :, None], series.time_of_day[window][None],
                              series.day_of_week[window][None]).numpy()
            expected = scaler.inverse_transform(out[0, :horizon, :, 0])
            check(np.allclose(answer.values, expected, rtol=RTOL, atol=ATOL),
                  f"model answer at row {row} differs from the offline forward by "
                  f"{float(np.abs(answer.values - expected).max())}")
        truth = series.values[row:row + horizon]
        mask = truth != 0
        errors.append(np.abs(answer.values - truth)[mask])
    return float(np.concatenate(errors).mean()), len(rows), model_answers


def run(seed: int, seconds: float, trace: bool, size_name: str = "full") -> Outcome:
    size = SIZES[size_name]
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"serve-fresh-{seed}-{size_name}.npz"
    data = prepare(size, path)
    series = data.dataset.series
    total = series.values.shape[0]
    start_row = int(np.random.default_rng([seed, 2]).integers(total // 4, 3 * total // 4))
    try:
        probes = SetupProbes(lambda: _time_setup(path, series, start_row))
        try:
            engine, bundle = open_engine(path)
            try:
                return _serve(engine, bundle, series, start_row, size, seconds, trace, probes)
            finally:
                engine.close()
        finally:
            probes.stop()
    finally:
        path.unlink(missing_ok=True)


def _serve(engine, bundle, series, start_row, size, seconds, trace, probes) -> Outcome:
    row = first_model_answer(engine, series, start_row)
    feeder = _Feeder(engine, series, row)
    tracer = Tracer(enabled=False)
    if trace:
        instrument(engine, tracer)
    rid = 0
    # Let the batcher thread start and the first forwards run before timing.
    open_loop(engine, feeder, LATENCY_RPS, 0.5, ARRIVAL_SEED, tracer, rid)

    # Untraced: each round is an open-loop latency block, then a closed-loop
    # capacity block.  Traced: each round is an open-loop block untraced,
    # then one traced, for the tracing overhead.
    open_s = seconds * (0.5 if trace else OPEN_SHARE) / ROUNDS
    records, traced, saturated, rates = [], [], [], []
    for round_ in range(ROUNDS):
        block = open_loop(engine, feeder, LATENCY_RPS, open_s, ARRIVAL_SEED + 1 + 2 * round_,
                          tracer, rid)
        records += block
        rid += len(block)
        if trace:
            tracer.enabled = True
            block = open_loop(engine, feeder, LATENCY_RPS, open_s, ARRIVAL_SEED + 2 + 2 * round_,
                              tracer, rid)
            tracer.enabled = False
            traced += block
        else:
            block, rate = closed_loop(engine, feeder, seconds / ROUNDS - open_s, rid)
            saturated += block
            rates.append(rate)
        rid += len(block)
        probes.catch_up((round_ + 1) / ROUNDS)
    batches = engine.batcher.stats()
    setups = probes.close()

    mae, scored, scored_model = score(engine, bundle, series, size)

    everything = records + traced + saturated
    failed = sum(
        isinstance(result, Exception) or done - due > DEADLINE_S
        for due, _s, _b, done, result in everything
    )
    answered = [r for *_t, r in everything if not isinstance(r, Exception)]
    on_model = sum(r.source in ("model", "cache") for r in answered)
    latencies = _latencies(records)
    check(scored_model > 0, "no scoring window was answered by the model")

    outcome = Outcome(attempted=len(everything) + scored, failed=failed)
    outcome.detail = {
        "requests_at_latency_rate": len(records),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": beyond(len(records), TAIL_Q),
        "closed_loop_requests": len(saturated),
        "closed_loop_block_rates": rates,
        "setup_samples_s": setups,
        "scored_windows": scored,
        "scored_by_model": scored_model,
    }
    outcome.end_to_end = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (percentile_ms(latencies, 50), "ms"),
        "latency_ms_tail": (percentile_ms(latencies, TAIL_Q), "ms"),
        "throughput_per_s": (0.0 if trace else median(rates), "1/s"),
        "forecast_mae": (mae, "raw"),
        "availability": (on_model / len(everything), "share"),
        "peak_rss_mb": (peak_rss_mb(["self"]), "MB"),
    }
    if trace:
        report = span_report(tracer.spans, "serve.request")
        stats = engine.cache.stats()
        outcome.per_layer = {
            "core.forward_ms": (mean_ms(report, "core.forward"), "ms"),
            "loadgen.lag_ms": (mean_ms(report, "loadgen.lag"), "ms"),
            "engine.queue_ms": (mean_ms(report, "engine.queue"), "ms"),
            "microbatch.forward_ms": (mean_ms(report, "microbatch.forward"), "ms"),
            "microbatch.batch_size_mean": (batches["mean_batch_size"], "count"),
            "window_store.append_ms": (mean_ms(report, "window_store.append"), "ms"),
            "window_store.window_ms": (mean_ms(report, "window_store.window"), "ms"),
            "cache.hit_ratio": (stats["hit_rate"], "share"),
            "trace.coverage": (report["coverage"], "share"),
            "trace.unexplained_ms": (report["unexplained_ms_per_op"], "ms"),
            "trace.overhead_ms": (
                percentile_ms(_latencies(traced), 50) - percentile_ms(latencies, 50), "ms"
            ),
        }
        outcome.detail["spans"] = report
        outcome.spans = tracer.spans
    return outcome
