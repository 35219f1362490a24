"""The four benchmark workloads, all at alpha=1.5, q=3, k=2.

Each workload builds its inputs from the seed alone, sets up the system
from an empty artifact cache, drives it from this one process for the
measured window, and checks every output: the program receives only the
generated inputs.  With ``trace`` the window alternates untraced and
traced blocks (:class:`layers.TraceBlocks`) and the result carries the
per-layer metrics instead of the end-to-end ones.

Every workload repeats the same work during its window, and untraced
timings take each unit of it (a step of the stream, a request or a
flush) at its median repeat, rescaled to a reference host speed by
:class:`hostspeed.HostSpeed` probes taken through the run.

* ``access-cycle`` / ``access-model`` — a 12-step stream of full-width
  steps (one distinct variable per processor, rotating read/write/mixed)
  at n=4096, replayed cyclically through
  ``AccessProtocol.run_steps``, checked against an ``IdealBackend``
  replay of the same stream.
* ``serve-fleet`` — an open-loop arrival schedule of small
  ``ClientScript`` requests from 32 sessions into
  ``ServerCore(engine="model", n=1024, window_max=16)``, through the
  wire codec both ways, in 3 passes over one schedule on fresh servers;
  checked by the scripts' read-your-writes shadows and
  ``ServerCore.certify()``.
* ``pram-bfs`` — level-synchronous BFS on ``PRAMMachine`` over
  ``MeshBackend(engine="cycle")`` at n=1024 on random 4-regular graphs,
  checked against networkx shortest-path lengths.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from hostspeed import HostSpeed
from layers import SELF_METRICS, LayerClock, TraceBlocks, verify_unpatched

ALPHA, Q, K = 1.5, 3, 2
#: Cold builds per run (at least the first, until about SETUP_BUDGET_S
#: seconds are spent, at most the second); ``setup_s`` is their median.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 1.5

ACCESS_N = 4096
#: Distinct steps per seed (a third each read, write and mixed), replayed
#: cyclically; every timing takes each at its median repeat, and
#: ``mesh_steps_per_op`` covers exactly one pass, so it repeats at a seed.
ACCESS_STREAM = 12
#: Steps draw their variables from a working set of this many times n
#: variables, so reads mostly hit values written earlier in the stream.
ACCESS_WORKING_SET = 8
#: Untimed steps before the window opens (engine buffers, first writes).
ACCESS_WARMUP = 2
OPS = ("read", "write", "mixed")

SERVE_N = 1024
SESSIONS = 32
WINDOW_MAX = 16
MAX_VARS = 32
#: Arrivals come in ticks: every tick each session sends one request
#: with probability OFFERED_RPS * TICK_S / SESSIONS.  On a 2-core x86
#: host the server saturates near 1500 requests/s; 600/s keeps it busy
#: a little under half the time, so on a host slower by a third a large
#: tick still finishes before the next is due.  At 15 ms a tick carries
#: 9 requests on average and more than one window (16) in only 0.4% of
#: ticks, which keeps second-window waits out of latency_ms_p99.
TICK_S = 0.015
OFFERED_RPS = 600.0
#: Passes over the same schedule, each on a fresh server; the window is
#: split evenly among them, and every timing takes each request or flush
#: at its median pass.
SERVE_PASSES = 3
#: Seconds between host speed probes during a pass.
SERVE_PROBE_EVERY_S = 0.05
#: Requests per block of the serve-fleet latency_ms_p99: 5 beyond each
#: block's p99, and 8 blocks in a 20 s window.
LATENCY_BLOCK = 500

PRAM_N = 1024
DEGREE = 4
#: Distinct graphs per seed, replayed cyclically; graph 0's run is the
#: untimed warm-up, and ``mesh_steps_per_op`` covers the first pass.
GRAPHS = 4

#: Length of each untraced or traced block in a traced run.
TRACE_BLOCK_S = 1.0


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit, sample note)
    end_to_end: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: name -> (value, unit)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.end_to_end[name] = (float(value), unit, note)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.per_layer[name] = (float(value), unit)


# -- measurement helpers ---------------------------------------------------


def _percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, q / 100 * cum[-1])])


def timing(result: Result, name: str, samples_s, q: float, what: str,
           weights=None) -> None:
    """Record the ``q``-th percentile of ``samples_s`` in milliseconds,
    each sample standing for ``weights`` of ``what`` (default 1)."""
    values = np.asarray(samples_s, dtype=float) * 1e3
    weights = (np.ones(values.size) if weights is None
               else np.asarray(weights, dtype=float))
    count = int(weights.sum())
    value = _percentile(values, weights, q)
    result.metric(name, value, "ms",
                  f"n={count} {what}, {int(count * (1 - q / 100))} beyond")


def per_unit(seconds, units) -> tuple[np.ndarray, np.ndarray, int]:
    """For each unit of repeated, identical work (``units[i]`` is the
    unit of sample ``i``): its median sample, the index of its first
    sample, and the fewest repeats any unit had.  The median drops the
    repeats that a short burst of contention slowed."""
    units = np.asarray(units)
    seconds = np.asarray(seconds, dtype=float)
    keys, first, counts = np.unique(units, return_index=True,
                                    return_counts=True)
    typical = np.array([np.median(seconds[units == key]) for key in keys])
    return typical, first, int(counts.min())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(result: Result, build, tmp_root: str, trace: bool,
           host: HostSpeed):
    """Build the system from an empty artifact cache and return it.

    Untraced runs build several times (``SETUP_REPEATS``) and report the
    median as ``setup_s``, each build rescaled to the reference host
    speed by probes just before and after it; traced runs build once
    under the layer clock.
    """
    from repro.cache import reset_default_cache

    def cold():
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="cache-", dir=tmp_root
        )
        reset_default_cache()
        t0 = time.perf_counter()
        built = build()
        return built, time.perf_counter() - t0

    if trace:
        clock = LayerClock()
        clock.install()
        try:
            built, wall = cold()
        finally:
            clock.remove()
        verify_unpatched()
        cache_s = clock.self_s["cache.build_s"]
        result.layer("cache.build_s", cache_s, "s")
        result.layer("share.cache.build_s", 100.0 * cache_s / wall, "%")
        return built
    least, most = SETUP_REPEATS
    times = []
    scaled = []
    built = None
    host.probe()
    while len(times) < least or (
        sum(times) < SETUP_BUDGET_S and len(times) < most
    ):
        built = None  # free the previous build before the next one
        built, wall = cold()
        host.probe()
        times.append(wall)
        # The mean speed of the probes before and after the build.
        scaled.append(float(np.mean(host.scale(host.at[-2:], [wall, wall]))))
    result.metric("setup_s", statistics.median(scaled), "s",
                  f"median of {len(times)} cold builds at reference speed; "
                  f"{statistics.median(times):.4f} s on this host")
    return built


def closed_loop_metrics(result: Result, host: HostSpeed, starts, samples_s,
                        units, requests, mesh_per_op, what: str) -> None:
    """End-to-end metrics of a closed loop of memory steps: sample ``i``
    is a step that began at ``starts[i]`` and took ``samples_s[i]`` of
    host time, ``units[i]`` says which step of the repeated stream it
    was (the same unit is the same work) and ``requests[i]`` how many
    variable requests it served (each waits for its whole step).  Every
    timing takes each distinct step at its median repeat, rescaled to
    the reference host speed."""
    typical, first, repeats = per_unit(host.scale(starts, samples_s), units)
    served = np.asarray(requests, dtype=float)[first]
    total = float(typical.sum())
    raw = float(per_unit(samples_s, units)[0].sum())
    note = (f"{typical.size} distinct steps, each its median of >= {repeats}; "
            f"{typical.size / raw:.4g}/s on this host")
    result.metric("steps_per_s", typical.size / total, "1/s", note)
    timing(result, "step_ms_p50", typical, 50, "distinct steps")
    timing(result, "step_ms_p90", typical, 90, "distinct steps")
    result.metric("goodput_rps", served.sum() / total, "1/s",
                  f"{what} served in {typical.size} distinct steps")
    what = f"{what} in {typical.size} distinct steps"
    timing(result, "latency_ms_p50", typical, 50, what, weights=served)
    timing(result, "latency_ms_p99", typical, 99, what, weights=served)
    result.metric("mesh_steps_per_op", mesh_per_op, "steps",
                  "per memory step, first pass of the stream")


def layer_metrics(result: Result, blocks: TraceBlocks, steps: int,
                  scheme) -> None:
    """Self times with their share of the traced wall time, the tracer's
    engine counters per traced memory step, and tracing overhead."""
    wall = blocks.wall[True]
    clock = blocks.clock
    attributed = 0.0
    for name in SELF_METRICS:
        if name == "cache.build_s":
            continue
        value = clock.self_s[name]
        attributed += value
        result.layer(name, value, "s")
        result.layer(f"share.{name}", 100.0 * value / wall, "%")
    if attributed > wall * 1.001:
        raise RuntimeError(f"self times add up to {attributed:.6f} s, more "
                           f"than the traced wall time {wall:.6f} s")
    result.layer("unattributed_s", wall - attributed, "s")
    result.layer("share.unattributed_s", 100.0 * (wall - attributed) / wall, "%")
    result.layer("trace.wall_s", wall, "s")
    result.layer("trace.overhead", blocks.overhead(), "%")
    counters = blocks.counters
    packets = counters.get("engine.delivered_packets", 0)
    result.layer("engine.packets", packets / steps, "count/step")
    result.layer("engine.sim_steps", counters.get("engine.steps", 0) / steps,
                 "steps/step")
    result.layer("engine.hops_per_packet",
                 counters.get("engine.total_hops", 0) / packets if packets else 0,
                 "hops")
    counts = clock.counts
    result.layer("culling.selected_per_request",
                 counts["culling.selected"] / max(1, counts["culling.requests"]),
                 "count")
    result.layer("memory.written_copies", scheme.memory.written_copies, "count")
    result.info["traced_memory_steps"] = steps


# -- access-cycle / access-model -------------------------------------------


def access_stream(seed: int, n: int, num_variables: int) -> list:
    from repro.protocol.access import StepRequest

    rng = np.random.default_rng(seed)
    pool = rng.choice(num_variables, size=ACCESS_WORKING_SET * n, replace=False)
    steps = []
    for i in range(ACCESS_STREAM):
        op = OPS[i % len(OPS)]
        variables = rng.choice(pool, size=n, replace=False)
        values = rng.integers(0, 1 << 31, size=n) if op != "read" else None
        is_write = rng.random(n) < 0.5 if op == "mixed" else None
        steps.append(StepRequest(op=op, variables=variables, values=values,
                                 is_write=is_write))
    return steps


def run_access(engine: str, seed: int, seconds: float, trace: bool,
               tmp_root: str) -> Result:
    from repro.hmos.scheme import HMOS
    from repro.pram.backends import IdealBackend
    from repro.protocol.access import AccessProtocol, StepError

    result = Result()
    host = HostSpeed()
    protocol = set_up(
        result,
        lambda: AccessProtocol(HMOS.cached(ACCESS_N, ALPHA, Q, K), engine=engine),
        tmp_root, trace, host,
    )
    scheme = protocol.scheme
    result.info.update(n=ACCESS_N, engine=engine, shards=protocol.shards,
                       kernels=protocol.kernels, stream_steps=ACCESS_STREAM,
                       working_set=ACCESS_WORKING_SET * ACCESS_N)
    stream = access_stream(seed, ACCESS_N, scheme.num_variables)
    reference = IdealBackend(scheme.num_variables)
    blocks = TraceBlocks(TRACE_BLOCK_S) if trace else None
    starts: list[float] = []
    samples: list[float] = []
    units: list[int] = []
    first_pass_mesh = 0.0
    opened = None
    i = 0
    while True:
        if i == ACCESS_WARMUP:
            opened = time.perf_counter()
        if (
            opened is not None
            and i >= ACCESS_STREAM
            and time.perf_counter() - opened >= seconds
        ):
            break
        request = stream[i % ACCESS_STREAM]
        if blocks is not None and opened is not None:
            blocks.tick()
        if blocks is None and host.due():
            host.probe()
        t0 = time.perf_counter()
        out = protocol.run_steps([request], start_timestamp=i + 1,
                                 on_error="record")[0]
        dt = time.perf_counter() - t0
        result.attempted += 1
        expected = reference.run_steps([request])[0]
        if isinstance(out, StepError):
            result.fail(f"step {i}: refused: {out.message}")
        elif expected is not None and not np.array_equal(out.values, expected):
            result.fail(f"step {i} ({request.op}): values differ from the "
                        "reference memory")
        elif i < ACCESS_STREAM:
            first_pass_mesh += out.total_steps
        if opened is not None:
            starts.append(t0)
            samples.append(dt)
            units.append(i % ACCESS_STREAM)
            if blocks is not None:
                blocks.add(dt)
        i += 1

    if blocks is not None:
        blocks.close()
        layer_metrics(result, blocks, blocks.ops[True], scheme)
        return result
    host.probe()
    result.info["kernel_ms"] = round(host.median_kernel_ms(), 3)
    closed_loop_metrics(result, host, starts, samples, units,
                        np.full(len(samples), ACCESS_N),
                        first_pass_mesh / ACCESS_STREAM, "variable requests")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return result


# -- serve-fleet -----------------------------------------------------------


def serve_schedule(seed: int, ticks: int) -> np.ndarray:
    """``arrivals[t, s]``: does session ``s`` send a request at tick ``t``."""
    rng = np.random.default_rng(seed)
    return rng.random((ticks, SESSIONS)) < OFFERED_RPS * TICK_S / SESSIONS


@dataclass
class ServePass:
    """What one pass of the arrival schedule measured."""
    #: (session, request id) -> (when due, seconds from due to decoded outcome)
    latency: dict = field(default_factory=dict)
    #: per flush, in order: (start, seconds, coalesced steps)
    flushes: list = field(default_factory=list)
    queue_wait: list = field(default_factory=list)
    late: list = field(default_factory=list)
    delivered: int = 0
    elapsed: float = 0.0
    busy: float = 0.0
    certify_s: float = 0.0


def serve_pass(core, arrivals: np.ndarray, seed: int, result: Result,
               blocks: TraceBlocks | None, host: HostSpeed) -> ServePass:
    """Drive ``core`` through the arrival schedule once and check it.

    Open loop: requests are due at their tick whether or not the server
    has caught up, and each is timed from when it was due.  The batcher
    follows ``ServeTransport`` with linger 0 (admit, then ``flush()``
    until nothing is pending), one tick at a time: a late tick's frames
    are admitted only after the previous tick drained, so the windows,
    and with them ``mesh_steps_per_op``, depend on the seed alone and not
    on host speed, and every pass over the same schedule does the same
    work.  Untraced, the loop spins until the next tick is due, and
    probes the host speed with one kernel run in waits that leave three
    times a probe's time to spare.
    """
    from repro.serve import protocol as wire
    from repro.serve.client import ClientScript

    num_variables = core.machines[0].scheme.num_variables
    scripts = [
        ClientScript(i, SESSIONS, seed, num_variables, MAX_VARS,
                     int(arrivals[:, i].sum()))
        for i in range(SESSIONS)
    ]
    sessions = []
    for script in scripts:
        hello = wire.Hello(tenant=script.tenant)
        reply, session = core.hello(wire.decode_message(wire.encode_message(hello)))
        if session is None:
            raise RuntimeError(f"session refused: {reply}")
        sessions.append(session)
    owner = {session.sid: script for session, script in zip(sessions, scripts)}

    out = ServePass()
    due_at: dict[tuple[int, int], float] = {}
    admitted_at: dict[tuple[int, int], float] = {}
    probe_s = host.probe(runs=1) if blocks is None else 0.0
    start = time.perf_counter() + 0.05
    for tick in range(len(arrivals)):
        if blocks is not None:
            blocks.tick()
        traced = blocks is not None and blocks.traced
        due = start + tick * TICK_S
        if blocks is None:
            if (
                host.due(SERVE_PROBE_EVERY_S)
                and due - time.perf_counter() > 3 * probe_s
            ):
                probe_s = host.probe(runs=1)
            while time.perf_counter() < due:
                pass  # spin: a core woken from sleep runs slower at first
        else:
            ahead = due - time.perf_counter()
            if ahead > 0:
                time.sleep(ahead)
        begin = time.perf_counter()
        if not traced:
            out.late.append(begin - due)
        for s in np.flatnonzero(arrivals[tick]):
            script = scripts[s]
            msg = wire.decode_message(wire.encode_message(script.next_request()))
            result.attempted += 1
            refusal = core.submit(sessions[s].sid, msg)
            if refusal is not None:
                script.on_reply(refusal)
                result.fail(f"request {msg.id} of {script.tenant} refused at "
                            f"admission: {refusal.code}")
                continue
            due_at[(s, msg.id)] = due
            admitted_at[(s, msg.id)] = time.perf_counter()
        while core.has_pending():
            merged = core.counters.get("serve.merged_steps", 0)
            flush_start = time.perf_counter()
            routed = core.flush()
            flushed = time.perf_counter() - flush_start
            out.flushes.append((
                flush_start, flushed,
                core.counters.get("serve.merged_steps", 0) - merged,
            ))
            for session in dict.fromkeys(session for session, _ in routed):
                script = owner[session.sid]
                while (popped := session.pop()) is not None:
                    reply = wire.decode_message(wire.encode_message(popped))
                    key = (script.index, reply.id)
                    due_reply = due_at.pop(key)
                    admitted = admitted_at.pop(key)
                    try:
                        script.on_reply(reply)
                    except AssertionError as exc:
                        result.fail(str(exc))
                        continue
                    if not isinstance(reply, wire.Result):
                        result.fail(f"request {reply.id} of {script.tenant} "
                                    f"refused: {reply.code}")
                        continue
                    out.delivered += 1
                    if not traced:
                        out.latency[key] = (
                            due_reply, time.perf_counter() - due_reply)
                        out.queue_wait.append(flush_start - admitted)
        spent = time.perf_counter() - begin
        out.busy += spent
        if blocks is not None:
            blocks.add(spent, int(arrivals[tick].sum()))
    out.elapsed = time.perf_counter() - start
    if blocks is None:
        host.probe()
    if due_at:
        result.fail(f"{len(due_at)} requests never answered")
    if blocks is not None:
        blocks.close()
    t0 = time.perf_counter()
    certified = core.certify()
    out.certify_s = time.perf_counter() - t0
    if not certified.ok:
        result.fail(f"certification failed: {certified.message}")
    return out


def run_serve(seed: int, seconds: float, trace: bool, tmp_root: str) -> Result:
    """``SERVE_PASSES`` passes of one seeded arrival schedule, each on a
    fresh ``ServerCore`` (one long pass when traced).  The passes do the
    same work, so every timing is taken per request or per flush at its
    median pass, rescaled to the reference host speed."""
    from repro.serve.server import ServeConfig, ServerCore

    result = Result()
    config = ServeConfig(n=SERVE_N, engine="model", window_max=WINDOW_MAX)
    host = HostSpeed("python")  # the serving layer is mostly Python
    core = set_up(result, lambda: ServerCore(config), tmp_root, trace, host)
    machine = core.machines[0]
    result.info.update(n=SERVE_N, engine="model", sessions=SESSIONS,
                       window_max=WINDOW_MAX, offered_rps=OFFERED_RPS,
                       tick_ms=TICK_S * 1e3, shards=machine.protocol.shards,
                       kernels=machine.protocol.kernels)
    passes = 1 if trace else SERVE_PASSES
    ticks = max(1, round(seconds / (passes * TICK_S)))
    arrivals = serve_schedule(seed, ticks)

    if trace:
        blocks = TraceBlocks(TRACE_BLOCK_S)
        run = serve_pass(core, arrivals, seed, result, blocks, host)
        counters = core.counters
        merged_steps = counters.get("serve.merged_steps", 0)
        traced_steps = blocks.counters.get("serve.merged_steps", 0)
        layer_metrics(result, blocks, traced_steps, machine.scheme)
        result.layer("serve.certify_s", run.certify_s, "s")
        result.layer("serve.queue_wait_ms_p50",
                     float(np.percentile(run.queue_wait, 50)) * 1e3, "ms")
        result.layer("serve.queue_wait_ms_p99",
                     float(np.percentile(run.queue_wait, 99)) * 1e3, "ms")
        result.layer("serve.gen_late_ms_p99",
                     float(np.percentile(run.late, 99)) * 1e3, "ms")
        result.layer("serve.requests_per_step",
                     counters["serve.requests"] / merged_steps, "count")
        result.layer("serve.window_fill",
                     counters["serve.requests"]
                     / (counters["serve.batches"] * WINDOW_MAX), "ratio")
        result.info["busy"] = round(run.busy / run.elapsed, 3)
        return result

    runs = []
    work = []
    for i in range(passes):
        if i:
            core = machine = None  # free the previous server first
            gc.collect()
            core = ServerCore(config)  # from the warm artifact cache
        runs.append(serve_pass(core, arrivals, seed, result, None, host))
        machine = core.machines[0]
        work.append((machine.mesh_steps, runs[-1].delivered,
                     [steps for *_, steps in runs[-1].flushes],
                     sorted(runs[-1].latency)))
    if any(w != work[0] for w in work):
        result.fail("passes over the same schedule did different work")
        return result
    mesh_steps, delivered, flush_steps, keys = work[0]
    result.info["busy"] = round(
        statistics.median(r.busy / r.elapsed for r in runs), 3)
    result.info["kernel_ms"] = round(host.median_kernel_ms(), 3)
    note = f"median of {passes} passes"
    result.metric("steps_per_s",
                  statistics.median(sum(flush_steps) / r.elapsed for r in runs),
                  "1/s", f"n={sum(flush_steps)} coalesced steps, {note}")
    result.metric("goodput_rps",
                  statistics.median(r.delivered / r.elapsed for r in runs),
                  "1/s", f"{delivered} of {result.attempted // passes} requests "
                  f"delivered, offered {OFFERED_RPS:g}/s, {note}")

    def median_pass(samples) -> np.ndarray:
        """``samples[p][u]`` = (moment, host seconds) of unit ``u`` in
        pass ``p``; each unit's median over passes, rescaled."""
        at, spent = np.moveaxis(np.asarray(samples, dtype=float), -1, 0)
        return np.median(host.scale(at, spent), axis=0)

    flush_s = median_pass([[f[:2] for f in r.flushes] for r in runs])
    steps = np.asarray(flush_steps)
    ran = steps > 0
    per_step = flush_s[ran] / steps[ran]
    timing(result, "step_ms_p50", per_step, 50, "steps", weights=steps[ran])
    timing(result, "step_ms_p90", per_step, 90, "steps", weights=steps[ran])
    # In the order they were due.
    keys.sort(key=lambda k: runs[0].latency[k][0])
    latency = median_pass([[r.latency[k] for k in keys] for r in runs])
    what = f"requests, each its median of {passes} passes"
    timing(result, "latency_ms_p50", latency, 50, what)
    # A full garbage collection stalls the loop for tens of ms and delays
    # the ~1% of requests queued behind it; every pass allocates alike,
    # so the median over passes keeps the stall, and a p99 over the whole
    # pass sits on that knee.  The median of the p99s of stretches of
    # LATENCY_BLOCK requests does not.
    stretches = [
        latency[i:i + LATENCY_BLOCK]
        for i in range(0, latency.size - LATENCY_BLOCK + 1, LATENCY_BLOCK)
    ]
    if stretches:
        p99 = statistics.median(float(np.percentile(b, 99)) for b in stretches)
        result.metric("latency_ms_p99", p99 * 1e3, "ms",
                      f"n={latency.size} {what}, median of {len(stretches)} "
                      f"blocks of {LATENCY_BLOCK}")
    else:
        timing(result, "latency_ms_p99", latency, 99, what)
    result.metric("mesh_steps_per_op", mesh_steps / max(1, delivered),
                  "steps", "per delivered request")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return result


# -- pram-bfs --------------------------------------------------------------


class ClockedBackend:
    """A ``MeshBackend`` behind the PRAM ``Backend`` interface that times
    every memory step.

    A step's sample is the host time since the previous step ended (or
    since :meth:`start`), so the machine's and the program's work
    between steps counts toward the step it leads up to.
    """

    def __init__(self, inner):
        self.inner = inner
        self.memory_size = inner.memory_size
        self.max_requests = inner.max_requests
        self.start()

    @property
    def cost(self) -> float:
        return self.inner.cost

    def start(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.cells: list[int] = []
        self._last = time.perf_counter()

    def _done(self, cells: list[int]) -> None:
        now = time.perf_counter()
        self.starts.extend([self._last] * len(cells))
        self.samples.extend([(now - self._last) / len(cells)] * len(cells))
        self.cells.extend(cells)
        self._last = now

    def live_processor_count(self) -> int:
        return self.inner.live_processor_count()

    def read_step(self, cells):
        out = self.inner.read_step(cells)
        self._done([len(cells)])
        return out

    def write_step(self, cells, values) -> None:
        self.inner.write_step(cells, values)
        self._done([len(cells)])

    def mixed_step(self, read_cells, write_cells, values):
        out = self.inner.mixed_step(read_cells, write_cells, values)
        self._done([np.union1d(read_cells, write_cells).size])
        return out

    def run_steps(self, requests):
        out = self.inner.run_steps(requests)
        self._done([len(r.variables) for r in requests])
        return out


def bfs_inputs(seed: int) -> list:
    """``GRAPHS`` seeded random regular graphs as (CSR offsets, CSR
    targets, source, expected distances)."""
    import networkx as nx

    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(GRAPHS):
        graph = nx.random_regular_graph(DEGREE, PRAM_N,
                                        seed=int(rng.integers(2**31)))
        source = int(rng.integers(PRAM_N))
        adjacency = [sorted(graph.neighbors(v)) for v in range(PRAM_N)]
        offsets = np.zeros(PRAM_N + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(a) for a in adjacency])
        targets = np.array([u for a in adjacency for u in a], dtype=np.int64)
        expected = np.full(PRAM_N, -1, dtype=np.int64)
        for v, d in nx.single_source_shortest_path_length(graph, source).items():
            expected[v] = d
        inputs.append((offsets, targets, source, expected))
    return inputs


def run_pram(seed: int, seconds: float, trace: bool, tmp_root: str) -> Result:
    from repro.hmos.scheme import HMOS
    from repro.pram.algorithms import graphs
    from repro.pram.backends import MeshBackend
    from repro.pram.machine import PRAMMachine

    result = Result()
    host = HostSpeed("python")  # sparse steps: per-step Python costs dominate
    machine = set_up(
        result,
        lambda: PRAMMachine(
            ClockedBackend(
                MeshBackend(HMOS.cached(PRAM_N, ALPHA, Q, K), engine="cycle")
            ),
            PRAM_N,
        ),
        tmp_root, trace, host,
    )
    clocked = machine.backend
    mesh = clocked.inner
    result.info.update(n=PRAM_N, engine="cycle", graphs=GRAPHS, degree=DEGREE,
                       shards=mesh.protocol.shards, kernels=mesh.protocol.kernels)
    inputs = bfs_inputs(seed)
    blocks = TraceBlocks(TRACE_BLOCK_S) if trace else None
    starts: list[float] = []
    samples: list[float] = []
    cells: list[int] = []
    units: list[int] = []
    first_cost = 0.0
    first_steps = 0
    opened = None
    j = 0
    while True:
        if j == 1:  # graph 0's run is the warm-up
            opened = time.perf_counter()
        if (
            opened is not None
            and j >= GRAPHS
            and time.perf_counter() - opened >= seconds
        ):
            break
        if blocks is not None and opened is not None:
            blocks.tick()
        if blocks is None and host.due():
            host.probe()
        offsets, targets, source, expected = inputs[j % GRAPHS]
        cost = mesh.cost
        clocked.start()
        t0 = time.perf_counter()
        # Through the module, so a traced block reaches the wrapped bfs.
        dist = graphs.bfs(machine, offsets, targets, source)
        dt = time.perf_counter() - t0
        result.attempted += 1
        if not np.array_equal(dist, expected):
            wrong = int(np.count_nonzero(dist != expected))
            result.fail(f"bfs run {j}: {wrong} distances differ from networkx")
        mesh.access_log.clear()  # keep memory flat over long runs
        if j < GRAPHS:
            first_cost += mesh.cost - cost
            first_steps += len(clocked.samples)
        if opened is not None:
            starts.extend(clocked.starts)
            samples.extend(clocked.samples)
            cells.extend(clocked.cells)
            # The same graph's BFS runs the same steps every time.
            base = (j % GRAPHS) * 1_000_000
            units.extend(base + k for k in range(len(clocked.samples)))
            if blocks is not None:
                blocks.add(dt, len(clocked.samples))
        j += 1

    if blocks is not None:
        blocks.close()
        counts = blocks.clock.counts
        layer_metrics(result, blocks, counts["pram.steps"], mesh.scheme)
        result.layer("pram.cells_per_step",
                     counts["pram.cells"] / counts["pram.steps"], "count")
        result.layer("pram.combine_ratio",
                     counts["pram.cells"] / counts["pram.requests"], "ratio")
        return result
    host.probe()
    result.info["kernel_ms"] = round(host.median_kernel_ms(), 3)
    closed_loop_metrics(result, host, starts, samples, units, cells,
                        first_cost / first_steps, "cell requests")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return result


WORKLOADS = {
    "access-cycle": lambda seed, seconds, trace, tmp: run_access(
        "cycle", seed, seconds, trace, tmp),
    "access-model": lambda seed, seconds, trace, tmp: run_access(
        "model", seed, seconds, trace, tmp),
    "serve-fleet": run_serve,
    "pram-bfs": run_pram,
}
