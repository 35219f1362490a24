"""Simulation server: deterministic core + asyncio socket front-end.

:class:`ServerCore` is the entire service semantics with no I/O and no
clock: sessions, admission control, the batching window, coalesced
execution through :meth:`AccessProtocol.run_steps`, the per-machine
execution ledger, and the differential certification replay.  Every
method is synchronous and deterministic in its call sequence, which is
what makes the scripted-fleet test harness (:mod:`repro.serve.harness`)
fully reproducible in ``(seed, client count)``.

The asyncio layer (:func:`start_server`) is a thin transport: reader
tasks decode frames and feed the core, one batcher task flushes the
window, and per-session writer tasks drain outboxes — a slow consumer
blocks only its own ``drain()`` while its admission budget throttles it,
so other tenants keep flowing.

Batching-window semantics
-------------------------
Requests admitted to a machine queue in per-session FIFOs.  A flush
takes up to ``window_max`` of them by *deficit round-robin* over the
sessions with pending work (see :meth:`ServerCore._take_window`): each
session in the service ring earns a quantum of processor slots per
round and spends it on its oldest requests, so one flooding tenant
cannot starve the others — every pending session gets a bounded share
of every window while its own requests never reorder.  The chosen
order is exactly the order requests enter the machine's ledger, so
replay certification remains byte-identical under the scheduler.  The
taken window is then greedily packed into coalesced ``mixed`` steps
with *disjoint variable sets* (a request whose variables overlap the
step under construction closes it and starts the next).  The whole
window executes as ONE ``run_steps`` call against the machine's warm
cached scheme, with timestamps continuing across batches, so:

* requests coalesced into the same step are *concurrent* — one PRAM
  step serves them all, reads see pre-step values (read-compute-write);
* a refusal under faults is all-or-nothing per coalesced step: every
  rider of a refused step gets the same typed ``degraded-refusal`` and
  memory is untouched;
* the batched history is bit-identical to the same coalesced steps
  replayed sequentially — :meth:`ServerCore.certify` proves it on
  demand by replaying every machine's ledger on a fresh scheme and
  comparing memory snapshots, per-step reports, values, and refusals.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import traceback
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.hmos.faults import FaultEvent, FaultInjector
from repro.hmos.scheme import HMOS
from repro.io import access_result_to_dict
from repro.obs import tracer as _obs
from repro.protocol.access import AccessProtocol, StepError, StepRequest
from repro.serve import protocol as wire
from repro.serve.session import Session, SessionLimits

__all__ = [
    "CertifyMismatch",
    "LedgerStep",
    "ServeConfig",
    "ServeHandle",
    "ServeTransport",
    "ServerCore",
    "start_server",
]


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server instance is parameterized by.

    ``pool`` warm machines are built through :meth:`HMOS.cached` (shared
    immutable skeletons, private memories).  Fault state — static masks
    plus a mid-run :class:`FaultEvent` schedule, whose ``step`` indices
    count *coalesced steps executed on that machine* — applies to pool
    slot ``fault_machine`` only, so one degraded machine can serve next
    to healthy ones.
    """

    n: int = 64
    alpha: float = 1.5
    q: int = 3
    k: int = 2
    curve: str = "morton"
    engine: str = "cycle"
    pool: int = 1
    window_max: int = 16
    inflight_max: int = 32
    server_budget: int = 1024
    max_sessions: int = 64
    #: Retained outcomes per idempotency scope (RESUME sessions); the
    #: oldest outcome is evicted past this, after which its duplicate
    #: would execute again — size it to cover a client's inflight_max.
    retain_max: int = 256
    #: Deficit-round-robin quantum (processor slots earned per pending
    #: session per scheduler round).  None = ``max(1, n // window_max)``
    #: — one window slot's worth, so a full round over window_max
    #: sessions fills about one coalesced step.
    drr_quantum: int | None = None
    failed_nodes: tuple[int, ...] = ()
    failed_processors: tuple[int, ...] = ()
    fault_schedule: tuple[FaultEvent, ...] = ()
    fault_machine: int = 0
    seed: int = 0
    kernels: str | None = None

    def __post_init__(self):
        if self.pool < 1:
            raise ValueError("pool must be >= 1")
        if self.window_max < 1:
            raise ValueError("window_max must be >= 1")
        if self.inflight_max < 1:
            raise ValueError("inflight_max must be >= 1")
        if self.retain_max < 1:
            raise ValueError("retain_max must be >= 1")
        if self.drr_quantum is not None and self.drr_quantum < 1:
            raise ValueError("drr_quantum must be >= 1")
        if self.engine not in ("cycle", "model"):
            raise ValueError(f"engine must be 'cycle' or 'model', got {self.engine!r}")

    @property
    def quantum(self) -> int:
        """The effective deficit-round-robin quantum."""
        if self.drr_quantum is not None:
            return self.drr_quantum
        return max(1, self.n // self.window_max)

    @property
    def has_faults(self) -> bool:
        return bool(
            self.failed_nodes or self.failed_processors or self.fault_schedule
        )


@dataclass(frozen=True)
class LedgerStep:
    """One executed coalesced step: the exact :class:`StepRequest` it
    became, plus the client composition (``origin`` slices
    ``(session, request_id, start, stop)`` into the variable arrays)."""

    variables: tuple[int, ...]
    values: tuple[int, ...]
    is_write: tuple[bool, ...]
    origin: tuple[tuple[str, int, int, int], ...]

    def to_request(self) -> StepRequest:
        return StepRequest(
            op="mixed",
            variables=np.asarray(self.variables, dtype=np.int64),
            values=np.asarray(self.values, dtype=np.int64),
            is_write=np.asarray(self.is_write, dtype=bool),
            origin=self.origin,
        )


@dataclass(frozen=True)
class _Outcome:
    """Compact record of one executed step (what certify compares)."""

    refused: str | None
    report: dict | None
    values: tuple[int, ...] | None


@dataclass(frozen=True)
class CertifyMismatch:
    """One divergence found by the certification replay."""

    machine: int
    step: int  # -1 for the whole-memory comparison
    detail: str


@dataclass
class _Pending:
    """One admitted request waiting for the next batching window."""

    session: Session
    request_id: int
    variables: np.ndarray
    values: np.ndarray
    is_write: np.ndarray


class _ResumeScope:
    """Server-side idempotency state for one ``(tenant, token)`` pair.

    ``outcomes`` retains the reply of every executed request id
    (bounded: FIFO eviction past ``retain_max``), ``inflight_ids``
    tracks ids admitted but not yet executed, so a duplicate submit is
    either answered from retention, refused as still-in-flight, or —
    for a genuinely new id — admitted normally.  The scope outlives the
    sessions bound to it: outcomes of requests left pending at a
    disconnect are still retained when they execute, which is what
    makes reconnect-and-resend exactly-once.
    """

    def __init__(self, key: tuple[str, str], retain_max: int):
        self.key = key
        self.retain_max = retain_max
        self.outcomes: OrderedDict[int, wire.Message] = OrderedDict()
        self.inflight_ids: set[int] = set()
        self.evictions = 0
        self.sid: str | None = None  # currently attached session

    def retain(self, request_id: int, msg: wire.Message) -> int:
        """Record one executed outcome; returns evictions this caused."""
        self.inflight_ids.discard(request_id)
        self.outcomes[request_id] = msg
        evicted = 0
        while len(self.outcomes) > self.retain_max:
            self.outcomes.popitem(last=False)
            self.evictions += 1
            evicted += 1
        return evicted


class _Machine:
    """One warm pool slot: cached scheme + protocol + execution ledger.

    Pending work is kept as one FIFO per session plus a service ring
    (the deficit-round-robin state); ``pending_count`` is the O(1)
    aggregate the admission path reads instead of recomputing.
    """

    def __init__(self, index: int, config: ServeConfig):
        self.index = index
        self.scheme = HMOS.cached(
            config.n, config.alpha, config.q, config.k, curve=config.curve
        )
        self.faults = _build_injector(self.scheme, config, index)
        self.protocol = AccessProtocol(
            self.scheme, engine=config.engine, faults=self.faults,
            kernels=config.kernels,
        )
        #: per-session FIFO queues; a sid is in ``ring`` iff its queue
        #: is non-empty (the deficit-round-robin invariant).
        self.queues: dict[str, deque[_Pending]] = {}
        self.ring: deque[str] = deque()
        self.deficits: dict[str, int] = {}
        self.pending_count = 0
        self.ledger: list[LedgerStep] = []
        self.outcomes: list[_Outcome] = []
        self.next_timestamp = 1
        self.batches = 0
        self.requests = 0
        self.mesh_steps = 0.0

    @property
    def steps_executed(self) -> int:
        return len(self.ledger)

    def state_digest(self) -> str:
        """Content hash of the full (value, timestamp) memory image."""
        items = list(self.scheme.memory.snapshot().items())
        return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]

    def value_digest(self) -> str:
        """Hash of the newest value per copy id, timestamps excluded —
        stable across interleavings whenever writers touch disjoint
        variables (the fleet workload's cross-run determinism check)."""
        image = self.scheme.memory.snapshot()
        items = list(zip(image.ids.tolist(), image.vals.tolist()))
        return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def _build_injector(
    scheme: HMOS, config: ServeConfig, index: int
) -> FaultInjector | None:
    if index != config.fault_machine or not config.has_faults:
        return None
    injector = FaultInjector(
        scheme, schedule=config.fault_schedule, seed=config.seed
    )
    if config.failed_nodes:
        injector.fail_nodes(np.asarray(config.failed_nodes, dtype=np.int64))
    if config.failed_processors:
        injector.fail_processors(
            np.asarray(config.failed_processors, dtype=np.int64)
        )
    return injector


class ServerCore:
    """The deterministic service state machine (see module docstring)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.limits = SessionLimits(
            inflight_max=config.inflight_max, window_max=config.window_max
        )
        self.machines = [_Machine(i, config) for i in range(config.pool)]
        self.sessions: dict[str, Session] = {}
        self.scopes: dict[tuple[str, str], _ResumeScope] = {}
        self.counters: dict[str, int] = {}
        self.pending_total = 0  # O(1) mirror of every machine's queues
        self.proc = 0  # worker index under multi-process serving
        self.stopping = False
        self._next_sid = 0

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        """Core-local counter + obs counter (same names) in lockstep, so
        tests can assert either with or without a tracer installed."""
        self.counters[name] = self.counters.get(name, 0) + value
        _obs.current().count(name, value)

    def assign_machine(self, tenant: str, requested: int | None) -> int:
        """Deterministic tenant -> pool-slot mapping (crc32, stable
        across runs and processes) unless the HELLO pinned a slot."""
        if requested is not None:
            return requested
        return zlib.crc32(tenant.encode()) % self.config.pool

    # -- session lifecycle -------------------------------------------------

    def hello(self, msg: wire.Hello) -> tuple[wire.Message, Session | None]:
        return self._open_session(msg.tenant, msg.machine, scope=None)

    def resume(self, msg: wire.Resume) -> tuple[wire.Message, Session | None]:
        """HELLO bound to an idempotency scope.  An unknown ``(tenant,
        token)`` pair creates the scope; a known one re-attaches it —
        superseding any session still bound to it (the reconnecting
        client wins, exactly-once is the scope's job, not the old
        connection's)."""
        key = (msg.tenant, msg.token)
        scope = self.scopes.get(key)
        resumed = scope is not None
        if scope is None:
            scope = _ResumeScope(key, self.config.retain_max)
        reply, session = self._open_session(msg.tenant, msg.machine, scope=scope)
        if session is None:
            return reply, None
        self.scopes[key] = scope
        if resumed:
            self._count("serve.sessions_resumed")
            stale = self.sessions.get(scope.sid or "")
            if stale is not None and not stale.closed:
                self.bye(stale.sid)
        scope.sid = session.sid
        return reply, session

    def _open_session(
        self, tenant: str, machine: int | None, scope: _ResumeScope | None
    ) -> tuple[wire.Message, Session | None]:
        if self.stopping:
            return (
                wire.Refused(code="shutting-down", message="server is stopping"),
                None,
            )
        open_sessions = sum(1 for s in self.sessions.values() if not s.closed)
        if open_sessions >= self.config.max_sessions:
            self._count("serve.rejected_sessions")
            return (
                wire.Refused(
                    code="server-full",
                    message=f"session limit {self.config.max_sessions} reached",
                ),
                None,
            )
        if machine is not None and not (0 <= machine < self.config.pool):
            return (
                wire.Refused(
                    code="bad-request",
                    message=f"machine {machine} not in pool of "
                    f"{self.config.pool}",
                ),
                None,
            )
        sid = f"s{self._next_sid}"
        self._next_sid += 1
        slot = self.assign_machine(tenant, machine)
        session = Session(sid, tenant, slot, self.limits)
        session.scope = scope
        self.sessions[sid] = session
        self._count("serve.sessions_opened")
        params = self.machines[slot].scheme.params
        return (
            wire.Welcome(
                session=sid,
                machine=slot,
                scheme={
                    "n": params.n,
                    "alpha": params.alpha,
                    "q": params.q,
                    "k": params.k,
                    "curve": self.config.curve,
                    "num_variables": params.num_variables,
                },
                limits=self.limits.to_dict(),
                resumed=scope is not None and scope.sid is not None,
                retained=0 if scope is None else len(scope.outcomes),
            ),
            session,
        )

    def bye(self, sid: str) -> wire.Message:
        session = self.sessions.get(sid)
        if session is None:
            return wire.Refused(code="unknown-session", message=f"no session {sid!r}")
        session.closed = True
        self._count("serve.sessions_closed")
        return wire.ByeOk(delivered=session.delivered, refused=session.refused)

    # -- admission ---------------------------------------------------------

    def submit(self, sid: str, msg: wire.Step) -> wire.Refused | None:
        """Admit one request into its machine's window, or return the
        typed admission refusal.  ``None`` means admitted (or, for a
        duplicate id in a resume scope, answered from retention into
        the session outbox)."""
        session = self.sessions.get(sid)
        if session is None or session.closed:
            return wire.Refused(
                code="unknown-session", message=f"no open session {sid!r}", id=msg.id
            )

        def _reject(code: str, message: str) -> wire.Refused:
            session.rejected += 1
            self._count("serve.rejected_requests")
            self._count(f"serve.session[{session.tenant}].rejected")
            return wire.Refused(code=code, message=message, id=msg.id)

        scope = session.scope
        if scope is not None:
            retained = scope.outcomes.get(msg.id)
            if retained is not None:
                # Idempotent resend: the retained outcome, uncharged
                # (no admission budget, no re-execution).
                self._count("serve.resumed_replays")
                self._count(f"serve.session[{session.tenant}].replays")
                session.push(retained)
                return None
            if msg.id in scope.inflight_ids:
                return _reject(
                    "bad-request",
                    f"request id {msg.id} is still in flight in resume "
                    f"scope {scope.key[1]!r}",
                )
        parsed = self._parse_step(session, msg)
        if isinstance(parsed, str):
            return _reject("bad-request", parsed)
        if session.over_budget:
            return _reject(
                "over-budget",
                f"session inflight budget {session.limits.inflight_max} "
                "exhausted (consume results first)",
            )
        if self.pending_total >= self.config.server_budget:
            return _reject(
                "server-full",
                f"server admission budget {self.config.server_budget} exhausted",
            )
        variables, values, is_write = parsed
        session.admit(msg.id)
        if scope is not None:
            scope.inflight_ids.add(msg.id)
        machine = self.machines[session.machine]
        queue = machine.queues.get(sid)
        if queue is None:
            queue = machine.queues[sid] = deque()
        if not queue:
            machine.ring.append(sid)  # enters the DRR service rotation
        queue.append(_Pending(session, msg.id, variables, values, is_write))
        machine.pending_count += 1
        self.pending_total += 1
        self._count("serve.requests")
        self._count(f"serve.session[{session.tenant}].requests")
        return None

    def _parse_step(self, session: Session, msg: wire.Step):
        """Normalize one wire STEP into aligned (variables, values,
        is_write) arrays, or return the bad-request reason."""
        if msg.id in session.live_ids:
            return f"request id {msg.id} is already in flight"
        if msg.op not in ("read", "write", "mixed"):
            return f"unknown op {msg.op!r}"
        count = len(msg.variables)
        if count == 0:
            return "variables must be non-empty"
        if count > self.config.n:
            return (
                f"at most n={self.config.n} variables per request "
                "(one per processor)"
            )
        if len(set(msg.variables)) != count:
            return "variables must be distinct"
        num_vars = self.machines[session.machine].scheme.num_variables
        variables = np.asarray(msg.variables, dtype=np.int64)
        if np.any((variables < 0) | (variables >= num_vars)):
            return f"variable id out of range [0, {num_vars})"
        if msg.op == "read":
            if msg.values is not None or msg.is_write is not None:
                return "read requests carry no values/is_write"
            values = np.zeros(count, dtype=np.int64)
            is_write = np.zeros(count, dtype=bool)
        elif msg.op == "write":
            if msg.values is None or len(msg.values) != count:
                return "values must align with variables"
            if msg.is_write is not None:
                return "write requests carry no is_write"
            values = np.asarray(msg.values, dtype=np.int64)
            is_write = np.ones(count, dtype=bool)
        else:
            if msg.values is None or len(msg.values) != count:
                return "values must align with variables"
            if msg.is_write is None or len(msg.is_write) != count:
                return "is_write must align with variables"
            values = np.asarray(msg.values, dtype=np.int64)
            is_write = np.asarray(msg.is_write, dtype=bool)
        return variables, values, is_write

    # -- the batching window -----------------------------------------------

    def has_pending(self) -> bool:
        return self.pending_total > 0

    def recount_pending(self) -> int:
        """Recompute the pending total from first principles (tests
        assert it never drifts from the O(1) counter)."""
        return sum(
            len(queue) for m in self.machines for queue in m.queues.values()
        )

    def flush(self) -> list[tuple[Session, wire.Message]]:
        """Execute one batching window on every machine with pending
        requests; outcomes are pushed into session outboxes and also
        returned ``(session, message)`` for the transport to dispatch."""
        routed: list[tuple[Session, wire.Message]] = []
        for machine in self.machines:
            if machine.pending_count:
                routed.extend(self._flush_machine(machine))
        return routed

    def _take_window(self, machine: _Machine) -> list[_Pending]:
        """Deficit round-robin over the machine's pending sessions.

        Each round, the session at the head of the service ring earns
        ``config.quantum`` processor slots of deficit and spends it on
        its oldest requests (cost = variable count, the slots the
        request occupies in a coalesced step); it then leaves the ring
        (drained — deficit forfeited, standard DRR no-banking) or
        rotates to the tail.  Rounds repeat until the window holds
        ``window_max`` requests or nothing is pending.  Deterministic
        in the core's call sequence: the ring orders sessions by when
        they last became pending, and per-session FIFO order is
        preserved by construction.  The order chosen here is the order
        requests enter the ledger, so certification replays it
        byte-identically.
        """
        quantum = self.config.quantum
        budget = self.config.window_max
        take: list[_Pending] = []
        while machine.ring and len(take) < budget:
            sid = machine.ring[0]
            queue = machine.queues[sid]
            # Earned deficit is capped at one full step's worth of
            # slots: a session stalled by full windows may not bank an
            # unbounded burst.
            machine.deficits[sid] = min(
                machine.deficits.get(sid, 0) + quantum,
                max(quantum, self.config.n),
            )
            while (
                queue
                and len(take) < budget
                and len(queue[0].variables) <= machine.deficits[sid]
            ):
                req = queue.popleft()
                machine.deficits[sid] -= len(req.variables)
                take.append(req)
                machine.pending_count -= 1
                self.pending_total -= 1
            if len(take) >= budget and queue:
                # Window full mid-service: the session keeps its head
                # slot and remaining deficit for the next window.
                break
            if not queue:
                machine.ring.popleft()
                machine.deficits.pop(sid, None)
            else:
                machine.ring.rotate(-1)
        return take

    def refuse_all_pending(self, detail: str) -> list[Session]:
        """Drain every queue into typed internal-error refusals (the
        transport's last-resort recovery from a flush failure); returns
        the sessions that received one, for waking."""
        touched: list[Session] = []
        for machine in self.machines:
            while machine.ring:
                sid = machine.ring.popleft()
                machine.deficits.pop(sid, None)
                queue = machine.queues[sid]
                while queue:
                    req = queue.popleft()
                    machine.pending_count -= 1
                    self.pending_total -= 1
                    req.session.refused += 1
                    reply = wire.Refused(
                        code="internal-error", message=detail, id=req.request_id
                    )
                    self._deliver(req.session, reply, req.request_id)
                    touched.append(req.session)
        return touched

    def _deliver(
        self, session: Session, reply: wire.Message, request_id: int
    ) -> None:
        """Push one charged outcome, retaining it in the session's
        resume scope (bounded) when there is one."""
        session.push(reply, request_id=request_id, charged=True)
        if session.scope is not None:
            evicted = session.scope.retain(request_id, reply)
            if evicted:
                self._count("serve.retained_evictions", evicted)

    def _coalesce(
        self, take: list[_Pending]
    ) -> list[LedgerStep]:
        """Greedy distinct-variable packing in arrival order: a request
        overlapping the step under construction — or overflowing the
        one-request-per-processor capacity ``n`` — closes it (no
        reordering, so the interleaving is preserved exactly)."""
        capacity = self.config.n
        steps: list[LedgerStep] = []
        variables: list[int] = []
        values: list[int] = []
        is_write: list[bool] = []
        origin: list[tuple[str, int, int, int]] = []
        seen: set[int] = set()

        def _close():
            if origin:
                steps.append(
                    LedgerStep(
                        variables=tuple(variables),
                        values=tuple(values),
                        is_write=tuple(is_write),
                        origin=tuple(origin),
                    )
                )
                variables.clear()
                values.clear()
                is_write.clear()
                origin.clear()
                seen.clear()

        for req in take:
            req_vars = req.variables.tolist()
            if (
                any(v in seen for v in req_vars)
                or len(variables) + len(req_vars) > capacity
            ):
                _close()
            start = len(variables)
            variables.extend(req_vars)
            values.extend(req.values.tolist())
            is_write.extend(bool(b) for b in req.is_write)
            seen.update(req_vars)
            origin.append(
                (req.session.sid, req.request_id, start, len(variables))
            )
        _close()
        return steps

    def _flush_machine(
        self, machine: _Machine
    ) -> list[tuple[Session, wire.Message]]:
        tracer = _obs.current()
        take = self._take_window(machine)
        steps = self._coalesce(take)
        batch_id = machine.batches
        machine.batches += 1
        machine.requests += len(take)
        base_step = machine.steps_executed
        with tracer.span(
            "serve.batch",
            machine=machine.index,
            batch=batch_id,
            requests=len(take),
            steps=len(steps),
        ):
            results = machine.protocol.run_steps(
                [s.to_request() for s in steps],
                start_timestamp=machine.next_timestamp,
                on_error="record",
            )
        machine.next_timestamp += len(steps)

        routed: list[tuple[Session, wire.Message]] = []
        mesh_steps_total = 0.0
        tenant_requests: dict[str, int] = {}
        for offset, (step, result) in enumerate(zip(steps, results)):
            machine.ledger.append(step)
            step_index = base_step + offset
            if isinstance(result, StepError):
                machine.outcomes.append(
                    _Outcome(refused=result.message, report=None, values=None)
                )
                self._count("serve.refused_steps")
                # All-or-nothing: every rider of the refused coalesced
                # step gets the same typed refusal; memory is untouched.
                for sid, request_id, _start, _stop in result.origin:
                    session = self.sessions[sid]
                    session.refused += 1
                    reply = wire.Refused(
                        code="degraded-refusal",
                        message=result.message,
                        id=request_id,
                    )
                    self._deliver(session, reply, request_id)
                    routed.append((session, reply))
                    tenant_requests[session.tenant] = (
                        tenant_requests.get(session.tenant, 0) + 1
                    )
                continue
            report = access_result_to_dict(result)
            values = tuple(int(v) for v in result.values)
            machine.outcomes.append(
                _Outcome(refused=None, report=report, values=values)
            )
            mesh_steps_total += float(result.total_steps)
            machine.mesh_steps += float(result.total_steps)
            self._count("serve.merged_steps")
            # The origin token came back through run_steps (not from the
            # local `step` object): coalesced results stay attributable.
            for sid, request_id, start, stop in result.origin:
                session = self.sessions[sid]
                session.delivered += 1
                reply = wire.Result(
                    id=request_id,
                    batch=batch_id,
                    step=step_index,
                    values=values[start:stop],
                    mesh_steps=float(result.total_steps),
                    reassigned=len(result.reassignments),
                )
                self._deliver(session, reply, request_id)
                routed.append((session, reply))
                self._count(f"serve.session[{session.tenant}].results")
                tenant_requests[session.tenant] = (
                    tenant_requests.get(session.tenant, 0) + 1
                )
        self._count("serve.batches")
        if tracer.enabled:
            base = tracer.lane_cursor("serve")
            tracer.lane_span(
                "serve",
                "serve.batch_window",
                mesh_steps_total,
                machine=machine.index,
                batch=batch_id,
                requests=len(take),
                steps=len(steps),
            )
            for tenant, count in sorted(tenant_requests.items()):
                tracer.lane_span(
                    "serve",
                    f"serve.session[{tenant}]",
                    0.0,
                    at=base,
                    requests=count,
                )
        return routed

    # -- introspection + certification --------------------------------------

    def stats(self) -> wire.StatsOk:
        machines = tuple(
            {
                "machine": m.index,
                "proc": self.proc,
                "batches": m.batches,
                "requests": m.requests,
                "steps": m.steps_executed,
                "pending": m.pending_count,
                "mesh_steps": m.mesh_steps,
                "degraded": m.faults is not None,
                "state_digest": m.state_digest(),
                "value_digest": m.value_digest(),
            }
            for m in self.machines
        )
        counters = dict(self.counters)
        underflows = sum(s.underflows for s in self.sessions.values())
        if underflows:
            counters["serve.inflight_underflow"] = underflows
        if self.scopes:
            counters["serve.resume_scopes"] = len(self.scopes)
            counters["serve.retained_outcomes"] = sum(
                len(s.outcomes) for s in self.scopes.values()
            )
        return wire.StatsOk(counters=counters, machines=machines)

    def certify(self) -> wire.Certified:
        """Differential check: replay every machine's coalesced-step
        ledger sequentially through a fresh ``run_steps`` and demand
        byte-identical memory, identical per-step reports and values,
        and identical refusal sets."""
        reports = []
        mismatches: list[CertifyMismatch] = []
        for machine in self.machines:
            found = self._certify_machine(machine)
            mismatches.extend(found)
            reports.append(
                {
                    "machine": machine.index,
                    "steps": machine.steps_executed,
                    "requests": machine.requests,
                    "ok": not found,
                    "detail": found[0].detail if found else "",
                }
            )
        ok = not mismatches
        self._count("serve.certifications")
        return wire.Certified(
            ok=ok,
            machines=tuple(reports),
            message=(
                "batched execution is byte-identical to sequential replay"
                if ok
                else f"{len(mismatches)} divergence(s); first: "
                f"{mismatches[0].detail}"
            ),
        )

    def _certify_machine(self, machine: _Machine) -> list[CertifyMismatch]:
        config = self.config
        replay_scheme = HMOS.cached(
            config.n, config.alpha, config.q, config.k, curve=config.curve
        )
        injector = _build_injector(replay_scheme, config, machine.index)
        replay_protocol = AccessProtocol(
            replay_scheme, engine=config.engine, faults=injector,
            kernels=config.kernels,
        )
        replay = replay_protocol.run_steps(
            [s.to_request() for s in machine.ledger],
            start_timestamp=1,
            on_error="record",
        )
        mismatches: list[CertifyMismatch] = []

        def _mismatch(step: int, detail: str):
            mismatches.append(
                CertifyMismatch(machine=machine.index, step=step, detail=detail)
            )

        for i, (outcome, res) in enumerate(zip(machine.outcomes, replay)):
            if isinstance(res, StepError):
                if outcome.refused is None:
                    _mismatch(i, f"replay refused step {i} but live run delivered it")
                elif outcome.refused != res.message:
                    _mismatch(
                        i,
                        f"refusal messages differ at step {i}: "
                        f"{outcome.refused!r} vs {res.message!r}",
                    )
                continue
            if outcome.refused is not None:
                _mismatch(i, f"live run refused step {i} but replay delivered it")
                continue
            if tuple(int(v) for v in res.values) != outcome.values:
                _mismatch(i, f"returned values differ at step {i}")
                continue
            if access_result_to_dict(res) != outcome.report:
                _mismatch(i, f"per-step reports differ at step {i}")
        if replay_scheme.memory.snapshot() != machine.scheme.memory.snapshot():
            _mismatch(
                -1,
                f"machine {machine.index} final memory is not byte-identical "
                "to the sequential replay",
            )
        return mismatches

    def machine_case(self, index: int):
        """The machine's executed history as a ``repro.check``
        :class:`~repro.check.case.CaseSpec`, so the full differential
        oracle (cycle vs model vs ideal PRAM) can re-certify a served
        workload end to end."""
        from repro.check.case import CaseSpec, StepSpec

        config = self.config
        machine = self.machines[index]
        degraded = machine.faults is not None
        return CaseSpec(
            n=config.n,
            alpha=config.alpha,
            q=config.q,
            k=config.k,
            curve=config.curve,
            failed_nodes=config.failed_nodes if degraded else (),
            failed_processors=config.failed_processors if degraded else (),
            fault_schedule=config.fault_schedule if degraded else (),
            steps=tuple(
                StepSpec(
                    op="mixed",
                    variables=s.variables,
                    values=s.values,
                    is_write=s.is_write,
                    workload="serve",
                )
                for s in machine.ledger
            ),
        )

    def shutdown(self) -> wire.ShutdownOk:
        self.stopping = True
        return wire.ShutdownOk(
            batches=sum(m.batches for m in self.machines)
        )


# -- asyncio front-end -----------------------------------------------------


class ServeTransport:
    """The reusable asyncio shell around one :class:`ServerCore`.

    Owns the batching kick/flush machinery and the per-connection
    protocol loop, but NOT the listener — :func:`start_server` plugs it
    into ``asyncio.start_server``, while the multi-process workers
    (:mod:`repro.serve.multiproc`) feed it sockets handed off by the
    parent router.  ``limit`` is the stream-reader byte limit derived
    from ``config.n`` (:func:`repro.serve.protocol.frame_limit`): a
    legal full-width STEP frame must survive the transport, and an
    over-limit frame becomes a typed ``bad-frame`` refusal instead of a
    raw ``LimitOverrunError`` killing the connection.
    """

    def __init__(self, core: ServerCore, *, linger: float = 0.0):
        self.core = core
        self.linger = linger
        self.limit = wire.frame_limit(core.config.n)
        self.flush_lock = asyncio.Lock()
        self.kick = asyncio.Event()
        self.stop_event = asyncio.Event()
        self.wakes: dict[str, asyncio.Event] = {}
        self.tasks: set[asyncio.Task] = set()

    def start_batcher(self) -> asyncio.Task:
        task = asyncio.create_task(self._batcher())
        self.tasks.add(task)
        return task

    async def stop(self) -> None:
        self.core.stopping = True
        self.stop_event.set()
        for task in list(self.tasks):
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)

    # -- batching ----------------------------------------------------------

    def _wake(self, session: Session) -> None:
        event = self.wakes.get(session.sid)
        if event is not None:
            event.set()

    async def _flush_all(self) -> None:
        async with self.flush_lock:
            while self.core.has_pending():
                for session, _msg in self.core.flush():
                    self._wake(session)

    async def _batcher(self) -> None:
        while True:
            await self.kick.wait()
            self.kick.clear()
            if self.linger:
                await asyncio.sleep(self.linger)
            else:
                # One scheduling round so frames already queued on other
                # connections land in the same window.
                await asyncio.sleep(0)
            async with self.flush_lock:
                try:
                    for session, _msg in self.core.flush():
                        self._wake(session)
                except Exception as exc:  # noqa: BLE001 - must not die
                    traceback.print_exc()
                    # Last-resort recovery: every pending rider gets a
                    # typed internal-error refusal instead of a hung
                    # connection, and the server keeps serving.
                    for session in self.core.refuse_all_pending(
                        f"batch window failed: {exc}"
                    ):
                        self._wake(session)
            if self.core.has_pending():
                self.kick.set()

    # -- per-connection protocol loop --------------------------------------

    async def _writer_loop(
        self, session: Session, writer: asyncio.StreamWriter, wake: asyncio.Event
    ) -> None:
        while True:
            msg = session.pop()
            if msg is None:
                wake.clear()
                await wake.wait()
                continue
            writer.write(wire.encode_message(msg))
            await writer.drain()

    async def _drained(self, session: Session) -> None:
        while session.outbox_size:
            await asyncio.sleep(0)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        core = self.core
        session: Session | None = None
        wake: asyncio.Event | None = None
        writer_task: asyncio.Task | None = None

        async def _direct(msg: wire.Message) -> None:
            writer.write(wire.encode_message(msg))
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The frame overran the stream limit.  The buffer
                    # is no longer line-synchronized, so answer with a
                    # typed refusal and close — never a raw exception
                    # tearing the connection down silently.
                    reply = wire.Refused(
                        code="bad-frame",
                        message=f"frame exceeds the {self.limit}-byte "
                        f"limit derived from n={core.config.n}",
                    )
                    if session is None:
                        await _direct(reply)
                    else:
                        session.push(reply)
                        wake.set()
                        await self._drained(session)
                    break
                if not line:
                    break
                try:
                    msg = wire.decode_message(line)
                except wire.FrameError as exc:
                    reply = wire.Refused(code=exc.code, message=exc.detail)
                    if session is None:
                        await _direct(reply)
                    else:
                        session.push(reply)
                        wake.set()
                    continue
                if session is None:
                    if isinstance(msg, (wire.Hello, wire.Resume)):
                        if isinstance(msg, wire.Resume):
                            reply, session = core.resume(msg)
                        else:
                            reply, session = core.hello(msg)
                        await _direct(reply)
                        if session is not None:
                            wake = asyncio.Event()
                            self.wakes[session.sid] = wake
                            writer_task = asyncio.create_task(
                                self._writer_loop(session, writer, wake)
                            )
                    else:
                        await _direct(
                            wire.Refused(
                                code="bad-request",
                                message="HELLO must open the session",
                            )
                        )
                    continue
                if isinstance(msg, wire.Step):
                    refusal = core.submit(session.sid, msg)
                    if refusal is not None:
                        session.push(refusal)
                    if session.outbox_size:
                        # Admission refusals and retained-outcome
                        # replays land directly in the outbox.
                        wake.set()
                    if refusal is None:
                        self.kick.set()
                elif isinstance(msg, wire.Stats):
                    await self._flush_all()
                    session.push(core.stats())
                    wake.set()
                elif isinstance(msg, wire.Certify):
                    await self._flush_all()
                    session.push(core.certify())
                    wake.set()
                elif isinstance(msg, wire.Bye):
                    await self._flush_all()
                    session.push(core.bye(session.sid))
                    wake.set()
                    await self._drained(session)
                    break
                elif isinstance(msg, wire.Shutdown):
                    await self._flush_all()
                    session.push(core.shutdown())
                    wake.set()
                    await self._drained(session)
                    self.stop_event.set()
                    break
                else:
                    session.push(
                        wire.Refused(
                            code="bad-request",
                            message=f"unexpected {msg.TYPE} inside a session",
                        )
                    )
                    wake.set()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            if writer_task is not None:
                writer_task.cancel()
            if session is not None:
                self.wakes.pop(session.sid, None)
                if not session.closed:
                    core.bye(session.sid)
            writer.close()


@dataclass
class ServeHandle:
    """A running server: its core, listening port, and stop control."""

    core: ServerCore
    server: asyncio.AbstractServer
    transport: ServeTransport
    port: int = 0  # captured at boot; survives the listener closing
    tasks: set = field(default_factory=set)

    @property
    def stop_event(self) -> asyncio.Event:
        return self.transport.stop_event

    async def stop(self) -> None:
        self.core.stopping = True
        self.server.close()
        await self.server.wait_closed()
        await self.transport.stop()
        for task in list(self.tasks):
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)

    async def wait_stopped(self) -> None:
        """Block until a SHUTDOWN frame (or :meth:`stop`) fires, then
        tear the transport down."""
        await self.stop_event.wait()
        # Give writer tasks one scheduling round to drain final replies.
        await asyncio.sleep(0)
        await self.stop()


async def start_server(
    config: ServeConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    linger: float = 0.0,
) -> ServeHandle:
    """Boot the asyncio JSON-lines server; returns once listening.

    ``linger`` optionally holds the batching window open for that many
    seconds after the first request arrives (deployment knob — the
    default 0 flushes as soon as the event loop has admitted every
    frame already in flight, which keeps tests wall-clock-free).
    """
    core = ServerCore(config)
    transport = ServeTransport(core, linger=linger)
    server = await asyncio.start_server(
        transport.handle_connection, host, port, limit=transport.limit
    )
    handle = ServeHandle(
        core=core,
        server=server,
        transport=transport,
        port=server.sockets[0].getsockname()[1],
    )
    transport.start_batcher()
    return handle
