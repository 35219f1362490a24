"""Allocation-free vectorized stepping core for the synchronous engine.

The seed engine re-derived every per-packet quantity (coordinates,
desired direction, remaining distance) from scratch each synchronous
step and resolved link arbitration with a 3-key ``np.lexsort`` over the
full packet set.  This module replaces that hot loop with a stepping
core that

* keeps a *compacted* active working set — delivered packets are dropped
  from the arrays instead of masked out, so per-step cost tracks the
  number of packets still in flight;
* carries all routing state *incrementally* (linear node id, remaining
  total/column distance, precomputed step deltas and directions), so a
  step is a handful of elementwise ops plus one scatter/gather pair;
* resolves farthest-first arbitration with a **bucketed link-key
  max-scatter** over a preallocated bucket array (one slot per directed
  link) instead of sorting: each active packet scatters a composite
  priority ``remaining * P + (P - 1 - index)`` into its link's bucket
  with ``np.maximum.at``; the packets that read their own value back are
  the winners.  The composite makes "max remaining distance, ties by
  lower packet index" a single integer max — bit-for-bit the same winner
  the seed's ``lexsort((idx, -remaining, link))`` chose;
* advances *several independent batches* in one loop (`run` takes a
  list): each batch gets a disjoint slab of the bucket space, so batches
  never interact, while the Python-level loop overhead is paid once.

All large buffers (the link buckets, the per-packet state, the step
scratch) are owned by the :class:`SteppingCore` and reused across calls;
per-step compaction ping-pongs between two preallocated buffer sets via
``np.compress(..., out=...)``.

Queue-occupancy accounting (the foregrounded bugfix): occupancy is
sampled **every step** over **in-transit packets only** — a packet
parked at its destination has left the network and holds no queue slot.
The seed engine sampled only every 8th step and counted delivered
packets, which both misses transient peaks and inflates counts at hot
destinations.

:func:`reference_route` preserves the seed engine's per-step algorithm
(mask + 3-key lexsort) for the golden-equivalence tests and the
``benchmarks/test_perf_engine.py`` speedup measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.kernels import KernelBackend, resolve_backend
from repro.mesh.topology import Mesh

__all__ = ["CoreResult", "SteppingCore", "reference_route"]

# Per-packet int64 state carried across steps, in ping-pong slot order:
# gnode  batch-offset linear node id (batch*n + row*side + col)
# rem    remaining L1 distance to destination
# remc   remaining column (horizontal) distance — >0 means XY column phase
# pv     arbitration priority complement  P - 1 - original_index
# drow   direction code of the row phase (2=S, 3=N)
# ddel   direction delta  (column-phase code - drow)
# srow   gnode delta of one row-phase hop (+-side)
# sdel   gnode delta difference (column-phase hop - srow)
_N_STATE = 8


@dataclass(frozen=True)
class CoreResult:
    """Raw per-batch outcome of one :meth:`SteppingCore.run`."""

    steps: int
    total_hops: int
    max_queue: int
    node_traffic: np.ndarray


class SteppingCore:
    """Reusable stepping state for one ``(mesh, ports)`` configuration.

    Owns the grow-only scratch buffers; a :class:`SynchronousEngine`
    keeps one instance and funnels every ``route``/``route_many`` call
    through it, so repeated routing (protocol stages, benchmark sweeps)
    never reallocates the hot-loop arrays.
    """

    def __init__(
        self,
        mesh: Mesh,
        ports: str = "multi",
        kernels: str | KernelBackend | None = None,
    ):
        if ports not in ("multi", "single"):
            raise ValueError(f"ports must be 'multi' or 'single', got {ports!r}")
        self.mesh = mesh
        self.ports = ports
        self.kernels = resolve_backend(kernels)
        self._cap = 0  # per-packet buffer capacity
        self._nbuckets = 0  # link-bucket capacity
        self._state: list[list[np.ndarray]] = [[], []]
        self._scratch: dict[str, np.ndarray] = {}
        self._best = np.empty(0, dtype=np.int64)
        self._occ = np.empty(0, dtype=np.int64)

    # -- buffer management -------------------------------------------------

    def _ensure_capacity(self, npkt: int, nbatches: int) -> None:
        per_node = 4 if self.ports == "multi" else 1
        # +1 node: the shared parking slot delivered packets idle in
        # between lazy compactions.
        nbuckets = (nbatches * self.mesh.n + 1) * per_node
        if nbuckets > self._nbuckets:
            # Release the outgrown buffer before allocating the bigger
            # one, so peak RSS never holds both generations at once.
            self._best = np.empty(0, dtype=np.int64)
            self._best = np.full(nbuckets, -1, dtype=np.int64)
            self._nbuckets = nbuckets
        occ_need = nbatches * self.mesh.n
        if occ_need > self._occ.size:
            self._occ = np.empty(0, dtype=np.int64)
            self._occ = np.empty(occ_need, dtype=np.int64)
        if npkt > self._cap:
            # Same release-first discipline for the big per-packet
            # generations: drop the old state/scratch arrays *before*
            # allocating the grown ones (growth is copy-free — every
            # run refills the state from its batches — so nothing needs
            # both generations live, and holding them doubled the
            # transient footprint of every growth).
            self._state = [[], []]
            self._scratch = {}
            self._state = [
                [np.empty(npkt, dtype=np.int64) for _ in range(_N_STATE)]
                for _ in range(2)
            ]
            self._scratch = {
                "d": np.empty(npkt, dtype=np.int64),
                "link": np.empty(npkt, dtype=np.int64),
                "val": np.empty(npkt, dtype=np.int64),
                "got": np.empty(npkt, dtype=np.int64),
                "delta": np.empty(npkt, dtype=np.int64),
                "mc": np.empty(npkt, dtype=bool),
                "mv": np.empty(npkt, dtype=bool),
                "tmp": np.empty(npkt, dtype=bool),
                "done": np.empty(npkt, dtype=bool),
                "keep": np.empty(npkt, dtype=bool),
            }
            self._cap = npkt

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        batches,
        *,
        max_steps=None,
        observer=None,
        occupancy=None,
    ) -> list[CoreResult]:
        """Advance every batch to completion in one stepping loop.

        Parameters
        ----------
        batches : sequence of (src, dst) int64 array pairs
            Independent routing problems.  Batches do not interact: each
            gets its own slab of the link-bucket space, so the measured
            ``steps`` of batch ``b`` is identical to running it alone.
            Every endpoint must be a node id in ``[0, mesh.n)``; a batch
            with one outside raises ``ValueError``.
        max_steps : int, sequence of int, or None
            Per-batch livelock guard (seed formula when None).
        observer : callable, optional
            Called once per step *before* packets move with a dict of
            copies (step, starts, counts, node, direction, remaining,
            pri, winners) — the hook the invariant checker uses.  The
            hot loop pays nothing when it is None.
        occupancy : callable, optional
            Called once per step with the in-transit per-node occupancy
            vector (length ``nbatches * n``, the same array the
            ``max_queue`` sampling reads) — the observability layer's
            queue-histogram hook.  Like ``observer``, a ``None`` costs
            the loop a single predictable branch per step.

        Returns
        -------
        list[CoreResult], aligned with ``batches``.
        """
        mesh = self.mesh
        n, side = mesh.n, mesh.side
        multi = self.ports == "multi"
        nb = len(batches)
        if nb == 0:
            return []

        sizes = np.array([len(s) for s, _ in batches], dtype=np.int64)
        if max_steps is None:
            caps = 4 * (mesh.diameter + sizes + 8)
        elif np.ndim(max_steps) == 0:
            caps = np.full(nb, int(max_steps), dtype=np.int64)
        else:
            caps = np.asarray(max_steps, dtype=np.int64)
            if caps.size != nb:
                raise ValueError("max_steps must align with batches")

        total = int(sizes.sum())
        self._ensure_capacity(max(total, 1), nb)
        cur = self._state[0]
        alt = self._state[1]
        gnode, rem, remc, pv, drow, ddel, srow, sdel = cur

        # Arbitration priority base: any bound > every per-batch index.
        P = int(sizes.max()) + 1 if total else 1

        counts = np.zeros(nb, dtype=np.int64)  # in-flight packets per batch
        total_hops = np.zeros(nb, dtype=np.int64)
        steps_out = np.zeros(nb, dtype=np.int64)
        maxq = np.zeros(nb, dtype=np.int64)
        # +1 slot: hops "taken" by parked packets no-op-winning the
        # parking bucket land there and are sliced away at the end.
        traffic = np.zeros(nb * n + 1, dtype=np.int64)

        m = 0
        for b, (src, dst) in enumerate(batches):
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            if src.size:
                lo = min(int(src.min()), int(dst.min()))
                hi = max(int(src.max()), int(dst.max()))
                if lo < 0 or hi >= n:
                    raise ValueError(
                        f"batch {b}: packet endpoints span [{lo}, {hi}], "
                        f"outside the mesh's nodes [0, {n})"
                    )
            sr, sc = src // side, src % side
            dr, dc = dst // side, dst % side
            rc = np.abs(dc - sc)
            rr = np.abs(dr - sr)
            act = (rc + rr) > 0
            k = int(np.count_nonzero(act))
            counts[b] = k
            if k == 0:
                continue
            total_hops[b] = int((rc + rr)[act].sum())
            sl = slice(m, m + k)
            gnode[sl] = b * n + src[act]
            rem[sl] = (rc + rr)[act]
            remc[sl] = rc[act]
            pv[sl] = P - 1 - np.flatnonzero(act)
            scol = np.sign(dc - sc)[act]
            srw = np.sign(dr - sr)[act]
            drow[sl] = np.where(srw == 1, 2, 3)
            ddel[sl] = np.where(scol == 1, 0, 1) - drow[sl]
            srow[sl] = srw * side
            sdel[sl] = scol - srow[sl]
            m += k

        if self.kernels.ops is not None and observer is None:
            # Compiled (or plain-Python reference) kernel loop.  The
            # observer hook exposes per-step internals in the NumPy
            # path's layout, so observed runs stay on the reference
            # loop — it is a debugging instrument, not a hot path.
            return self._run_kernel(
                caps, counts, total_hops, steps_out, maxq, traffic, m, P,
                occupancy,
            )

        best = self._best
        sc_ = self._scratch
        step = 0
        live = m  # undelivered packets across all batches
        dead = 0  # delivered packets still parked in the arrays
        # seg_len[b]: extent of batch b's segment in the arrays,
        # including parked dead packets; collapses to counts[b] (live
        # only) at each compaction.
        seg_len = counts.copy()
        park = nb * n  # sacrificial node id delivered packets idle at
        cap_min = int(caps[counts > 0].min()) if live else 0
        # Delivered packets are dropped lazily: they are parked (zero
        # step delta, moved to the sacrificial node, excluded from
        # occupancy and traffic) and physically compacted out only once
        # they exceed a quarter of the working set — so the per-step
        # cost of the 8-array copy is amortized, and all views over the
        # state arrays are rebuilt only when m changes.  The observer
        # path compacts eagerly so step records never contain corpses.
        eager = observer is not None

        def _views(m):
            return (
                gnode[:m], rem[:m], remc[:m], pv[:m],
                sc_["mc"][:m], sc_["d"][:m], sc_["link"][:m], sc_["val"][:m],
                sc_["got"][:m], sc_["delta"][:m], sc_["mv"][:m],
                sc_["tmp"][:m], sc_["done"][:m],
            )

        g, re_, rc_, pv_, mc, d, link, val, got, delta, mv, tmp, done = _views(m)
        while live:
            if step >= cap_min:
                stuck = counts[(counts > 0) & (caps <= step)]
                if stuck.size:
                    raise RuntimeError(
                        f"routing exceeded {step} steps; {int(stuck.sum())} stuck"
                    )
            # In-transit queue occupancy, sampled at the top of every
            # step (covers the initial placement at step 0); parked
            # packets sit at `park`, beyond the counted slots.
            occ = np.bincount(g, minlength=nb * n)[: nb * n]
            if occupancy is not None:
                occupancy(occ)
            if nb == 1:
                q = int(occ.max())
                if q > maxq[0]:
                    maxq[0] = q
            else:
                np.maximum(maxq, occ.reshape(nb, n).max(axis=1), out=maxq)

            np.greater(rc_, 0, out=mc)  # column phase?
            np.multiply(ddel[:m], mc, out=d)
            np.add(d, drow[:m], out=d)
            if multi:
                np.multiply(g, 4, out=link)
                np.add(link, d, out=link)
            else:
                link = g
            # Composite priority: farthest-first, ties by lower index.
            # Parked packets (rem <= 0) only ever compete in the parking
            # bucket, where winning is a no-op.
            np.multiply(re_, P, out=val)
            np.add(val, pv_, out=val)
            np.maximum.at(best, link, val)
            np.take(best, link, out=got)
            np.equal(got, val, out=mv)
            best[link] = -1  # reset only the touched buckets

            if observer is not None:
                starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
                observer(
                    {
                        "step": step,
                        "starts": starts,
                        "counts": counts.copy(),
                        "node": (g % n).copy(),
                        "direction": d.copy(),
                        "remaining": re_.copy(),
                        "pri": P - 1 - pv_,
                        "winners": mv.copy(),
                    }
                )

            # Advance the winners in place (parked winners have delta 0).
            np.multiply(sdel[:m], mc, out=delta)
            np.add(delta, srow[:m], out=delta)
            np.multiply(delta, mv, out=delta)
            np.add(g, delta, out=g)
            np.add.at(traffic, g[mv], 1)
            np.subtract(re_, mv, out=re_)
            np.logical_and(mv, mc, out=tmp)
            np.subtract(rc_, tmp, out=rc_)
            step += 1

            # Fresh deliveries: rem hit 0 on a winning move.  Parked
            # packets have rem <= -1 after their first no-op "win" and
            # rem == 0 losers in the parking bucket never carry mv.
            np.equal(re_, 0, out=tmp)
            np.logical_and(tmp, mv, out=done)
            ndone = int(np.count_nonzero(done))
            if ndone:
                # Per-batch bookkeeping over contiguous batch segments.
                pos = 0
                for b in range(nb):
                    k = int(seg_len[b])
                    if k == 0:
                        continue
                    db = int(np.count_nonzero(done[pos : pos + k]))
                    pos += k
                    if db:
                        counts[b] -= db
                        if counts[b] == 0:
                            steps_out[b] = step
                live -= ndone
                dead += ndone
                if live == 0:
                    break
                # Park the fresh corpses: sacrificial node, zero delta.
                np.copyto(g, park, where=done)
                np.copyto(srow[:m], 0, where=done)
                np.copyto(sdel[:m], 0, where=done)
                cap_min = int(caps[counts > 0].min())
                if eager or dead * 4 >= m:
                    keep = sc_["keep"][:m]
                    np.greater(re_, 0, out=keep)
                    for i in range(_N_STATE):
                        np.compress(keep, cur[i][:m], out=alt[i][:live])
                    cur, alt = alt, cur
                    gnode, rem, remc, pv, drow, ddel, srow, sdel = cur
                    m = live
                    dead = 0
                    np.copyto(seg_len, counts)
                    g, re_, rc_, pv_, mc, d, link, val, got, delta, mv, tmp, done = _views(m)

        traffic2d = traffic[: nb * n].reshape(nb, n)
        return [
            CoreResult(
                steps=int(steps_out[b]),
                total_hops=int(total_hops[b]),
                max_queue=int(maxq[b]),
                node_traffic=traffic2d[b].copy(),
            )
            for b in range(nb)
        ]

    # -- kernel-backend loop -----------------------------------------------

    def _run_kernel(
        self, caps, counts, total_hops, steps_out, maxq, traffic, m, P,
        occupancy,
    ) -> list[CoreResult]:
        """The stepping loop with the per-step body fused into kernels.

        Three kernel calls replace the ~15 elementwise NumPy ops of the
        reference loop: ``occupancy_maxq`` (sample + per-batch peak
        fold), ``arbitrate_advance`` (bucketed link-key max-scatter,
        winner read-back, movement, traffic, delivery detection and
        parking in ONE pass over the active set), and ``compact`` (the
        ping-pong compaction).  All per-batch bookkeeping, the
        compaction policy, and the livelock guard are byte-identical to
        the reference loop — so are the results, certified by the
        golden/property/oracle suites.
        """
        ops = self.kernels.ops
        mesh = self.mesh
        n = mesh.n
        nb = counts.size
        multi = self.ports == "multi"
        cur = self._state[0]
        alt = self._state[1]
        best = self._best
        sc_ = self._scratch
        occ = self._occ[: nb * n]
        link, mv, done = sc_["link"], sc_["mv"], sc_["done"]
        park = nb * n
        step = 0
        live = m
        dead = 0
        seg_len = counts.copy()
        cap_min = int(caps[counts > 0].min()) if live else 0
        while live:
            if step >= cap_min:
                stuck = counts[(counts > 0) & (caps <= step)]
                if stuck.size:
                    raise RuntimeError(
                        f"routing exceeded {step} steps; {int(stuck.sum())} stuck"
                    )
            ops.occupancy_maxq(cur[0], m, occ, maxq, nb, n)
            if occupancy is not None:
                occupancy(occ)
            ndone = ops.arbitrate_advance(
                cur[0], cur[1], cur[2], cur[3], cur[4], cur[5], cur[6], cur[7],
                m, P, multi, park, best, link, mv, done, traffic,
            )
            step += 1
            if ndone:
                pos = 0
                for b in range(nb):
                    k = int(seg_len[b])
                    if k == 0:
                        continue
                    db = int(np.count_nonzero(done[pos : pos + k]))
                    pos += k
                    if db:
                        counts[b] -= db
                        if counts[b] == 0:
                            steps_out[b] = step
                live -= ndone
                dead += ndone
                if live == 0:
                    break
                cap_min = int(caps[counts > 0].min())
                if dead * 4 >= m:
                    k = ops.compact(
                        cur[0], cur[1], cur[2], cur[3],
                        cur[4], cur[5], cur[6], cur[7],
                        alt[0], alt[1], alt[2], alt[3],
                        alt[4], alt[5], alt[6], alt[7], m,
                    )
                    cur, alt = alt, cur
                    m = k
                    dead = 0
                    np.copyto(seg_len, counts)
        traffic2d = traffic[: nb * n].reshape(nb, n)
        return [
            CoreResult(
                steps=int(steps_out[b]),
                total_hops=int(total_hops[b]),
                max_queue=int(maxq[b]),
                node_traffic=traffic2d[b].copy(),
            )
            for b in range(nb)
        ]


def reference_route(mesh: Mesh, src, dst, *, ports: str = "multi", max_steps=None):
    """The seed engine's per-step algorithm, kept as the golden reference.

    Re-derives every quantity from the coordinate arrays each step and
    arbitrates with the original 3-key lexsort.  Returns
    ``(steps, total_hops, node_traffic)`` — the step-count-preserving
    contract the refactored core must reproduce exactly.  (The seed's
    ``max_queue`` accounting is deliberately *not* reproduced: it was
    the bug this refactor fixes.)
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    npkt = src.size
    if npkt == 0:
        return 0, 0, np.zeros(mesh.n, dtype=np.int64)
    if max_steps is None:
        max_steps = 4 * (mesh.diameter + npkt + 8)
    side = mesh.side
    cur_row, cur_col = src // side, src % side
    dst_row, dst_col = dst // side, dst % side
    cur_row = cur_row.copy()
    cur_col = cur_col.copy()
    steps = 0
    total_hops = 0
    node_traffic = np.zeros(mesh.n, dtype=np.int64)
    active = (cur_row != dst_row) | (cur_col != dst_col)
    idx_all = np.arange(npkt, dtype=np.int64)
    while np.any(active):
        if steps >= max_steps:
            raise RuntimeError(
                f"routing exceeded {max_steps} steps; {active.sum()} stuck"
            )
        act = idx_all[active]
        r, c = cur_row[act], cur_col[act]
        dr, dc = dst_row[act], dst_col[act]
        move_col = dc != c
        step_c = np.where(move_col, np.sign(dc - c), 0)
        step_r = np.where(move_col, 0, np.sign(dr - r))
        direction = np.where(
            step_c == 1, 0,
            np.where(step_c == -1, 1, np.where(step_r == 1, 2, 3)),
        )
        node = r * side + c
        if ports == "multi":
            link = node * 4 + direction
        else:
            link = node
        remaining = np.abs(dr - r) + np.abs(dc - c)
        order = np.lexsort((act, -remaining, link))
        sorted_link = link[order]
        first = np.ones(sorted_link.size, dtype=bool)
        first[1:] = sorted_link[1:] != sorted_link[:-1]
        winners = act[order[first]]
        wr = cur_row[winners]
        wc = cur_col[winners]
        wdc = dst_col[winners]
        mc = wdc != wc
        cur_col[winners] = np.where(mc, wc + np.sign(wdc - wc), wc)
        cur_row[winners] = np.where(mc, wr, wr + np.sign(dst_row[winners] - wr))
        np.add.at(node_traffic, cur_row[winners] * side + cur_col[winners], 1)
        total_hops += winners.size
        steps += 1
        active[winners] = (cur_row[winners] != dst_row[winners]) | (
            cur_col[winners] != dst_col[winners]
        )
    return steps, total_hops, node_traffic
