"""Hot-loop kernels in nopython-compatible Python.

Every function in this module is written in the restricted subset of
Python that ``numba.njit`` compiles: scalar control flow, typed ndarray
element access, no Python objects.  The functions are **not** decorated
here — :mod:`repro.mesh.kernels` wraps them with ``@njit(cache=True)``
when the ``numba`` backend is selected, and runs them as plain Python
under the ``python`` backend (the slow but dependency-free reference
used by the bit-identity test suite when numba is absent).

The contract of every kernel is *bit-identity* with the vectorized
NumPy code it replaces (see the corresponding lines in
``engine_core.SteppingCore.run`` / ``topology.Mesh._tables``): same
winners, same traffic, same occupancy, same delivery steps — certified
by ``tests/property/test_kernels.py`` and the differential oracle.
"""

from __future__ import annotations

__all__ = [
    "arbitrate_advance",
    "compact",
    "hilbert_table",
    "morton_table",
    "occupancy_maxq",
]

#: Names wrapped by the numba backend (keep in sync with the functions).
KERNELS = (
    "arbitrate_advance",
    "compact",
    "hilbert_table",
    "morton_table",
    "occupancy_maxq",
)


def occupancy_maxq(g, m, occ, maxq, nb, n):
    """In-transit occupancy + per-batch peak fold, one pass.

    Replaces ``np.bincount(g, minlength=nb*n)[:nb*n]`` followed by the
    per-batch ``occ.reshape(nb, n).max(axis=1)`` fold into ``maxq``.
    Parked packets sit at slot ``nb * n`` and are excluded, exactly as
    the bincount slice excludes them.
    """
    nbn = nb * n
    for i in range(nbn):
        occ[i] = 0
    for i in range(m):
        v = g[i]
        if v < nbn:
            occ[v] += 1
    for b in range(nb):
        peak = 0
        base = b * n
        for i in range(n):
            if occ[base + i] > peak:
                peak = occ[base + i]
        if peak > maxq[b]:
            maxq[b] = peak


def arbitrate_advance(
    g, rem, remc, pv, drow, ddel, srow, sdel,
    m, P, multi, park, best, link, mv, done, traffic,
):
    """One fused arbitration + advance pass over the active set.

    Single pass over the packets scatters the composite priority
    ``rem * P + pv`` into the link buckets; a second pass reads the
    winners back and *advances them in the same iteration* — movement,
    traffic accounting, remaining-distance decrements, fresh-delivery
    detection, and parking of the fresh corpses (sacrificial node,
    zeroed step deltas), which the NumPy path spreads over ~10
    elementwise ops and two scatter/gathers.  A third pass resets only
    the touched buckets.  Returns the number of fresh deliveries;
    ``mv``/``done`` carry the per-packet winner/delivered masks for the
    caller's per-batch bookkeeping.
    """
    for i in range(m):
        mc = 1 if remc[i] > 0 else 0
        d = drow[i] + ddel[i] * mc
        if multi:
            li = g[i] * 4 + d
        else:
            li = g[i]
        link[i] = li
        v = rem[i] * P + pv[i]
        if v > best[li]:
            best[li] = v
    ndone = 0
    for i in range(m):
        v = rem[i] * P + pv[i]
        won = best[link[i]] == v
        mv[i] = won
        fresh = False
        if won:
            mc = 1 if remc[i] > 0 else 0
            g[i] += srow[i] + sdel[i] * mc
            traffic[g[i]] += 1
            rem[i] -= 1
            remc[i] -= mc
            if rem[i] == 0:
                fresh = True
                ndone += 1
                g[i] = park
                srow[i] = 0
                sdel[i] = 0
        done[i] = fresh
    for i in range(m):
        best[link[i]] = -1
    return ndone


def compact(
    g, rem, remc, pv, drow, ddel, srow, sdel,
    og, orem, oremc, opv, odrow, oddel, osrow, osdel, m,
):
    """Ping-pong compaction: copy live packets (``rem > 0``) into the
    alternate buffer set, preserving order.  Replaces the 8-array
    ``np.compress(keep, ..., out=...)`` loop; returns the live count."""
    k = 0
    for i in range(m):
        if rem[i] > 0:
            og[k] = g[i]
            orem[k] = rem[i]
            oremc[k] = remc[i]
            opv[k] = pv[i]
            odrow[k] = drow[i]
            oddel[k] = ddel[i]
            osrow[k] = srow[i]
            osdel[k] = sdel[i]
            k += 1
    return k


def morton_table(bits, side, table):
    """Batch rank -> node table for the Morton (Z-order) curve.

    De-interleaves every rank in one compiled loop instead of the
    ``2 * bits`` full-array passes of the vectorized decode.
    """
    n = side * side
    for rank in range(n):
        row = 0
        col = 0
        for b in range(bits):
            col |= ((rank >> (2 * b)) & 1) << b
            row |= ((rank >> (2 * b + 1)) & 1) << b
        table[rank] = row * side + col


def hilbert_table(bits, side, table):
    """Batch rank -> node table for the Hilbert curve.

    The standard rotate-and-accumulate decode, per rank; bit-identical
    to :func:`repro.mesh.hilbert.hilbert_decode` over ``arange(n)``.
    ``bits`` is accepted for signature symmetry with
    :func:`morton_table` (``side == 1 << bits``).
    """
    n = side * side
    for rank in range(n):
        t = rank
        x = 0
        y = 0
        s = 1
        while s < side:
            rx = (t // 2) & 1
            ry = (t ^ rx) & 1
            if ry == 0:
                if rx == 1:
                    x = s - 1 - x
                    y = s - 1 - y
                tmp = x
                x = y
                y = tmp
            x += s * rx
            y += s * ry
            t //= 4
            s <<= 1
        table[rank] = y * side + x
