"""Timestamped physical storage of copies (the [Gif79/Tho79/UW87] rule).

Every copy carries ``(value, timestamp)``; a write stamps the current
PRAM step, a read returns the value with the newest timestamp among the
copies it reached.  Definition 2 guarantees that whenever both the write
and the read access the root of T_v, the read sees at least one updated
copy — the consistency property tested exhaustively in E12.  Timestamps
are non-negative: the initial image reads as ``(0, -1)``, so a copy is
*written* exactly when its timestamp is ``>= 0``.

Layout.  This is the simulated machine's memory content, not its
geometry (which lives in :mod:`repro.hmos.placement`).  Each variable
that has been written owns one *row* of its ``q^k`` copies, indexed by
path, in two int64 arrays ``vals``/``ts`` of shape ``(capacity, q^k)``
that grow by doubling.  A sorted int64 array of the touched variables,
with a parallel array of their row numbers, maps a variable to its row
by ``np.searchsorted``.  Row 0 is a shared, never-written row: every
variable not in the index reads it, so reads are one gather and a
variable that was never written allocates nothing.

Storage grows with the variables touched, not with ``num_variables``:
16 B of index plus ``q^k x 16`` B of copies per touched variable.  A
directory or dense copy array sized by ``num_variables`` would not fit
the largest experiments (at n=4096, alpha=2 there are 64.6M variables,
so even an int32 directory is 246 MB), while a PRAM program touches few
of them.
"""

from __future__ import annotations

import numpy as np

from repro.hmos.params import HMOSParams

__all__ = ["CopyMemory", "MemoryImage"]

_UNWRITTEN_TS = -1
_UNREACHED_TS = -2
_DEFAULT_VALUE = 0
#: Row shared by every variable without a row of its own (never written).
_EMPTY_ROW = 0
#: Index terminator: larger than any variable, so every lookup lands in
#: bounds and misses compare unequal.
_END_KEY = np.iinfo(np.int64).max
_INITIAL_ROWS = 64


class MemoryImage:
    """Canonical image of a :class:`CopyMemory`: the written copies'
    ids in ascending order with their values and timestamps.

    The image depends only on the memory content, not on the order in
    which variables were first written, so two runs produced identical
    memory states iff their images compare equal — the byte-identical
    check the serve layer's differential certification (batched vs
    sequential replay) and the fault tests rely on.
    """

    __slots__ = ("ids", "vals", "ts")

    def __init__(self, ids: np.ndarray, vals: np.ndarray, ts: np.ndarray):
        self.ids = ids
        self.vals = vals
        self.ts = ts

    def __len__(self) -> int:
        return int(self.ids.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return (
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.vals, other.vals)
            and np.array_equal(self.ts, other.ts)
        )

    def items(self):
        """Iterator of ``(copy id, (value, timestamp))`` pairs in
        copy-id order (copy id = ``variable * q^k + path``)."""
        return zip(
            self.ids.tolist(), zip(self.vals.tolist(), self.ts.tolist())
        )


class CopyMemory:
    """Array-backed ``(variable, path) -> (value, timestamp)`` store."""

    def __init__(self, params: HMOSParams):
        self.params = params
        red = params.redundancy
        self._keys = np.array([_END_KEY], dtype=np.int64)
        self._rows = np.array([_EMPTY_ROW], dtype=np.int64)
        self._vals = np.full((_INITIAL_ROWS, red), _DEFAULT_VALUE, np.int64)
        self._ts = np.full((_INITIAL_ROWS, red), _UNWRITTEN_TS, np.int64)
        self._used_rows = 1  # the shared empty row
        self._written = 0

    def _check(self, variables, paths=None):
        variables = np.asarray(variables, dtype=np.int64)
        if np.any((variables < 0) | (variables >= self.params.num_variables)):
            raise ValueError("variable out of range")
        if paths is None:
            return variables, None
        paths = np.asarray(paths, dtype=np.int64)
        red = self.params.redundancy
        if np.any((paths < 0) | (paths >= red)):
            raise ValueError(f"path out of range [0, {red})")
        return variables, paths

    def _find(self, variables: np.ndarray) -> np.ndarray:
        """Row of each variable (the empty row if it has none)."""
        # Searching in ascending order keeps the binary searches cache
        # friendly; on random variables the sort more than pays for it.
        flat = variables.reshape(-1)
        order = np.argsort(flat)
        needles = flat[order]
        pos = np.searchsorted(self._keys, needles)
        rows = np.empty_like(flat)
        rows[order] = np.where(
            self._keys[pos] == needles, self._rows[pos], _EMPTY_ROW
        )
        return rows.reshape(variables.shape)

    def _add_rows(self, variables: np.ndarray) -> None:
        """Give each variable of the sorted, distinct ``variables`` a row."""
        start = self._used_rows
        stop = start + variables.size
        if stop > self._vals.shape[0]:
            capacity = self._vals.shape[0]
            while capacity < stop:
                capacity *= 2
            vals = np.full((capacity, self._vals.shape[1]), _DEFAULT_VALUE, np.int64)
            ts = np.full((capacity, self._ts.shape[1]), _UNWRITTEN_TS, np.int64)
            vals[:start] = self._vals[:start]
            ts[:start] = self._ts[:start]
            self._vals, self._ts = vals, ts
        pos = np.searchsorted(self._keys, variables)
        self._keys = np.insert(self._keys, pos, variables)
        self._rows = np.insert(
            self._rows, pos, np.arange(start, stop, dtype=np.int64)
        )
        self._used_rows = stop

    def write(self, variables, paths, values, timestamp: int) -> None:
        """Write ``values`` to the given copies, stamping ``timestamp``.

        ``values`` broadcasts against the copies; where a copy repeats,
        the last value wins.  ``timestamp`` must be ``>= 0``.
        """
        ts = int(timestamp)
        if ts < 0:
            raise ValueError(f"timestamp must be >= 0, got {ts}")
        variables, paths = self._check(variables, paths)
        variables, paths = np.broadcast_arrays(variables, paths)
        variables = variables.reshape(-1)
        paths = paths.reshape(-1)
        values = np.broadcast_to(
            np.asarray(values, dtype=np.int64), variables.shape
        ).reshape(-1)
        if not variables.size:
            return
        # Copies usually arrive in one run per variable (the protocol's
        # packets are grouped by request): look each run up once.
        same = variables[1:] == variables[:-1]
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        run_vars = variables[starts]
        run_rows = self._find(run_vars)
        missing = run_rows == _EMPTY_ROW
        if missing.any():
            self._add_rows(np.unique(run_vars[missing]))
            run_rows = self._find(run_vars)
        rows = np.repeat(run_rows, np.diff(np.append(starts, variables.size)))
        flat = rows * self.params.redundancy + paths
        # A copy repeats only if two runs share a variable or a run does
        # not list its paths in ascending order.  Then keep the last
        # write of each copy: NumPy leaves the order of repeated
        # fancy-index stores unspecified.
        if np.unique(run_rows).size < run_rows.size or np.any(
            paths[1:][same] <= paths[:-1][same]
        ):
            order = np.argsort(flat, kind="stable")
            ordered = flat[order]
            keep = order[np.append(ordered[1:] != ordered[:-1], True)]
            flat = flat[keep]
            values = values[keep]
        vals_flat = self._vals.reshape(-1)
        ts_flat = self._ts.reshape(-1)
        self._written += int(np.count_nonzero(ts_flat[flat] < 0))
        vals_flat[flat] = values
        ts_flat[flat] = ts

    def read(self, variables, paths) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, timestamps)`` of the given copies.

        Unwritten copies read as ``(0, -1)`` — the machine's initial
        memory image.
        """
        variables, paths = self._check(variables, paths)
        variables, paths = np.broadcast_arrays(variables, paths)
        rows = self._find(variables)
        return self._vals[rows, paths], self._ts[rows, paths]

    def read_latest(self, variables, paths_matrix: np.ndarray) -> np.ndarray:
        """Majority-rule read: newest value among each row's copies.

        ``paths_matrix`` has one row per variable listing the paths
        actually reached; returns one value per row.
        """
        variables, paths = self._check(variables, paths_matrix)
        rows = self._find(variables)[:, None]
        pick = np.argmax(self._ts[rows, paths], axis=1)
        return self._vals[rows, paths][np.arange(rows.shape[0]), pick]

    def read_latest_masked(self, variables, reached_mask: np.ndarray) -> np.ndarray:
        """Majority-rule read with a boolean reached-set per variable.

        ``reached_mask`` has shape ``(N, q^k)``; rows must reach at least
        one copy.  Returns the newest reached value per row.
        """
        variables, _ = self._check(variables)
        reached_mask = np.asarray(reached_mask, dtype=bool)
        if not reached_mask.any(axis=1).all():
            raise ValueError("every row must reach at least one copy")
        rows = self._find(variables)
        tss = self._ts[rows]
        tss[~reached_mask] = _UNREACHED_TS
        return self._vals[rows, np.argmax(tss, axis=1)]

    @property
    def written_copies(self) -> int:
        """Number of copies ever written (storage footprint)."""
        return self._written

    def snapshot(self) -> MemoryImage:
        """The canonical image of the written copies (see
        :class:`MemoryImage`), copied out of the store."""
        keys = self._keys[:-1]
        rows = self._rows[:-1]
        ts = self._ts[rows]
        written = ts >= 0
        red = self.params.redundancy
        ids = keys[:, None] * red + np.arange(red, dtype=np.int64)
        return MemoryImage(ids[written], self._vals[rows][written], ts[written])
