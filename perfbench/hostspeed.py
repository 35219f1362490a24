"""Host speed through a run, from a fixed reference kernel.

On a shared host other tenants slow a process by up to a factor of two,
for seconds or for a whole run, and a quieter host can run it faster
again: the same work takes 20 to 40% longer in one run than in the next,
with CPU time equal to wall time.  No statistic over one run's samples
removes a shift that lasts the whole run.

:class:`HostSpeed` therefore times a fixed kernel now and then during
the run, one that does the kind of work the workload does.  The kernel
is part of the benchmark, never of the program, so a change to the
program cannot move it.  :meth:`HostSpeed.scale` rescales a host time
measured at a given moment to the reference speed:
``seconds * reference_s / kernel_time``, with the kernel time
interpolated between the probes around that moment.

Measured on a 2-core x86 VM: with a memory-bound or a Python-bound
process running beside access-model, its raw step times rose by 18 to
35% and the rescaled ones stayed within their run-to-run spread of 3%.
On serve-fleet, while other tenants slowed the host (kernel times of
3.3 to 4.9 ms), the raw median latency of one seed ranged from 6.0 to
9.5 ms over four runs and the rescaled one from 3.3 to 3.6 ms.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Rescaled times are host times on a host where the kernel takes this
#: long: about the numpy kernel's uncontended time on a 2-core x86 VM
#: (1.8 to 2.2 ms); the python kernel ran within 3% of it on the same host.
REFERENCE_S = {"numpy": 2.0e-3, "python": 2.0e-3}
#: Kernel runs per probe; a probe reports their median.
PROBE_RUNS = 5
#: Seconds between probes in a closed loop.
PROBE_EVERY_S = 0.5
#: Neighbours on each side a probe's kernel time is smoothed over.
SMOOTH = 2


class HostSpeed:
    """Probes of one reference kernel: ``"numpy"`` (a Python dict loop,
    then a NumPy gather, scatter-add and sort over 2 MB arrays, like a
    simulated memory step) or ``"python"`` (JSON round trips of small
    frames and a dict loop, like the serving layer)."""

    def __init__(self, kernel: str = "numpy") -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 20, size=1 << 18)
        self._order = rng.permutation(1 << 18)
        self._frames = [
            {"type": "step", "id": i, "op": "mixed",
             "variables": list(range(i % 32)), "values": [i] * (i % 32)}
            for i in range(150)
        ]
        self._kernel = getattr(self, f"_{kernel}_kernel")
        self.reference_s = REFERENCE_S[kernel]
        self.at: list[float] = []
        self.took: list[float] = []

    @staticmethod
    def _dict_loop() -> None:
        table: dict[int, int] = {}
        for i in range(3000):
            table[i & 1023] = table.get(i & 1023, 0) + i

    def _numpy_kernel(self) -> None:
        self._dict_loop()
        gathered = self._values[self._order]
        np.add.at(gathered, self._order[:20000] & 4095, 1)
        np.sort(gathered[:65536])

    def _python_kernel(self) -> None:
        for frame in self._frames:
            json.loads(json.dumps(frame))
        self._dict_loop()

    def probe(self, runs: int = PROBE_RUNS) -> float:
        """Time the kernel ``runs`` times now and keep the median; returns
        the seconds the probe took."""
        start = time.perf_counter()
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(float(np.median(times)))
        return end - start

    def due(self, every: float = PROBE_EVERY_S) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= every

    def scale(self, at, seconds) -> np.ndarray:
        """Host times ``seconds`` measured at moments ``at`` (perf_counter
        values), rescaled to the reference speed.  Each probe counts as
        the median of itself and its ``SMOOTH`` neighbours on each side,
        so one probe that a burst or a garbage collection hit moves
        nothing much."""
        if not self.at:
            raise RuntimeError("no host speed probe was taken")
        took = np.asarray(self.took)
        smooth = [
            np.median(took[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(took.size)
        ]
        kernel = np.interp(np.asarray(at, dtype=float), self.at, smooth)
        return np.asarray(seconds, dtype=float) * self.reference_s / kernel

    def median_kernel_ms(self) -> float:
        return float(np.median(self.took)) * 1e3
