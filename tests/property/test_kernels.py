"""Bit-identity properties of the kernel backends.

The compiled kernels (run here as the dependency-free ``python``
backend, which executes exactly the loops numba compiles) must be
indistinguishable from the NumPy reference cores on every observable:

* **CoreResult identity** — steps, hops, max-queue, and per-node
  traffic match the NumPy core for any batch mix and port model (the
  ``{numpy, kernel} x ports`` matrix of the certification).
* **Winner identity** — the fused arbitrate-advance kernel elects the
  same per-link winners as the ``np.maximum.at`` scatter, checked
  per step through the occupancy stream (identical winners => identical
  occupancy trajectories; a single divergent winner desynchronizes the
  streams immediately).
* **Livelock identity** — the guard fires on the same step with the
  byte-identical message.
* **Curve-table identity** — batch Morton/Hilbert table construction
  equals the vectorized decodes for every curve and size.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import Mesh, SteppingCore

ports_st = st.sampled_from(["multi", "single"])


@st.composite
def kernel_cases(draw):
    side = draw(st.sampled_from([4, 8]))
    mesh = Mesh(side)
    n = mesh.n
    nbatches = draw(st.integers(1, 3))
    batches = []
    for _ in range(nbatches):
        size = draw(st.integers(1, n))
        src = draw(st.permutations(range(n)))[:size]
        if draw(st.booleans()):
            dst = draw(st.permutations(range(n)))[:size]
        else:
            dst = draw(
                st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
            )
        batches.append(
            (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
        )
    return mesh, batches


class TestKernelBitIdentity:
    @given(kernel_cases(), ports_st)
    def test_results_identical(self, case, ports):
        mesh, batches = case
        ref = SteppingCore(mesh, ports, kernels="numpy").run(batches)
        got = SteppingCore(mesh, ports, kernels="python").run(batches)
        for r, g in zip(ref, got):
            assert r.steps == g.steps
            assert r.total_hops == g.total_hops
            assert r.max_queue == g.max_queue
            np.testing.assert_array_equal(r.node_traffic, g.node_traffic)

    @given(kernel_cases(), ports_st)
    def test_per_step_winners_identical(self, case, ports):
        # The occupancy vector after step t is a function of exactly the
        # winner sets of steps 1..t, so stream equality pins every
        # arbitration decision of the fused kernel, step by step.
        mesh, batches = case
        streams = []
        for backend in ("numpy", "python"):
            samples = []
            SteppingCore(mesh, ports, kernels=backend).run(
                batches, occupancy=lambda occ: samples.append(occ.copy())
            )
            streams.append(samples)
        assert len(streams[0]) == len(streams[1])
        for a, b in zip(streams[0], streams[1]):
            np.testing.assert_array_equal(a, b)

    @given(kernel_cases(), st.integers(1, 4))
    def test_livelock_guard_identical(self, case, cap):
        mesh, batches = case
        outcomes = []
        for backend in ("numpy", "python"):
            try:
                SteppingCore(mesh, kernels=backend).run(
                    batches, max_steps=cap
                )
                outcomes.append(None)
            except RuntimeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @given(
        st.sampled_from([2, 4, 8, 16, 32]),
        st.sampled_from(["morton", "hilbert"]),
    )
    def test_curve_tables_identical(self, side, curve):
        ref = Mesh(side, curve, kernels="numpy")._tables()
        got = Mesh(side, curve, kernels="python")._tables()
        np.testing.assert_array_equal(ref[0], got[0])
        np.testing.assert_array_equal(ref[1], got[1])
