"""Kernel-backend dispatch, parity, and buffer-lifecycle tests.

The compiled-kernel seam (:mod:`repro.mesh.kernels`) promises three
things, each pinned here:

* **Dispatch** — explicit argument beats ``$REPRO_KERNELS`` beats
  ``auto``; an explicit ``numba`` request without numba raises the
  typed, actionable :class:`KernelBackendError`, while ``auto`` falls
  back silently; the resolved backend surfaces on
  ``SynchronousEngine`` / ``AccessProtocol`` / ``SimulationReport``.
* **Bit-identity** — the kernel loops (run as the dependency-free
  ``python`` backend, which executes exactly the algorithm numba
  compiles) reproduce the NumPy cores' outputs and the seed engine's
  golden reference, on the stepping core, the curve tables, and through
  the full differential oracle.
* **Buffer lifecycle** (the ``_ensure_capacity`` fix) — growth releases
  the outgrown state before allocating the new one, same-size runs
  reuse buffers, and results stay correct across growth.
"""

import weakref

import numpy as np
import pytest

from repro.check.case import CaseSpec, StepSpec
from repro.check.oracle import run_case
from repro.hmos import HMOS
from repro.mesh import (
    KernelBackendError,
    Mesh,
    SteppingCore,
    SynchronousEngine,
    numba_version,
    reference_route,
    resolve_backend,
)
from repro.protocol import AccessProtocol, SimulationReport

HAVE_NUMBA = numba_version() is not None


def _random_batches(rng, n, nb=2, load=2):
    out = []
    for _ in range(nb):
        k = int(rng.integers(1, load * n + 1))
        out.append((rng.integers(0, n, k), rng.integers(0, n, k)))
    return out


def _assert_results_equal(ref, got):
    for r, g in zip(ref, got):
        assert (r.steps, r.total_hops, r.max_queue) == (
            g.steps, g.total_hops, g.max_queue,
        )
        np.testing.assert_array_equal(r.node_traffic, g.node_traffic)


class TestDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelBackendError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_numpy_always_available(self):
        backend = resolve_backend("numpy")
        assert backend.name == "numpy" and backend.ops is None

    def test_python_backend_carries_ops(self):
        backend = resolve_backend("python")
        assert backend.name == "python" and backend.ops is not None

    def test_auto_resolves_silently(self):
        backend = resolve_backend("auto")
        assert backend.name == ("numba" if HAVE_NUMBA else "numpy")

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_backend().name == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert resolve_backend().name == "python"
        monkeypatch.delenv("REPRO_KERNELS")
        assert resolve_backend().name == ("numba" if HAVE_NUMBA else "numpy")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert resolve_backend("numpy").name == "numpy"

    def test_backend_instance_passes_through(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed: cannot test absence")
    def test_explicit_numba_without_numba_is_typed_and_actionable(self):
        with pytest.raises(KernelBackendError) as exc:
            resolve_backend("numba")
        message = str(exc.value)
        assert "numba is not installed" in message
        assert "pip install" in message  # the remedy
        assert "auto" in message  # the fallback
        assert isinstance(exc.value, RuntimeError)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed: cannot test absence")
    def test_auto_falls_back_silently_without_numba(self):
        assert resolve_backend("auto").name == "numpy"

    def test_engine_reports_resolved_backend(self):
        engine = SynchronousEngine(Mesh(4), kernels="python")
        assert engine.kernels == "python"
        assert SynchronousEngine(Mesh(4)).kernels == (
            "numba" if HAVE_NUMBA else "numpy"
        )

    def test_protocol_reports_resolved_backend(self):
        scheme = HMOS(n=16, alpha=1.5, q=3, k=1)
        assert AccessProtocol(scheme, kernels="numpy").kernels == "numpy"
        assert AccessProtocol(scheme, engine="model").kernels == "n/a"

    def test_report_summary_includes_backend(self):
        scheme = HMOS(n=16, alpha=1.5, q=3, k=1)
        proto = AccessProtocol(scheme, kernels="numpy")
        report = SimulationReport(kernels=proto.kernels)
        report.record(proto.read(np.arange(8)))
        assert "kernel backend: numpy" in report.summary()
        bare = SimulationReport()
        bare.record(proto.read(np.arange(8)))
        assert "kernel backend" not in bare.summary()


class TestGoldenParity:
    """Kernel cores vs the seed engine's per-step golden reference."""

    @pytest.mark.parametrize("ports", ["multi", "single"])
    @pytest.mark.parametrize("side", [4, 8])
    def test_kernel_core_matches_reference(self, side, ports):
        mesh = Mesh(side)
        rng = np.random.default_rng(side * 31 + len(ports))
        for _ in range(3):
            k = int(rng.integers(1, 3 * mesh.n))
            src = rng.integers(0, mesh.n, k)
            dst = rng.integers(0, mesh.n, k)
            ref_steps, ref_hops, ref_traffic = reference_route(
                mesh, src, dst, ports=ports
            )
            (res,) = SteppingCore(mesh, ports, kernels="python").run([(src, dst)])
            assert res.steps == ref_steps
            assert res.total_hops == ref_hops
            np.testing.assert_array_equal(res.node_traffic, ref_traffic)


class TestKernelNumPyIdentity:
    """python-backend cores vs the NumPy cores, multi-batch."""

    @pytest.mark.parametrize("ports", ["multi", "single"])
    def test_stepping_core(self, ports):
        mesh = Mesh(8)
        rng = np.random.default_rng(7)
        batches = _random_batches(rng, mesh.n, nb=3)
        ref = SteppingCore(mesh, ports, kernels="numpy").run(batches)
        got = SteppingCore(mesh, ports, kernels="python").run(batches)
        _assert_results_equal(ref, got)

    def test_occupancy_stream_identical(self):
        mesh = Mesh(8)
        rng = np.random.default_rng(11)
        batches = _random_batches(rng, mesh.n)
        streams = {}
        for backend in ("numpy", "python"):
            samples = []
            SteppingCore(mesh, kernels=backend).run(
                batches, occupancy=lambda occ: samples.append(occ.copy())
            )
            streams[backend] = samples
        assert len(streams["numpy"]) == len(streams["python"])
        for a, b in zip(streams["numpy"], streams["python"]):
            np.testing.assert_array_equal(a, b)

    def test_livelock_message_identical(self):
        mesh = Mesh(8)
        rng = np.random.default_rng(13)
        batches = _random_batches(rng, mesh.n)
        messages = []
        for backend in ("numpy", "python"):
            with pytest.raises(RuntimeError) as exc:
                SteppingCore(mesh, kernels=backend).run(batches, max_steps=2)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "routing exceeded 2 steps" in messages[0]

    def test_observer_runs_delegate_to_reference_loop(self):
        # The observer hook exposes the NumPy layout; the kernel core
        # must keep serving it (by falling back to the reference loop),
        # with identical observed winners.
        mesh = Mesh(4)
        rng = np.random.default_rng(17)
        batches = _random_batches(rng, mesh.n, nb=1)
        seen = {}
        for backend in ("numpy", "python"):
            winners = []
            SteppingCore(mesh, kernels=backend).run(
                batches, observer=lambda s: winners.append(s["winners"].copy())
            )
            seen[backend] = winners
        assert len(seen["numpy"]) == len(seen["python"])
        for a, b in zip(seen["numpy"], seen["python"]):
            np.testing.assert_array_equal(a, b)


class TestCurveTables:
    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    @pytest.mark.parametrize("side", [2, 4, 16, 32])
    def test_table_parity(self, curve, side):
        ref = Mesh(side, curve, kernels="numpy")
        got = Mesh(side, curve, kernels="python")
        np.testing.assert_array_equal(ref._tables()[0], got._tables()[0])
        np.testing.assert_array_equal(ref._tables()[1], got._tables()[1])

    @pytest.mark.parametrize("curve", ["morton", "hilbert", "row"])
    def test_round_trip(self, curve):
        mesh = Mesh(8, curve, kernels="python")
        nodes = np.arange(mesh.n, dtype=np.int64)
        np.testing.assert_array_equal(
            mesh.node_of_rank(mesh.rank_of(nodes)), nodes
        )
        ranks = np.arange(mesh.n, dtype=np.int64)
        np.testing.assert_array_equal(
            mesh.rank_of(mesh.node_of_rank(ranks)), ranks
        )


class TestDifferentialOracle:
    """The full stack (protocol + engine + kernels) against the PRAM
    oracle, with the kernel path selected through the environment —
    exactly how the CI fuzz-smoke leg runs it."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_oracle_slice_passes_with_kernel_backend(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        case = CaseSpec(
            n=16, alpha=1.5, q=3, k=1,
            steps=(
                StepSpec("write", (0, 3, 7, 11), (10, 13, 17, 21)),
                StepSpec("read", (0, 3, 7, 11)),
                StepSpec(
                    "mixed", (1, 3, 9), (5, 6, 7), (True, False, True)
                ),
                StepSpec("read", (1, 9)),
            ),
        )
        # A divergence raises DivergenceError; a clean run returns the
        # report with every step checked.
        report = run_case(case)
        assert report.steps_checked == 4


class TestCapacityLifecycle:
    """The `_ensure_capacity` release-before-grow fix."""

    def test_growth_releases_old_buffers(self):
        mesh = Mesh(4)
        core = SteppingCore(mesh)
        rng = np.random.default_rng(23)
        small = [(rng.integers(0, mesh.n, 8), rng.integers(0, mesh.n, 8))]
        core.run(small)
        old_state = [weakref.ref(a) for a in core._state[0] + core._state[1]]
        old_scratch = [weakref.ref(a) for a in core._scratch.values()]
        old_best = weakref.ref(core._best)
        # Two batches: grows the per-packet state AND the link-bucket
        # space (buckets scale with the batch count, not packet count).
        big = [
            (rng.integers(0, mesh.n, 400), rng.integers(0, mesh.n, 400))
            for _ in range(2)
        ]
        ref = SteppingCore(mesh).run(big)
        _assert_results_equal(ref, core.run(big))
        # Growth replaced every generation; nothing holds the outgrown
        # arrays (the release-before-grow discipline keeps peak RSS at
        # one generation, so a surviving reference is a regression).
        assert all(r() is None for r in old_state)
        assert all(r() is None for r in old_scratch)
        assert old_best() is None

    def test_same_size_runs_reuse_buffers(self):
        mesh = Mesh(4)
        core = SteppingCore(mesh)
        rng = np.random.default_rng(29)
        batches = [(rng.integers(0, mesh.n, 64), rng.integers(0, mesh.n, 64))]
        core.run(batches)
        state_ids = [id(a) for a in core._state[0] + core._state[1]]
        best_id = id(core._best)
        core.run(batches)
        assert [id(a) for a in core._state[0] + core._state[1]] == state_ids
        assert id(core._best) == best_id

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_results_correct_across_growth(self, backend):
        mesh = Mesh(8)
        core = SteppingCore(mesh, kernels=backend)
        rng = np.random.default_rng(31)
        for k in (4, 40, 400):
            src = rng.integers(0, mesh.n, k)
            dst = rng.integers(0, mesh.n, k)
            ref_steps, ref_hops, ref_traffic = reference_route(mesh, src, dst)
            (res,) = core.run([(src, dst)])
            assert (res.steps, res.total_hops) == (ref_steps, ref_hops)
            np.testing.assert_array_equal(res.node_traffic, ref_traffic)
