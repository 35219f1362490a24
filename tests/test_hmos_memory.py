"""Tests for the timestamped copy store and majority retrieval."""

import numpy as np
import pytest

from repro.hmos import HMOS


@pytest.fixture()
def scheme():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


class TestCopyMemory:
    def test_initial_image(self, scheme):
        vals, tss = scheme.memory.read(np.array([0, 1]), np.array([0, 5]))
        np.testing.assert_array_equal(vals, 0)
        np.testing.assert_array_equal(tss, -1)

    def test_write_then_read(self, scheme):
        scheme.memory.write(np.array([4]), np.array([2]), np.array([99]), timestamp=7)
        vals, tss = scheme.memory.read(np.array([4]), np.array([2]))
        assert int(vals[0]) == 99 and int(tss[0]) == 7

    def test_broadcast_write(self, scheme):
        v = np.array([1, 1, 1])
        paths = np.array([0, 1, 2])
        scheme.memory.write(v, paths, 5, timestamp=1)
        vals, _ = scheme.memory.read(v, paths)
        np.testing.assert_array_equal(vals, 5)

    def test_rejects_bad_path(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read(np.array([0]), np.array([scheme.redundancy]))

    def test_rejects_bad_variable(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read(np.array([scheme.num_variables]), np.array([0]))

    def test_written_copies_counter(self, scheme):
        assert scheme.memory.written_copies == 0
        scheme.memory.write(np.array([0, 0]), np.array([0, 1]), 1, timestamp=0)
        assert scheme.memory.written_copies == 2

    def test_read_latest_prefers_newer(self, scheme):
        v = np.array([3])
        scheme.memory.write(v, np.array([0]), np.array([10]), timestamp=1)
        scheme.memory.write(v, np.array([1]), np.array([20]), timestamp=2)
        got = scheme.memory.read_latest(v, np.array([[0, 1]]))
        assert int(got[0]) == 20

    def test_read_latest_masked(self, scheme):
        v = np.array([6])
        scheme.memory.write(v, np.array([4]), np.array([42]), timestamp=3)
        mask = np.zeros((1, scheme.redundancy), dtype=bool)
        mask[0, [2, 4, 7]] = True
        got = scheme.memory.read_latest_masked(v, mask)
        assert int(got[0]) == 42

    def test_read_latest_masked_requires_nonempty(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read_latest_masked(
                np.array([0]), np.zeros((1, scheme.redundancy), dtype=bool)
            )

    def test_write_read_majority_consistency(self, scheme):
        """Write a target set, read any other target set: newest wins.

        This is the Definition 2 consistency argument at memory level:
        two target sets always intersect in at least one copy.
        """
        from repro.hmos import extract_min_target_set

        rng = np.random.default_rng(9)
        v = np.array([11])
        # Minimal (level-k) write target set: the smallest legal write.
        full = np.ones((1, scheme.redundancy), dtype=bool)
        _, write_mask, _ = extract_min_target_set(
            full, full, scheme.params.q, scheme.params.k, scheme.params.k
        )
        w_paths = np.nonzero(write_mask[0])[0]
        scheme.memory.write(
            np.full(w_paths.shape, 11), w_paths, 1234, timestamp=5
        )
        for _ in range(20):
            # Random minimal target sets as read sets.
            sel = rng.random((1, scheme.redundancy)) < 0.7
            if not scheme.is_target_set(sel)[0]:
                continue
            got = scheme.memory.read_latest_masked(v, sel)
            assert int(got[0]) == 1234


class _DictMemory:
    """Reference semantics for the differential test: a plain
    ``copy id -> (value, timestamp)`` dict, one copy at a time."""

    def __init__(self, params):
        self.red = params.redundancy
        self.store = {}

    def write(self, variables, paths, values, timestamp):
        variables, paths = np.broadcast_arrays(variables, paths)
        values = np.broadcast_to(values, variables.shape)
        for v, p, val in zip(
            variables.ravel().tolist(), paths.ravel().tolist(),
            values.ravel().tolist(),
        ):
            self.store[v * self.red + p] = (val, int(timestamp))

    def read(self, variables, paths):
        variables, paths = np.broadcast_arrays(variables, paths)
        pairs = [
            self.store.get(v * self.red + p, (0, -1))
            for v, p in zip(variables.ravel().tolist(), paths.ravel().tolist())
        ]
        vals = np.array([a for a, _ in pairs], dtype=np.int64)
        tss = np.array([b for _, b in pairs], dtype=np.int64)
        return vals.reshape(variables.shape), tss.reshape(variables.shape)

    def read_latest(self, variables, paths_matrix):
        vals, tss = self.read(variables[:, None], paths_matrix)
        return vals[np.arange(vals.shape[0]), np.argmax(tss, axis=1)]

    def read_latest_masked(self, variables, mask):
        paths = np.arange(self.red)
        vals, tss = self.read(variables[:, None], paths[None, :])
        tss = np.where(mask, tss, -2)
        return vals[np.arange(vals.shape[0]), np.argmax(tss, axis=1)]


class TestAgainstDictReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_match(self, scheme, seed):
        rng = np.random.default_rng(seed)
        mem, ref = scheme.memory, _DictMemory(scheme.params)
        red = scheme.redundancy
        # A small pool makes repeats and re-writes common; a few draws
        # from the whole range reach variables nobody writes.
        pool = rng.choice(scheme.num_variables, size=12, replace=False)

        def some_variables(size):
            if rng.random() < 0.2:
                return rng.integers(0, scheme.num_variables, size=size)
            return rng.choice(pool, size=size)

        for step in range(60):
            kind = rng.integers(0, 5)
            if kind == 0:  # grouped packets, like the protocol's
                v = np.repeat(some_variables(4), 3)
                p = rng.integers(0, red, size=(4, 3))
                if rng.random() < 0.5:
                    p.sort(axis=1)
                p = p.ravel()
                vals = rng.integers(-50, 50, size=v.size)
                ts = int(rng.integers(0, 4)) if step % 7 else 0
                mem.write(v, p, vals, ts)
                ref.write(v, p, vals, ts)
            elif kind == 1:  # scattered, repeated (variable, path) pairs
                v = some_variables(8)
                p = rng.integers(0, 2, size=v.size)
                vals = rng.integers(-50, 50, size=v.size)
                mem.write(v, p, vals, step)
                ref.write(v, p, vals, step)
            elif kind == 2:  # broadcast scalar value over a whole row
                v = some_variables(1)
                mem.write(v, np.arange(red), int(step), step)
                ref.write(v, np.arange(red), int(step), step)
            elif kind == 3:
                v = some_variables(5)
                paths = rng.integers(0, red, size=(5, 3))
                np.testing.assert_array_equal(
                    mem.read_latest(v, paths), ref.read_latest(v, paths)
                )
                got, want = mem.read(v[:, None], paths), ref.read(v[:, None], paths)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            else:
                v = some_variables(5)
                mask = rng.random((5, red)) < 0.4
                mask[np.arange(5), rng.integers(0, red, size=5)] = True
                np.testing.assert_array_equal(
                    mem.read_latest_masked(v, mask),
                    ref.read_latest_masked(v, mask),
                )
            assert mem.written_copies == len(ref.store)
        assert list(mem.snapshot().items()) == sorted(ref.store.items())

    def test_last_value_wins_on_repeated_copy(self, scheme):
        v = np.array([3, 3, 9, 3])
        p = np.array([1, 1, 0, 1])
        scheme.memory.write(v, p, np.array([10, 20, 30, 40]), timestamp=2)
        vals, tss = scheme.memory.read(np.array([3, 9]), np.array([1, 0]))
        assert vals.tolist() == [40, 30] and tss.tolist() == [2, 2]
        assert scheme.memory.written_copies == 2

    def test_unwritten_variables_allocate_nothing(self, scheme):
        far = np.array([scheme.num_variables - 1, 0])
        scheme.memory.read(far[:, None], np.arange(scheme.redundancy)[None, :])
        scheme.memory.read_latest_masked(
            far, np.ones((2, scheme.redundancy), dtype=bool)
        )
        assert len(scheme.memory.snapshot()) == 0
        assert scheme.memory._keys.size == 1  # only the end marker

    def test_out_of_range_refusals(self, scheme):
        mem = scheme.memory
        bad = [
            lambda: mem.write(np.array([-1]), np.array([0]), 1, 1),
            lambda: mem.write(np.array([0]), np.array([-1]), 1, 1),
            lambda: mem.read_latest(
                np.array([scheme.num_variables]), np.array([[0]])
            ),
            lambda: mem.read_latest(np.array([0]), np.array([[scheme.redundancy]])),
            lambda: mem.read_latest_masked(
                np.array([-1]), np.ones((1, scheme.redundancy), dtype=bool)
            ),
        ]
        for call in bad:
            with pytest.raises(ValueError):
                call()
        assert mem.written_copies == 0


class TestTimestamps:
    def test_memory_refuses_negative_timestamp(self, scheme):
        with pytest.raises(ValueError, match="timestamp"):
            scheme.memory.write(np.array([5]), np.array([0]), 1, timestamp=-5)
        assert scheme.memory.written_copies == 0

    def test_timestamp_zero_is_written(self, scheme):
        v = np.array([5])
        scheme.memory.write(v, np.array([4]), np.array([7]), timestamp=0)
        mask = np.ones((1, scheme.redundancy), dtype=bool)
        assert int(scheme.memory.read_latest_masked(v, mask)[0]) == 7

    def test_protocol_refuses_negative_timestamp_before_culling(self, scheme):
        from repro.protocol.access import AccessProtocol, StepRequest

        proto = AccessProtocol(scheme, engine="model")
        with pytest.raises(ValueError, match="timestamp"):
            proto.write([5], [42], timestamp=-3)
        with pytest.raises(ValueError, match="timestamp"):
            proto.mixed([5], [True], [42], timestamp=-1)
        with pytest.raises(ValueError, match="timestamp"):
            proto.run_steps(
                [StepRequest(op="write", variables=[5], values=[42])],
                start_timestamp=-1,
            )
        assert scheme.memory.written_copies == 0
        proto.write([5], [42], timestamp=0)
        assert int(proto.read([5]).values[0]) == 42


class TestSnapshot:
    def test_insertion_order_does_not_change_image(self):
        """A batched run and its sequential replay give variables rows
        in different orders; their images and digests must not differ."""
        from repro.serve.server import ServeConfig, _Machine

        cfg = ServeConfig(n=64, alpha=1.5, q=3, k=2)
        a, b = _Machine(0, cfg), _Machine(1, cfg)
        mem_a, mem_b = a.scheme.memory, b.scheme.memory
        rng = np.random.default_rng(3)
        v = rng.choice(mem_a.params.num_variables, size=40, replace=False)
        p = rng.integers(0, mem_a.params.redundancy, size=40)
        vals = rng.integers(0, 1000, size=40)
        mem_a.write(v, p, vals, timestamp=4)
        for i in rng.permutation(40):  # other row order, one at a time
            mem_b.write(v[i:i + 1], p[i:i + 1], vals[i:i + 1], timestamp=4)
        assert mem_a.snapshot() == mem_b.snapshot()
        assert list(mem_a.snapshot().items()) == list(mem_b.snapshot().items())
        assert a.state_digest() == b.state_digest()
        assert a.value_digest() == b.value_digest()

        mem_b.write(v[:1], p[:1], vals[:1] + 1, timestamp=4)
        assert mem_a.snapshot() != mem_b.snapshot()
        assert a.value_digest() != b.value_digest()

    def test_fleet_digests_are_pinned(self):
        """Digests of a fixed fleet run, as computed when memory was a
        per-copy dict: the canonical image must hash to the same bytes."""
        from repro.serve.harness import ScriptedFleet
        from repro.serve.server import ServeConfig

        cfg = ServeConfig(
            n=16, alpha=1.5, q=3, k=1, window_max=8, inflight_max=6
        )
        fleet = ScriptedFleet(cfg, clients=5, requests=10, batch=3, seed=21)
        run = fleet.run()
        assert run.certified
        (machine,) = fleet.core.machines
        assert machine.scheme.memory.written_copies == 84
        assert machine.state_digest() == "90c7f5246a1ead43"
        assert machine.value_digest() == "aa0af63354a9ed8e"
