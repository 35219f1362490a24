"""Differential tests of CULLING's sort-light kernels.

Each kernel is compared with the plain argsort formulation it replaced:

* :func:`extract_min_target_set` (pairwise-rank DP) against the stable
  argsort DP kept verbatim below as the reference;
* :func:`rank_within_groups` (composite-key sort) against
  ``np.argsort(kind="stable")``;
* the one-pass ``page_node_spans(levels, ...)`` against per-level
  :meth:`Placement.page_intervals` on materialized and arithmetic graphs.
"""

import numpy as np
import pytest

from repro.bibd.subgraph import BalancedSubgraph
from repro.hmos import HMOS, Placement
from repro.hmos.copytree import _thresholds, extract_min_target_set
from repro.hmos.placement import SCALE
from repro.util.grouping import rank_within_groups

_INF = np.int64(1) << 40  # sentinel cost for unreachable subtrees


def argsort_extract_min_target_set(preferred, allowed, q, k, level):
    """The stable-argsort DP that ``extract_min_target_set`` replaced."""
    preferred = np.asarray(preferred, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    n = preferred.shape[0]
    leaves = q**k
    if preferred.shape != (n, leaves) or allowed.shape != (n, leaves):
        raise ValueError(f"masks must have shape (N, {leaves})")
    if np.any(preferred & ~allowed):
        raise ValueError("preferred must be a subset of allowed")
    thr = _thresholds(q, k, level)

    # Bottom-up cost pass.  cost[depth] has shape (N, q**depth).
    cost = np.where(preferred, 0, np.where(allowed, 1, _INF)).astype(np.int64)
    orders: list[np.ndarray] = []  # per depth: argsort of children costs
    for depth in range(k - 1, -1, -1):
        child = cost.reshape(n, q**depth, q)
        order = np.argsort(child, axis=-1, kind="stable")
        orders.append(order)
        picked = np.take_along_axis(child, order[..., : thr[depth]], axis=-1)
        total = picked.sum(axis=-1)
        cost = np.where((picked >= _INF).any(axis=-1), _INF, total)
    orders.reverse()  # orders[depth] applies at that depth
    feasible = cost[:, 0] < _INF

    # Top-down reconstruction of the chosen children.
    chosen_nodes = feasible[:, None].copy()  # (N, q**0)
    for depth in range(k):
        order = orders[depth]  # (N, q**depth, q)
        pick = np.zeros_like(order, dtype=bool)
        np.put_along_axis(pick, order[..., : thr[depth]], True, axis=-1)
        chosen_nodes = (pick & chosen_nodes[..., None]).reshape(n, q ** (depth + 1))
    chosen = chosen_nodes & allowed  # guard: infeasible rows stay empty
    added = (chosen & ~preferred).sum(axis=1)
    return feasible, chosen, added


def _masks(rng, q, k, rows):
    """Seeded (preferred, allowed) pairs spanning dense to sparse rows,
    so some rows have no target set at the stricter levels."""
    leaves = q**k
    density = rng.uniform(0.3, 1.0, size=(rows, 1))
    allowed = rng.random((rows, leaves)) < density
    allowed[0] = True  # one row with every copy available
    allowed[1] = False  # one row with none
    preferred = allowed & (rng.random((rows, leaves)) < rng.uniform(0, 1, (rows, 1)))
    return preferred, allowed


class TestExtractMinTargetSet:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_argsort_dp(self, q, k):
        rng = np.random.default_rng(1000 * q + k)
        rows = 64 if q**k <= 125 else 12
        preferred, allowed = _masks(rng, q, k, rows)
        saw_infeasible = False
        for level in range(k + 1):
            got = extract_min_target_set(preferred, allowed, q, k, level)
            want = argsort_extract_min_target_set(preferred, allowed, q, k, level)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            saw_infeasible |= not want[0].all()
        assert saw_infeasible

    def test_marked_only_and_empty_batch(self):
        q, k = 3, 2
        full = np.ones((4, q**k), dtype=bool)
        for level in range(k + 1):
            got = extract_min_target_set(full, full, q, k, level)
            want = argsort_extract_min_target_set(full, full, q, k, level)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        empty = np.zeros((0, q**k), dtype=bool)
        feasible, chosen, added = extract_min_target_set(empty, empty, q, k, 1)
        assert feasible.shape == (0,) and chosen.shape == (0, q**k)
        assert added.shape == (0,)


def _stable_argsort_ranks(groups):
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    ranks = np.empty(groups.size, dtype=np.int64)
    ranks[order] = np.arange(groups.size) - np.searchsorted(
        sorted_groups, sorted_groups
    )
    return ranks


class TestRankWithinGroups:
    @pytest.mark.parametrize(
        "groups",
        [
            [],
            [7],
            [-5, 3, -5, 0, 3, -5],
            [2**40, -(2**40), 0, 2**40, 17],
            [4] * 50,
            list(range(20, 0, -1)) * 3,
        ],
        ids=["empty", "single", "negative", "wide-range", "one-group", "repeated"],
    )
    def test_matches_stable_argsort(self, groups):
        groups = np.array(groups, dtype=np.int64)
        got = rank_within_groups(groups)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _stable_argsort_ranks(groups))

    def test_random_matches_stable_argsort(self):
        groups = np.random.default_rng(3).integers(-1000, 1000, 5000)
        np.testing.assert_array_equal(
            rank_within_groups(groups), _stable_argsort_ranks(groups)
        )

    def test_refuses_overflowing_key(self):
        groups = np.array([-(2**62), 2**62], dtype=np.int64)
        with pytest.raises(OverflowError):
            rank_within_groups(groups)


def per_level_intervals(place, level, variables, paths, chains):
    """One copy's level-``level`` interval by its own refinement from
    level k, as ``Placement.page_intervals`` computed it per call."""
    params = place.params
    k = params.k
    nS = params.n * SCALE
    u_k = chains[:, k - 1]
    start = (u_k * nS) // params.m[k]
    stop = ((u_k + 1) * nS) // params.m[k]
    for j in range(k, level, -1):
        g = place.graphs[j - 1]
        u_j = chains[:, j - 1]
        inner = chains[:, j - 2] if j >= 2 else variables
        parts = g.output_degree(u_j)
        rank = g.input_rank_at_output(inner, u_j)
        size = stop - start
        new_start = start + (rank * size) // parts
        stop = start + ((rank + 1) * size) // parts
        start = new_start
    return start, stop


def _materialized(scheme):
    p = scheme.params
    graphs = [
        BalancedSubgraph(p.q, p.d[i], p.m[i]).materialize() for i in range(p.k)
    ]
    return Placement(p, scheme.mesh, graphs=graphs)


class TestOnePassSpans:
    @pytest.mark.parametrize("materialized", [False, True])
    @pytest.mark.parametrize("shape", [(64, 1.5, 3, 2), (256, 1.5, 3, 3)])
    def test_matches_per_level_intervals(self, shape, materialized):
        scheme = HMOS(*shape)
        place = _materialized(scheme) if materialized else scheme.placement
        assert all(g.is_materialized == materialized for g in place.graphs)
        p = scheme.params
        rng = np.random.default_rng(5)
        v = rng.choice(p.num_variables, 200, replace=False)
        paths = rng.integers(0, p.redundancy, v.size)
        chains = place.chains(v, paths)
        levels = tuple(range(p.k, -1, -1))
        first, last = place.page_node_spans(levels, v, paths, chains)
        assert first.shape == last.shape == (len(levels), v.size)
        for row, level in enumerate(levels):
            start, stop = per_level_intervals(place, level, v, paths, chains)
            got_start, got_stop = place.page_intervals(level, v, paths, chains)
            np.testing.assert_array_equal(got_start, start)
            np.testing.assert_array_equal(got_stop, stop)
            np.testing.assert_array_equal(first[row], start // SCALE)
            np.testing.assert_array_equal(
                last[row], np.maximum(start // SCALE, (stop - 1) // SCALE)
            )
            one_first, one_last = place.page_node_spans(level, v, paths)
            np.testing.assert_array_equal(one_first, first[row])
            np.testing.assert_array_equal(one_last, last[row])
        np.testing.assert_array_equal(
            scheme.mesh.node_of_rank(first[-1]), place.copy_nodes(v, paths)
        )

    def test_rejects_bad_level(self):
        scheme = HMOS(64, 1.5)
        v = np.arange(4)
        with pytest.raises(ValueError):
            scheme.placement.page_node_spans((0, scheme.params.k + 1), v, v)
        with pytest.raises(ValueError):
            scheme.placement.page_intervals(-1, v, v)
