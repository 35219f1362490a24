"""The [PP93a] scheme: explicit BIBD memory organization on the MPC.

Variables are the inputs of a ``(q^d, q)``-BIBD (lines of AG(d, q)),
modules its outputs; each variable keeps q copies, one per incident
point, and an access touches a *majority* ``floor(q/2) + 1`` of them.
Copy selection is the single-level instance of the paper's CULLING:
mark at most ``cap`` selected copies per module, then extract a minimal
majority preferring marked copies.  For a request set of size R on m
modules this bounds the post-selection module congestion by
``2 cap`` with ``cap ~ 2 q R / sqrt(R m)`` — the ``O(sqrt(n))``
worst-case access of [PP93a] when ``R = n`` and ``m = Theta(n)``.

This is exactly what the reproduced paper generalizes: the HMOS is the
k-level iterated version of this construction, traded against mesh
routing costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bibd.subgraph import BalancedSubgraph
from repro.hmos.copytree import extract_min_target_set
from repro.mpc.machine import AccessBatchCost, MPCMachine
from repro.util.grouping import rank_within_groups
from repro.util.validate import check_positive

__all__ = ["PP93aScheme", "PP93aAccessResult"]


@dataclass(frozen=True)
class PP93aAccessResult:
    """Outcome of one access step under the PP93a scheme."""

    cost: AccessBatchCost
    selected_per_variable: np.ndarray  # (N, q) bool
    cap: int


class PP93aScheme:
    """Single-level BIBD scheme with majority access on an MPC.

    Parameters
    ----------
    q : int
        Prime power >= 3 (majority needs q >= 3).
    d : int
        Dimension; the MPC gets ``q^d`` modules.
    num_variables : int, optional
        Defaults to the full design's input count (memory ~ modules^2 /
        q^3, the [PP93a] regime).
    """

    def __init__(self, q: int, d: int, num_variables: int | None = None):
        check_positive("q", q, minimum=3)
        full_graph = BalancedSubgraph(q, d, 1)  # probe for sizes
        max_vars = full_graph.design.num_inputs
        if num_variables is None:
            num_variables = max_vars
        self.graph = BalancedSubgraph(q, d, num_variables)
        self.q = self.graph.q
        self.num_variables = int(num_variables)
        self.num_modules = self.graph.num_outputs
        self.machine = MPCMachine(self.num_modules)
        self.majority = q // 2 + 1

    def copy_modules(self, variables) -> np.ndarray:
        """Module of each of the q copies; shape ``(N, q)``."""
        variables = np.asarray(variables, dtype=np.int64)
        return self.graph.neighbors(variables)

    def select_copies(self, variables) -> PP93aAccessResult:
        """Threshold-select a majority per variable, bounding congestion.

        Single-level CULLING: cap marked copies per module at
        ``ceil(2 q N / sqrt(N m))``, then extract minimal majorities
        preferring marked copies.
        """
        variables = np.asarray(variables, dtype=np.int64)
        if np.unique(variables).size != variables.size:
            raise ValueError("request set must contain distinct variables")
        N = variables.size
        modules = self.copy_modules(variables)  # (N, q)
        cap = max(1, math.ceil(2 * self.q * N / math.sqrt(max(N * self.num_modules, 1))))
        # Mark up to `cap` copies per module, in deterministic
        # (variable, copy) order.
        marked = (rank_within_groups(modules.reshape(-1)) < cap).reshape(N, self.q)
        allowed = np.ones((N, self.q), dtype=bool)
        feasible, chosen, _ = extract_min_target_set(
            marked, allowed, self.q, k=1, level=1
        )
        assert feasible.all()
        touched = modules[chosen]
        cost = self.machine.access(touched)
        return PP93aAccessResult(cost=cost, selected_per_variable=chosen, cap=cap)

    def congestion_bound(self, num_requests: int) -> float:
        """The [PP93a]-style bound on post-selection module congestion."""
        cap = 2 * self.q * num_requests / math.sqrt(num_requests * self.num_modules)
        return 2 * max(cap, 1.0) + self.q
