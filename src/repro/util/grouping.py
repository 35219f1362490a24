"""Stable rank of each element within its group.

The access protocol's sort-and-rank phases and Section 2's staged
routing both reduce to this primitive: given each packet's group id
(destination submesh / page key), assign ranks 0, 1, ... within every
group, stably in input order — the outcome of the on-mesh sort-and-rank
whose movement cost is charged separately.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_within_groups"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def rank_within_groups(group_ids: np.ndarray) -> np.ndarray:
    """Stable 0-based rank of each element among equals.

    One plain sort of the composite key ``(g - g.min()) * N + index``
    orders the elements by group and, within a group, by input position;
    ``key % N`` recovers that order and ``key // N`` the group.

    Raises
    ------
    OverflowError
        If ``(g.max() - g.min() + 1) * N`` does not fit in int64.

    >>> rank_within_groups(np.array([5, 3, 5, 5, 3]))
    array([0, 0, 1, 2, 1])
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    size = group_ids.size
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    low = group_ids.min()
    if (int(group_ids.max()) - int(low) + 1) * size > _INT64_MAX:
        raise OverflowError(
            f"group id range times {size} elements overflows int64"
        )
    index = np.arange(size, dtype=np.int64)
    comp = (group_ids - low) * size + index
    comp.sort()
    sorted_groups, order = np.divmod(comp, size)
    new_group = np.ones(size, dtype=bool)
    new_group[1:] = sorted_groups[1:] != sorted_groups[:-1]
    starts = np.flatnonzero(new_group)
    run_start = np.repeat(starts, np.diff(starts, append=size))
    ranks = np.empty(size, dtype=np.int64)
    ranks[order] = index - run_start
    return ranks
