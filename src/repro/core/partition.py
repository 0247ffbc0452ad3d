"""The sqrt(n)-decomposition into groups and per-group binary bag trees.

Algorithm 1 line 3 pre-partitions ``P`` into ``ceil(sqrt(n))`` disjoint groups
of at most ``ceil(sqrt(n))`` processes each (Figure 1).  Within each group,
``GroupBitsAggregation`` aggregates operative counts along a balanced binary
tree of *bags* (Figure 2): layer 0 holds singletons and each higher-layer bag
is the union of its two children.

Both structures are pure functions of ``n`` — every process derives the same
partition locally, costing no communication, exactly as the paper requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class GroupPartition:
    """Partition of ``range(n)`` into contiguous groups of ~sqrt(n) size."""

    n: int
    groups: tuple[tuple[int, ...], ...]
    group_of: tuple[int, ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def group_members(self, index: int) -> tuple[int, ...]:
        return self.groups[index]

    def group_index_of(self, pid: int) -> int:
        return self.group_of[pid]


def sqrt_partition(n: int) -> GroupPartition:
    """Partition ``range(n)`` into ``ceil(sqrt n)`` groups of size
    at most ``ceil(sqrt n)`` (Algorithm 1, line 3)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    side = int(math.isqrt(n))
    if side * side < n:
        side += 1
    group_count = side
    groups: list[tuple[int, ...]] = []
    group_of = [0] * n
    start = 0
    for index in range(group_count):
        remaining_groups = group_count - index
        remaining = n - start
        size = math.ceil(remaining / remaining_groups)
        members = tuple(range(start, start + size))
        for pid in members:
            group_of[pid] = index
        groups.append(members)
        start += size
    assert start == n, "partition must cover all processes"
    return GroupPartition(n=n, groups=tuple(groups), group_of=tuple(group_of))


@lru_cache(maxsize=256)
def cached_sqrt_partition(n: int) -> GroupPartition:
    """Memoized :func:`sqrt_partition` (it is pure in ``n``)."""
    return sqrt_partition(n)


class BagTree:
    """Balanced binary decomposition of one group into bags (Figure 2).

    ``layers[0]`` is the list of singleton bags in member order;
    ``layers[j][k]`` is the union of ``layers[j-1][2k]`` and
    ``layers[j-1][2k+1]`` (missing right children are empty).  The top layer
    has a single bag equal to the whole group.
    """

    __slots__ = ("members", "layers", "_member_positions")

    def __init__(self, members: tuple[int, ...]) -> None:
        if not members:
            raise ValueError("a bag tree needs at least one member")
        self.members = tuple(members)
        layers: list[list[tuple[int, ...]]] = [
            [(member,) for member in self.members]
        ]
        while len(layers[-1]) > 1:
            previous = layers[-1]
            merged = [
                previous[2 * k] + (previous[2 * k + 1] if 2 * k + 1 < len(previous) else ())
                for k in range((len(previous) + 1) // 2)
            ]
            layers.append(merged)
        self.layers = layers
        self._member_positions = {
            member: position for position, member in enumerate(self.members)
        }

    @property
    def num_stages(self) -> int:
        """Number of aggregation stages (= tree height)."""
        return len(self.layers) - 1

    def bag_index(self, layer: int, pid: int) -> int:
        """Index of the bag containing ``pid`` at the given layer."""
        return self._member_positions[pid] >> layer

    def child_indices(self, layer: int, index: int) -> tuple[int, int | None]:
        """Indices of the left and (possibly absent) right child bags."""
        if layer <= 0:
            raise ValueError("layer 0 bags have no children")
        left = 2 * index
        right = 2 * index + 1
        if right >= len(self.layers[layer - 1]):
            return left, None
        return left, right


@lru_cache(maxsize=4096)
def cached_bag_tree(members: tuple[int, ...]) -> BagTree:
    """Memoized :class:`BagTree` construction (pure in the member tuple)."""
    return BagTree(members)


def global_stage_count(partition: GroupPartition) -> int:
    """Uniform number of aggregation stages across all groups.

    Groups may differ in size by one, hence in tree height by one; the
    aggregation phase is padded to the maximum height so that every process
    consumes the same number of rounds per epoch (lockstep).
    """
    return max(
        cached_bag_tree(group).num_stages for group in partition.groups
    )
