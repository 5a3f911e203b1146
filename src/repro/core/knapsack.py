"""0-1 knapsack solvers for coprocessor packing.

The paper models every Xeon Phi as a knapsack whose capacity is the
card's physical memory, packs jobs (items, weight = declared memory)
with the standard dynamic-programming method, and exploits the fact that
memory requests quantize well: "if jobs can request memory in increments
of 50 MB, then w is 8GB/50MB = 160", making the DP effectively linear in
the number of jobs (§IV-C).

Three exact solvers are provided:

* :func:`knapsack_1d` — the paper's plain memory-capacity DP;
* :func:`knapsack_cardinality` — memory x item-count DP, used to respect
  a node's host-slot bound (one job per Condor slot);
* :func:`knapsack_thread_capped` — memory x thread DP, realizing the
  paper's "knapsack value is zero when total threads exceed hardware"
  rule as a hard second dimension;

plus :func:`brute_force` for property-testing the DPs on small inputs.

Shape classes and memory model
------------------------------
Jobs in one pack share few shapes: in the Fig. 10 MCCK cell ~500 jobs
fit a pack, but they have only ~35 distinct ``(declared_mb,
declared_threads)`` pairs. The knapsack scheduler therefore keeps its
pending jobs grouped by shape and hands the packer ~35 shape groups
with their sizes, not ~500 jobs; the public solvers below group a flat
item list the same way. :func:`_solve` works on per-shape counts: it
merges shapes into classes of equal (quantized weight, quantized cost,
value), caps each class's multiplicity at what could fit (``W // w``
and ``K // c``), and splits it in binary — multiplicity m becomes
chunks of 1, 2, 4, ... members, ⌊log₂ m⌋ + 1 in all, which can sum to
any count 0..m. One dense 0-1 DP over the chunks, with a boolean
``take`` table per chunk, solves the bounded knapsack exactly;
backtracking runs from ``(W, K)``.
Time and memory are O(chunks · W · K), where chunks grows with the
number of distinct quantized shapes (at most ``log₂ W + 1`` chunks per
class), not with the queue length; only the chosen members are ever
materialized (:func:`_take`). ``K`` is 0 for :func:`knapsack_1d`,
the item bound for :func:`knapsack_cardinality` (cost 1 per item) and
the quantized thread budget for :func:`knapsack_thread_capped`.

Tie-break (canonical): a DP cell is overwritten only on a *strict*
improvement, so among equal-value packings the one reachable without a
later chunk wins — classes earlier in the input (by the FIFO position
of their raw shapes' first members) are preferred — and within each
chosen class the FIFO-earliest members (lowest indices) are taken,
across all its raw shapes. Identical items therefore always resolve to
the lowest indices. The item bound and the class caps count members,
not shapes.

Quantization
------------
Weights and capacity are quantized on a *consistent* grid: weights round
up (``ceil``) and the capacity rounds down, but an item whose true
weight fits the true capacity while straddling the capacity's partial
trailing quantum is clamped to the quantized capacity. Such an item
occupies ``(quantum·W, capacity]``, so nothing but zero-weight items can
truly share the knapsack with it — clamping keeps it packable alone
without ever admitting an overweight packing. (Previously an item with
``weight == capacity`` was silently unpackable whenever the capacity was
not a quantum multiple.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

#: The paper's memory quantum: "increments of 50MB".
DEFAULT_QUANTUM_MB = 50.0

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class Item:
    """One packable job: declared memory (MB), value, declared threads."""

    weight: float
    value: float
    threads: int = 0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.value < 0:
            raise ValueError("value must be non-negative")
        if self.threads < 0:
            raise ValueError("threads must be non-negative")


@dataclass(frozen=True)
class PackResult:
    """Solution of one knapsack: chosen item indices and totals."""

    indices: tuple[int, ...]
    total_value: float
    total_weight: float
    total_threads: int

    @property
    def count(self) -> int:
        return len(self.indices)


def _quantize(weight: float, quantum: float) -> int:
    """Conservative (round-up) quantization of a weight."""
    return int(math.ceil(weight / quantum - 1e-12))


def _consistent_grid(
    raw: Sequence[float], capacity: float, quantum: float
) -> tuple[int, list[int]]:
    """Quantize ``capacity`` and per-item weights on one grid.

    Returns ``(W, weights)`` such that

    * any item with true weight <= capacity gets a quantized weight <= W
      (it stays packable alone), and
    * any packing feasible in quantized arithmetic is feasible in true
      weights (never overweight).

    Items that cannot fit even alone get weight ``W + 1``.
    """
    W = int(math.floor(capacity / quantum + 1e-12))
    weights: list[int] = []
    if W == 0:
        # Sub-quantum capacity: any two fitting positive-weight items may
        # still be truly overweight, so admit at most one at a time.
        W = 1 if capacity > 0 else 0
        for w in raw:
            if w <= 0:
                weights.append(0)
            elif w <= capacity:
                weights.append(1)
            else:
                weights.append(W + 1)
        return W, weights
    for w in raw:
        q = _quantize(w, quantum)
        if q > W and w <= capacity:
            # Exact fit inside the capacity's partial trailing quantum:
            # the item occupies (quantum*W, capacity], so only zero-weight
            # items can truly join it — clamping to W is overweight-safe.
            q = W
        weights.append(q)
    return W, weights


def _result(items: Sequence[Item], chosen: list[int]) -> PackResult:
    chosen_sorted = tuple(sorted(chosen))
    return PackResult(
        indices=chosen_sorted,
        total_value=sum(items[i].value for i in chosen_sorted),
        total_weight=sum(items[i].weight for i in chosen_sorted),
        total_threads=sum(items[i].threads for i in chosen_sorted),
    )


# -- shape-class DP -----------------------------------------------------------


def _shape_groups(items: Sequence[Item]) -> dict[tuple[float, int, float], list[int]]:
    """Item indices grouped by raw ``(weight, threads, value)``, in input order."""
    groups: dict[tuple[float, int, float], list[int]] = {}
    for i, item in enumerate(items):
        key = (item.weight, item.threads, item.value)
        members = groups.get(key)
        if members is None:
            groups[key] = [i]
        else:
            members.append(i)
    return groups


def _solve(
    shapes: Sequence[Item],
    counts: Sequence[int],
    W: int,
    weights: Sequence[int],
    K: int,
    costs: Sequence[int],
) -> list[tuple[list[int], int]]:
    """Bounded knapsack over shape classes, weight x cost capacity (W, K).

    ``shapes`` holds one item per raw shape and ``counts`` how many
    members it has; ``weights``/``costs`` are each shape's quantized
    weight and cost. Shapes that quantize alike merge into one class;
    each class is capped at the multiplicity that could fit and split in
    binary into chunks of 1, 2, 4, ... members, which a dense 0-1 DP
    over the chunks then solves exactly. Returns, per class that gives
    members, the positions of its raw shapes and how many members it
    gives (its FIFO-earliest ones, see :func:`_take`).
    """
    n = sum(counts)
    classes: dict[tuple[int, int, float], list[int]] = {}
    for s, (shape, w, c) in enumerate(zip(shapes, weights, costs)):
        if shape.value > 0 and w <= W and c <= K:
            classes.setdefault((w, c, shape.value), []).append(s)

    # Classes of one quantized (w, c) differ only in value, so an optimum
    # uses the most valuable members first and never more than could
    # fit: cap each class at the room its more valuable peers leave.
    room: dict[tuple[int, int], int] = {}
    multiplicity: dict[tuple[int, int, float], int] = {}
    for key in sorted(classes, key=lambda k: -k[2]):
        w, c, _ = key
        left = room.get((w, c))
        if left is None:
            left = min(W // w if w else n, K // c if c else n)
        m = min(sum(counts[s] for s in classes[key]), left)
        room[(w, c)] = left - m
        multiplicity[key] = m

    taken: dict[tuple[int, int, float], int] = {}
    chunks: list[tuple[tuple[int, int, float], int]] = []
    for key in classes:
        m = multiplicity[key]
        if key[0] == 0 and key[1] == 0:
            taken[key] = m  # free and valuable: take every member
            continue
        size = 1
        while m > 0:
            chunks.append((key, min(size, m)))
            m -= size
            size *= 2

    # dp[w, k] = best value within weight w and cost k ("at most"
    # semantics). A cell is overwritten only on a strict improvement,
    # and ``better`` records which cells each chunk improved.
    dp = np.zeros((W + 1, K + 1))
    improved: list[np.ndarray] = []
    for (w, c, v), size in chunks:
        w *= size
        c *= size
        cand = dp[: W + 1 - w, : K + 1 - c] + v * size
        better = cand > dp[w:, c:]
        np.maximum(dp[w:, c:], cand, out=dp[w:, c:])
        improved.append(better)

    w_left, k_left = W, K
    for (key, size), better in zip(reversed(chunks), reversed(improved)):
        w, c = key[0] * size, key[1] * size
        if w <= w_left and c <= k_left and better[w_left - w, k_left - c]:
            taken[key] = taken.get(key, 0) + size
            w_left -= w
            k_left -= c
    return [(classes[key], count) for key, count in taken.items()]


def _plan(
    shapes: Sequence[Item],
    counts: Sequence[int],
    capacity: float,
    quantum: float,
    max_items: Optional[int] = None,
    thread_capacity: Optional[int] = None,
    thread_quantum: int = 4,
) -> list[tuple[list[int], int]]:
    """Quantize per-shape inputs for one solver and run :func:`_solve`.

    The cost dimension is the quantized threads under ``thread_capacity``
    (:func:`knapsack_thread_capped`), else one per item under
    ``max_items`` (:func:`knapsack_cardinality`), else absent
    (:func:`knapsack_1d`). The item bound counts members, not shapes.
    """
    W, weights = _consistent_grid([s.weight for s in shapes], capacity, quantum)
    if thread_capacity is not None:
        K, costs = _consistent_grid(
            [float(s.threads) for s in shapes],
            float(thread_capacity),
            float(thread_quantum),
        )
    elif max_items is not None:
        K, costs = min(max_items, sum(counts)), [1] * len(shapes)
    else:
        K, costs = 0, [0] * len(shapes)
    return _solve(shapes, counts, W, weights, K, costs)


def _take(
    runs: Sequence,
    levels: list[list[tuple[list[int], int]]],
    key=None,
    limit: Optional[int] = None,
) -> list:
    """The members :func:`_solve` chose, given each raw shape's run.

    Every run is in FIFO order; a class gives its FIFO-earliest members
    across its raw shapes' runs, merged by ``key``. ``levels`` splits
    the solve's classes into priority levels: with a ``limit``, earlier
    levels fill it first and, within a level, FIFO-earlier members win.
    Each level comes out in FIFO order.
    """
    chosen: list = []
    for taken in levels:
        classes = [
            islice(
                runs[positions[0]]
                if len(positions) == 1
                else heapq.merge(*(runs[p] for p in positions), key=key),
                count,
            )
            for positions, count in taken
        ]
        room = None if limit is None else limit - len(chosen)
        chosen.extend(islice(heapq.merge(*classes, key=key), room))
    return chosen


def _pack_items(
    items: Sequence[Item], capacity: float, quantum: float, **bounds
) -> PackResult:
    runs = list(_shape_groups(items).values())
    taken = _plan(
        [items[run[0]] for run in runs],
        [len(run) for run in runs],
        capacity,
        quantum,
        **bounds,
    )
    return _result(items, _take(runs, [taken]))


# -- public solvers -----------------------------------------------------------


def knapsack_1d(
    items: Sequence[Item],
    capacity: float,
    quantum: float = DEFAULT_QUANTUM_MB,
) -> PackResult:
    """The paper's DP: maximize total value within the memory capacity.

    O(chunks * w) time and memory with w = capacity / quantum, where
    chunks depends on the distinct quantized shapes, not on len(items).
    """
    _validate(capacity, quantum)
    return _pack_items(items, capacity, quantum)


def knapsack_cardinality(
    items: Sequence[Item],
    capacity: float,
    max_items: int,
    quantum: float = DEFAULT_QUANTUM_MB,
) -> PackResult:
    """Memory-capacity DP with a hard bound on the number of items.

    The extra dimension models the host-slot limit: a node can only run
    as many concurrent jobs as it has free Condor slots.
    """
    _validate(capacity, quantum)
    if max_items < 0:
        raise ValueError("max_items must be non-negative")
    return _pack_items(items, capacity, quantum, max_items=max_items)


def knapsack_thread_capped(
    items: Sequence[Item],
    capacity: float,
    thread_capacity: int,
    quantum: float = DEFAULT_QUANTUM_MB,
    thread_quantum: int = 4,
) -> PackResult:
    """Memory x thread DP: packings exceeding the thread budget are
    infeasible (the literal reading of the paper's zero-value rule)."""
    _validate(capacity, quantum)
    if thread_capacity <= 0:
        raise ValueError("thread_capacity must be positive")
    if thread_quantum <= 0:
        raise ValueError("thread_quantum must be positive")
    return _pack_items(
        items,
        capacity,
        quantum,
        thread_capacity=thread_capacity,
        thread_quantum=thread_quantum,
    )


def brute_force(
    items: Sequence[Item],
    capacity: float,
    max_items: Optional[int] = None,
    thread_capacity: Optional[int] = None,
    fit_tolerance: float = 0.0,
) -> PackResult:
    """Exhaustive reference solver (exact weights, no quantization).

    Exponential — for tests on small instances only. ``fit_tolerance``
    admits sets overweight by at most that much: when weights are
    ``k * quantum`` floats, an exact-fit set's sum can exceed capacity
    by an ulp that the grid-exact DPs (correctly) never see.
    """
    n = len(items)
    if n > 20:
        raise ValueError("brute_force is limited to 20 items")
    best: Optional[PackResult] = None
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        weight = sum(items[i].weight for i in chosen)
        if weight > capacity + fit_tolerance:
            continue
        if max_items is not None and len(chosen) > max_items:
            continue
        threads = sum(items[i].threads for i in chosen)
        if thread_capacity is not None and threads > thread_capacity:
            continue
        value = sum(items[i].value for i in chosen)
        if best is None or value > best.total_value + _TIE_EPS:
            best = PackResult(tuple(chosen), value, weight, threads)
    assert best is not None  # the empty set is always feasible
    return best


def _validate(capacity: float, quantum: float) -> None:
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if quantum <= 0:
        raise ValueError("quantum must be positive")
