"""The original naive Wing-Gong search, kept as a reference oracle.

:mod:`repro.analysis.fastlin` is the repo's linearizability checker.
:func:`legacy_check_history` is the seed implementation it was
rewritten from: the executable reference the ``test_fastlin``
differential tests check the rewrite against, and the baseline
``benchmarks/bench_b10_lin_throughput.py`` measures the speedup from
(its CI gate asserts fastlin is never slower).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Set, Tuple

from repro.analysis.fastlin import PENDING, LinearizationResult, SeqSpec
from repro.sim.history import OperationRecord


def legacy_check_history(
    operations: Sequence[OperationRecord],
    spec: SeqSpec,
    max_nodes: int = 2_000_000,
) -> LinearizationResult:
    """The original naive Wing-Gong search, kept as a reference oracle.

    O(n^2) pairwise ``precedes`` precomputation, full eligibility
    rescans, ``order + [i]`` list copies and frozenset-keyed
    memoisation -- exactly the seed implementation.  The fastlin
    property tests cross-check the rewrite against this function, and
    ``bench_b10`` measures the rewrite's speedup relative to it.
    Partitioning hooks on ``spec`` are ignored (the global ``apply``
    is used), which is what makes differential runs meaningful.
    """
    ops = list(operations)
    n = len(ops)
    if n == 0:
        return LinearizationResult(True, [])
    preds: List[Set[int]] = [set() for _ in range(n)]
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.precedes(b):
                preds[j].add(i)
    complete = [i for i, op in enumerate(ops) if op.is_complete]
    explored = 0
    seen: Set[Tuple[frozenset, Any]] = set()

    def eligible(done: Set[int]) -> List[int]:
        return [
            i
            for i in range(n)
            if i not in done and preds[i] <= done
        ]

    stack: List[Tuple[frozenset, Any, List[int]]] = []
    seen.add((frozenset(), spec.initial))
    stack.append((frozenset(), spec.initial, []))
    while stack:
        done, state, order = stack.pop()
        explored += 1
        if explored > max_nodes:
            raise RuntimeError(
                f"linearizability search exceeded {max_nodes} "
                "nodes; reduce history size"
            )
        if all(i in done for i in complete):
            return LinearizationResult(
                True, [ops[i] for i in order], explored
            )
        for i in eligible(set(done)):
            op = ops[i]
            result = op.result if op.is_complete else PENDING
            new_state = spec.apply(state, op.name, op.args, result)
            if new_state is None:
                continue
            new_done = done | {i}
            key = (new_done, new_state)
            if key in seen:
                continue
            seen.add(key)
            stack.append((new_done, new_state, order + [i]))
    return LinearizationResult(False, None, explored)
