"""DAG-shaped event chains: fork/join topologies with per-sink deadlines.

The paper's system model (Sec. III) assumes a *linear* chain of
segments.  Real autonomous stacks are DAGs: a fusion stage joins several
sensor branches, and its output forks to consumers with different
deadlines ("Multi-Deadline DAG Scheduling Model for Autonomous Driving
Systems", PAPERS.md).  A DAG is the set of its root->sink *paths*, each
exactly a linear :class:`EventChain` carrying its own sink's ``B_e2e``:
:func:`path_chains` checks the edge list and returns them.  Every
linear-chain mechanism then applies per path.  Budgeting a DAG is
:func:`~repro.budgeting.multichain.solve_joint` over one
``BudgetingProblem`` per path chain, and the perception stack's fusion
DAG runs as its four root->sink chains.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.chains import ChainValidationError, EventChain
from repro.core.segments import Segment
from repro.core.weakly_hard import MKConstraint

#: Separator used to render a path id from its segment names.
PATH_SEP = ">"

#: Safety cap on path enumeration -- a DAG whose path count explodes is
#: a modelling error, not a monitoring workload.
MAX_PATHS = 256


def path_chains(
    name: str,
    segments: Sequence[Segment],
    edges: Sequence[Tuple[str, str]],
    period: int,
    budget_e2e: Mapping[str, int],
    mk: MKConstraint,
) -> Dict[str, EventChain]:
    """Every root->sink path of a DAG as a linear chain, keyed by path id.

    *edges* are ``(predecessor, successor)`` segment-name pairs; every
    edge must be gap-free (the predecessor's end event is the
    successor's start event), the paper's soundness requirement applied
    per edge.  *budget_e2e* maps each sink to its end-to-end budget;
    every path shares the period (its ``B_seg``) and *mk*.  A path id
    joins the path's segment names with :data:`PATH_SEP`; paths come in
    registration order of their roots, then of the edges.
    """
    by_name: Dict[str, Segment] = {}
    for segment in segments:
        if segment.name in by_name:
            raise ChainValidationError(
                f"{name}: duplicate segment {segment.name!r}"
            )
        by_name[segment.name] = segment
    if not by_name:
        raise ChainValidationError(f"{name}: DAG needs >= 1 segment")

    succ: Dict[str, List[str]] = {s: [] for s in by_name}
    indegree = dict.fromkeys(by_name, 0)
    for src, dst in edges:
        if src not in by_name or dst not in by_name:
            raise ChainValidationError(
                f"{name}: edge ({src!r}, {dst!r}) references an "
                f"unknown segment"
            )
        if src == dst:
            raise ChainValidationError(f"{name}: self-loop on {src!r}")
        if dst in succ[src]:
            raise ChainValidationError(
                f"{name}: duplicate edge ({src!r}, {dst!r})"
            )
        a, b = by_name[src], by_name[dst]
        if a.end != b.start:
            raise ChainValidationError(
                f"{name}: unmonitored gap on edge {src} -> {dst} "
                f"({src} ends {a.end}, {dst} starts {b.start})"
            )
        succ[src].append(dst)
        indegree[dst] += 1

    roots = [s for s, d in indegree.items() if d == 0]
    queue, visited = list(roots), 0
    while queue:
        node = queue.pop()
        visited += 1
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if visited != len(by_name):
        raise ChainValidationError(f"{name}: DAG contains a cycle")

    sinks = [s for s in by_name if not succ[s]]
    missing = [s for s in sinks if s not in budget_e2e]
    if missing:
        raise ChainValidationError(
            f"{name}: no end-to-end budget for sink(s) {missing}"
        )
    # A misspelled sink key would otherwise be dropped silently.
    stray = [key for key in budget_e2e if key not in succ or succ[key]]
    if stray:
        raise ChainValidationError(
            f"{name}: budget_e2e key(s) {stray} name no sink (sinks: {sinks})"
        )

    chains: Dict[str, EventChain] = {}

    def walk(node: str, prefix: List[str]) -> None:
        prefix.append(node)
        if not succ[node]:
            if len(chains) >= MAX_PATHS:
                raise ChainValidationError(
                    f"{name}: more than {MAX_PATHS} root->sink paths"
                )
            path_id = PATH_SEP.join(prefix)
            chains[path_id] = EventChain(
                name=f"{name}:{path_id}",
                segments=[by_name[s] for s in prefix],
                period=period,
                budget_e2e=budget_e2e[node],
                mk=mk,
            )
        for nxt in succ[node]:
            walk(nxt, prefix)
        prefix.pop()

    for root in roots:
        walk(root, [])
    return chains
