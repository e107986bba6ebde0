"""Dependency-graph formation and decomposition (phases 1-2 of Algorithm 1).

Two jobs *conflict* if their ideal executions — each starting at its ideal
start time ``T_i * j + delta_i`` and lasting ``C_i`` — overlap on the shared
I/O device.  The dependency graphs are the connected components of the
conflict graph (Figure 2 of the paper).

Graph decomposition repeatedly removes (sacrifices) the job with the highest
penalty weight ``psi_i^j`` — its degree, i.e. the number of jobs whose exact
timing accuracy it would destroy — breaking ties towards the lowest-priority
job, until no conflicts remain.  The surviving jobs can all be executed
exactly at their ideal start times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.core.task import IOJob


@dataclass
class DependencyGraphs:
    """The conflict graph of a job set together with its connected components."""

    graph: nx.Graph
    jobs: List[IOJob]

    @property
    def components(self) -> List[Set[Tuple[str, int]]]:
        """Connected components, each a set of job keys."""
        return [set(component) for component in nx.connected_components(self.graph)]

    def penalty_weight(self, job: IOJob) -> int:
        """Penalty weight ``psi`` of a job: its degree in the conflict graph."""
        return int(self.graph.degree(job.key))


def build_dependency_graphs(jobs: Sequence[IOJob]) -> DependencyGraphs:
    """Phase 1 of Algorithm 1: build the conflict graph of the ideal executions.

    Nodes are jobs; an edge links two jobs whose ideal executions overlap.
    Connected components correspond to the dependency graphs ``G_1 … G_n`` of
    the paper.
    """
    graph = nx.Graph()
    ordered = sorted(jobs, key=lambda j: (j.ideal_start, j.key))
    for job in ordered:
        graph.add_node(job.key, job=job)
    # Sweep over jobs ordered by ideal start: only nearby jobs can overlap, so
    # the inner loop stops as soon as the next job starts after the current
    # job's ideal finish.
    for i, job in enumerate(ordered):
        ideal_finish = job.ideal_start + job.wcet
        for other in ordered[i + 1:]:
            if other.ideal_start >= ideal_finish:
                break
            graph.add_edge(job.key, other.key)
    return DependencyGraphs(graph=graph, jobs=list(ordered))


def decompose_graphs(graphs: DependencyGraphs) -> Tuple[List[IOJob], List[IOJob]]:
    """Phase 2 of Algorithm 1: sacrifice high-penalty jobs until no conflicts remain.

    Returns ``(kept, sacrificed)``:

    * ``kept`` (the paper's ``lambda*``) — jobs that will execute exactly at
      their ideal start times;
    * ``sacrificed`` (the paper's ``lambda¬``) — jobs removed from the graphs,
      to be re-allocated into free slots by LCC-D.

    Within each component the job with the highest penalty weight (degree) is
    removed first; ties are broken towards the lowest priority (the paper notes
    a lower-priority job has a wider release window, hence more free slots for
    re-allocation), then towards the later ideal start for determinism.

    The selection loop runs on arrays over the graph's nodes: each round
    picks the victim by ``argmax`` of ``degree * n + tie_rank``, where the
    static ``tie_rank`` ranks the nodes by (-priority, ideal start, key).
    Keys are unique, so the victim is the node with the largest (degree,
    -priority, ideal start, key).
    """
    keys = list(graphs.graph.nodes)
    jobs = [graphs.graph.nodes[key]["job"] for key in keys]
    n = len(keys)
    position = {key: i for i, key in enumerate(keys)}
    neighbours = [
        np.array([position[other] for other in graphs.graph[key]], dtype=np.int64)
        for key in keys
    ]
    by_preference = sorted(
        range(n), key=lambda i: (-jobs[i].priority, jobs[i].ideal_start, keys[i])
    )
    tie_rank = np.empty(n, dtype=np.int64)
    tie_rank[by_preference] = np.arange(n)
    degree = np.array([len(adjacent) for adjacent in neighbours], dtype=np.int64)
    score = degree * n + tie_rank
    alive = np.ones(n, dtype=bool)
    edges_remaining = int(degree.sum()) // 2

    sacrificed: List[int] = []
    while edges_remaining:
        victim = int(score.argmax())
        alive[victim] = False
        score[victim] = -1
        adjacent = neighbours[victim]
        adjacent = adjacent[alive[adjacent]]
        score[adjacent] -= n
        edges_remaining -= adjacent.size
        sacrificed.append(victim)

    kept = sorted(
        (jobs[i] for i in np.flatnonzero(alive)),
        key=lambda j: (j.ideal_start, j.key),
    )
    sacrificed.sort(key=tie_rank.__getitem__)
    return kept, [jobs[i] for i in sacrificed]
