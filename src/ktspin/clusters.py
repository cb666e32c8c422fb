"""Connected-cluster enumeration.

Supports the locality diagnostics: which vertex sets can carry a nonzero
coefficient at a given order, and how many such sets a bounded-degree
graph admits.
"""

from __future__ import annotations

from collections import deque

from .errors import DanglingVertexId, EmptySet

_INF = float("inf")


class AdjacencyGraph:
    """Undirected simple adjacency view of a model's interaction graph."""

    __slots__ = ("n", "neighbors")

    def __init__(self, n, edges):
        self.n = n
        sets = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DanglingVertexId(f"edge endpoint in ({u}, {v}) outside 0..{n - 1}")
            if u != v:
                sets[u].add(v)
                sets[v].add(u)
        self.neighbors = tuple(tuple(sorted(s)) for s in sets)

    @classmethod
    def from_model(cls, model):
        return cls(model.n, [(e.u, e.v) for e in model.edges])

    def degree(self):
        """Largest simple degree (parallel edges collapsed)."""
        return max((len(nb) for nb in self.neighbors), default=0)


def distances(graph, sources):
    """Breadth-first hop distance from a set of source vertices; inf if unreachable."""
    dist = [_INF] * graph.n
    queue = deque()
    for s in sources:
        if not (0 <= s < graph.n):
            raise DanglingVertexId(f"source vertex {s} outside 0..{graph.n - 1}")
        if dist[s] == _INF:
            dist[s] = 0
            queue.append(s)
    while queue:
        w = queue.popleft()
        for x in graph.neighbors[w]:
            if dist[x] == _INF:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


def enumerate_clusters(graph, root, size):
    """All connected vertex sets of the given size containing the root.

    Each set is produced exactly once; the result is sorted
    lexicographically.  Grows sets one neighbor at a time, banning each
    branched-on candidate from the rest of its level so no set is reached
    twice.
    """
    if not (0 <= root < graph.n):
        raise DanglingVertexId(f"root vertex {root} outside 0..{graph.n - 1}")
    if size < 1:
        raise EmptySet("cluster size must be at least 1")
    results = []
    neighbors = graph.neighbors

    def grow(current, banned):
        if len(current) == size:
            results.append(tuple(sorted(current)))
            return
        ext = sorted(
            {x for w in current for x in neighbors[w]} - current - banned
        )
        for i, w in enumerate(ext):
            grow(current | {w}, banned | set(ext[:i]))

    grow({root}, set())
    results.sort()
    return results


def cluster_count_bound(graph, size):
    """Counting bound (4*degree)^(size-1) for clusters through a fixed vertex."""
    return (4 * graph.degree()) ** (size - 1)
