"""Connected-cluster enumeration and minimal connected supersets.

Supports the locality diagnostics: which vertex sets can carry a nonzero
coefficient at a given order, and how many such sets a bounded-degree
graph admits.
"""

from __future__ import annotations

from collections import deque

from .errors import DanglingVertexId, Disconnected, EmptySet
from .setalg import vertex_set

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


def connected_size(graph, members):
    """Number of vertices in a smallest connected subgraph containing the set.

    Exact Steiner-tree size by dynamic programming over terminal subsets;
    intended for small terminal sets.  Raises Disconnected when the members
    do not share a component.
    """
    ms = vertex_set(members)
    if not ms:
        raise EmptySet("connected size needs a nonempty vertex set")
    for w in ms:
        if not (0 <= w < graph.n):
            raise DanglingVertexId(f"vertex {w} outside 0..{graph.n - 1}")
    if len(ms) == 1:
        return 1
    dist0 = distances(graph, [ms[0]])
    if any(dist0[w] == _INF for w in ms):
        raise Disconnected(f"vertices {list(ms)} are not in one connected component")
    component = [w for w in range(graph.n) if dist0[w] != _INF]
    dist = {u: distances(graph, [u]) for u in component}
    anchor = ms[0]
    terminals = ms[1:]
    m = len(terminals)
    full = (1 << m) - 1
    best = [None] * (1 << m)
    for i, t in enumerate(terminals):
        best[1 << i] = list(dist[t])
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        cur = [_INF] * graph.n
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                other = best[mask ^ sub]
                mine = best[sub]
                for w in component:
                    c = mine[w] + other[w]
                    if c < cur[w]:
                        cur[w] = c
            sub = (sub - 1) & mask
        # connect the merged trees through intermediate vertices
        for w in component:
            dw = dist[w]
            base = cur[w]
            if base == _INF:
                continue
            for x in component:
                c = base + dw[x]
                if c < cur[x]:
                    cur[x] = c
        best[mask] = cur
    return int(best[full][anchor]) + 1
