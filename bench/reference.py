"""Independent reference computations used to check simqwalk's outputs.

Nothing here imports simqwalk: the clique enumeration, lower adjacency,
modularity and component count are written from their definitions so that a
defect in the library cannot hide itself by also corrupting the check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class LowerAdjacency:
    """Ordered lower-adjacent pairs among one dimension's simplices."""

    degree: dict[tuple[int, ...], int]
    buckets: tuple[tuple[tuple[int, ...], ...], ...]  # simplices sharing one face

    @property
    def arcs(self) -> int:
        return sum(self.degree.values())

    @property
    def step_nnz(self) -> int:
        """Nonzeros of the coined step operator: one d x d block per simplex."""
        return sum(d * d for d in self.degree.values())


def cliques(edges, max_dim: int) -> dict[int, set[tuple[int, ...]]]:
    """Every clique with at most ``max_dim + 1`` vertices, by dimension."""
    nbrs: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    by_dim = {0: {(v,) for v in nbrs}}
    for n in range(1, max_dim + 1):
        grown = {
            s + (w,)
            for s in by_dim[n - 1]
            for w in nbrs[s[-1]]
            if w > s[-1] and all(w in nbrs[v] for v in s)
        }
        if not grown:
            break
        by_dim[n] = grown
    return by_dim


def lower_adjacency(simplices) -> LowerAdjacency:
    """Group simplices by their codimension-1 faces (two distinct simplices
    share at most one such face, so every pair is counted once)."""
    by_face: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for s in simplices:
        for k in range(len(s)):
            by_face[s[:k] + s[k + 1 :]].append(s)
    degree = {s: 0 for s in simplices}
    buckets = []
    for members in by_face.values():
        if len(members) > 1:
            buckets.append(tuple(members))
            for s in members:
                degree[s] += len(members) - 1
    return LowerAdjacency(degree=degree, buckets=tuple(buckets))


def modularity(adj: LowerAdjacency, label: dict[tuple[int, ...], int]) -> float:
    """Q = sum_c (e_c - D_c**2 / m) / m from per-community aggregates, with
    e_c the ordered lower-adjacent pairs inside c and D_c its degree sum."""
    m = adj.arcs
    inside: dict[int, int] = defaultdict(int)
    for members in adj.buckets:
        per_label: dict[int, int] = defaultdict(int)
        for s in members:
            per_label[label[s]] += 1
        for c, k in per_label.items():
            inside[c] += k * (k - 1)
    degree_sum: dict[int, int] = defaultdict(int)
    for s, d in adj.degree.items():
        degree_sum[label[s]] += d
    return sum(inside[c] - degree_sum[c] ** 2 / m for c in degree_sum) / m


def component_count(vertices, edges) -> int:
    """Connected components by union-find."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    return len({root(v) for v in vertices})


def laplacian_trace(counts: dict[int, int], n: int) -> int:
    """Trace of the total Hodge Laplacian at dimension n.

    Every column of the boundary matrix B_k holds k + 1 entries of +-1, so
    tr(B_n^T B_n) = (n + 1) N_n and tr(B_{n+1} B_{n+1}^T) = (n + 2) N_{n+1}.
    """
    down = (n + 1) * counts.get(n, 0) if n >= 1 else 0
    return down + (n + 2) * counts.get(n + 1, 0)
