"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against different machinery than the
implementation under test: adjacency comes from direct vertex-set overlap
instead of the unsigned boundary Gram matrix, evolution from dense matrix
powers instead of the batched degree-class kernel, components from union-find
instead of a traversal of the sparse adjacency, and modularity from a dense
modularity matrix instead of per-community counts.
"""

import itertools

import numpy as np


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in out.values()]


def lower_adjacent(a, b):
    """Distinct n-simplices sharing n vertices share a common (n-1)-face."""
    return a != b and len(set(a) & set(b)) == len(a) - 1


def upper_adjacent(K, a, b):
    union = tuple(sorted(set(a) | set(b)))
    return a != b and len(union) == len(a) + 1 and union in K


def down_components(K, n):
    """Lower-connected components by pairwise enumeration + union-find."""
    simplices = K.simplices(n)
    uf = UnionFind(simplices)
    for a, b in itertools.combinations(simplices, 2):
        if lower_adjacent(a, b):
            uf.union(a, b)
    return {frozenset(g) for g in uf.groups()}


def up_components(K, n):
    simplices = K.simplices(n)
    uf = UnionFind(simplices)
    for a, b in itertools.combinations(simplices, 2):
        if upper_adjacent(K, a, b):
            uf.union(a, b)
    return {frozenset(g) for g in uf.groups()}


def graph_component_count(edges):
    vertices = {v for e in edges for v in e}
    uf = UnionFind(vertices)
    for u, v in edges:
        uf.union(u, v)
    return len(uf.groups())


def pairwise_lower_neighbors(K, n, simplex):
    return {t for t in K.simplices(n) if lower_adjacent(simplex, t)}


def cofaces_containing(K, simplex):
    n = len(simplex) - 1
    return [c for c in K.simplices(n + 1) if set(simplex) <= set(c)]


def transition_weights_dense(walk, source, t):
    """Degree-normalized transition weights at time t from dense U**t."""
    space = walk.space
    u_t = np.linalg.matrix_power(walk.step.toarray(), t)
    squared = np.abs(u_t) ** 2
    bx = space.block(tuple(source))
    out = {}
    for target in space.active:
        by = space.block(target)
        total = squared[by, bx].sum()
        out[target] = total / ((bx.stop - bx.start) * (by.stop - by.start))
    return out


def finite_average_dense(walk, source, time_steps):
    """Average of the dense-power transition weights over 1..time_steps."""
    acc = {target: 0.0 for target in walk.space.active}
    for t in range(1, time_steps + 1):
        weights = transition_weights_dense(walk, source, t)
        for target, w in weights.items():
            acc[target] += w
    return {target: w / time_steps for target, w in acc.items()}


def modularity_dense(K, n, communities):
    """Per-community modularity ``diag(W.T @ M @ W) / m``, where ``M`` is the
    dense pairwise lower adjacency minus the degree-product baseline and
    ``W`` the 0/1 membership matrix."""
    simplices = K.simplices(n)
    adjacency = np.array(
        [[lower_adjacent(a, b) for b in simplices] for a in simplices], dtype=float
    )
    counts = adjacency.sum(axis=1)
    m = counts.sum()
    index = {s: i for i, s in enumerate(simplices)}
    w = np.zeros((len(simplices), len(communities)))
    for c, members in enumerate(communities):
        for s in members:
            w[index[tuple(s)], c] = 1.0
    modularity_matrix = adjacency - np.outer(counts, counts) / m
    return np.diag(w.T @ modularity_matrix @ w) / m
