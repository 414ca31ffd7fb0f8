"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against different machinery than the
implementation under test: cliques come from testing every vertex subset
instead of extending sorted rows by neighbour lists, adjacency from direct
vertex-set overlap or from the off-diagonal support of the unsigned boundary
Gram matrix, a scipy product, instead of the library's own numpy product of
its face-rank arrays, evolution from dense matrix powers instead of the
batched degree-class kernel, components from union-find instead of root
hooking over the CSR adjacency arrays, modularity from a dense modularity
matrix instead of per-community counts, Hodge Laplacians from dense boundary
matrices built by face enumeration instead of that numpy product, and the
spectrum of the step operator from a dense complex Schur form with per-seed
group projectors instead of a real symmetric ``eigh`` in the reverse-arc
basis with one all-seed product, the reverse-arc operator from sparse
products with the step matrix instead of coin entries placed on pairs of
reverse-arc columns, phase groups by a walk over the sorted phases instead
of one cut of their gaps, recruitment by a test of one candidate at a
time instead of one mask over the weight array, edge lists by a loop over
their lines instead of one pass over the bytes of the whole text, and
partitions by sets of simplex tuples instead of a rank search per community.
"""

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from simqwalk import (
    CommunityPartition,
    InvalidEdgeError,
    InvalidParameterError,
    build_walk_space,
    finite_time_average,
    long_time_average_spectral,
    step_operator,
    unitary_spectrum,
)


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


def parse_edge_lines(lines):
    """Parse edge-list text: one edge per line, two whitespace-separated
    positive integers; blank lines and lines starting with '#' are ignored."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidEdgeError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidEdgeError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 1 or v < 1:
            raise InvalidEdgeError(f"line {lineno}: vertex ids must be >= 1")
        if u == v:
            raise InvalidEdgeError(f"line {lineno}: self-loop at vertex {u}")
        out.append((u, v))
    return out


def cliques_brute_force(edges, max_dim):
    """Every vertex subset of at most ``max_dim + 1`` vertices whose pairs are
    all edges, by dimension, each one ascending and in lexicographic order;
    dimensions without a clique are left out."""
    adjacent = {frozenset(e) for e in edges}
    vertices = sorted({v for e in edges for v in e})
    out = {}
    for size in range(1, max_dim + 2):
        found = [
            c for c in itertools.combinations(vertices, size)
            if all(frozenset(p) in adjacent for p in itertools.combinations(c, 2))
        ]
        if found:
            out[size - 1] = found
    return out


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


def component_labels(K, n, flavor):
    """Each n-simplex labelled with the position of its component's first
    simplex, by union-find over the simplices that share an (n-1)-face
    (``"lower"``) or lie in one (n+1)-simplex (``"upper"``)."""
    simplices = K.simplices(n)
    uf = UnionFind(range(len(simplices)))
    if flavor == "lower":
        by_face = {}
        for i, s in enumerate(simplices):
            for face in itertools.combinations(s, n):
                uf.union(by_face.setdefault(face, i), i)
    else:
        position = {s: i for i, s in enumerate(simplices)}
        for coface in K.simplices(n + 1):
            first, *rest = (position[s] for s in itertools.combinations(coface, n + 1))
            for i in rest:
                uf.union(first, i)
    first = {}
    return np.array([first.setdefault(uf.find(i), i) for i in range(len(simplices))], dtype=np.int64)


def graph_component_count(edges):
    vertices = {v for e in edges for v in e}
    uf = UnionFind(vertices)
    for u, v in edges:
        uf.union(u, v)
    return len(uf.groups())


def pairwise_lower_neighbors(K, n, simplex):
    return {t for t in K.simplices(n) if lower_adjacent(simplex, t)}


def adjacency_gram(K, n, flavor):
    """``K.adjacency(n, flavor)`` as the off-diagonal support of a sparse Gram
    matrix: ``|B_n|.T @ |B_n|`` (lower) or ``|B_{n+1}| @ |B_{n+1}|.T``
    (upper, no entries at ``n = max_dim``), CSR with sorted indices."""
    if flavor == "lower":
        incidence = abs(K.boundary_matrix(n)).T
    elif n < K.max_dim:
        incidence = abs(K.boundary_matrix(n + 1))
    else:
        incidence = sp.csr_matrix((K.num_simplices(n), 0), dtype=np.int64)
    gram = incidence @ incidence.T
    adjacency = (sp.triu(gram, 1) + sp.tril(gram, -1)).tocsr()
    adjacency.sort_indices()
    return adjacency


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
    """Average of the transition weights over 1..time_steps, from the
    source's columns of U**t, one dense product of U per step."""
    space = walk.space
    u = walk.step.toarray()
    bx = space.block(tuple(source))
    columns, mass = u[:, bx], np.zeros(space.m)
    for _ in range(time_steps):
        mass += (np.abs(columns) ** 2).sum(axis=1)
        columns = u @ columns
    return {
        target: mass[space.block(target)].sum() / ((bx.stop - bx.start) * space.degree(target) * time_steps)
        for target in space.active
    }


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


def partition_labels(K, n, communities):
    """The community of every n-simplex, by position, from sets of simplex
    tuples; raises InvalidParameterError for an empty or shared community
    (through CommunityPartition) or a partition that does not cover the
    n-simplices exactly."""
    part = CommunityPartition(n=n, communities=tuple(tuple(sorted(map(tuple, c))) for c in communities))
    covered = {s for com in part.communities for s in com}
    expected = set(K.simplices(n))
    if covered != expected:
        raise InvalidParameterError(
            "partition does not cover the n-simplices exactly "
            f"(missing {len(expected - covered)}, extraneous {len(covered - expected)})"
        )
    labels = part.labels
    return [labels[s] for s in K.simplices(n)]


def boundary_dense(K, n):
    """Dense signed B_n: dropping vertex k of a simplex gives a face with sign (-1)**k."""
    row = {face: i for i, face in enumerate(K.simplices(n - 1))}
    columns = K.simplices(n)
    b = np.zeros((len(row), len(columns)), dtype=np.int64)
    for j, simplex in enumerate(columns):
        for k in range(len(simplex)):
            face = tuple(v for i, v in enumerate(simplex) if i != k)
            b[row[face], j] = (-1) ** k
    return b


def laplacian_dense(K, n):
    """Dense int64 ``(up, down, total)`` Hodge Laplacians of the n-simplices,
    as Gram products of :func:`boundary_dense`; ``down`` is zero at n = 0.
    The products run in float64, which holds these small integer sums
    exactly and takes a BLAS product instead of numpy's integer loop."""
    b_up = boundary_dense(K, n + 1).astype(np.float64)
    up = (b_up @ b_up.T).astype(np.int64)
    if n == 0:
        down = np.zeros_like(up)
    else:
        b = boundary_dense(K, n).astype(np.float64)
        down = (b.T @ b).astype(np.int64)
    return up, down, up + down


def group_phases(phases, tol):
    """Indices of ``phases`` in [0, 2*pi), grouped as numerically equal: a
    sorted phase joins the current group while its gap to the previous one
    is at most ``tol``; when the first group's lowest phase is within ``tol``
    of the last group's highest across 2*pi, the last group is merged in
    front of the first."""
    order = np.argsort(phases)
    groups = []
    for k in order:
        if groups and phases[k] - phases[groups[-1][-1]] <= tol:
            groups[-1].append(int(k))
        else:
            groups.append([int(k)])
    if len(groups) > 1 and phases[groups[0][0]] + 2 * np.pi - phases[groups[-1][-1]] <= tol:
        groups[0] = groups.pop() + groups[0]
    return tuple(tuple(g) for g in groups)


def reverse_arc_operator(walk, pairs):
    """``W^dagger U W`` as a sparse product with the sparse step, W's columns
    ``(e_a + e_b)/sqrt(2)`` and ``i(e_a - e_b)/sqrt(2)`` for each arc pair
    (a, b) of ``pairs``."""
    m = walk.space.m
    columns = (np.tile(pairs.T, 2).ravel(), np.repeat(np.arange(m), 2))
    w = sp.csr_matrix((np.tile([1, 1, 1j, -1j], m // 2) / np.sqrt(2), columns), (m, m))
    return (w.conj().T @ walk.step @ w).tocsr()


def unitary_spectrum_schur(walk, phase_tol=1e-8):
    """``(phases, vectors, groups)`` of the step operator from its complex
    Schur form: a unitary matrix is normal, so the form is diagonal and the
    Schur vectors are orthonormal eigenvectors."""
    triangular, vectors = scipy.linalg.schur(walk.step.toarray(), output="complex")
    diag = np.diag(triangular)
    assert np.abs(triangular - np.diag(diag)).max() <= 1e-8, "step operator is not normal"
    phases = np.mod(np.angle(diag), 2 * np.pi)
    return phases, vectors, group_phases(phases, phase_tol)


def projector_weights(walk, source, vectors, groups):
    """Infinite-time weights from ``source`` to every active simplex, in
    ``walk.space.active`` order: ``|<target arc| P_g |source arc>|**2``
    summed over groups and arcs, one projector per group."""
    space = walk.space
    blk = space.block(tuple(source))
    acc = np.zeros(len(space.active))
    for group in groups:
        basis = vectors[:, list(group)]
        projected = basis @ basis.conj().T[:, blk]  # columns P_g |source -> v>
        acc += np.add.reduceat((np.abs(projected) ** 2).sum(axis=1), space.indptr[:-1])
    return acc / ((blk.stop - blk.start) * space.degrees)


def recruit_reference(K, n, method, time_steps, threshold):
    """Detected communities of n-simplices, grown one candidate at a time.

    Seeds go by descending degree, ties in canonical order; each unassigned
    candidate joins the seed when its weight, read as ``table[candidate]``,
    beats ``1/m`` by more than the error band, or (``geq``) stays within it.
    Isolated simplices follow as singletons."""
    space = build_walk_space(K, n)
    walk = step_operator(space)
    spectrum = unitary_spectrum(walk) if method == "spectral" and space.m else None
    unassigned = dict.fromkeys(space.active)  # an ordered set, canonical order
    communities = []
    for seed in sorted(space.active, key=lambda s: -space.degree(s)):
        if seed not in unassigned:
            continue
        del unassigned[seed]
        if method == "finite":
            table = finite_time_average(walk, seed, time_steps)
        else:
            table = long_time_average_spectral(walk, seed, spectrum)
        members = [seed]
        for candidate in list(unassigned):
            excess = table[candidate] - 1.0 / space.m
            band = 2 * table.error * (1 / space.degree(seed) + 1 / space.degree(candidate))
            if excess > band or (threshold == "geq" and excess >= -band):
                members.append(candidate)
                del unassigned[candidate]
        communities.append(tuple(sorted(members)))
    return tuple(communities) + tuple((s,) for s in space.isolated)
