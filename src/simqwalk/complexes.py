"""Simplicial complexes built from graphs, with boundary and adjacency structure.

A simplex is represented as a tuple of strictly increasing positive vertex
ids; the ascending order is the canonical orientation used by every signed
matrix in the library.  A :class:`SimplicialComplex` stores, per dimension,
the lexicographically sorted list of simplices, and exposes the incidence
(boundary) matrices, upper/lower adjacency, degrees, and lower neighborhoods
that the walk and community layers are built on.

All integer matrices are exact: no floating point enters this module.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateSimplexError,
    InvalidEdgeError,
    InvalidParameterError,
    UnknownSimplexError,
)

Simplex = tuple[int, ...]
Edge = tuple[int, int]

__all__ = [
    "Simplex",
    "Edge",
    "canonical_simplex",
    "faces",
    "SimplicialComplex",
    "clique_complex",
    "read_edge_list",
    "parse_edge_lines",
]


def canonical_simplex(vertices: Iterable[int]) -> Simplex:
    """Return the canonical (ascending) form of a vertex sequence.

    Parameters
    ----------
    vertices : iterable of int
        Positive (1-indexed) vertex ids, in any order.

    Returns
    -------
    tuple of int
        The vertices sorted ascending.  The ascending order doubles as the
        canonical orientation of the simplex.

    Raises
    ------
    InvalidParameterError
        If the sequence is empty or holds a non-positive, non-integral or boolean id.
    DegenerateSimplexError
        If a vertex id repeats.
    """
    vs = tuple(vertices)
    if any(isinstance(v, (bool, np.bool_)) or int(v) != v or v < 1 for v in vs):
        raise InvalidParameterError(f"vertex ids must be integers >= 1, got {vs}")
    vs = tuple(int(v) for v in vs)
    if not vs:
        raise InvalidParameterError("a simplex needs at least one vertex")
    out = tuple(sorted(vs))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DegenerateSimplexError(f"repeated vertex {a} in {vs}")
    return out


def faces(simplex: Sequence[int], k: int) -> list[Simplex]:
    """All k-dimensional faces of a simplex, in lexicographic order.

    Requires ``0 <= k < dim(simplex)``; the result has ``C(dim+1, k+1)``
    entries.
    """
    n = len(simplex) - 1
    if not 0 <= k < n:
        raise InvalidParameterError(f"face dimension {k} invalid for a {n}-simplex")
    return [tuple(c) for c in itertools.combinations(simplex, k + 1)]


class SimplicialComplex:
    """An immutable simplicial complex, closed under taking faces.

    Simplices are grouped by dimension and kept in lexicographic order;
    every matrix produced by this class indexes rows/columns in that order.
    Construct instances with :func:`clique_complex` rather than directly.
    """

    def __init__(self, simplices_by_dim: Mapping[int, Iterable[Simplex]]):
        by_dim: dict[int, tuple[Simplex, ...]] = {}
        for n, group in simplices_by_dim.items():
            items = sorted(set(group))
            if not items:
                continue
            for s in items:
                if len(s) != n + 1:
                    raise InvalidParameterError(f"{s} is not a {n}-simplex")
                if s[0] < 1 or any(a >= b for a, b in zip(s, s[1:])):
                    raise InvalidParameterError(f"{s} is not canonical (ascending, ids >= 1)")
            by_dim[n] = tuple(items)
        if not by_dim:
            raise InvalidParameterError("empty complex")
        self._by_dim = {n: by_dim[n] for n in sorted(by_dim)}
        self._index = {
            s: (n, i)
            for n, group in self._by_dim.items()
            for i, s in enumerate(group)
        }
        self._check_face_closure()
        # lazy caches, keyed by dimension (and flavor)
        self._boundary: dict[int, sp.csc_matrix] = {}
        self._adjacency: dict[tuple[int, str], sp.csr_matrix] = {}
        self._components: dict[tuple[int, str], np.ndarray] = {}
        self._lower_nbrs: dict[int, dict[Simplex, tuple[Simplex, ...]]] = {}

    def _check_face_closure(self) -> None:
        for n, group in self._by_dim.items():
            if n == 0:
                continue
            for s in group:
                for f in faces(s, n - 1):
                    if f not in self._index:
                        raise InvalidParameterError(
                            f"complex not closed under faces: {f} of {s} missing"
                        )

    # -- basic structure ---------------------------------------------------

    @property
    def max_dim(self) -> int:
        """Highest dimension with at least one simplex."""
        return max(self._by_dim)

    @property
    def counts(self) -> dict[int, int]:
        """Number of simplices per dimension."""
        return {n: len(g) for n, g in self._by_dim.items()}

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """The n-simplices in canonical order (empty tuple if none)."""
        return self._by_dim.get(n, ())

    def num_simplices(self, n: int) -> int:
        return len(self._by_dim.get(n, ()))

    def __contains__(self, simplex: Sequence[int]) -> bool:
        return tuple(simplex) in self._index

    def position(self, simplex: Sequence[int]) -> int:
        """Index of a simplex within its dimension's canonical ordering."""
        try:
            return self._index[tuple(simplex)][1]
        except KeyError:
            raise UnknownSimplexError(f"{tuple(simplex)} not in complex") from None

    def _require(self, simplex: Sequence[int], n: int | None = None) -> Simplex:
        s = tuple(simplex)
        if s not in self._index:
            raise UnknownSimplexError(f"{s} not in complex")
        if n is not None and self._index[s][0] != n:
            raise UnknownSimplexError(f"{s} is not a {n}-simplex of the complex")
        return s

    def _require_dim(self, n: int, low: int = 0) -> None:
        if not low <= n <= self.max_dim:
            raise InvalidParameterError(
                f"dimension {n} out of range [{low}, {self.max_dim}]"
            )

    # -- boundary / incidence ----------------------------------------------

    def boundary_matrix(self, n: int) -> sp.csc_matrix:
        """Signed incidence matrix of the boundary map on n-simplices.

        Shape is ``(N_{n-1}, N_n)`` with integer entries; the column of a
        simplex has ``(-1)**k`` at the row of the face obtained by dropping
        its k-th vertex.  Consecutive matrices compose to zero exactly.  Cached.
        """
        self._require_dim(n, low=1)
        if n not in self._boundary:
            rows_of, cols_of = np.array(self._by_dim[n - 1]), np.array(self._by_dim[n])
            # face k of every simplex drops vertex k; its row is its rank
            # among the sorted (n-1)-simplices, all of which are listed once
            faces = np.concatenate([cols_of[:, keep] for keep in ~np.eye(n + 1, dtype=bool)])
            stacked = np.concatenate([rows_of, faces])
            order = np.lexsort(stacked.T[::-1])
            ranked, rank = stacked[order], np.empty(len(stacked), dtype=np.int64)
            rank[order] = np.cumsum(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]) - 1
            signs = np.repeat((-1) ** np.arange(n + 1), len(cols_of))
            entries = (signs, (rank[len(rows_of) :], np.tile(np.arange(len(cols_of)), n + 1)))
            shape = (len(rows_of), len(cols_of))
            self._boundary[n] = sp.csc_matrix(entries, shape=shape, dtype=np.int64)
        return self._boundary[n]

    # -- adjacency ----------------------------------------------------------

    def adjacency(self, n: int, flavor: str) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency among n-simplices, as CSR with sorted indices.

        ``flavor="lower"``: adjacent when they share a common (n-1)-face,
        the off-diagonal support of ``|B_n|.T @ |B_n|``; requires ``n >= 1``.
        ``flavor="upper"``: adjacent when they are faces of a common
        (n+1)-simplex, the off-diagonal support of ``|B_{n+1}| @ |B_{n+1}|.T``
        (no entries when there are no (n+1)-simplices).  Two distinct
        simplices share at most one face and at most one coface, so every
        entry is 0 or 1.  Cached per dimension and flavor.
        """
        if flavor not in ("upper", "lower"):
            raise InvalidParameterError(f"unknown adjacency flavor {flavor!r}")
        self._require_dim(n, low=1 if flavor == "lower" else 0)
        key = (n, flavor)
        if key not in self._adjacency:
            if flavor == "lower":
                incidence = abs(self.boundary_matrix(n)).T
            elif n < self.max_dim:
                incidence = abs(self.boundary_matrix(n + 1))
            else:
                incidence = sp.csr_matrix((len(self._by_dim[n]), 0), dtype=np.int64)
            gram = incidence @ incidence.T
            adjacency = (sp.triu(gram, 1) + sp.tril(gram, -1)).tocsr()
            adjacency.sort_indices()
            self._adjacency[key] = adjacency
        return self._adjacency[key]

    def components(self, n: int, flavor: str) -> np.ndarray:
        """Connected components of ``adjacency(n, flavor)``: every n-simplex is
        labelled with the position of its component's first simplex.  Found by
        traversal of the CSR arrays; cached per dimension and flavor."""
        key = (n, flavor)
        if key not in self._components:
            adjacency = self.adjacency(n, flavor)
            bounds, indices = adjacency.indptr.tolist(), adjacency.indices.tolist()
            labels = [-1] * adjacency.shape[0]
            for root in range(len(labels)):
                if labels[root] < 0:
                    labels[root], stack = root, [root]
                    while stack:
                        i = stack.pop()
                        for j in indices[bounds[i] : bounds[i + 1]]:
                            if labels[j] < 0:
                                labels[j] = root
                                stack.append(j)
            self._components[key] = np.array(labels, dtype=np.int64)
        return self._components[key]

    def lower_neighbors(self, n: int) -> dict[Simplex, tuple[Simplex, ...]]:
        """Lower neighborhood of every n-simplex, as a simplex -> tuple map.

        Two n-simplices are lower-adjacent when they share an (n-1)-face.
        The map covers all n-simplices, neighbors in canonical order; isolated
        ones map to the empty tuple.  A cached view of the lower adjacency.
        """
        self._require_dim(n, low=1)
        if n not in self._lower_nbrs:
            adjacency = self.adjacency(n, "lower")
            group = self._by_dim[n]
            targets = [group[j] for j in adjacency.indices.tolist()]
            bounds = adjacency.indptr.tolist()
            self._lower_nbrs[n] = {
                s: tuple(targets[bounds[i] : bounds[i + 1]]) for i, s in enumerate(group)
            }
        return self._lower_nbrs[n]

    def lower_neighborhood(self, simplex: Sequence[int]) -> set[Simplex]:
        """The set of simplices lower-adjacent to ``simplex`` (may be empty)."""
        s = self._require(simplex)
        n = self._index[s][0]
        if n < 1:
            raise InvalidParameterError("lower adjacency is undefined for vertices")
        return set(self.lower_neighbors(n)[s])

    def arc_count(self, n: int) -> int:
        """Total ordered lower-adjacent pairs at dimension n (m_n)."""
        return self.adjacency(n, "lower").nnz

    # -- degrees -------------------------------------------------------------

    def degree(self, simplex: Sequence[int], flavor: str) -> int:
        """Upper degree (number of cofaces) or lower degree (= dim+1)."""
        s = self._require(simplex)
        n, i = self._index[s]
        if flavor == "upper":
            # each coface adds its n + 1 other n-faces as upper neighbors, and
            # two cofaces share no n-face but ``s``
            bounds = self.adjacency(n, "upper").indptr
            return int(bounds[i + 1] - bounds[i]) // (n + 1)
        if flavor == "lower":
            if n < 1:
                raise InvalidParameterError("lower degree is undefined for vertices")
            return n + 1
        raise InvalidParameterError(f"unknown degree flavor {flavor!r}")

    def __repr__(self) -> str:
        counts = ", ".join(f"N_{n}={len(g)}" for n, g in self._by_dim.items())
        return f"SimplicialComplex({counts})"


# -- construction -------------------------------------------------------------


def _bounded_cliques(
    neighbors: dict[int, set[int]], max_size: int
) -> Iterable[Simplex]:
    """Every clique of the graph with at most ``max_size`` vertices.

    Cliques are grown in ascending vertex order, so each one is produced
    exactly once, already sorted.
    """

    def extend(clique: Simplex, candidates: list[int]) -> Iterable[Simplex]:
        yield clique
        if len(clique) == max_size:
            return
        for i, v in enumerate(candidates):
            narrowed = [u for u in candidates[i + 1 :] if u in neighbors[v]]
            yield from extend(clique + (v,), narrowed)

    vertices = sorted(neighbors)
    for i, v in enumerate(vertices):
        cand = [u for u in vertices[i + 1 :] if u in neighbors[v]]
        yield from extend((v,), cand)


def clique_complex(edges: Iterable[Sequence[int]], max_dim: int = 4) -> SimplicialComplex:
    """Build the clique complex of a graph given as an edge list.

    Every clique of the graph with at most ``max_dim + 1`` vertices becomes a
    simplex.  The result is independent of edge order and duplicate edges.

    Parameters
    ----------
    edges : iterable of (int, int)
        Undirected edges over positive 1-indexed vertex ids.
    max_dim : int
        Largest simplex dimension to include; must be >= 1.

    Raises
    ------
    InvalidParameterError
        If ``max_dim < 1``.
    InvalidEdgeError
        If an edge is a self-loop or has a non-positive vertex id.
    """
    if max_dim < 1:
        raise InvalidParameterError(f"max_dim must be >= 1, got {max_dim}")
    neighbors: dict[int, set[int]] = {}
    for e in edges:
        u, v = (int(x) for x in e)
        if u == v:
            raise InvalidEdgeError(f"self-loop at vertex {u}")
        if u < 1 or v < 1:
            raise InvalidEdgeError(f"vertex ids must be >= 1, got ({u}, {v})")
        neighbors.setdefault(u, set()).add(v)
        neighbors.setdefault(v, set()).add(u)
    by_dim: dict[int, list[Simplex]] = {}
    for clique in _bounded_cliques(neighbors, max_dim + 1):
        by_dim.setdefault(len(clique) - 1, []).append(clique)
    return SimplicialComplex(by_dim)


# -- edge-list ingestion --------------------------------------------------------


def parse_edge_lines(lines: Iterable[str]) -> list[Edge]:
    """Parse edge-list text: one edge per line, two whitespace-separated
    positive integers; blank lines and lines starting with '#' are ignored."""
    out: list[Edge] = []
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


def read_edge_list(path) -> list[Edge]:
    """Read an edge list from a text file (see :func:`parse_edge_lines`).

    Raises OSError when the file cannot be read or is not UTF-8 text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_lines(fh)
        except UnicodeDecodeError as exc:
            raise OSError(f"{path} is not UTF-8 text: {exc.reason}") from None
