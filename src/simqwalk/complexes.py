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
        If the sequence is empty or contains a non-positive id.
    DegenerateSimplexError
        If a vertex id repeats.
    """
    vs = tuple(int(v) for v in vertices)
    if not vs:
        raise InvalidParameterError("a simplex needs at least one vertex")
    if any(v < 1 for v in vs):
        raise InvalidParameterError(f"vertex ids must be >= 1, got {vs}")
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
        # lazy caches, keyed by dimension
        self._lower_nbrs: dict[int, dict[Simplex, tuple[Simplex, ...]]] = {}
        self._upper_deg: dict[int, dict[Simplex, int]] = {}

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
        its k-th vertex.  Consecutive matrices compose to zero exactly.
        """
        self._require_dim(n, low=1)
        rows_of = self._by_dim[n - 1]
        cols_of = self._by_dim[n]
        row_index = {s: i for i, s in enumerate(rows_of)}
        rows, cols, vals = [], [], []
        for j, s in enumerate(cols_of):
            for k in range(n + 1):
                face = s[:k] + s[k + 1 :]
                rows.append(row_index[face])
                cols.append(j)
                vals.append(1 if k % 2 == 0 else -1)
        return sp.csc_matrix(
            (vals, (rows, cols)),
            shape=(len(rows_of), len(cols_of)),
            dtype=np.int64,
        )

    # -- adjacency ----------------------------------------------------------

    def adjacency(self, n: int, flavor: str) -> np.ndarray:
        """Symmetric 0/1 adjacency among n-simplices.

        ``flavor="upper"``: two n-simplices are adjacent when they are faces
        of a common (n+1)-simplex (all-zero if dimension n+1 is empty).
        ``flavor="lower"``: adjacent when they share a common (n-1)-face;
        requires ``n >= 1``.
        """
        if flavor not in ("upper", "lower"):
            raise InvalidParameterError(f"unknown adjacency flavor {flavor!r}")
        self._require_dim(n, low=1 if flavor == "lower" else 0)
        group = self._by_dim[n]
        size = len(group)
        a = np.zeros((size, size), dtype=np.int64)
        if flavor == "upper":
            for coface in self._by_dim.get(n + 1, ()):
                members = [self._index[f][1] for f in faces(coface, n)]
                for i, j in itertools.combinations(members, 2):
                    a[i, j] = a[j, i] = 1
        else:
            for s, nbrs in self.lower_neighbors(n).items():
                i = self._index[s][1]
                for t in nbrs:
                    a[i, self._index[t][1]] = 1
        return a

    def lower_neighbors(self, n: int) -> dict[Simplex, tuple[Simplex, ...]]:
        """Lower neighborhood of every n-simplex, as a simplex -> tuple map.

        Two n-simplices are lower-adjacent when they share an (n-1)-face.
        The map covers all n-simplices; isolated ones map to the empty tuple.
        Cached per dimension.
        """
        self._require_dim(n, low=1)
        if n not in self._lower_nbrs:
            buckets: dict[Simplex, list[Simplex]] = {}
            for s in self._by_dim[n]:
                for k in range(n + 1):
                    buckets.setdefault(s[:k] + s[k + 1 :], []).append(s)
            nbrs: dict[Simplex, set[Simplex]] = {s: set() for s in self._by_dim[n]}
            for members in buckets.values():
                for a, b in itertools.combinations(members, 2):
                    nbrs[a].add(b)
                    nbrs[b].add(a)
            self._lower_nbrs[n] = {s: tuple(sorted(v)) for s, v in nbrs.items()}
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
        return sum(len(v) for v in self.lower_neighbors(n).values())

    # -- degrees -------------------------------------------------------------

    def degree(self, simplex: Sequence[int], flavor: str) -> int:
        """Upper degree (number of cofaces) or lower degree (= dim+1)."""
        s = self._require(simplex)
        n = self._index[s][0]
        if flavor == "upper":
            if n not in self._upper_deg:
                deg = {t: 0 for t in self._by_dim[n]}
                for coface in self._by_dim.get(n + 1, ()):
                    for f in faces(coface, n):
                        deg[f] += 1
                self._upper_deg[n] = deg
            return self._upper_deg[n][s]
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
