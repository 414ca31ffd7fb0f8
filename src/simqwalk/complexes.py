"""Simplicial complexes built from graphs, with boundary and adjacency structure.

A simplex is a tuple of strictly increasing positive vertex ids, the
canonical orientation of every signed matrix in the library.  A
:class:`SimplicialComplex` stores the ascending vertex ids once and, per
dimension, a lexicographically sorted ``(N_n, n+1)`` int64 array of
positions into them; it builds the tuples, boundary matrices, adjacency,
degrees and lower neighborhoods that the other layers read on first use.

The constructor finds the row of every face of every simplex (the face
ranks).  Lower and upper adjacency are CSR ``(indptr, indices)`` arrays made
straight from them: the simplices that share a face, or the faces of one
coface, form a group, and every ordered pair of distinct members of a group
is an entry.  Components, lower neighborhoods, arc counts, upper degrees and
the walk space read these arrays, so none of them needs ``scipy``;
``scipy.sparse`` is imported only by :meth:`SimplicialComplex.adjacency` and
:meth:`SimplicialComplex.boundary_matrix`, which return sparse matrices.

All integer matrices are exact: no floating point enters this module.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateSimplexError,
    InvalidEdgeError,
    InvalidParameterError,
    UnknownSimplexError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def _integral(v) -> bool:
    """Whether a vertex id is an integer value (integral floats are, booleans are not)."""
    try:
        return not isinstance(v, (bool, np.bool_)) and int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def canonical_simplex(vertices: Iterable[int]) -> Simplex:
    """The canonical form of positive (1-indexed) vertex ids given in any
    order: sorted ascending, which doubles as the simplex's orientation.

    Raises InvalidParameterError for an empty sequence or a non-positive,
    non-integral or boolean id, and DegenerateSimplexError for a repeated id.
    """
    vs = tuple(vertices)
    if not all(_integral(v) and v >= 1 for v in vs):
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
    """All k-dimensional faces of a simplex, in lexicographic order
    (``C(dim+1, k+1)`` of them); requires ``0 <= k < dim(simplex)``."""
    n = len(simplex) - 1
    if not 0 <= k < n:
        raise InvalidParameterError(f"face dimension {k} invalid for a {n}-simplex")
    return [tuple(c) for c in itertools.combinations(simplex, k + 1)]


def _positions(simplices_by_dim: Mapping[int, Iterable[Sequence[int]]]):
    """Vertex tuples as ``(ids, positions, sorted tuples)``; a vertex that is
    no integer, or in a simplex of the wrong length, gets position -1."""
    shown = {n: sorted(set(group)) for n, group in simplices_by_dim.items()}
    values = sorted({int(v) for group in shown.values() for s in group for v in s if _integral(v)})
    at = {v: i for i, v in enumerate(values)}
    cells = {n: np.array([[at[v] if _integral(v) else -1 for v in s] if len(s) == n + 1
                          else [-1] * (n + 1) for s in group], dtype=np.int64).reshape(-1, n + 1)
             for n, group in shown.items()}
    return np.array(values, dtype=object), cells, shown


class SimplicialComplex:
    """An immutable simplicial complex, closed under taking faces.

    Every matrix of the class orders each dimension's simplices
    lexicographically.  ``simplices_by_dim`` maps dimensions to vertex tuples;
    :func:`clique_complex` passes ``ids`` (ascending vertex ids) with sorted
    ``(N_n, n+1)`` position arrays.  Both are checked the same way.
    """

    def __init__(self, simplices_by_dim: Mapping[int, Iterable], ids: np.ndarray | None = None):
        shown = None
        if ids is None:
            ids, simplices_by_dim, shown = _positions(simplices_by_dim)
        positive = np.append(ids >= 1, False)  # position -1 is never valid
        for n, cells in simplices_by_dim.items():
            bad = ~positive[cells[:, 0]] | (cells < 0).any(axis=1)
            bad |= (np.diff(cells) <= 0).any(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                s = shown[n][i] if shown else tuple(ids[cells[i]].tolist())
                raise InvalidParameterError(f"{s} is not a {n}-simplex" if len(s) != n + 1
                                            else f"{s} is not canonical (ascending, ids >= 1)")
        self._ids = ids
        self._cells = {n: c for n, c in sorted(simplices_by_dim.items()) if len(c)}
        if not self._cells:
            raise InvalidParameterError("empty complex")
        # Per dimension, the rows of the faces (column f drops vertex n - f) and the
        # ascending search keys: the row of the first n vertices, and the last.
        self._faces, self._keys = {}, {}
        for n, cells in self._cells.items():
            keep = [[c for c in range(n + 1) if c != k] for k in range(n, -1, -1)]
            faces = cells[:, np.array(keep, dtype=np.intp).reshape(n + 1, n)]
            rank = self._rank(faces.reshape(len(cells) * (n + 1), n)).reshape(-1, n + 1)
            if (rank < 0).any():
                i, f = np.unravel_index(np.argmax(rank < 0), rank.shape)
                s, k = tuple(ids[cells[i]].tolist()), n - f
                raise InvalidParameterError(
                    f"complex not closed under faces: {s[:k] + s[k + 1:]} of {s} missing")
            self._faces[n], self._keys[n] = rank, rank[:, 0] * len(ids) + cells[:, -1]
        # lazy caches, keyed by dimension (and flavor)
        self._tuples, self._boundary, self._lower_nbrs = {}, {}, {}
        self._arrays: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
        self._adjacency: dict[tuple[int, str], sp.csr_matrix] = {}
        self._components: dict[tuple[int, str], np.ndarray] = {}

    def _rank(self, rows: np.ndarray) -> np.ndarray:
        """Row of each simplex, given as vertex positions, within its dimension;
        -1 if absent.  Looks its prefixes up one dimension at a time; an absent
        prefix makes a negative key, which matches nothing."""
        rank = np.zeros(len(rows), dtype=np.int64)
        for j in range(rows.shape[1]):
            keys, query = self._keys.get(j, rank[:0]), rank * len(self._ids) + rows[:, j]
            hit = np.searchsorted(keys, query)
            found = hit < len(keys)
            found[found] = keys[hit[found]] == query[found]
            rank = np.where(found, hit, -1)
        return rank

    @cached_property
    def _index(self) -> dict[Simplex, tuple[int, int]]:
        return {s: (n, i) for n in self._cells for i, s in enumerate(self.simplices(n))}

    # -- basic structure ---------------------------------------------------

    @property
    def max_dim(self) -> int:
        """Highest dimension with at least one simplex."""
        return max(self._cells)

    @property
    def counts(self) -> dict[int, int]:
        """Number of simplices per dimension."""
        return {n: len(c) for n, c in self._cells.items()}

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """The n-simplices in canonical order (empty tuple if none).  Cached."""
        if n not in self._tuples and n in self._cells:
            self._tuples[n] = tuple(map(tuple, self._ids[self._cells[n]].tolist()))
        return self._tuples.get(n, ())

    def num_simplices(self, n: int) -> int:
        return len(self._cells.get(n, ()))

    def __contains__(self, simplex: Sequence[int]) -> bool:
        return tuple(simplex) in self._index

    def position(self, simplex: Sequence[int]) -> int:
        """Index of a simplex within its dimension's canonical ordering."""
        return self._index[self._require(simplex)][1]

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
        import scipy.sparse as sp

        self._require_dim(n, low=1)
        if n not in self._boundary:
            # the face rows found when the complex was checked; column f drops vertex n - f
            rank = self._faces[n]
            signs = np.tile((-1) ** np.arange(n, -1, -1), len(rank))
            bounds = np.arange(0, rank.size + 1, n + 1)
            self._boundary[n] = sp.csc_matrix(
                (signs, rank.ravel(), bounds), shape=(self.num_simplices(n - 1), len(rank)))
        return self._boundary[n]

    # -- adjacency ----------------------------------------------------------

    def _adjacency_arrays(self, n: int, flavor: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of ``adjacency(n, flavor)``, int64, from
        the face ranks.  Lower: the n-simplices that share a face form a
        group.  Upper: the n-faces of one (n+1)-simplex do.  Every ordered
        pair of distinct members of a group is an entry, and two simplices
        share at most one face and at most one coface, so no pair repeats.
        Cached per dimension and flavor."""
        if flavor not in ("upper", "lower"):
            raise InvalidParameterError(f"unknown adjacency flavor {flavor!r}")
        self._require_dim(n, low=1 if flavor == "lower" else 0)
        key = (n, flavor)
        if key not in self._arrays:
            if flavor == "lower":
                face = self._faces[n].ravel()
                member = np.argsort(face, kind="stable") // (n + 1)
                count = np.bincount(face, minlength=self.num_simplices(n - 1))
            else:
                member = self._faces[n + 1].ravel() if n < self.max_dim else np.zeros(0, np.int64)
                count = np.full(len(member) // (n + 2), n + 2)
            # member e of a group of k starting at s pairs with members s..s + k - 1
            size = np.repeat(count, count)
            first = np.repeat(np.repeat(np.cumsum(count) - count, count), size)
            rows = np.repeat(member, size)
            cols = member[first + np.arange(len(rows)) - np.repeat(np.cumsum(size) - size, size)]
            total = self.num_simplices(n)
            pairs = np.sort((rows * total + cols)[rows != cols])
            self._arrays[key] = (np.searchsorted(pairs, np.arange(total + 1) * total), pairs % total)
        return self._arrays[key]

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
        import scipy.sparse as sp

        indptr, indices = self._adjacency_arrays(n, flavor)
        key = (n, flavor)
        if key not in self._adjacency:
            size = self.num_simplices(n)
            data = np.ones(len(indices), dtype=np.int64)
            self._adjacency[key] = sp.csr_matrix((data, indices, indptr), shape=(size, size))
        return self._adjacency[key]

    def components(self, n: int, flavor: str) -> np.ndarray:
        """Connected components of ``adjacency(n, flavor)``: every n-simplex is
        labelled with the position of its component's first simplex.  Found by
        traversal of the CSR arrays; cached per dimension and flavor."""
        key = (n, flavor)
        if key not in self._components:
            bounds, indices = (a.tolist() for a in self._adjacency_arrays(n, flavor))
            labels = [-1] * (len(bounds) - 1)
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
        """Every n-simplex mapped to the tuple of n-simplices it shares an
        (n-1)-face with, in canonical order (empty if isolated).  A cached
        view of the lower adjacency."""
        self._require_dim(n, low=1)
        if n not in self._lower_nbrs:
            bounds, indices = (a.tolist() for a in self._adjacency_arrays(n, "lower"))
            group = self.simplices(n)
            targets = [group[j] for j in indices]
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
        return len(self._adjacency_arrays(n, "lower")[1])

    # -- degrees -------------------------------------------------------------

    def degree(self, simplex: Sequence[int], flavor: str) -> int:
        """Upper degree (number of cofaces) or lower degree (= dim+1)."""
        s = self._require(simplex)
        n, i = self._index[s]
        if flavor == "upper":
            # each coface adds its n + 1 other n-faces as upper neighbors, and
            # two cofaces share no n-face but ``s``
            bounds = self._adjacency_arrays(n, "upper")[0]
            return int(bounds[i + 1] - bounds[i]) // (n + 1)
        if flavor == "lower":
            if n < 1:
                raise InvalidParameterError("lower degree is undefined for vertices")
            return n + 1
        raise InvalidParameterError(f"unknown degree flavor {flavor!r}")

    def __repr__(self) -> str:
        counts = ", ".join(f"N_{n}={c}" for n, c in self.counts.items())
        return f"SimplicialComplex({counts})"


# -- construction -------------------------------------------------------------


def clique_complex(edges: Iterable[Sequence[int]], max_dim: int = 4) -> SimplicialComplex:
    """The clique complex of an undirected graph over positive integer vertex
    ids: every clique of at most ``max_dim + 1 >= 2`` vertices, whatever the
    order and repetition of the edges.  Each row of one size is extended by
    the larger neighbours of its last vertex that are adjacent to all its
    other vertices, so the rows come out in lexicographic order.

    Raises InvalidParameterError if ``max_dim < 1``, InvalidEdgeError for an
    edge that is not two integer ids, a self-loop or a non-positive id.
    """
    if max_dim < 1:
        raise InvalidParameterError(f"max_dim must be >= 1, got {max_dim}")
    edges = [tuple(e) for e in edges]
    if {len(e) for e in edges} - {2} or {type(v) for e in edges for v in e} - {int}:
        for e in edges:
            if len(e) != 2 or not all(map(_integral, e)):
                raise InvalidEdgeError(f"edge {e} does not join two integer vertex ids")
        edges = [(int(u), int(v)) for u, v in edges]
    pairs = np.array(edges).reshape(-1, 2)
    if pairs.dtype != np.int64:  # ids beyond int64 stay Python ints, never floats
        pairs = np.array(edges, dtype=object).reshape(-1, 2)
    bad = (pairs[:, 0] == pairs[:, 1]) | (pairs < 1).any(axis=1)
    if bad.any():
        u, v = edges[int(np.argmax(bad))]
        raise InvalidEdgeError(f"self-loop at vertex {u}" if u == v
                               else f"vertex ids must be >= 1, got ({u}, {v})")
    ids, position = np.unique(pairs, return_inverse=True)
    size = len(ids)
    # each edge once, as the key lo * size + hi of its sorted positions
    keys = np.unique(np.sort(position.reshape(-1, 2), axis=1) @ np.array([size, 1]))
    lo, hi = np.divmod(keys, size)
    # the larger neighbours of vertex v are hi[start[v]:start[v + 1]]
    start = np.searchsorted(lo, np.arange(size + 1))
    cells = {0: np.arange(size).reshape(-1, 1), 1: np.column_stack([lo, hi])}
    for n in range(2, max_dim + 1):
        clique, last = cells[n - 1], cells[n - 1][:, -1]
        count = start[last + 1] - start[last]
        row = np.repeat(np.arange(len(clique)), count)
        new = hi[np.arange(len(row)) + np.repeat(start[last] - np.cumsum(count) + count, count)]
        for j in range(n - 1):
            query = clique[row, j] * size + new
            keep = keys[np.searchsorted(keys, query).clip(max=len(keys) - 1)] == query
            row, new = row[keep], new[keep]
        if not len(row):
            break
        cells[n] = np.column_stack([clique[row], new])
    return SimplicialComplex(cells, ids=ids)


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
