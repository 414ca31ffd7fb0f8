"""Simplicial complexes built from graphs, with boundary and adjacency structure.

A simplex is a tuple of strictly increasing positive vertex ids, the
canonical orientation of every signed matrix in the library.  A
:class:`SimplicialComplex` stores the ascending vertex ids once and, per
dimension, a lexicographically sorted ``(N_n, n+1)`` int64 array of
positions into them; it builds the tuples, boundary matrices, adjacency,
degrees and lower neighborhoods that the other layers read on first use.

The constructor finds the row of every face of every simplex (the face
ranks), the CSR arrays of ``B_nᵀ`` as they stand.  One exact int64 product
of CSR arrays, :func:`_product`, makes from them the Gram matrices ``B_nᵀB_n``
and ``B_{n+1}B_{n+1}ᵀ``, whose off-diagonal entries are lower and upper
adjacency, and the chain products that :mod:`simqwalk.hodge` checks.  No path
needs ``scipy``: ``scipy.sparse`` is imported only to return sparse matrices,
by :meth:`SimplicialComplex.adjacency` and :meth:`~SimplicialComplex.boundary_matrix`.

All integer matrices are exact: no floating point enters this module.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property, wraps
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


def _integer(value, name: str = "dimension", low: int | None = None, too_low: str | None = None) -> int:
    """``value`` as an int, if it is integral (integral floats are, booleans
    are not) and, with ``low``, at least ``low``; ``too_low`` is the message
    for a smaller value (default: ``"{name} must be >= {low}"``)."""
    if not _integral(value):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidParameterError(too_low or f"{name} must be >= {low}")
    return int(value)


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


def _cached(method):
    """Keep a method's result per argument list: a complex never changes.
    The first argument is a dimension, checked and made an int before the
    lookup, so ``1.0`` shares the entry of ``1`` and ``True`` never hits."""
    @wraps(method)
    def cached(self, n, *args, **kwargs):
        n = _integer(n)
        key = (method.__name__, n, *args, *kwargs.items())
        if key not in self._cache:
            self._cache[key] = method(self, n, *args, **kwargs)
        return self._cache[key]

    return cached


def _product(a, b, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact int64 product of CSR matrices ``(indptr, indices, data)``, ``b``
    with ``width`` columns: one ``np.sort`` of the terms ``a[i, j]·b[j, k]``,
    each packed with its key ``i·width + k`` into one int64 (which the keys
    times the range of the terms must fit), groups them to be summed.  The
    result has sorted indices and stores no zero."""
    (a_ptr, a_col, a_val), (b_ptr, b_col, b_val) = a, b
    count = np.diff(b_ptr)[a_col]
    at = np.repeat(b_ptr[a_col] - np.cumsum(count) + count, count) + np.arange(count.sum())
    val = np.repeat(a_val, count) * b_val[at]
    low = val.min(initial=0)
    span = val.max(initial=0) - low + 1
    row = np.repeat(np.repeat(np.arange(len(a_ptr) - 1), np.diff(a_ptr)), count)
    key, val = np.divmod(np.sort((row * width + b_col[at]) * span + val - low), span)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    val = np.add.reduceat(val + low, first)
    key, val = key[first][val != 0], val[val != 0]
    return np.searchsorted(key, np.arange(len(a_ptr)) * width), key % width, val


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
        self._cache: dict[tuple, object] = {}  # see _cached

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
        return self._simplices(_integer(n))

    @_cached
    def _simplices(self, n: int) -> tuple[Simplex, ...]:
        return tuple(map(tuple, self._ids[self._cells[n]].tolist())) if n in self._cells else ()

    def num_simplices(self, n: int) -> int:
        return len(self._cells.get(_integer(n), ()))

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

    def _require_dim(self, n: int, low: int = 0, too_low: str | None = None) -> int:
        """``n`` as an int, if it is an integral dimension in ``[low, max_dim]``
        (integral floats are, booleans are not); ``too_low``, if given, is the
        message for ``n < low``."""
        n = _integer(n)
        if n < low and too_low is not None:
            raise InvalidParameterError(too_low)
        if not low <= n <= self.max_dim:
            raise InvalidParameterError(f"dimension {n} out of range [{low}, {self.max_dim}]")
        return n

    # -- boundary / incidence ----------------------------------------------

    @_cached
    def _signed_faces(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, data)`` of ``B_nᵀ``, int64: row i holds the
        face ranks of n-simplex i, the face without vertex k signed ``(-1)**k``
        (no rows above the top dimension).  Cached."""
        rank = self._faces.get(n, np.zeros((0, n + 1), dtype=np.int64))
        signs = np.tile((-1) ** np.arange(n, -1, -1), len(rank))
        return np.arange(0, rank.size + 1, n + 1), rank.ravel(), signs

    @_cached
    def _boundary_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of ``B_n``, the transpose of :meth:`_signed_faces`.  Cached."""
        _, faces, signs = self._signed_faces(n)
        order = np.argsort(faces, kind="stable")
        bounds = np.searchsorted(faces[order], np.arange(self.num_simplices(n - 1) + 1))
        return bounds, order // (n + 1), signs[order]

    @_cached
    def boundary_matrix(self, n: int) -> sp.csc_matrix:
        """Signed incidence matrix of the boundary map on n-simplices.

        Shape is ``(N_{n-1}, N_n)`` with integer entries; the column of a
        simplex has ``(-1)**k`` at the row of the face obtained by dropping
        its k-th vertex.  Consecutive matrices compose to zero exactly.  Cached.
        """
        import scipy.sparse as sp

        self._require_dim(n, low=1)
        indptr, indices, data = self._signed_faces(n)
        size = (self.num_simplices(n - 1), self.num_simplices(n))
        return sp.csc_matrix((data, indices, indptr), shape=size)

    @_cached
    def _gram(self, n: int, flavor: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of the down Laplacian ``B_nᵀB_n`` (lower) or the up
        Laplacian ``B_{n+1}B_{n+1}ᵀ`` (upper).  Cached per dimension and flavor."""
        if flavor not in ("upper", "lower"):
            raise InvalidParameterError(f"unknown adjacency flavor {flavor!r}")
        self._require_dim(n, low=1 if flavor == "lower" else 0)
        if flavor == "lower":
            return _product(self._signed_faces(n), self._boundary_arrays(n), self.num_simplices(n))
        return _product(self._boundary_arrays(n + 1), self._signed_faces(n + 1), self.num_simplices(n))

    # -- adjacency ----------------------------------------------------------

    @_cached
    def _adjacency_arrays(self, n: int, flavor: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of ``adjacency(n, flavor)``: the Gram's
        off-diagonal entries, each ±1, as two simplices share at most one face
        and at most one coface.  Cached per dimension and flavor."""
        indptr, indices, _ = self._gram(n, flavor)
        off = indices != np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        return np.append(0, np.cumsum(off))[indptr], indices[off]

    @_cached
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
        data = np.ones(len(indices), dtype=np.int64)
        return sp.csr_matrix((data, indices, indptr), shape=(self.num_simplices(n),) * 2)

    @_cached
    def components(self, n: int, flavor: str) -> np.ndarray:
        """Connected components of ``adjacency(n, flavor)``: every n-simplex is
        labelled with its component's first position.  Each round hooks every
        root to the least root beside its tree and jumps pointers to the roots;
        the trees at least halve every two rounds.  Cached per dimension and flavor."""
        indptr, indices = self._adjacency_arrays(n, flavor)
        rows = np.flatnonzero(np.diff(indptr))  # the simplices with a neighbour
        labels = np.arange(len(indptr) - 1)
        while True:  # here every label is a root: labels[labels] == labels
            least = np.minimum.reduceat(labels[indices], indptr[rows])
            if (least >= labels[rows]).all():
                return labels
            np.minimum.at(labels, labels[rows], least)
            up = labels[labels]
            while not np.array_equal(up, labels):
                labels, up = up, up[up]

    @_cached
    def lower_neighbors(self, n: int) -> dict[Simplex, tuple[Simplex, ...]]:
        """Every n-simplex mapped to the tuple of n-simplices it shares an
        (n-1)-face with, in canonical order (empty if isolated).  A cached
        view of the lower adjacency."""
        bounds, indices = (a.tolist() for a in self._adjacency_arrays(n, "lower"))
        group = self.simplices(n)
        targets = [group[j] for j in indices]
        return {s: tuple(targets[bounds[i] : bounds[i + 1]]) for i, s in enumerate(group)}

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
        if flavor == "upper":  # the row of ``s`` in B_{n+1} holds its cofaces
            bounds = self._boundary_arrays(n + 1)[0]
            return int(bounds[i + 1] - bounds[i])
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
    order and repetition of the edges (an int64 ``(E, 2)`` array is taken as
    it is).  Each row of one size is extended by the larger neighbours of its
    last vertex that are adjacent to all its other vertices, so the rows come
    out in lexicographic order.

    Raises InvalidParameterError unless ``max_dim`` is an integer >= 1, and
    InvalidEdgeError for an edge that is not two integer ids, a self-loop or
    a non-positive id.
    """
    max_dim = _integer(max_dim, "max_dim", 1, f"max_dim must be >= 1, got {max_dim}")
    pairs = edges
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (2,)):
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
        u, v = pairs[int(np.argmax(bad))].tolist()
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


# Edge-list bytes: 1 an ASCII digit, 2 an ASCII byte ``str.split`` splits at, 0 any other
_BYTE_CLASS = np.array([chr(b).isdigit() or 2 * chr(b).isspace() for b in range(128)] + [0] * 128, np.int8)


def _scan(lines: Iterable[str]) -> list[Edge]:
    """The edges of ``lines``, one line at a time: the first bad one raises InvalidEdgeError."""
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


def _edges(text: str) -> np.ndarray:
    """The ``(E, 2)`` edges of edge-list ``text``: with comment lines blanked, text of ASCII
    digits and whitespace is checked and converted at once, any other read by :func:`_scan`."""
    text = re.sub(r"(?m)^[^\S\n]*#.*$", "", text)  # lines whose first non-blank is "#"
    byte = np.frombuffer(text.encode(errors="replace"), np.uint8)
    kind, line = _BYTE_CLASS[byte], np.cumsum(byte == 10)
    start, stop = np.flatnonzero(np.diff(kind == 1, prepend=False, append=False)).reshape(-1, 2).T
    count, size = np.bincount(line[start]), stop - start
    if kind.all() and (count[count > 0] == 2).all() and (size <= 18).all():
        at = np.flatnonzero(kind == 1)  # the digits, token by token
        edges = np.add.reduceat((byte[at] - 48) * 10 ** (np.repeat(stop, size) - at - 1),
                                np.cumsum(size) - size).reshape(-1, 2)
        if (edges >= 1).all() and (edges[:, 0] != edges[:, 1]).all():
            return edges
    edges = np.array(_scan(text.split("\n")), dtype=object).reshape(-1, 2)
    return edges.astype(np.int64) if (edges < 2**63).all() else edges


def parse_edge_lines(lines: Iterable[str]) -> list[Edge]:
    """Parse edge-list text: one edge per line, two whitespace-separated
    positive integers; blank lines and lines starting with '#' are ignored."""
    return list(map(tuple, _edges("\n".join(map(str.rstrip, lines))).tolist()))


def read_edge_list(path) -> np.ndarray:
    """Read an edge-list file (see :func:`parse_edge_lines`) into an ``(E, 2)``
    int64 array in file order (an object array for ids beyond int64).

    Raises OSError when the file cannot be read or is not UTF-8 text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _edges(fh.read())
        except UnicodeDecodeError as exc:
            raise OSError(f"{path} is not UTF-8 text: {exc.reason}") from None
