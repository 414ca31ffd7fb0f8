"""Hodge Laplacians of a simplicial complex and their kernel structure.

For n-simplices the up-Laplacian is ``B_{n+1} @ B_{n+1}.T`` and the
down-Laplacian is ``B_n.T @ B_n``, with ``B_n`` the signed incidence matrix
of the boundary map.  Both are sparse CSR int64 Gram matrices here, so the
algebraic identities (boundary-of-boundary zero, up*down = down*up = 0) are
checked exactly on sparse products.  Only :func:`laplacian_spectrum`
densifies, and never the Laplacian itself: by the Hodge decomposition
``C_n = im B_nᵀ ⊕ ker L_n ⊕ im B_{n+1}`` its nonzero spectrum is that of
the two boundary matrices' Gram blocks, each taken per component of the
face–coface incidence and on that component's smaller side.

The dimension of the Laplacian kernel counts the n-dimensional holes of the
complex, which is what :func:`betti_number` reports.

``scipy.sparse`` is imported by the functions that make sparse matrices
(:func:`hodge_laplacian`, :func:`laplacian_spectrum`), not with the module,
so a program that imports the package and never calls them does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .complexes import SimplicialComplex
from .errors import InvalidParameterError, NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "HodgeLaplacian",
    "ChainIdentityReport",
    "SpectrumReport",
    "hodge_laplacian",
    "verify_chain_identities",
    "laplacian_spectrum",
    "betti_number",
]

DEFAULT_KERNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HodgeLaplacian:
    """Up, down, and total Laplacian at one dimension.

    Each is a sparse CSR int64 matrix; call ``.toarray()`` for a dense one.
    ``down`` is ``None`` at dimension 0, where the total equals the up part
    (the ordinary graph Laplacian D - A).
    """

    n: int
    up: sp.csr_matrix
    down: sp.csr_matrix | None

    @property
    def total(self) -> sp.csr_matrix:
        return self.up if self.down is None else self.up + self.down


@dataclass(frozen=True)
class ChainIdentityReport:
    """Exact integer checks of the chain-complex identities at dimension n."""

    n: int
    boundary_product_zero: bool
    up_down_zero: bool
    down_up_zero: bool

    @property
    def all_hold(self) -> bool:
        return self.boundary_product_zero and self.up_down_zero and self.down_up_zero


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Ascending Laplacian eigenvalues and the kernel dimension below tolerance."""

    n: int
    eigenvalues: np.ndarray
    betti: int


def hodge_laplacian(K: SimplicialComplex, n: int) -> HodgeLaplacian:
    """Hodge Laplacian of the n-simplices of ``K``.

    The up part has no entries when dimension n+1 is empty.  Raises
    InvalidParameterError for n outside ``[0, K.max_dim]``.
    """
    import scipy.sparse as sp

    if not 0 <= n <= K.max_dim:
        raise InvalidParameterError(f"dimension {n} out of range [0, {K.max_dim}]")
    empty = sp.csc_matrix((K.num_simplices(n), 0), dtype=np.int64)
    b_up = K.boundary_matrix(n + 1) if n < K.max_dim else empty
    up = (b_up @ b_up.T).tocsr()
    b = K.boundary_matrix(n) if n else None
    return HodgeLaplacian(n=n, up=up, down=None if b is None else (b.T @ b).tocsr())


def verify_chain_identities(K: SimplicialComplex, n: int) -> ChainIdentityReport:
    """Check B_n @ B_{n+1} = 0 and the up/down Laplacian annihilation exactly.

    Identities involving an empty dimension hold trivially and are reported
    as true.  Sparse products are tested with ``count_nonzero``, not ``nnz``,
    since a sparse product may store explicit zeros.  Every flag of the
    report is a Python ``bool``, never a numpy scalar, so the report
    serializes as it stands.
    """
    if not 0 <= n <= K.max_dim:
        raise InvalidParameterError(f"dimension {n} out of range [0, {K.max_dim}]")
    product = K.boundary_matrix(n) @ K.boundary_matrix(n + 1) if 1 <= n < K.max_dim else None
    boundary_zero = product is None or product.count_nonzero() == 0
    lap = hodge_laplacian(K, n)
    up_down = lap.down is None or (lap.up @ lap.down).count_nonzero() == 0
    down_up = lap.down is None or (lap.down @ lap.up).count_nonzero() == 0
    return ChainIdentityReport(n, bool(boundary_zero), bool(up_down), bool(down_up))


def laplacian_spectrum(
    K: SimplicialComplex, n: int, kernel_tol: float = DEFAULT_KERNEL_TOL
) -> SpectrumReport:
    """Full ascending spectrum of the total Hodge Laplacian at dimension n.

    As ``B_n B_{n+1} = 0``, the nonzero spectrum of ``L_n = B_nᵀB_n +
    B_{n+1}B_{n+1}ᵀ`` is the union of those of its two parts, and ``BᵀB`` has
    the nonzero spectrum of ``BBᵀ``.  Both Gram matrices of a boundary matrix
    are block diagonal over the components of its face–coface incidence (a
    face is labelled by its upper component, a coface by its first face's),
    so each block is densified on its side with fewer simplices (the faces on
    a tie), and the blocks of each size go through one batched ``eigvalsh``.
    With ``N_n`` zeros added, the largest ``N_n`` values are the spectrum: no
    rank is decided.  Raises InvalidParameterError for n outside
    ``[0, K.max_dim]``."""
    import scipy.sparse as sp

    if not 0 < kernel_tol < np.inf:
        raise InvalidParameterError(f"kernel_tol must be positive and finite, got {kernel_tol}")
    if not 0 <= n <= K.max_dim:
        raise InvalidParameterError(f"dimension {n} out of range [0, {K.max_dim}]")
    grams, labels, offset = [], [], 0
    for dim in range(max(n, 1), min(n + 1, K.max_dim) + 1):
        b = K.boundary_matrix(dim)
        face = K.components(dim - 1, "upper")
        coface, count = face[b.indices[b.indptr[:-1]]], len(face)
        on_faces = np.bincount(face, minlength=count) <= np.bincount(coface, minlength=count)
        rows, cols = on_faces[face], ~on_faces[coface]
        faces, cofaces = b.tocsr()[rows], b[:, cols]
        grams += [faces @ faces.T, cofaces.T @ cofaces]
        labels += [face[rows] + offset, coface[cols] + offset]
        offset += count
    parts = [np.zeros(K.num_simplices(n))]
    if grams:
        gram, labels = sp.block_diag(grams, format="coo"), np.concatenate(labels)
        size = np.bincount(labels)[labels]
        # rows ordered by (block size, block), each block in canonical order;
        # a row is then row ``at`` of block ``which`` in its size's stack
        order = np.lexsort((labels, size))
        which, at = np.divmod(np.argsort(order) - np.searchsorted(size[order], size), size)
        try:
            for k in np.unique(size).tolist():
                entry = size[gram.row] == k
                row, col = gram.row[entry], gram.col[entry]
                stack = np.zeros((np.count_nonzero(size == k) // k, k, k))
                stack[which[row], at[row], at[col]] = gram.data[entry]
                del entry, row, col
                parts.append(np.linalg.eigvalsh(stack).ravel())
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
            raise NumericalError(f"eigendecomposition failed at dimension {n}") from exc
    eigenvalues = np.sort(np.concatenate(parts))[-K.num_simplices(n):]
    betti = int(np.count_nonzero(eigenvalues < kernel_tol))
    return SpectrumReport(n=n, eigenvalues=eigenvalues, betti=betti)


def betti_number(
    K: SimplicialComplex, n: int, kernel_tol: float = DEFAULT_KERNEL_TOL
) -> int:
    """Number of n-dimensional holes: Laplacian eigenvalues below tolerance."""
    return laplacian_spectrum(K, n, kernel_tol).betti
