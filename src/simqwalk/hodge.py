"""Hodge Laplacians of a simplicial complex and their kernel structure.

For n-simplices the up-Laplacian is ``B_{n+1} @ B_{n+1}.T`` and the
down-Laplacian is ``B_n.T @ B_n``, with ``B_n`` the signed incidence matrix
of the boundary map.  Both are the complex's Gram arrays, made by one exact
int64 product of CSR arrays, and the same product checks the identities
(boundary-of-boundary zero, up*down = down*up = 0) exactly.  Only
:func:`laplacian_spectrum` densifies, and never the Laplacian itself: by the
Hodge decomposition ``C_n = im B_nᵀ ⊕ ker L_n ⊕ im B_{n+1}`` its nonzero
spectrum is that of the two Gram matrices' blocks, each taken per component
of the face–coface incidence and on that component's smaller side.

The dimension of the Laplacian kernel counts the n-dimensional holes of the
complex, which is what :func:`betti_number` reports.

The module needs numpy alone.  ``scipy.sparse`` is imported only by
:func:`hodge_laplacian`, which returns sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .complexes import SimplicialComplex, _product
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
    """Hodge Laplacian of the n-simplices of ``K``, over its Gram arrays.

    The up part has no entries when dimension n+1 is empty.  Raises
    InvalidParameterError unless n is an integer in ``[0, K.max_dim]``.
    """
    import scipy.sparse as sp

    n = K._require_dim(n)

    def matrix(flavor):
        indptr, indices, data = K._gram(n, flavor)
        return sp.csr_matrix((data, indices, indptr), shape=(K.num_simplices(n),) * 2)

    return HodgeLaplacian(n=n, up=matrix("upper"), down=matrix("lower") if n else None)


def verify_chain_identities(K: SimplicialComplex, n: int) -> ChainIdentityReport:
    """Check B_n @ B_{n+1} = 0 and the up/down Laplacian annihilation exactly.

    Each identity holds when its exact integer product stores no entry;
    ``up·down`` is taken as ``(up·B_nᵀ)·B_n`` and ``down·up`` as ``B_nᵀ(B_n·up)``,
    which expand far fewer terms than the two Laplacians' product.  Identities
    involving an empty dimension hold trivially.  Every flag is a Python
    ``bool``, so the report serializes as it stands.
    """
    n = K._require_dim(n)
    if n == 0:
        return ChainIdentityReport(n, True, True, True)
    size, faces, up = K.num_simplices(n), K._signed_faces(n), K._gram(n, "upper")
    products = (_product(K._signed_faces(n + 1), faces, K.num_simplices(n - 1)),  # (B_n B_{n+1})ᵀ
                _product(_product(up, faces, K.num_simplices(n - 1)), K._boundary_arrays(n), size),
                _product(faces, _product(K._boundary_arrays(n), up, size), size))
    return ChainIdentityReport(n, *(len(indices) == 0 for _, indices, _ in products))


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
    rank is decided.  Raises InvalidParameterError unless n is an integer
    in ``[0, K.max_dim]``."""
    if not 0 < kernel_tol < np.inf:
        raise InvalidParameterError(f"kernel_tol must be positive and finite, got {kernel_tol}")
    n = K._require_dim(n)
    # the kept Gram entries, numbered by their place among all kept simplices
    entries, labels, offset = [], [], 0
    for dim in range(max(n, 1), min(n + 1, K.max_dim) + 1):
        face = K.components(dim - 1, "upper")
        coface, count = face[K._faces[dim][:, 0]], len(face)
        on_faces = np.bincount(face, minlength=count) <= np.bincount(coface, minlength=count)
        for label, keep, gram in ((face, on_faces[face], (dim - 1, "upper")),
                                  (coface, ~on_faces[coface], (dim, "lower"))):
            if keep.any():  # a side that keeps no block needs no Gram
                indptr, indices, values = K._gram(*gram)
                row = np.repeat(np.arange(len(keep)), np.diff(indptr))
                entry, place = keep[row], np.cumsum(keep) - 1 + sum(map(len, labels))
                entries.append((place[row[entry]], place[indices[entry]], values[entry]))
                labels.append(label[keep] + offset)
        offset += count
    parts = [np.zeros(K.num_simplices(n))]
    if labels:
        labels, (row, col, data) = np.concatenate(labels), map(np.concatenate, zip(*entries))
        size = np.bincount(labels)[labels]
        # rows ordered by (block size, block), each block in canonical order;
        # a row is then row ``at`` of block ``which`` in its size's stack
        order = np.lexsort((labels, size))
        which, at = np.divmod(np.argsort(order) - np.searchsorted(size[order], size), size)
        try:
            for k in np.unique(size).tolist():
                entry = size[row] == k
                stack = np.zeros((np.count_nonzero(size == k) // k, k, k))
                stack[which[row[entry]], at[row[entry]], at[col[entry]]] = data[entry]
                parts.append(np.linalg.eigvalsh(stack).ravel())
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed at dimension {n}") from exc
    eigenvalues = np.sort(np.concatenate(parts))[-K.num_simplices(n):]
    betti = int(np.count_nonzero(eigenvalues < kernel_tol))
    return SpectrumReport(n=n, eigenvalues=eigenvalues, betti=betti)


def betti_number(
    K: SimplicialComplex, n: int, kernel_tol: float = DEFAULT_KERNEL_TOL
) -> int:
    """Number of n-dimensional holes: Laplacian eigenvalues below tolerance."""
    return laplacian_spectrum(K, n, kernel_tol).betti
