"""Hodge Laplacians of a simplicial complex and their kernel structure.

For n-simplices the up-Laplacian is ``B_{n+1} @ B_{n+1}.T`` and the
down-Laplacian is ``B_n.T @ B_n``, with ``B_n`` the signed incidence matrix
of the boundary map.  Both are sparse CSR int64 Gram matrices here, so the
algebraic identities (boundary-of-boundary zero, up*down = down*up = 0) are
checked exactly on sparse products.  Only :func:`laplacian_spectrum`
densifies, into one float64 copy of the total Laplacian for ``eigvalsh``.

The dimension of the Laplacian kernel counts the n-dimensional holes of the
complex, which is what :func:`betti_number` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import SimplicialComplex
from .errors import InvalidParameterError, NumericalError

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    if not 0 <= n <= K.max_dim:
        raise InvalidParameterError(f"dimension {n} out of range [0, {K.max_dim}]")
    if n < K.max_dim:
        b_up = K.boundary_matrix(n + 1)
        up = (b_up @ b_up.T).tocsr()
    else:
        size = K.num_simplices(n)
        up = sp.csr_matrix((size, size), dtype=np.int64)
    if n == 0:
        return HodgeLaplacian(n=0, up=up, down=None)
    b = K.boundary_matrix(n)
    down = (b.T @ b).tocsr()
    return HodgeLaplacian(n=n, up=up, down=down)


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
    if 1 <= n < K.max_dim:
        product = K.boundary_matrix(n) @ K.boundary_matrix(n + 1)
        boundary_zero = bool(product.count_nonzero() == 0)
    else:
        boundary_zero = True
    lap = hodge_laplacian(K, n)
    if lap.down is None:
        up_down = down_up = True
    else:
        up_down = bool((lap.up @ lap.down).count_nonzero() == 0)
        down_up = bool((lap.down @ lap.up).count_nonzero() == 0)
    return ChainIdentityReport(
        n=n,
        boundary_product_zero=boundary_zero,
        up_down_zero=up_down,
        down_up_zero=down_up,
    )


def laplacian_spectrum(
    K: SimplicialComplex, n: int, kernel_tol: float = DEFAULT_KERNEL_TOL
) -> SpectrumReport:
    """Full ascending spectrum of the total Hodge Laplacian at dimension n."""
    if not 0 < kernel_tol < np.inf:
        raise InvalidParameterError(f"kernel_tol must be positive and finite, got {kernel_tol}")
    total = hodge_laplacian(K, n).total
    try:
        eigenvalues = np.linalg.eigvalsh(total.astype(np.float64).toarray())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalError(f"eigendecomposition failed at dimension {n}") from exc
    betti = int(np.count_nonzero(eigenvalues < kernel_tol))
    return SpectrumReport(n=n, eigenvalues=eigenvalues, betti=betti)


def betti_number(
    K: SimplicialComplex, n: int, kernel_tol: float = DEFAULT_KERNEL_TOL
) -> int:
    """Number of n-dimensional holes: Laplacian eigenvalues below tolerance."""
    return laplacian_spectrum(K, n, kernel_tol).betti
