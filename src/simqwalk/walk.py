"""Discrete-time coined quantum walk on the lower adjacency of n-simplices.

The walk lives on translation states: one basis arc ``|a -> b>`` per ordered
pair of lower-adjacent n-simplices.  One time step applies a block-diagonal
Fourier coin (one DFT block per source simplex, sized by its lower
neighborhood) followed by the shift that swaps every arc with its reverse.

Evolution runs in a degree-class frame: arcs are reordered so that blocks
of equal degree sit together, and every initial arc of a source evolves at
once as one column of an ``(m, d)`` block.  A step is then one Fourier
matmul per degree class (the coin) and one gather along the reverse-arc
permutation (the shift).

Two estimators of the long-run weight (flat baseline ``1/m`` on m arcs) are
provided: a finite-horizon time average by batched evolution, and the exact
infinite-time average of Aharonov, Ambainis, Kempe and Vazirani (STOC 2001),
``sum_g |<b| P_g |a>|**2`` over the eigenphase projectors of the step U.

The coin C is complex symmetric and the shift S a real involution, so
``U = S C`` has ``U.T = S U S``.  In the reverse-arc basis W (per arc pair
{a, b}: ``(e_a + e_b)/sqrt(2)``, ``i(e_a - e_b)/sqrt(2)``) ``M = W^dagger U W``
is complex symmetric and unitary, so for a generic alpha the real symmetric
``Re(e^{i alpha} M)`` commutes with M: one ``eigh`` of it gives real
eigenvectors r of M, and the imaginary part separates phases that share a
cosine inside clusters of near-equal eigenvalues.  Phases are Rayleigh
quotients and every residual ``|Mr - e^{i theta} r|`` is checked.  A real r
puts mass ``(r_p**2 + r_q**2)/2`` on both arcs of its pair, so every group's
per-simplex Gram matrix ``G_x`` comes from real vectors and every seed's
weights from one product, ``sum_g tr(G_x G_y)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .complexes import Simplex, SimplicialComplex
from .errors import (
    InvalidParameterError,
    IsolatedSimplexError,
    NumericalError,
    UnknownSimplexError,
)

__all__ = [
    "WalkSpace",
    "UnitaryWalk",
    "UnitarySpectrum",
    "TransitionTable",
    "build_walk_space",
    "fourier_block",
    "coin_operator",
    "shift_operator",
    "step_operator",
    "evolve",
    "basis_state",
    "transition_profile",
    "transition_probability",
    "finite_time_average",
    "unitary_spectrum",
    "long_time_average_spectral",
    "amplitude_lower_bound",
]

DEFAULT_TIME_STEPS = 100
DEFAULT_PHASE_TOL = 1e-8
RESIDUAL_TOL = 1e-8  # largest eigenpair residual the spectral estimator accepts
_EPS = float(np.finfo(np.float64).eps)
_ALPHA = 0.5772156649015329  # generic: no rational multiple of pi
_CLUSTER_GAP = 1e-6  # eigh's vectors are accurate to about eps / gap
_CHUNK = 256  # columns per block of the chunked products


@dataclass(frozen=True)
class WalkSpace:
    """Ordered basis of translation arcs over lower-adjacent n-simplices, in CSR form.

    The arcs of ``active[i]`` are ``indptr[i]:indptr[i + 1]`` (sources and,
    inside each block, targets in canonical order); ``target[k]`` is the
    position in ``active`` of arc ``k``'s target and ``reverse[k]`` the index
    of its reverse.  ``index`` maps each active simplex to its position.
    Simplices without lower neighbors take no part and are listed separately.
    """

    n: int
    active: tuple[Simplex, ...] = field(repr=False)
    isolated: tuple[Simplex, ...] = field(repr=False)
    index: dict[Simplex, int] = field(repr=False)
    indptr: np.ndarray = field(repr=False, compare=False)
    target: np.ndarray = field(repr=False, compare=False)
    reverse: np.ndarray = field(repr=False, compare=False)

    def __repr__(self) -> str:
        return (
            f"WalkSpace(n={self.n}, m={self.m}, active={len(self.active)}, "
            f"isolated={len(self.isolated)})"
        )

    @property
    def m(self) -> int:
        """Hilbert-space dimension: the number of arcs."""
        return len(self.target)

    @property
    def degrees(self) -> np.ndarray:
        """Lower-neighborhood size of every active simplex."""
        return np.diff(self.indptr)

    @property
    def source(self) -> np.ndarray:
        """Position in ``active`` of every arc's source."""
        return np.repeat(np.arange(len(self.active)), self.degrees)

    @property
    def arcs(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """Every arc as a ``(source, target)`` pair of simplices, in basis order."""
        pairs = zip(self.source.tolist(), self.target.tolist())
        return tuple((self.active[i], self.active[j]) for i, j in pairs)

    def degree(self, simplex: Simplex) -> int:
        """Size of the lower neighborhood of an active simplex."""
        i = self.index[simplex]
        return int(self.indptr[i + 1] - self.indptr[i])

    def block(self, simplex: Simplex) -> slice:
        """Index range of the arcs based at ``simplex``."""
        i = self.index[simplex]
        return slice(int(self.indptr[i]), int(self.indptr[i + 1]))

    def arc(self, source, target) -> int:
        """Index of the arc ``|source -> target>``."""
        a, b = tuple(source), tuple(target)
        if a in self.index and b in self.index:
            blk = self.block(a)
            k = blk.start + int(np.searchsorted(self.target[blk], self.index[b]))
            if k < blk.stop and self.target[k] == self.index[b]:
                return k
        raise UnknownSimplexError(f"no arc {a} -> {b} in the walk space")

    def require_active(self, simplex) -> Simplex:
        s = tuple(simplex)
        if s in self.index:
            return s
        if s in self.isolated:
            raise IsolatedSimplexError(f"{s} has no lower-adjacent partners")
        raise UnknownSimplexError(f"{s} is not an active {self.n}-simplex")


def build_walk_space(K: SimplicialComplex, n: int) -> WalkSpace:
    """Construct the arc basis for the walk on n-simplices (n >= 1)."""
    if n < 1:
        raise InvalidParameterError("the walk is defined for dimensions n >= 1")
    if n > K.max_dim:
        raise InvalidParameterError(f"dimension {n} out of range [1, {K.max_dim}]")
    adjacency = K.adjacency(n, "lower")
    group = K.simplices(n)
    # Isolated simplices have empty rows; dropping them leaves the arcs as
    # they are and renumbers the targets to active positions.
    degrees = np.diff(adjacency.indptr)
    rows = np.flatnonzero(degrees)
    position = np.cumsum(degrees > 0) - 1
    active = tuple(group[i] for i in rows.tolist())
    index = {s: i for i, s in enumerate(active)}
    return WalkSpace(
        n=n,
        active=active,
        isolated=tuple(s for s in group if s not in index),
        index=index,
        indptr=adjacency.indptr[np.append(rows, len(group))].astype(np.int64),
        target=position[adjacency.indices],
        # the adjacency is symmetric, so listing the arcs by (target, source)
        # lists the reverse of every arc in basis order
        reverse=np.argsort(adjacency.indices, kind="stable"),
    )


def fourier_block(d: int) -> np.ndarray:
    """The d x d discrete-Fourier coin: entries ``w**(a*b) / sqrt(d)`` with
    ``w = exp(2*pi*i/d)``.  Each phase is computed from its exact angle."""
    if d < 1:
        raise InvalidParameterError("coin dimension must be >= 1")
    idx = np.arange(d)
    return np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)


def coin_operator(space: WalkSpace) -> sp.csr_matrix:
    """Block-diagonal coin: one Fourier block per active source simplex."""
    blocks = [fourier_block(k) for k in space.degrees.tolist()]
    if not blocks:
        return sp.csr_matrix((0, 0), dtype=np.complex128)
    return sp.block_diag(blocks, format="csr", dtype=np.complex128)


def shift_operator(space: WalkSpace) -> sp.csr_matrix:
    """Involutive permutation sending each arc ``|a -> b>`` to ``|b -> a>``."""
    m = space.m
    data = np.ones(m, dtype=np.complex128)
    return sp.csr_matrix((data, (np.arange(m), space.reverse)), shape=(m, m))


@dataclass(frozen=True)
class _ArcFrame:
    """The arc order the evolution kernel works in.

    Blocks are grouped into degree classes, in ascending degree.  Inside a
    class of ``count`` blocks of degree ``k`` the frame is slot-major:
    position ``offset + a * count + j`` holds arc ``a`` of the class's j-th
    block.  An ``(m, d)`` state's class slice then reshapes, without a
    copy, to ``(k, count * d)``, so one ``k x k`` Fourier matmul applies the
    coin to every block of the class.
    """

    arcs: np.ndarray  # frame position -> arc index
    position: np.ndarray  # arc index -> frame position
    reverse: np.ndarray  # frame position -> frame position of the reverse arc
    source: np.ndarray  # frame position -> active index of the arc's source
    classes: tuple[tuple[slice, int, np.ndarray], ...]  # (frame slice, k, coin)


def _arc_frame(space: WalkSpace) -> _ArcFrame:
    degrees = space.degrees
    starts = space.indptr[:-1]
    parts = [np.zeros(0, dtype=np.int64)]
    classes = []
    offset = 0
    for k in np.unique(degrees).tolist():
        blocks = np.flatnonzero(degrees == k)
        parts.append((starts[blocks] + np.arange(k)[:, None]).ravel())
        classes.append((slice(offset, offset + k * len(blocks)), k, fourier_block(k)))
        offset += k * len(blocks)
    arcs = np.concatenate(parts)
    position = np.empty_like(arcs)
    position[arcs] = np.arange(space.m)
    return _ArcFrame(
        arcs=arcs,
        position=position,
        reverse=position[space.reverse[arcs]],
        source=space.source[arcs],
        classes=tuple(classes),
    )


@dataclass(frozen=True)
class UnitaryWalk:
    """The one-step evolution ``shift @ coin`` on a walk space.

    Both views are built on first use: evolution runs on ``frame``, and only
    the spectral estimator reads the sparse ``step``.
    """

    space: WalkSpace

    @cached_property
    def frame(self) -> _ArcFrame:
        """The evolution kernel's arc order."""
        return _arc_frame(self.space)

    @cached_property
    def step(self) -> sp.csr_matrix:
        """The sparse step matrix ``shift_operator @ coin_operator``."""
        return (shift_operator(self.space) @ coin_operator(self.space)).tocsr()


def step_operator(space: WalkSpace) -> UnitaryWalk:
    """The walk on a space; its frame and sparse step are built on first use."""
    return UnitaryWalk(space)


def basis_state(walk: UnitaryWalk, source, target) -> np.ndarray:
    """Unit vector on the arc ``|source -> target>``."""
    psi = np.zeros(walk.space.m, dtype=np.complex128)
    psi[walk.space.arc(source, target)] = 1.0
    return psi


def _evolution(walk: UnitaryWalk, psi: np.ndarray, t_max: int):
    """Step an ``(m, d)`` frame-ordered state in place ``t_max`` times,
    yielding it after each step.  The yielded array is overwritten by the
    next step."""
    frame = walk.frame
    coined = np.empty_like(psi)
    for _ in range(t_max):
        for part, k, fourier in frame.classes:
            np.matmul(fourier, psi[part].reshape(k, -1), out=coined[part].reshape(k, -1))
        # the indices are a permutation, so no index is ever clipped; in
        # the default mode numpy would copy through a buffer instead of
        # writing straight into psi
        np.take(coined, frame.reverse, axis=0, out=psi, mode="clip")
        yield psi


def _arc_mass(psi: np.ndarray) -> np.ndarray:
    """Squared amplitude on each arc, summed over the state's columns."""
    parts = psi.view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


def evolve(walk: UnitaryWalk, state: np.ndarray, t: int) -> np.ndarray:
    """Apply ``t`` walk steps to a state (no matrix powers, no sparse products)."""
    if t < 0:
        raise InvalidParameterError("number of steps must be >= 0")
    psi = np.asarray(state, dtype=np.complex128)
    if psi.shape != (walk.space.m,):
        raise InvalidParameterError(
            f"state has shape {psi.shape}, expected ({walk.space.m},)"
        )
    block = psi[walk.frame.arcs, None]
    for _ in _evolution(walk, block, t):
        pass
    return block[walk.frame.position, 0]


def _source_evolution(walk: UnitaryWalk, source: Simplex, t_max: int):
    """Evolve every initial arc of an active source together, one column
    each; returns the source's degree and the step iterator."""
    blk = walk.space.block(source)
    d = blk.stop - blk.start
    psi = np.zeros((walk.space.m, d), dtype=np.complex128)
    psi[walk.frame.position[blk], np.arange(d)] = 1.0
    return d, _evolution(walk, psi, t_max)


def transition_profile(walk: UnitaryWalk, source, t_max: int) -> np.ndarray:
    """Degree-normalized transition weights from one source at every time.

    Returns an array of shape ``(t_max, n_active)`` whose ``[t-1, j]`` entry
    is the weight from ``source`` to the j-th active simplex at time ``t``:
    the squared amplitudes collected over the target's arcs, averaged over
    the source's initial arcs, divided by both lower-neighborhood sizes.
    Each row satisfies ``row @ degrees == 1`` (unitarity).

    One batched evolution of all the source's initial arcs serves every
    target simultaneously.
    """
    if t_max < 1:
        raise InvalidParameterError("t_max must be >= 1")
    space = walk.space
    sx = space.require_active(source)
    d_source, steps = _source_evolution(walk, sx, t_max)
    n_active = len(space.active)
    profile = np.empty((t_max, n_active))
    for t, psi in enumerate(steps):
        profile[t] = np.bincount(walk.frame.source, _arc_mass(psi), minlength=n_active)
    return profile / (d_source * space.degrees)


def transition_probability(walk: UnitaryWalk, source, target, t: int) -> float:
    """Normalized transition probability from ``source`` to ``target`` at time t."""
    if t < 1:
        raise InvalidParameterError("time must be >= 1")
    space = walk.space
    sy = space.require_active(target)
    profile = transition_profile(walk, source, t)
    return float(profile[t - 1, space.index[sy]])


@dataclass(frozen=True)
class TransitionTable:
    """Source-to-target transition weights under one estimator; ``error``
    bounds the norm error of each unit state they are built from."""

    source: Simplex
    estimator: str
    values: dict[Simplex, float]
    error: float

    def __getitem__(self, target) -> float:
        return self.values[tuple(target)]


def finite_time_average(
    walk: UnitaryWalk, source, time_steps: int = DEFAULT_TIME_STEPS
) -> TransitionTable:
    """Average the transition weights over times ``1..time_steps``."""
    if time_steps < 1:
        raise InvalidParameterError("time_steps must be >= 1")
    space = walk.space
    sx = space.require_active(source)
    d_source, steps = _source_evolution(walk, sx, time_steps)
    mass = np.zeros(space.m)
    for psi in steps:
        mass += _arc_mass(psi)
    total = np.bincount(walk.frame.source, mass, minlength=len(space.active))
    mean = total / (time_steps * d_source * space.degrees)
    return TransitionTable(
        source=sx,
        estimator=f"finite(T={time_steps})",
        values={s: float(mean[j]) for j, s in enumerate(space.active)},
        # a step rounds a unit state by about k**1.5 eps (k: largest coin)
        error=time_steps * float(space.degrees.max()) ** 1.5 * _EPS,
    )


@dataclass(frozen=True)
class UnitarySpectrum:
    """Eigenphases and orthonormal eigenvectors of the step operator.

    ``basis`` holds them as real columns in the reverse-arc basis of the arc
    ``pairs``; ``vectors``, in the arc basis, is built on first use.
    ``groups`` clusters eigenvector indices of equal phase (up to a circular
    tolerance).  ``masses @ masses^dagger`` sums ``tr(G_x G_y)`` over groups;
    ``error`` bounds each eigenvector's error: residual plus m roundings.
    """

    phases: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    basis: np.ndarray = field(repr=False)
    pairs: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    error: float

    @cached_property
    def vectors(self) -> np.ndarray:
        """Orthonormal eigenvectors in the arc basis, one per column."""
        sym, anti = self.basis[0::2] / np.sqrt(2), self.basis[1::2] / np.sqrt(2)
        vectors = np.empty(self.basis.shape, dtype=np.complex128)
        vectors[self.pairs[0]], vectors[self.pairs[1]] = sym + 1j * anti, sym - 1j * anti
        return vectors


def _group_phases(phases: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Indices of ``phases`` in [0, 2*pi), grouped as numerically equal.

    Sorted phases join the current group while the gap to the previous one is
    at most ``tol``, so a chain of small gaps can make a group wider than
    ``tol``.  Phases live on a circle: when the first group's lowest phase is
    within ``tol`` of the last group's highest across 2*pi, the last group is
    merged in front of the first.
    """
    order = np.argsort(phases)
    groups: list[list[int]] = [[int(order[0])]]
    for k in order[1:]:
        if phases[k] - phases[groups[-1][-1]] <= tol:
            groups[-1].append(int(k))
        else:
            groups.append([int(k)])
    if len(groups) > 1 and phases[groups[0][0]] + 2 * np.pi - phases[groups[-1][-1]] <= tol:
        groups[0] = groups.pop() + groups[0]
    return tuple(tuple(g) for g in groups)


def _symmetric_eigenpairs(rotated: sp.csr_matrix):
    """Rayleigh-quotient eigenvalues, real orthonormal eigenvectors and residuals
    of a complex symmetric unitary ``h + i k``: eigenvectors of ``h`` (cos phi),
    separated by ``k`` (sin phi) inside clusters of near-equal cos phi."""
    h, k = rotated.real, rotated.imag
    try:
        cos, basis = scipy.linalg.eigh(h.toarray(order="F"), overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh of the step operator failed: {exc}") from None
    for cluster in np.split(np.arange(len(cos)), np.flatnonzero(np.diff(cos) > _CLUSTER_GAP) + 1):
        if len(cluster) > 1:
            sub = basis[:, cluster]
            basis[:, cluster] = sub @ scipy.linalg.eigh(sub.T @ (k @ sub))[1]
    eigenvalues, residuals = np.empty(len(cos), dtype=np.complex128), np.empty(len(cos))
    for lo in range(0, len(cos), _CHUNK):  # column chunks: no dense m x m product
        r = basis[:, lo : lo + _CHUNK]
        hr, kr = h @ r, k @ r
        c, s = np.einsum("ij,ij->j", r, hr), np.einsum("ij,ij->j", r, kr)
        eigenvalues[lo : lo + _CHUNK] = c + 1j * s
        residuals[lo : lo + _CHUNK] = np.sqrt(((hr - r * c) ** 2 + (kr - r * s) ** 2).sum(axis=0))
    return eigenvalues, basis, residuals


def _group_masses(space: WalkSpace, pairs: np.ndarray, basis: np.ndarray, groups) -> np.ndarray:
    """Entries ``G_x[i, j]`` of every group's Gram matrices, one column per
    (i, j) in the group: with ``z = sym + i anti``, arc a of a pair adds
    ``conj(z_i) z_j / 2`` to its source's entry and arc b the conjugate."""
    pair, shape = np.arange(pairs.shape[1]), (len(space.active), pairs.shape[1])
    at_a, at_b = (sp.csr_matrix((np.ones(shape[1]), (space.source[p], pair)), shape) for p in pairs)
    i, j = np.concatenate([np.stack(np.meshgrid(g, g)).reshape(2, -1) for g in groups], axis=1)
    parts = []
    for lo in range(0, len(i), _CHUNK):
        ii, jj = i[lo : lo + _CHUNK], j[lo : lo + _CHUNK]
        x = (basis[0::2, ii] - 1j * basis[1::2, ii]) * (basis[0::2, jj] + 1j * basis[1::2, jj])
        parts.append((at_a @ x + at_b @ x.conj()) / 2)
    return np.hstack(parts)


def unitary_spectrum(
    walk: UnitaryWalk, phase_tol: float = DEFAULT_PHASE_TOL
) -> UnitarySpectrum:
    """Spectral decomposition of the step operator from one real symmetric
    ``eigh`` in the reverse-arc basis (module docstring).  Raises
    NumericalError when that matrix and its eigenvectors (``16 m**2`` bytes)
    exceed physical memory, or a residual exceeds ``RESIDUAL_TOL``."""
    m = walk.space.m
    need, have = 16 * m * m, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise NumericalError(f"the spectrum of {m} arcs needs {need / 2**30:.1f} GiB, "
                             f"more than the {have / 2**30:.1f} GiB of physical memory")
    first = np.flatnonzero(np.arange(m) < walk.space.reverse)
    pairs = np.stack([first, walk.space.reverse[first]])
    columns = (np.tile(pairs.T, 2).ravel(), np.repeat(np.arange(m), 2))
    w = sp.csr_matrix((np.tile([1, 1, 1j, -1j], m // 2) / np.sqrt(2), columns), (m, m))
    rotated = (np.exp(1j * _ALPHA) * (w.conj().T @ walk.step @ w)).tocsr()
    eigenvalues, basis, residuals = _symmetric_eigenpairs(rotated)
    if residuals.max() > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {residuals.max():.1e} exceeds {RESIDUAL_TOL:g}")
    phases = np.mod(np.angle(eigenvalues) - _ALPHA, 2 * np.pi)
    groups = _group_phases(phases, phase_tol)
    masses = _group_masses(walk.space, pairs, basis, groups)
    return UnitarySpectrum(phases, groups, basis, pairs, masses, residuals.max() + m * _EPS)


def long_time_average_spectral(
    walk: UnitaryWalk, source, spectrum: UnitarySpectrum | None = None
) -> TransitionTable:
    """Exact infinite-time average of the transition weights from ``source``.

    The weight to a target sums ``|<target arc| P_g |source arc>|**2`` over
    eigenphase groups g and arcs, with the same degree normalization as the
    per-time weights: one row of the spectrum's ``masses @ masses^dagger``.
    """
    space = walk.space
    sx = space.require_active(source)
    spec = spectrum if spectrum is not None else unitary_spectrum(walk)
    ix = space.index[sx]
    values = (spec.masses @ spec.masses[ix].conj()).real / (space.degrees[ix] * space.degrees)
    return TransitionTable(
        source=sx,
        estimator="spectral",
        values={s: float(values[j]) for j, s in enumerate(space.active)},
        error=spec.error,
    )


def amplitude_lower_bound(
    walk: UnitaryWalk, source, target, spectrum: UnitarySpectrum | None = None
) -> float:
    """Lower bound on the infinite-time average weight from averaged amplitudes.

    Uses the arc superpositions with coefficients ``1/|N^l|`` (note these are
    not unit vectors) and sums the squared averaged amplitude per eigenphase
    group.  The value never exceeds the spectral long-time average.
    """
    space = walk.space
    bx = space.block(space.require_active(source))
    by = space.block(space.require_active(target))
    spec = spectrum if spectrum is not None else unitary_spectrum(walk)
    # <y|v_k><v_k|x> for every eigenvector, summed within each group
    terms = spec.vectors[by].mean(axis=0) * spec.vectors[bx].mean(axis=0).conj()
    return float(sum(abs(terms[list(group)].sum()) ** 2 for group in spec.groups))
