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

Two estimators of the long-run source-to-target transition behavior are
provided: a finite-horizon time average obtained by batched evolution, and
the exact infinite-time average obtained from the spectral decomposition of
the step operator (eigenphase groups handled with orthogonal projectors, so
degenerate phases are treated correctly).  Both report the degree-normalized
transition weight whose flat baseline is ``1/m`` on an m-arc space.
"""

from __future__ import annotations

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
    """One-step evolution ``step = shift @ coin`` with its factors.

    The sparse matrices serve the spectral estimator; evolution runs on
    ``frame`` instead.
    """

    space: WalkSpace
    coin: sp.csr_matrix
    shift: sp.csr_matrix
    step: sp.csr_matrix

    @cached_property
    def frame(self) -> _ArcFrame:
        """The evolution kernel's arc order, built on first use."""
        return _arc_frame(self.space)


def step_operator(space: WalkSpace) -> UnitaryWalk:
    """Assemble coin, shift, and composed step operator for a walk space."""
    coin = coin_operator(space)
    shift = shift_operator(space)
    return UnitaryWalk(space=space, coin=coin, shift=shift, step=(shift @ coin).tocsr())


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
    if t_max < 1:
        raise InvalidParameterError("t_max must be >= 1")
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
    """Source-to-target transition weights under one estimator."""

    source: Simplex
    estimator: str
    values: dict[Simplex, float]

    def __getitem__(self, target) -> float:
        return self.values[tuple(target)]


def finite_time_average(
    walk: UnitaryWalk, source, time_steps: int = DEFAULT_TIME_STEPS
) -> TransitionTable:
    """Average the transition weights over times ``1..time_steps``."""
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
    )


@dataclass(frozen=True)
class UnitarySpectrum:
    """Eigenphases and orthonormal eigenvectors of the step operator.

    ``groups`` partitions eigenvector indices into clusters of equal phase
    (up to a circular tolerance); projectors onto those clusters make the
    infinite-time average well defined even with degenerate phases.
    """

    phases: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]


def _group_phases(phases: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    order = np.argsort(phases)
    groups: list[list[int]] = [[int(order[0])]]
    for k in order[1:]:
        if phases[k] - phases[groups[-1][-1]] <= tol:
            groups[-1].append(int(k))
        else:
            groups.append([int(k)])
    # phases live on a circle: 0 and 2*pi may belong together
    if len(groups) > 1 and phases[groups[0][0]] + 2 * np.pi - phases[groups[-1][-1]] <= tol:
        groups[0] = groups.pop() + groups[0]
    return tuple(tuple(g) for g in groups)


def unitary_spectrum(
    walk: UnitaryWalk, phase_tol: float = DEFAULT_PHASE_TOL
) -> UnitarySpectrum:
    """Spectral decomposition of the step operator via its Schur form.

    A unitary matrix is normal, so the complex Schur form is diagonal and
    the Schur vectors are orthonormal eigenvectors by construction.
    """
    dense = walk.step.toarray()
    try:
        triangular, vectors = scipy.linalg.schur(dense, output="complex")
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError("Schur decomposition of the step operator failed") from exc
    diag = np.diag(triangular)
    off = triangular - np.diag(diag)
    if off.size and np.abs(off).max() > 1e-8:
        raise NumericalError("step operator is not numerically normal")
    phases = np.mod(np.angle(diag), 2 * np.pi)
    return UnitarySpectrum(
        phases=phases,
        vectors=vectors,
        groups=_group_phases(phases, phase_tol),
    )


def long_time_average_spectral(
    walk: UnitaryWalk, source, spectrum: UnitarySpectrum | None = None
) -> TransitionTable:
    """Exact infinite-time average of the transition weights from ``source``.

    Computed from eigenphase-group projectors ``P_g``: the weight to a target
    sums ``|<target arc| P_g |source arc>|**2`` over groups and arcs, with the
    same degree normalization as the per-time weights.  When every phase is
    simple this reduces to the plain sum over eigenvectors.
    """
    space = walk.space
    sx = space.require_active(source)
    spec = spectrum if spectrum is not None else unitary_spectrum(walk)
    blk = space.block(sx)
    acc = np.zeros(len(space.active))
    for group in spec.groups:
        basis = spec.vectors[:, list(group)]
        projected = basis @ basis.conj().T[:, blk]  # columns P_g |source -> v>
        acc += np.add.reduceat((np.abs(projected) ** 2).sum(axis=1), space.indptr[:-1])
    d_source = blk.stop - blk.start
    values = acc / (d_source * space.degrees)
    return TransitionTable(
        source=sx,
        estimator="spectral",
        values={s: float(values[j]) for j, s in enumerate(space.active)},
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
    sx = space.require_active(source)
    sy = space.require_active(target)
    spec = spectrum if spectrum is not None else unitary_spectrum(walk)
    bx = space.block(sx)
    by = space.block(sy)
    x = np.zeros(space.m, dtype=np.complex128)
    x[bx] = 1.0 / (bx.stop - bx.start)
    y = np.zeros(space.m, dtype=np.complex128)
    y[by] = 1.0 / (by.stop - by.start)
    total = 0.0
    for group in spec.groups:
        basis = spec.vectors[:, list(group)]
        amp = np.vdot(y, basis @ (basis.conj().T @ x))
        total += float(np.abs(amp) ** 2)
    return total
