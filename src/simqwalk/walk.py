"""Discrete-time coined quantum walk on the lower adjacency of n-simplices.

The walk lives on translation states: one basis arc ``|a -> b>`` per ordered
pair of lower-adjacent n-simplices.  One time step applies a block-diagonal
Fourier coin (one DFT block per source simplex, sized by its lower
neighborhood) followed by the shift that swaps every arc with its reverse.

Evolution runs in a component-major frame: arcs are grouped by
lower-connected component and, inside it, by degree class.  No step leaves a
component, so every initial arc of a source evolves at once as one column of
a state on its component's m_c arcs, exactly, and every other arc keeps
amplitude zero.  States are float64 planes: inside each degree class the
real parts of its arcs come first, then their imaginary parts, so a state is
``(2 m_c, d)`` and a class of degree k is one ``(2k, count * d)`` view.  A
step is then one real matmul per degree class with the ``2k x 2k`` matrix
``[[Re F, -Im F], [Im F, Re F]]`` of its Fourier coin F, and one gather
along the component's planar reverse-row permutation (the shift).

Two estimators of the long-run weight (flat baseline ``1/m`` on m arcs) are
provided: a finite-horizon time average by batched evolution, and the exact
infinite-time average of Aharonov, Ambainis, Kempe and Vazirani (STOC 2001),
``sum_g |<b| P_g |a>|**2`` over the eigenphase projectors of the step U.

The coin C is complex symmetric and the shift S a real involution, so
``U = S C`` has ``U.T = S U S``.  In the reverse-arc basis W (per arc pair
{a, b}: ``(e_a + e_b)/sqrt(2)``, ``i(e_a - e_b)/sqrt(2)``) ``M = W^dagger U W``
is complex symmetric and unitary, so for a generic alpha the real symmetric
``H = Re(e^{i alpha} M)`` commutes with M: an ``eigh`` of it gives real
eigenvectors r of M, and ``K = Im(e^{i alpha} M)`` separates phases that
share a cosine inside clusters of near-equal eigenvalues.  Each coin entry
lands on the 2 x 2 reverse-arc columns of two pairs, so the dense H is one
``bincount`` over the coin blocks, with neither W nor the sparse step.  U
never leaves a lower-connected component, so H and every eigenphase
projector split over them: each component has its own ``eigh``, eigenbasis
block, check, phase groups and group masses, and no group or weight spans two.
Every eigenpair is checked through the coin alone: ``psi = W r`` satisfies
``S psi = conj(psi)``, so ``r^T M r = psi^T C psi`` and the residual
``|C psi - lambda conj(psi)|`` equals ``|Mr - lambda r|``; the check runs
the evolution's planar class matmuls on chunks of columns.  A real r puts
mass ``(r_p**2 + r_q**2)/2`` on both arcs of its pair, so every group's
per-simplex Gram matrix ``G_x`` comes from real vectors and every seed's
weights from one product, ``sum_g tr(G_x G_y)``.

Every BLAS product of the walk (the coin's matmuls, the group masses, the
spectral average's row product and the ``eigh``, LAPACK's divide-and-conquer
``syevd``) runs on numpy's OpenBLAS pool as the process configured it, so
``OPENBLAS_NUM_THREADS`` caps its threads; the walk never sets a thread
count.  Each column of a finite-average state evolves on its own, so a
large state (``_split``) is evolved as two column halves, each a state with
its own buffers: the caller's thread steps one, and one worker thread the
other when the process may run on two CPUs, else the caller after the
first.  The halves' row masses are added once both have ended, so the
bytes do not depend on the CPUs; against the whole state they are summed
in another order, so they differ in the last bits, within the table's
error.  Both estimators run on numpy alone; ``scipy.sparse`` is loaded
only by the sparse coin, shift and step.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .complexes import Simplex, SimplicialComplex, _integer
from .errors import (
    InvalidParameterError,
    IsolatedSimplexError,
    NoAdjacencyError,
    NumericalError,
    UnknownSimplexError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

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
_CHUNK = 32  # columns per block of the eigenpair check and the group masses
_SPLIT_CELLS = 150_000  # see _split
_POOL_GEMM = 1_000_000  # see _split


@dataclass(frozen=True)
class WalkSpace:
    """Ordered basis of translation arcs over lower-adjacent n-simplices, in CSR form.

    The arcs of ``active[i]`` are ``indptr[i]:indptr[i + 1]`` (sources and,
    inside each block, targets in canonical order); ``target[k]`` is the
    position in ``active`` of arc ``k``'s target and ``reverse[k]`` the index
    of its reverse; ``component[i]`` numbers the lower-connected component of
    ``active[i]`` in order of first simplex.  ``index`` maps each active
    simplex to its position.  Isolated simplices are listed separately.
    """

    n: int
    active: tuple[Simplex, ...] = field(repr=False)
    isolated: tuple[Simplex, ...] = field(repr=False)
    index: dict[Simplex, int] = field(repr=False)
    indptr: np.ndarray = field(repr=False, compare=False)
    target: np.ndarray = field(repr=False, compare=False)
    reverse: np.ndarray = field(repr=False, compare=False)
    component: np.ndarray = field(repr=False, compare=False)

    def __repr__(self) -> str:
        return (
            f"WalkSpace(n={self.n}, m={self.m}, active={len(self.active)}, "
            f"isolated={len(self.isolated)})"
        )

    @property
    def m(self) -> int:
        """Hilbert-space dimension: the number of arcs."""
        return len(self.target)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Lower-neighborhood size of every active simplex.  Cached."""
        return np.diff(self.indptr)

    @cached_property
    def source(self) -> np.ndarray:
        """Position in ``active`` of every arc's source.  Cached."""
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
    n = K._require_dim(n, low=1, too_low="the walk is defined for dimensions n >= 1")
    indptr, indices = K._adjacency_arrays(n, "lower")
    group = K.simplices(n)
    # Isolated simplices have empty rows; dropping them leaves the arcs as
    # they are and renumbers the targets to active positions.
    degrees = np.diff(indptr)
    rows = np.flatnonzero(degrees)
    position = np.cumsum(degrees > 0) - 1
    active = tuple(group[i] for i in rows.tolist())
    index = {s: i for i, s in enumerate(active)}
    return WalkSpace(
        n=n,
        active=active,
        isolated=tuple(s for s in group if s not in index),
        index=index,
        indptr=indptr[np.append(rows, len(group))],
        target=position[indices],
        # the adjacency is symmetric, so listing the arcs by (target, source)
        # lists the reverse of every arc in basis order
        reverse=np.argsort(indices, kind="stable"),
        component=np.unique(K.components(n, "lower")[rows], return_inverse=True)[1],
    )


def fourier_block(d: int) -> np.ndarray:
    """The d x d discrete-Fourier coin: entries ``w**(a*b) / sqrt(d)`` with
    ``w = exp(2*pi*i/d)``.  Each phase is ``exp(2*pi*i*a*b/d)`` in floating
    point, so an entry that is real in exact arithmetic may carry a rounding
    in its imaginary part: ``fourier_block(2)[1, 1]`` is ``-1/sqrt(2)`` plus
    about ``8.7e-17 i``."""
    d = _integer(d, "coin dimension", 1)
    idx = np.arange(d)
    return np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)


def coin_operator(space: WalkSpace) -> sp.csr_matrix:
    """Block-diagonal coin: one Fourier block per active source simplex."""
    import scipy.sparse as sp

    blocks = [fourier_block(k) for k in space.degrees.tolist()]
    if not blocks:
        return sp.csr_matrix((0, 0), dtype=np.complex128)
    return sp.block_diag(blocks, format="csr", dtype=np.complex128)


def shift_operator(space: WalkSpace) -> sp.csr_matrix:
    """Involutive permutation sending each arc ``|a -> b>`` to ``|b -> a>``."""
    import scipy.sparse as sp

    m = space.m
    data = np.ones(m, dtype=np.complex128)
    return sp.csr_matrix((data, (np.arange(m), space.reverse)), shape=(m, m))


def _planar_coin(k: int) -> np.ndarray:
    """The k x k Fourier coin acting on real and imaginary planes: the real
    ``2k x 2k`` matrix ``[[Re F, -Im F], [Im F, Re F]]``."""
    f = fourier_block(k)
    return np.block([[f.real, -f.imag], [f.imag, f.real]])


class _Component(NamedTuple):
    """One lower-connected component of the arc frame.

    ``part`` is its frame slice and ``classes`` its degree classes
    ``(slice, k, planar coin)``, local to ``part``.  The component's state is
    planar: its rows are ``planar``, twice ``part``, and each class's real
    rows come first, then its imaginary rows.  ``shift`` is the reverse-arc
    permutation of those planar rows and ``source`` the active index of each
    planar row's source.
    """

    part: slice
    classes: tuple
    shift: np.ndarray
    source: np.ndarray

    @property
    def planar(self) -> slice:
        return slice(2 * self.part.start, 2 * self.part.stop)


@dataclass(frozen=True)
class _ArcFrame:
    """The arc order the evolution kernel works in.

    Blocks are grouped by lower-connected component, in order of first
    simplex, and inside one into degree classes, in ascending degree
    (``components[c]``, c as in ``WalkSpace.component``).  Inside a class of
    ``count`` blocks of degree ``k`` the frame is slot-major: position
    ``offset + a * count + j`` holds arc ``a`` of the class's j-th block.
    States are float64 planes over twice the frame: a class at frame
    positions ``[o, o + s)`` holds its real parts in planar rows
    ``[2o, 2o + s)`` and its imaginary parts in ``[2o + s, 2o + 2s)``.  A
    ``(2 m_c, d)`` state's class rows then reshape, without a copy, to
    ``(2k, count * d)``, so one real ``2k x 2k`` matmul applies the coin to
    every block of the class.
    """

    planes: np.ndarray  # (2, m): arc index -> its real and its imaginary planar row
    components: tuple[_Component, ...]


def _arc_frame(space: WalkSpace) -> _ArcFrame:
    degrees, component = space.degrees, space.component
    # one stable sort of the blocks by (component, degree); runs of equal keys are classes
    order = np.lexsort((degrees, component))
    cuts = np.flatnonzero(np.diff(component[order]) | np.diff(degrees[order])) + 1
    coins = {k: _planar_coin(k) for k in np.unique(degrees).tolist()}
    parts = [np.zeros(0, dtype=np.int64)]
    sizes = [0] * (component.max(initial=-1) + 1)
    classes: list[list] = [[] for _ in sizes]
    for blocks in np.split(order, cuts) if len(order) else []:
        c, k = int(component[blocks[0]]), int(degrees[blocks[0]])
        parts.append((space.indptr[blocks] + np.arange(k)[:, None]).ravel())
        classes[c].append((slice(sizes[c], sizes[c] + parts[-1].size), k, coins[k]))
        sizes[c] += parts[-1].size
    arcs = np.concatenate(parts)
    position = np.empty_like(arcs)
    position[arcs] = np.arange(space.m)
    # frame position q of a class at [o, o + s) has planar rows q + o and q + o + s
    lengths = np.array([part.size for part in parts], dtype=np.int64)
    real = np.arange(space.m) + np.repeat(np.cumsum(lengths) - lengths, lengths)
    planar = np.stack([real, real + np.repeat(lengths, lengths)])
    reverse, source = position[space.reverse[arcs]], space.source[arcs]
    shift, row_source = np.empty(2 * space.m, dtype=np.int64), np.empty(2 * space.m, dtype=np.int64)
    shift[planar], row_source[planar] = planar[:, reverse], source
    starts = (np.cumsum(sizes) - sizes).tolist()
    components = tuple(_Component(slice(a, a + size), tuple(classes[c]),
                                  shift[2 * a : 2 * (a + size)] - 2 * a, row_source[2 * a : 2 * (a + size)])
                       for c, (a, size) in enumerate(zip(starts, sizes)))
    return _ArcFrame(planar[:, position], components)


@dataclass(frozen=True)
class UnitaryWalk:
    """The one-step evolution ``shift @ coin`` on a walk space.

    Both views are built on first use: both estimators run on ``frame`` and
    the coin blocks, and the sparse ``step`` is built only when asked for.
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


def _coin_views(classes, psi: np.ndarray, coined: np.ndarray) -> list:
    """Per degree class of a component: its planar coin and the
    ``(2k, count * d)`` views of the class in planar ``psi`` and ``coined``."""
    return [(coin, psi[2 * part.start : 2 * part.stop].reshape(2 * k, -1),
             coined[2 * part.start : 2 * part.stop].reshape(2 * k, -1))
            for part, k, coin in classes]


def _split(component: _Component, columns: int) -> bool:
    """Whether :func:`finite_time_average` evolves a state of ``columns``
    columns on ``component`` as two column halves: when it has at least 2
    columns and ``_SPLIT_CELLS`` cells (planar rows times columns), and no
    class matmul of the whole state reaches ``_POOL_GEMM`` terms (the
    product of its three dimensions).

    numpy's OpenBLAS spreads a GEMM of ``_POOL_GEMM`` terms or more over its
    pool, and two such GEMMs started from two threads ran slower than one
    after the other: 136 against 112 us for a 30 x 30 by 30 x 1,128
    product, where two of 990,000 terms took 55 against 91 us.

    The ladder behind both limits: ``finite_time_average`` (T = 100) of one
    seed on the components of the benchmark's planted-partition graphs, the
    whole state against two column halves on two threads, medians of 5, 7
    and (the three rows around the limit) 9 alternated runs in three
    rounds, the range over the rounds, 2-core Xeon VM, numpy's OpenBLAS
    pool at two threads:

    walk        rows x columns  cells    whole -> halves (ms)  split
    P240 n = 2  3,144 x 14      44,016   11 -> 19-21           no
    P160 n = 2  4,368 x 19      82,992   22 -> 29-37           no
    P240 n = 2  5,500 x 18      99,000   25-26 -> 28-31        no
    P160 n = 2  5,908 x 23      135,884  39-40 -> 37-45        no
    P240 n = 2  7,144 x 25      178,600  52-78 -> 40-70        yes
    P160 n = 2  7,012 x 28      196,336  58-61 -> 45-68        yes
    P100 n = 1  10,600 x 22     233,200  69-76 -> 46-53        yes
    P100 n = 1  10,600 x 24     254,400  80-88 -> 77-79        no (a GEMM of 1,015,200 terms)
    P240 n = 2  15,072 x 24     361,728  99-101 -> 62-66       yes
    P160 n = 1  53,184 x 14     744,576  324-352 -> 547-571    no (GEMMs of up to 3.6M terms)
    """
    gemm = max(4 * k * (part.stop - part.start) for part, k, _ in component.classes) * columns
    return columns >= 2 and len(component.source) * columns >= _SPLIT_CELLS and gemm < _POOL_GEMM


def _beside(first, second) -> tuple:
    """``first()`` on the caller's thread and ``second()`` on one worker
    thread, or after ``first()`` when the process may run on one CPU only;
    returns both results.  An error of either is raised here, once the
    worker has ended."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return first(), second()
    done = []

    def work():
        try:
            done.append(second())
        except BaseException as exc:  # raised again from the call, below
            done.append(exc)

    worker = threading.Thread(target=work, name="simqwalk-half")
    worker.start()
    try:
        head = first()
    finally:
        worker.join()
    if isinstance(done[0], BaseException):
        raise done[0]
    return head, done[0]


def _evolution(component: _Component, psi: np.ndarray, t_max: int, record=None) -> None:
    """Step a planar ``(2 m_c, d)`` state on one component in place ``t_max``
    times.  With ``record``, ``record(t, mass)`` is called after step ``t``
    (from 0) with the squared amplitude on each planar row, summed over the
    columns; ``mass`` is overwritten by the next step."""
    coined = np.empty_like(psi)
    views = _coin_views(component.classes, psi, coined)
    mass = None if record is None else np.empty(len(psi))
    for t in range(t_max):
        for coin, state, out in views:
            np.matmul(coin, state, out=out)
        # the indices are a permutation, so no index is ever clipped; in
        # the default mode numpy would copy through a buffer instead of
        # writing straight into psi
        np.take(coined, component.shift, axis=0, out=psi, mode="clip")
        if record is not None:
            np.einsum("ij,ij->i", psi, psi, out=mass)
            record(t, mass)


def evolve(walk: UnitaryWalk, state: np.ndarray, t: int) -> np.ndarray:
    """Apply ``t`` walk steps to a state (no matrix powers, no sparse products),
    one lower-connected component at a time."""
    t = _integer(t, "number of steps", 0)
    psi = np.asarray(state, dtype=np.complex128)
    if psi.shape != (walk.space.m,):
        raise InvalidParameterError(f"state has shape {psi.shape}, expected ({walk.space.m},)")
    planes = walk.frame.planes
    block = np.empty((2 * walk.space.m, 1))
    block[planes, 0] = psi.real, psi.imag
    for component in walk.frame.components:
        _evolution(component, block[component.planar], t)
    real, imag = block[planes, 0]
    return real + 1j * imag


def _source_arcs(walk: UnitaryWalk, source: Simplex) -> tuple[_Component, np.ndarray]:
    """The component of an active source and the real planar row, in it,
    of each of the source's initial arcs."""
    component = walk.frame.components[walk.space.component[walk.space.index[source]]]
    return component, walk.frame.planes[0, walk.space.block(source)] - component.planar.start


def _one_hot(component: _Component, rows: np.ndarray) -> np.ndarray:
    """The planar ``(2 m_c, len(rows))`` state with a one in real planar row
    ``rows[j]`` of column j."""
    psi = np.zeros((len(component.source), len(rows)))
    psi[rows, np.arange(len(rows))] = 1.0
    return psi


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
    t_max = _integer(t_max, "t_max", 1)
    space = walk.space
    sx = space.require_active(source)
    component, rows = _source_arcs(walk, sx)
    n_active = len(space.active)
    profile = np.empty((t_max, n_active))

    def record(t, mass):
        profile[t] = np.bincount(component.source, mass, minlength=n_active)

    _evolution(component, _one_hot(component, rows), t_max, record)
    return profile / (len(rows) * space.degrees)


def transition_probability(walk: UnitaryWalk, source, target, t: int) -> float:
    """Normalized transition probability from ``source`` to ``target`` at time t."""
    t = _integer(t, "time", 1)
    space = walk.space
    sy = space.require_active(target)
    profile = transition_profile(walk, source, t)
    return float(profile[t - 1, space.index[sy]])


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """Source-to-target transition weights under one estimator: ``weights[j]``
    is the weight to ``space.active[j]``.  ``error`` bounds the norm error of
    each unit state they are built from."""

    source: Simplex
    estimator: str
    weights: np.ndarray
    error: float
    space: WalkSpace = field(repr=False)

    def __getitem__(self, target) -> float:
        return float(self.weights[self.space.index[tuple(target)]])


def finite_time_average(walk: UnitaryWalk, source, time_steps: int = DEFAULT_TIME_STEPS) -> TransitionTable:
    """Average the transition weights over times ``1..time_steps``.  Raises
    InvalidParameterError, before any step, for a horizon whose error bound
    reaches 1, the norm of the state it bounds."""
    time_steps = _integer(time_steps, "time_steps", 1)
    space = walk.space
    sx = space.require_active(source)
    # a step's real 2k-term coin products round a unit state by about
    # k**1.5 eps (k: largest coin); at T = 100 on karate the state error
    # against dense powers stays about 1,000 times below this sum (past
    # 2**53 steps it exceeds 1 anyway: the cap only keeps it a float)
    error = min(time_steps, 2**53) * float(space.degrees.max()) ** 1.5 * _EPS
    if error >= 1:
        raise InvalidParameterError(f"time_steps {time_steps} is too long: its rounding error "
                                    f"bound reaches 1, the norm of the state")
    component, rows = _source_arcs(walk, sx)

    def row_mass(columns: np.ndarray) -> np.ndarray:
        # every column evolves on its own, so any of them make a state of their own
        out = np.zeros(len(component.source))
        _evolution(component, _one_hot(component, columns), time_steps, lambda t, mass: np.add(out, mass, out=out))
        return out

    if _split(component, len(rows)):
        half = len(rows) // 2
        first, second = _beside(lambda: row_mass(rows[:half]), lambda: row_mass(rows[half:]))
        mass = first + second
    else:
        mass = row_mass(rows)
    total = np.bincount(component.source, mass, minlength=len(space.active))
    mean = total / (time_steps * len(rows) * space.degrees)
    return TransitionTable(sx, f"finite(T={time_steps})", mean, error, space)


@dataclass(frozen=True, eq=False)
class UnitarySpectrum:
    """Eigenphases and orthonormal eigenvectors of the step operator.

    ``basis[c]`` holds component c's eigenvectors as the real columns of one
    ``(m_c, m_c)`` block in the reverse-arc basis of its arc ``pairs`` (sorted
    by component); ``vectors``, in the arc basis, is built on first use.
    ``groups`` clusters eigenvector indices of equal phase (up to a circular
    tolerance) within one component; ``masses[c] @ masses[c]^dagger`` sums
    ``tr(G_x G_y)`` over the groups of component c, one row per active
    simplex of c.  ``error`` bounds each eigenvector's error: residual plus m
    roundings; ``space`` is the walk's space.
    """

    phases: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    basis: tuple[np.ndarray, ...] = field(repr=False)
    pairs: np.ndarray = field(repr=False)
    masses: tuple[np.ndarray, ...] = field(repr=False)
    error: float
    space: WalkSpace = field(repr=False)

    def _rows(self, arcs: np.ndarray) -> np.ndarray:
        """The rows ``arcs`` of ``vectors``: each from its pair's rows of its
        component's block, and zero in every other component's columns."""
        second, pair = np.divmod(np.argsort(self.pairs, axis=None)[arcs], self.pairs.shape[1])
        component = self.space.component[self.space.source[arcs]]
        starts = np.cumsum([0] + [len(block) for block in self.basis])
        rows = np.zeros((len(arcs), self.space.m), dtype=np.complex128)
        for c in np.unique(component).tolist():
            own, columns = component == c, slice(starts[c], starts[c + 1])
            sym, anti = self.basis[c][2 * pair[own] - columns.start + np.arange(2)[:, None]] / np.sqrt(2)
            rows[own, columns] = np.where(second[own, None] == 1, sym - 1j * anti, sym + 1j * anti)
        return rows

    @cached_property
    def vectors(self) -> np.ndarray:
        """Orthonormal eigenvectors in the arc basis, one per column."""
        return self._rows(np.arange(self.space.m))


def _group_phases(phases: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Indices of ``phases`` in [0, 2*pi), grouped as numerically equal.

    Sorted phases join the current group while the gap to the previous one is
    at most ``tol``, so a chain of small gaps can make a group wider than
    ``tol``.  Phases live on a circle: when the first group's lowest phase is
    within ``tol`` of the last group's highest across 2*pi, the last group is
    merged in front of the first.
    """
    order = np.argsort(phases).tolist()
    cuts = (np.flatnonzero(np.diff(phases[order]) > tol) + 1).tolist()
    groups = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [len(order)])] if order else []
    if len(groups) > 1 and phases[groups[0][0]] + 2 * np.pi - phases[groups[-1][-1]] <= tol:
        groups[0] = groups.pop() + groups[0]
    return tuple(groups)


def _reverse_arc_entries(space: WalkSpace, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``row * m + col`` and values of the entries of ``e^{i alpha} M``
    on the m reverse-arc columns of the ``m / 2`` arc ``pairs``, which hold
    every arc of their sources (one component, or more).  Coin entry
    ``C[a, b]`` of a source block is ``U[reverse[a], b]``; with p the pair of
    a and q that of b, W puts ``(1, i s_b, -i s_r, s_r s_b) / 2`` times it at
    rows ``2p + (0, 0, 1, 1)`` and columns ``2q + (0, 1, 0, 1)`` (s: +1 on a
    pair's first arc, -1 on its second; r is ``reverse[a]``)."""
    m = 2 * pairs.shape[1]
    # position a holds arc pairs.flat[order[a]]: the sources' blocks one after another
    order = np.argsort(pairs, axis=None)
    pair, sign = order % (m // 2), np.where(order < m // 2, 1.0, -1.0)
    starts = np.flatnonzero(np.diff(space.source[pairs.ravel()[order]], prepend=-1))
    degrees = np.diff(starts, append=m)
    blocks = [np.add.outer(starts[degrees == k], np.arange(k)) for k in np.unique(degrees).tolist()]
    a = np.concatenate([np.repeat(block, block.shape[1], axis=1).ravel() for block in blocks])
    b = np.concatenate([np.tile(block, block.shape[1]).ravel() for block in blocks])
    z = np.concatenate([np.tile(fourier_block(block.shape[1]).ravel(), len(block)) for block in blocks])
    z *= np.exp(1j * _ALPHA) / 2
    s_r, s_b, corner = -sign[a], sign[b], 2 * pair[a] * m + 2 * pair[b]
    flat = corner + np.array([[0], [1], [m], [m + 1]])
    return flat.ravel(), np.stack([z, 1j * s_b * z, -1j * s_r * z, s_r * s_b * z]).ravel()


def _real_eigenvectors(m: int, entries) -> np.ndarray:
    """Real orthonormal eigenvectors of the m x m complex symmetric unitary
    ``h + i k`` whose entries ``entries()`` returns, as values at positions
    ``row * m + col``: those of the dense ``h`` (cos phi), separated by ``k``
    (sin phi) in clusters of near-equal cos phi.  The entries are dropped
    before the ``eigh`` and made again only for a cluster."""
    flat, values = entries()
    h = np.bincount(flat, values.real, minlength=m * m).reshape(m, m)
    del flat, values
    try:
        cos, basis = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh of the step operator failed: {exc}") from None
    del h
    edges = np.concatenate([[0], np.flatnonzero(np.diff(cos) > _CLUSTER_GAP) + 1, [m]])
    clusters = [(lo, hi) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()) if hi - lo > 1]
    if clusters:
        flat, values = entries()
        rows, cols = np.divmod(flat, m)
    for lo, hi in clusters:
        sub = basis[:, lo:hi]
        k_sub = np.stack([np.bincount(rows, values.imag * column[cols], minlength=m)
                          for column in sub.T], axis=1)
        basis[:, lo:hi] = sub @ np.linalg.eigh(sub.T @ k_sub)[1]
    return basis


def _coin_eigenpairs(walk: UnitaryWalk, c: int, pairs: np.ndarray, basis: np.ndarray):
    """Rayleigh quotients ``r^T M r`` and residuals ``|Mr - lambda r|`` of the
    real columns r of ``basis`` (reverse-arc basis of component c's
    ``pairs``) through the coin alone: ``psi = W r`` satisfies
    ``S psi = conj(psi)``, so ``lambda = psi^T C psi`` and ``|C psi - lambda
    conj(psi)| = |Mr - lambda r|``, one GEMM per class and chunk of columns."""
    component, m = walk.frame.components[c], basis.shape[0]
    # sqrt(2) psi holds r[2p] on the real rows of both arcs of pair p and
    # +-r[2p + 1] on their imaginary rows; the planes of i conj(psi) swap
    # each arc's real and imaginary row, so they come from the same rows of r
    rows = walk.frame.planes[:, pairs] - component.planar.start
    pick = np.empty(2 * m, dtype=np.int64)
    pick[rows] = 2 * np.arange(m // 2) + np.arange(2)[:, None, None]
    sign, conj_sign, swap_sign = np.ones(2 * m), np.ones(2 * m), np.ones(2 * m)
    sign[rows[1, 1]] = conj_sign[rows[1]] = swap_sign[rows[0, 1]] = -1.0
    eigenvalues, residuals = np.empty(m, dtype=np.complex128), np.empty(m)
    for columns in (slice(lo, lo + _CHUNK) for lo in range(0, m, _CHUNK)):
        r = basis[:, columns]
        psi = r[pick]
        psi *= sign[:, None]
        coined = np.empty_like(psi)
        for coin, state, out in _coin_views(component.classes, psi, coined):
            np.matmul(coin, state, out=out)
        conj, swapped = psi, r[pick ^ 1]
        conj *= conj_sign[:, None]
        swapped *= swap_sign[:, None]
        real = np.einsum("ij,ij->j", conj, coined) / 2
        imag = np.einsum("ij,ij->j", swapped, coined) / 2
        eigenvalues[columns] = real + 1j * imag
        conj *= real
        swapped *= imag
        coined -= conj
        coined -= swapped
        residuals[columns] = np.sqrt(np.einsum("ij,ij->j", coined, coined) / 2)
    return eigenvalues, residuals


def _group_masses(space: WalkSpace, pairs: np.ndarray, basis: np.ndarray, groups) -> np.ndarray:
    """Entries ``G_x[i, j]`` of the Gram matrices of one component's
    ``groups`` of columns of its ``basis``, one row per active simplex x of
    the component and one column per (i, j) in a group: with
    ``z = sym + i anti``, arc a of a pair adds ``conj(z_i) z_j / 2`` to its
    source's entry and arc b the conjugate, so the real part sums over both
    arcs' sources and the imaginary part takes their difference."""
    source = np.unique(space.source[pairs], return_inverse=True)[1].reshape(pairs.shape)
    plus, minus = np.zeros((2, source.max() + 1, pairs.shape[1]))
    plus[source, np.arange(pairs.shape[1])], minus[source, np.arange(pairs.shape[1])] = 0.5, [[0.5], [-0.5]]
    size = np.fromiter(map(len, groups), np.int64, len(groups))
    flat = np.fromiter(itertools.chain.from_iterable(groups), np.int64, size.sum())
    # entry e of a group g of k members is (i, j) = (g[c], g[r]) with r, c = divmod(e, k)
    square = size * size
    entry = np.arange(square.sum()) - np.repeat(np.cumsum(square) - square, square)
    r, c = np.divmod(entry, np.repeat(size, square))
    start = np.repeat(np.cumsum(size) - size, square)
    i, j = flat[start + c], flat[start + r]
    # a diagonal entry G_x[i, i] is real, so chunks of them skip the imaginary product
    masses = np.zeros((len(i), len(plus)), dtype=np.complex128)
    vectors = basis.T
    for lo in range(0, len(i), _CHUNK):
        ii, jj = i[lo : lo + _CHUNK], j[lo : lo + _CHUNK]
        sym_i, anti_i, sym_j, anti_j = vectors[ii, 0::2], vectors[ii, 1::2], vectors[jj, 0::2], vectors[jj, 1::2]
        masses.real[lo : lo + _CHUNK] = (sym_i * sym_j + anti_i * anti_j) @ plus.T
        if (ii != jj).any():
            masses.imag[lo : lo + _CHUNK] = (sym_i * anti_j - anti_i * sym_j) @ minus.T
    return masses.T


def unitary_spectrum(walk: UnitaryWalk) -> UnitarySpectrum:
    """Spectral decomposition of the step operator from one real symmetric
    ``eigh`` per lower-connected component in the reverse-arc basis (module
    docstring).  With the pairs sorted stably by component, each component
    is taken start to finish on its own pairs: its eigenvectors, kept as its
    own block of ``basis``, their check, their phase groups and its group
    masses.  Raises NoAdjacencyError on a walk without arcs, and
    NumericalError when the peak exceeds physical memory, when an
    allocation fails anyway, or when a residual exceeds ``RESIDUAL_TOL``.
    The peak is the blocks kept so far beside one ``eigh`` (H, LAPACK's
    copy, its ``2 m_c**2`` workspace and the eigenvectors, which become the
    component's block), at most ``8 sum(m_c**2) + 32 max(m_c)**2`` bytes
    over the components' arc counts m_c."""
    space, m = walk.space, walk.space.m
    if m == 0:
        raise NoAdjacencyError(f"no lower-adjacent pairs at dimension {space.n}")
    sizes = np.bincount(space.component[space.source])
    stops = np.cumsum(sizes).tolist()
    need = 8 * int(sizes @ sizes) + 32 * int(sizes.max()) ** 2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise NumericalError(f"the spectrum of {m} arcs needs {need / 2**30:.1f} GiB, "
                             f"more than the {have / 2**30:.1f} GiB of physical memory")
    first = np.flatnonzero(np.arange(m) < space.reverse)
    first = first[np.argsort(space.component[space.source[first]], kind="stable")]
    pairs = np.stack([first, space.reverse[first]])
    basis, phases, residuals, groups, masses = [], np.empty(m), np.empty(m), [], []
    try:
        for c, part in enumerate(map(slice, [0] + stops[:-1], stops)):
            own = pairs[:, part.start // 2 : part.stop // 2]
            basis.append(_real_eigenvectors(part.stop - part.start, lambda: _reverse_arc_entries(space, own)))
            eigenvalues, residuals[part] = _coin_eigenpairs(walk, c, own, basis[c])
            if residuals[part].max() > RESIDUAL_TOL:
                raise NumericalError(f"eigenpair residual {residuals[part].max():.1e} exceeds {RESIDUAL_TOL:g}")
            phases[part] = np.mod(np.angle(eigenvalues), 2 * np.pi)
            local = _group_phases(phases[part], DEFAULT_PHASE_TOL)
            groups.extend(tuple(part.start + i for i in group) for group in local)
            masses.append(_group_masses(space, own, basis[c], local))
    except MemoryError:
        raise NumericalError(f"the spectrum of {m} arcs ran out of memory") from None
    return UnitarySpectrum(phases, tuple(groups), tuple(basis), pairs, tuple(masses),
                           residuals.max() + m * _EPS, space)


def _spectrum_of(walk: UnitaryWalk, spectrum: UnitarySpectrum | None) -> UnitarySpectrum:
    """``spectrum``, if it was taken on the walk's space, or the walk's own."""
    if spectrum is None:
        return unitary_spectrum(walk)
    if spectrum.space != walk.space:
        raise InvalidParameterError(f"the spectrum is of {spectrum.space!r}, not of the walk's {walk.space!r}")
    return spectrum


def long_time_average_spectral(
    walk: UnitaryWalk, source, spectrum: UnitarySpectrum | None = None
) -> TransitionTable:
    """Exact infinite-time average of the transition weights from ``source``.

    The weight to a target sums ``|<target arc| P_g |source arc>|**2`` over
    eigenphase groups g and arcs, with the same degree normalization as the
    per-time weights: one row of ``masses[c] @ masses[c]^dagger`` for the
    source's component c, and an exact zero for every simplex outside it.
    """
    space = walk.space
    sx = space.require_active(source)
    spec = _spectrum_of(walk, spectrum)
    ix = space.index[sx]
    members = np.flatnonzero(space.component == space.component[ix])
    masses, weights = spec.masses[space.component[ix]], np.zeros(len(space.active))
    row = (masses @ masses[np.searchsorted(members, ix)].conj()).real
    weights[members] = row / (space.degrees[ix] * space.degrees[members])
    return TransitionTable(sx, "spectral", weights, spec.error, space)


def amplitude_lower_bound(
    walk: UnitaryWalk, source, target, spectrum: UnitarySpectrum | None = None
) -> float:
    """Lower bound on the infinite-time average weight from averaged amplitudes.

    Uses the arc superpositions with coefficients ``1/|N^l|`` (note these are
    not unit vectors) and sums the squared averaged amplitude per eigenphase
    group.  The value never exceeds the spectral long-time average.
    """
    space = walk.space
    sx, sy = space.require_active(source), space.require_active(target)
    bx, by = space.block(sx), space.block(sy)
    spec = _spectrum_of(walk, spectrum)
    if space.component[space.index[sx]] != space.component[space.index[sy]]:
        return 0.0  # no eigenvector has amplitude on both
    # <y|v_k><v_k|x> for every eigenvector, summed within each group
    x, y = (spec._rows(np.arange(block.start, block.stop)).mean(axis=0) for block in (bx, by))
    terms = y * x.conj()
    return float(sum(abs(terms[list(group)].sum()) ** 2 for group in spec.groups))
