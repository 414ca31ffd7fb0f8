"""Simplicial communities: exact connectivity oracles, modularity, and
quantum-walk detection.

A community of n-simplices collects simplices reachable from one another
through repeated lower (or upper) adjacency.  The exact oracles return the
connected components of those adjacency relations; the detector instead
grows communities from high-degree seed simplices using the time-averaged
transition weights of the coined quantum walk, assigning a simplex to the
current seed's community whenever its weight beats the flat baseline
``1/m`` of an m-arc walk space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .complexes import Simplex, SimplicialComplex, _integer
from .errors import InvalidParameterError, NoAdjacencyError
from .walk import (
    DEFAULT_TIME_STEPS,
    build_walk_space,
    finite_time_average,
    long_time_average_spectral,
    step_operator,
    unitary_spectrum,
)

__all__ = [
    "CommunityPartition",
    "SymmetryReport",
    "ModularityReport",
    "exact_down_communities",
    "exact_up_communities",
    "verify_symmetry",
    "membership_matrix",
    "simplicial_modularity",
    "detect_communities",
]


@dataclass(frozen=True)
class CommunityPartition:
    """Disjoint communities of n-simplices, in discovery order.

    Members of each community are sorted canonically.
    """

    n: int
    communities: tuple[tuple[Simplex, ...], ...]

    def __post_init__(self):
        seen: set[Simplex] = set()
        for com in self.communities:
            if not com:
                raise InvalidParameterError("empty community")
            for s in com:
                if s in seen:
                    raise InvalidParameterError(f"{s} appears in two communities")
                seen.add(s)

    def __len__(self) -> int:
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    @property
    def labels(self) -> dict[Simplex, int]:
        """Map each simplex to the index of its community."""
        return {s: i for i, com in enumerate(self.communities) for s in com}

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.communities)

    def as_sets(self) -> frozenset[frozenset[Simplex]]:
        """Order-free view, convenient for comparisons."""
        return frozenset(frozenset(c) for c in self.communities)


def _components(K: SimplicialComplex, n: int, flavor: str) -> tuple[tuple[Simplex, ...], ...]:
    """Connected components of ``K.adjacency(n, flavor)``, in order of their
    first simplex, members in canonical order."""
    labels, group = K.components(n, flavor), K.simplices(n)
    order = np.argsort(labels, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return tuple(tuple(group[i] for i in part.tolist()) for part in parts)


def exact_down_communities(K: SimplicialComplex, n: int) -> CommunityPartition:
    """Connected components of lower adjacency among n-simplices (n >= 1).

    Isolated simplices come out as singleton communities.
    """
    n = K._require_dim(n, low=1, too_low="down communities are defined for n >= 1")
    return CommunityPartition(n=n, communities=_components(K, n, "lower"))


def exact_up_communities(K: SimplicialComplex, n: int) -> CommunityPartition:
    """Connected components of upper adjacency among n-simplices (n >= 0)."""
    n = K._require_dim(n)
    return CommunityPartition(n=n, communities=_components(K, n, "upper"))


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of matching (n+1)-down communities to non-singleton n-up ones.

    ``mapping`` pairs each (n+1)-down community with the set of n-faces of
    its members; ``holds`` records whether that map is a bijection onto the
    n-up communities that contain more than one simplex.
    """

    n: int
    holds: bool
    mapping: tuple[tuple[tuple[Simplex, ...], tuple[Simplex, ...]], ...]


def verify_symmetry(K: SimplicialComplex, n: int) -> SymmetryReport:
    """Check the down/up community correspondence across dimensions n+1 and n."""
    n = K._require_dim(n)
    if not K.simplices(n + 1):
        raise InvalidParameterError(f"dimension {n + 1} of the complex is empty")
    down = exact_down_communities(K, n + 1)
    up = exact_up_communities(K, n)
    mapping = []
    images = []
    for com in down.communities:
        image = set()
        for s in com:
            image.update(s[:k] + s[k + 1 :] for k in range(len(s)))
        mapping.append((com, tuple(sorted(image))))
        images.append(frozenset(image))
    up_hat = {frozenset(c) for c in up.communities if len(c) > 1}
    holds = len(set(images)) == len(images) and set(images) == up_hat
    return SymmetryReport(n=n, holds=holds, mapping=tuple(mapping))


def _normalize_partition(K: SimplicialComplex, n: int, partition) -> np.ndarray:
    """The community of every n-simplex, by position: the simplices of every
    community are looked up at once in one map of the n-simplices, and each
    must be found exactly once.  Otherwise an empty or a shared community is
    named as :class:`CommunityPartition` names it, and a wrong cover is counted."""
    given = [tuple(map(tuple, c)) for c in
             (partition.communities if isinstance(partition, CommunityPartition) else partition)]
    position = dict(zip(K.simplices(n), itertools.count()))
    rank = np.fromiter(map(position.get, itertools.chain.from_iterable(given), itertools.repeat(-1)), np.int64)
    sizes = list(map(len, given))
    count = np.bincount(rank[rank >= 0], minlength=len(position))
    if (count == 1).all() and len(rank) == len(position) and all(sizes):
        return np.repeat(np.arange(len(given)), sizes)[np.argsort(rank)]
    CommunityPartition(n, tuple(tuple(sorted(c)) for c in given))
    raise InvalidParameterError(
        "partition does not cover the n-simplices exactly "
        f"(missing {(count == 0).sum()}, extraneous {(rank < 0).sum()})"
    )


def membership_matrix(K: SimplicialComplex, partition: CommunityPartition) -> np.ndarray:
    """0/1 matrix with one row per n-simplex and one column per community."""
    return np.eye(len(partition.communities), dtype=np.int64)[_normalize_partition(K, partition.n, partition)]


@dataclass(frozen=True)
class ModularityReport:
    """Modularity score with its per-community contributions (they sum to it)."""

    n: int
    modularity: float
    arc_count: int
    contributions: tuple[float, ...]


def simplicial_modularity(K: SimplicialComplex, n: int, partition) -> ModularityReport:
    """Modularity of a partition of the n-simplices under lower adjacency.

    Scores ``sum_c (e_c - D_c**2 / m) / m``, where ``e_c`` counts the ordered
    lower-adjacent pairs inside community ``c``, ``D_c`` sums the lower
    neighborhood sizes of its members, and ``m`` is the total ordered count
    of lower-adjacent pairs.  This equals ``trace(W.T @ M @ W) / m`` for the
    membership matrix ``W`` and the modularity matrix ``M`` (the lower
    adjacency minus the degree-product baseline ``|N^l(a)|*|N^l(b)| / m``).

    Raises NoAdjacencyError when ``m`` is zero.
    """
    n = K._require_dim(n, low=1, too_low="modularity is defined for n >= 1")
    label = _normalize_partition(K, n, partition)
    labels = dict(zip(K.simplices(n), label.tolist()))
    internal = [0] * (int(label.max()) + 1)
    degree = [0] * len(internal)
    for s, nbrs in K.lower_neighbors(n).items():
        c = labels[s]
        degree[c] += len(nbrs)
        internal[c] += sum(1 for t in nbrs if labels[t] == c)
    m = sum(degree)
    if m == 0:
        raise NoAdjacencyError(f"no lower-adjacent pairs at dimension {n}")
    per_community = [(e - d * d / m) / m for e, d in zip(internal, degree)]
    return ModularityReport(
        n=n,
        modularity=sum(per_community),
        arc_count=m,
        contributions=tuple(per_community),
    )


def detect_communities(
    K: SimplicialComplex,
    n: int,
    method: str = "finite",
    time_steps: int = DEFAULT_TIME_STEPS,
    threshold: str = "strict",
) -> CommunityPartition:
    """Detect communities of n-simplices with the coined quantum walk.

    Repeatedly seeds a new community at the unassigned simplex with the
    largest lower neighborhood (ties broken canonically), estimates the
    time-averaged transition weights from the seed to every active simplex
    as one array, and recruits the unassigned simplices whose weight beats
    ``1/m``.  Isolated simplices follow as singletons, in canonical order,
    without the walk.

    Parameters
    ----------
    method : {"finite", "spectral"}
        Finite-horizon average over ``time_steps`` steps, or the exact
        infinite-time average from the spectral decomposition.
    time_steps : int
        Horizon for the finite estimator (ignored by the spectral one).
    threshold : {"strict", "geq"}
        Whether recruitment requires the weight to exceed the baseline
        strictly, or to reach it, ties within the estimator's error included.
    """
    if method not in ("finite", "spectral"):
        raise InvalidParameterError(f"unknown estimator {method!r}")
    if threshold not in ("strict", "geq"):
        raise InvalidParameterError(f"unknown threshold mode {threshold!r}")
    time_steps = _integer(time_steps, "time_steps", 1)
    space = build_walk_space(K, n)
    walk = step_operator(space)
    spectrum = unitary_spectrum(walk) if method == "spectral" and space.m else None
    baseline = 1.0 / space.m if space.m else None
    geq = threshold == "geq"
    unassigned = np.ones(len(space.active), dtype=bool)
    communities: list[tuple[Simplex, ...]] = []
    # degrees never change, so one stable sort by -degree orders every seed
    for seed in np.argsort(-space.degrees, kind="stable").tolist():
        if not unassigned[seed]:
            continue
        source = space.active[seed]
        table = (finite_time_average(walk, source, time_steps) if method == "finite"
                 else long_time_average_spectral(walk, source, spectrum))
        excess = table.weights - baseline
        # a tie is within the error bound: states off by e move a simplex's
        # masses by 2e each, and its masses over all states sum to its degree
        band = 2 * table.error * (1 / space.degrees[seed] + 1 / space.degrees)
        members = unassigned & ((excess > band) | (geq & (excess >= -band)))
        members[seed] = True
        unassigned &= ~members
        communities.append(tuple(space.active[i] for i in np.flatnonzero(members).tolist()))
    communities.extend((s,) for s in space.isolated)
    return CommunityPartition(n=space.n, communities=tuple(communities))
