import dataclasses
import random

import numpy as np
import pytest

import simqwalk.community
from simqwalk import (
    CommunityPartition,
    InvalidParameterError,
    NoAdjacencyError,
    clique_complex,
    detect_communities,
    exact_down_communities,
    exact_up_communities,
    membership_matrix,
    simplicial_modularity,
    verify_symmetry,
)

import oracles
from conftest import random_clique_complex
from reference_karate import (
    FOUR_SIMPLEX_COMMUNITY,
    TRIANGLE_COMMUNITIES,
    reference_edge_communities,
    reference_tetra_communities,
)


# -- exact connectivity oracles ----------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 21))
def test_exact_communities_invariant_under_vertex_permutation(seed):
    K = random_clique_complex(seed)
    vertices = [v for (v,) in K.simplices(0)]
    shuffled = vertices[:]
    random.Random(seed).shuffle(shuffled)
    label = dict(zip(vertices, shuffled))
    permuted = clique_complex([(label[u], label[v]) for u, v in K.simplices(1)], max_dim=3)

    def mapped(partition):
        return {frozenset(tuple(sorted(label[v] for v in s)) for s in com) for com in partition}

    assert permuted.max_dim == K.max_dim
    for n in range(K.max_dim + 1):
        assert exact_up_communities(permuted, n).as_sets() == mapped(exact_up_communities(K, n))
        if n:
            assert exact_down_communities(permuted, n).as_sets() == mapped(exact_down_communities(K, n))


def test_bowtie_triangles_are_separate(bowtie):
    part = exact_down_communities(bowtie, 2)
    assert part.as_sets() == {frozenset({(1, 2, 3)}), frozenset({(3, 4, 5)})}


def test_bowtie_edges_connect(bowtie):
    part = exact_down_communities(bowtie, 1)
    assert part.sizes == (6,)


def test_karate_four_simplices_form_one_community(karate):
    part = exact_down_communities(karate, 4)
    assert part.communities == (FOUR_SIMPLEX_COMMUNITY,)


def test_down_communities_match_union_find(karate, bowtie, tetrahedron, star, two_edges):
    for K in (karate, bowtie, tetrahedron, star, two_edges):
        for n in range(1, K.max_dim + 1):
            assert exact_down_communities(K, n).as_sets() == oracles.down_components(K, n)


def test_up_communities_match_union_find(karate, bowtie, two_edges):
    for K in (karate, bowtie, two_edges):
        for n in range(0, K.max_dim):
            assert exact_up_communities(K, n).as_sets() == oracles.up_components(K, n)


def test_bowtie_vertices_upper_connected(bowtie):
    assert exact_up_communities(bowtie, 0).sizes == (5,)


def test_two_edges_vertices_split(two_edges):
    assert len(exact_up_communities(two_edges, 0)) == 2


def test_down_communities_need_positive_dim(karate):
    with pytest.raises(InvalidParameterError):
        exact_down_communities(karate, 0)


# -- symmetry across dimensions ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_karate_symmetry(karate, n):
    assert verify_symmetry(karate, n).holds


def test_triangle_symmetry(filled_triangle):
    report = verify_symmetry(filled_triangle, 1)
    assert report.holds
    assert report.mapping == ((((1, 2, 3),), ((1, 2), (1, 3), (2, 3))),)


def test_bowtie_symmetry(bowtie):
    report = verify_symmetry(bowtie, 1)
    assert report.holds
    assert len(report.mapping) == 2


def test_symmetry_needs_next_dimension(hollow_triangle):
    with pytest.raises(InvalidParameterError):
        verify_symmetry(hollow_triangle, 1)


# -- modularity -------------------------------------------------------------------------


def test_membership_matrix_one_hot(karate):
    part = exact_down_communities(karate, 3)
    w = membership_matrix(karate, part)
    assert w.shape == (11, 3)
    assert (w.sum(axis=1) == 1).all()


def test_reference_edge_modularity(karate):
    report = simplicial_modularity(karate, 1, reference_edge_communities())
    assert report.arc_count == 1056
    assert report.modularity == pytest.approx(0.434, abs=1e-3)
    assert sum(report.contributions) == pytest.approx(report.modularity, abs=1e-12)


def test_reference_triangle_modularity(karate):
    report = simplicial_modularity(karate, 2, TRIANGLE_COMMUNITIES)
    assert report.modularity == pytest.approx(0.515, abs=1e-3)


def test_component_partitions_score_zero(karate):
    for n in (3, 4):
        part = exact_down_communities(karate, n)
        assert simplicial_modularity(karate, n, part).modularity == pytest.approx(0.0, abs=1e-9)


def test_modularity_invariant_under_relabeling(karate):
    communities = list(TRIANGLE_COMMUNITIES)
    baseline = simplicial_modularity(karate, 2, communities).modularity
    reordered = [communities[i] for i in (2, 0, 3, 1)]
    assert simplicial_modularity(karate, 2, reordered).modularity == pytest.approx(
        baseline, abs=1e-12
    )


def test_single_community_matches_direct_formula(karate):
    everything = [karate.simplices(2)]
    report = simplicial_modularity(karate, 2, everything)
    adjacency = karate.adjacency(2, "lower").toarray().astype(float)
    counts = adjacency.sum(axis=1)
    m = counts.sum()
    expected = (adjacency - np.outer(counts, counts) / m).sum() / m
    assert report.modularity == pytest.approx(expected, abs=1e-12)


def _random_partition(simplices, groups, rng):
    labels = [rng.randrange(groups) for _ in simplices]
    communities = [[s for s, c in zip(simplices, labels) if c == g] for g in range(groups)]
    return [c for c in communities if c]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_modularity_matches_dense_oracle(karate, n):
    reference = {
        1: reference_edge_communities(),
        2: TRIANGLE_COMMUNITIES,
        3: reference_tetra_communities(karate),
        4: [FOUR_SIMPLEX_COMMUNITY],
    }[n]
    rng = random.Random(n)
    simplices = karate.simplices(n)
    cases = [(karate, [reference] + [_random_partition(simplices, g, rng) for g in (1, 2, 3, 7)])]
    # and random partitions of the seeded random complexes at dimension n
    for seed in range(1, 21):
        K = random_clique_complex(seed)
        if n <= K.max_dim and K.arc_count(n):
            cases.append((K, [_random_partition(K.simplices(n), g, rng) for g in (1, 2, 3, 7)]))
    assert len(cases) == 1 + {1: 20, 2: 20, 3: 7, 4: 0}[n]
    for K, partitions in cases:
        for communities in partitions:
            report = simplicial_modularity(K, n, communities)
            expected = oracles.modularity_dense(K, n, communities)
            assert report.arc_count == K.arc_count(n)
            assert np.allclose(report.contributions, expected, rtol=1e-12, atol=1e-15)
            assert report.modularity == pytest.approx(expected.sum(), rel=1e-12, abs=1e-15)


def test_modularity_requires_adjacency(bowtie):
    with pytest.raises(NoAdjacencyError):
        simplicial_modularity(bowtie, 2, [[(1, 2, 3)], [(3, 4, 5)]])


def test_modularity_requires_full_cover(karate):
    with pytest.raises(InvalidParameterError):
        simplicial_modularity(karate, 2, [TRIANGLE_COMMUNITIES[0]])


def _altered_partition(K, rng):
    """A random partition of some dimension's simplices, then one or two of:
    a simplex dropped, repeated, reversed, widened, out of the complex or
    written with other id types, an empty community, or a community given
    as an int64 array of rows."""
    n = rng.choice([1, 2, 3])
    communities = [list(c) for c in _random_partition(K.simplices(n), rng.randint(1, 5), rng)]
    for _ in range(rng.randint(0, 2)):
        c = rng.choice(communities)
        i = rng.randrange(len(c)) if c else 0
        change = rng.randrange(7)
        if change == 0 and c:
            del c[i]
        elif change == 1 and c:
            rng.choice(communities).append(c[i])
        elif change == 2 and c:
            c[i] = c[i][::-1]
        elif change == 3 and c:
            c[i] = c[i] + (99,)
        elif change == 4:
            c.append(tuple(range(90, 92 + n - 1)))
        elif change == 5 and c:
            c[i] = rng.choice([tuple(map(float, c[i])), tuple(map(np.int64, c[i])), list(c[i])])
        elif change == 6:
            communities.insert(rng.randrange(len(communities) + 1), [])
    plain = lambda c: c and {type(v) for s in c for v in s} == {int} and len(set(map(len, c))) == 1
    return n, [np.array(c) if plain(c) and rng.random() < 0.5 else c for c in communities]


def test_partition_labels_match_the_set_oracle(karate):
    rng = random.Random(2402)
    outcomes = set()
    for trial in range(400):
        n, communities = _altered_partition(karate, rng)
        try:
            expected = ("labels", oracles.partition_labels(karate, n, communities))
        except InvalidParameterError as exc:
            expected = ("error", str(exc))
        try:
            got = ("labels", simqwalk.community._normalize_partition(karate, n, communities).tolist())
        except InvalidParameterError as exc:
            got = ("error", str(exc))
        assert got == expected, (trial, n, communities)
        kinds = ("labels", "empty community", "appears in two communities", "does not cover")
        outcomes.add(next(kind for kind in kinds if kind in str(expected)))
    assert outcomes == set(kinds)


def test_partition_rejects_overlap():
    with pytest.raises(InvalidParameterError):
        CommunityPartition(n=1, communities=(((1, 2),), ((1, 2), (2, 3))))


# -- quantum-walk detection ----------------------------------------------------------------


def test_path_detection_strict_yields_singletons(path_complex):
    # both time-averaged weights sit exactly at the 1/m baseline here, so the
    # strict comparison recruits nobody
    part = detect_communities(path_complex, 1, threshold="strict")
    assert part.sizes == (1, 1)


def test_path_detection_geq_merges(path_complex):
    part = detect_communities(path_complex, 1, threshold="geq")
    assert part.sizes == (2,)


def test_karate_triangle_communities_detected(karate):
    part = detect_communities(karate, 2, method="finite", time_steps=100)
    assert part.as_sets() == {frozenset(c) for c in TRIANGLE_COMMUNITIES}


def test_karate_triangle_detection_spectral_agrees(karate):
    finite = detect_communities(karate, 2, method="finite", time_steps=100)
    spectral = detect_communities(karate, 2, method="spectral")
    assert finite.as_sets() == spectral.as_sets()


def test_detection_deterministic(karate):
    first = detect_communities(karate, 2)
    second = detect_communities(karate, 2)
    assert first.communities == second.communities


def test_detection_is_partition(karate):
    for n in (1, 2, 3, 4):
        part = detect_communities(karate, n, time_steps=40)
        members = [s for com in part for s in com]
        assert sorted(members) == list(karate.simplices(n))


def test_detected_communities_stay_within_components(karate, bowtie):
    for K, n in [(karate, 2), (karate, 3), (bowtie, 1), (bowtie, 2)]:
        components = exact_down_communities(K, n).as_sets()
        for community in detect_communities(K, n, time_steps=40):
            assert any(set(community) <= comp for comp in components)


def test_isolated_triangle_is_singleton(karate):
    part = detect_communities(karate, 2)
    assert ((25, 26, 32),) in part.communities
    # isolated triangles on either side of a lower-connected K4 in canonical
    # order: the walk's communities come first, then the singletons in order
    k4 = [(u, v) for u in range(20, 24) for v in range(u + 1, 24)]
    disjoint = [(1, 2), (1, 3), (2, 3), (7, 8), (7, 9), (8, 9), (30, 31), (30, 32), (31, 32)]
    K = clique_complex(k4 + disjoint, max_dim=2)
    for method in ("finite", "spectral"):
        part = detect_communities(K, 2, method=method)
        assert part.communities[-3:] == (((1, 2, 3),), ((7, 8, 9),), ((30, 31, 32),))
        walked = {s for com in part.communities[:-3] for s in com}
        assert walked == {(20, 21, 22), (20, 21, 23), (20, 22, 23), (21, 22, 23)}


@pytest.mark.parametrize("threshold", ["strict", "geq"])
def test_many_small_components_detected_exactly(threshold):
    # 300 disjoint K4s: each seed's walk stays on its own four triangles
    k4s = [(u + 4 * i, v + 4 * i) for i in range(300) for u in range(1, 5) for v in range(u + 1, 5)]
    K = clique_complex(k4s, max_dim=3)
    part = detect_communities(K, 2, threshold=threshold)
    assert part == exact_down_communities(K, 2)
    assert len(part) == 300


def test_two_member_walk_sits_at_threshold(karate):
    # the two 4-simplices form a two-arc swap walk whose average weight equals
    # the 1/m baseline exactly: strict keeps them apart, geq merges them
    strict = detect_communities(karate, 4, threshold="strict")
    assert strict.sizes == (1, 1)
    merged = detect_communities(karate, 4, threshold="geq")
    assert merged.communities == (FOUR_SIMPLEX_COMMUNITY,)


@pytest.mark.parametrize("threshold", ["strict", "geq"])
def test_estimators_agree_on_the_four_simplex_tie(karate, threshold):
    # both weights are exactly 1/m: a tie under either estimator, so the
    # outcome follows the threshold rule, not the estimator's rounding
    finite = detect_communities(karate, 4, method="finite", threshold=threshold)
    spectral = detect_communities(karate, 4, method="spectral", threshold=threshold)
    assert finite.communities == spectral.communities
    assert finite.sizes == ((1, 1) if threshold == "strict" else (2,))


@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("nudge", [-1, 1])
def test_rounding_within_the_error_bound_stays_a_tie(karate, monkeypatch, method, nudge):
    # a Schur decomposition gave the tied weights as 0.4999999999999995; a
    # weight moved by less than its error bound decides as the exact one
    name = "finite_time_average" if method == "finite" else "long_time_average_spectral"
    estimate = getattr(simqwalk.community, name)

    def nudged(*args):
        table = estimate(*args)
        return dataclasses.replace(table, weights=table.weights * (1 + nudge * 1e-15))

    monkeypatch.setattr(simqwalk.community, name, nudged)
    assert detect_communities(karate, 4, method=method, threshold="strict").sizes == (1, 1)
    assert detect_communities(karate, 4, method=method, threshold="geq").sizes == (2,)


@pytest.mark.parametrize("threshold", ["strict", "geq"])
@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize(
    "case", ["karate-1", "karate-2", "karate-3", "karate-4"]
    + [f"random{seed}-{n}" for seed in (1, 2, 3, 4) for n in (1, 2)],
)
def test_recruitment_matches_the_one_candidate_reference(karate, case, method, threshold):
    name, n = case.rsplit("-", 1)
    K, n = (karate if name == "karate" else random_clique_complex(int(name[6:]))), int(n)
    part = detect_communities(K, n, method=method, time_steps=100, threshold=threshold)
    assert part.communities == oracles.recruit_reference(K, n, method, 100, threshold)
    # every n-simplex lands in exactly one community
    members = [s for com in part.communities for s in com]
    assert sorted(members) == list(K.simplices(n))


def test_karate_edge_detection_pinned(karate):
    # regression pin: the strict baseline walk recovers the two faction-aligned
    # edge groups except edge (25, 28), which undershoots the baseline from
    # both seeds and ends up alone
    part = detect_communities(karate, 1, method="finite", time_steps=100)
    assert part.sizes == (37, 40, 1)
    assert part.communities[2] == ((25, 28),)
    first, second = reference_edge_communities()
    assert set(part.communities[1]) == set(first)  # officer-side seed runs first
    assert set(part.communities[0]) == set(second) - {(25, 28)}


def test_karate_tetra_detection_pinned(karate):
    # regression pin: the strict baseline walk fragments the nine-tetrahedron
    # cluster instead of recovering it whole
    part = detect_communities(karate, 3, method="finite", time_steps=100)
    assert part.sizes == (1, 4, 3, 1, 1, 1)
    reference = {frozenset(c) for c in reference_tetra_communities(karate)}
    assert part.as_sets() != reference


def test_detection_validates_options(karate):
    with pytest.raises(InvalidParameterError):
        detect_communities(karate, 2, method="classical")
    with pytest.raises(InvalidParameterError):
        detect_communities(karate, 2, threshold="loose")
    with pytest.raises(InvalidParameterError):
        detect_communities(karate, 2, time_steps=0)
