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
from reference_karate import (
    FOUR_SIMPLEX_COMMUNITY,
    TRIANGLE_COMMUNITIES,
    reference_edge_communities,
    reference_tetra_communities,
)


# -- exact connectivity oracles ----------------------------------------------------


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
    partitions = [reference] + [_random_partition(simplices, g, rng) for g in (1, 2, 3, 7)]
    for communities in partitions:
        report = simplicial_modularity(karate, n, communities)
        expected = oracles.modularity_dense(karate, n, communities)
        assert report.arc_count == karate.arc_count(n)
        assert np.allclose(report.contributions, expected, rtol=1e-12, atol=1e-15)
        assert report.modularity == pytest.approx(expected.sum(), rel=1e-12, abs=1e-15)


def test_modularity_requires_adjacency(bowtie):
    with pytest.raises(NoAdjacencyError):
        simplicial_modularity(bowtie, 2, [[(1, 2, 3)], [(3, 4, 5)]])


def test_modularity_requires_full_cover(karate):
    with pytest.raises(InvalidParameterError):
        simplicial_modularity(karate, 2, [TRIANGLE_COMMUNITIES[0]])


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
        values = {s: w * (1 + nudge * 1e-15) for s, w in table.values.items()}
        return dataclasses.replace(table, values=values)

    monkeypatch.setattr(simqwalk.community, name, nudged)
    assert detect_communities(karate, 4, method=method, threshold="strict").sizes == (1, 1)
    assert detect_communities(karate, 4, method=method, threshold="geq").sizes == (2,)


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
