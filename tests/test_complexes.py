import random

import numpy as np
import pytest
import scipy.sparse as sp

from simqwalk import (
    DegenerateSimplexError,
    InvalidEdgeError,
    InvalidParameterError,
    UnknownSimplexError,
    canonical_simplex,
    clique_complex,
    faces,
    karate_club_edges,
    parse_edge_lines,
)

import oracles


def test_canonical_simplex_sorts():
    assert canonical_simplex((3, 1, 2)) == (1, 2, 3)


def test_canonical_simplex_vertex():
    assert canonical_simplex((7,)) == (7,)


def test_canonical_simplex_rejects_duplicates():
    with pytest.raises(DegenerateSimplexError):
        canonical_simplex((1, 1, 2))


def test_canonical_simplex_rejects_bad_ids():
    with pytest.raises(InvalidParameterError):
        canonical_simplex(())
    with pytest.raises(InvalidParameterError):
        canonical_simplex((0, 1))


def test_faces_of_triangle():
    assert faces((1, 2, 3), 1) == [(1, 2), (1, 3), (2, 3)]


def test_faces_vertices_of_tetrahedron():
    assert faces((1, 2, 3, 4), 0) == [(1,), (2,), (3,), (4,)]


def test_faces_count():
    assert len(faces((1, 2, 3, 4, 8), 3)) == 5


def test_faces_dimension_check():
    with pytest.raises(InvalidParameterError):
        faces((1, 2), 1)


# -- clique complexes -----------------------------------------------------------


def test_triangle_counts(filled_triangle):
    assert filled_triangle.counts == {0: 3, 1: 3, 2: 1}


def test_path_has_no_triangle(path_complex):
    assert path_complex.num_simplices(2) == 0
    assert path_complex.max_dim == 1


def test_karate_counts(karate):
    assert karate.counts == {0: 34, 1: 78, 2: 45, 3: 11, 4: 2}


def test_clique_complex_rejects_self_loop():
    with pytest.raises(InvalidEdgeError):
        clique_complex([(1, 1)], max_dim=2)


def test_clique_complex_rejects_bad_max_dim():
    with pytest.raises(InvalidParameterError):
        clique_complex([(1, 2)], max_dim=0)


def test_clique_complex_independent_of_edge_order():
    edges = karate_club_edges()
    reference = clique_complex(edges)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
        rng.shuffle(shuffled)
        rebuilt = clique_complex(shuffled)
        for n in range(reference.max_dim + 1):
            assert rebuilt.simplices(n) == reference.simplices(n)


def test_face_closure(karate, bowtie, tetrahedron):
    for K in (karate, bowtie, tetrahedron):
        for n in range(1, K.max_dim + 1):
            for s in K.simplices(n):
                assert all(f in K for f in faces(s, n - 1))


# -- boundary matrices ----------------------------------------------------------


def test_boundary_single_edge():
    K = clique_complex([(1, 2)], max_dim=1)
    b = K.boundary_matrix(1).toarray()
    assert b.tolist() == [[-1], [1]]


def test_boundary_filled_triangle(filled_triangle):
    b2 = filled_triangle.boundary_matrix(2).toarray()
    # rows ordered (1,2), (1,3), (2,3)
    assert b2.ravel().tolist() == [1, -1, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_of_boundary_is_zero(karate, n):
    product = karate.boundary_matrix(n) @ karate.boundary_matrix(n + 1)
    assert product.count_nonzero() == 0
    assert product.dtype == np.int64


def test_boundary_columns_alternate_signs(karate):
    for n in range(1, karate.max_dim + 1):
        b = karate.boundary_matrix(n).toarray()
        for j, s in enumerate(karate.simplices(n)):
            col = b[:, j]
            assert np.count_nonzero(col) == n + 1
            signs = [col[karate.position(s[:k] + s[k + 1 :])] for k in range(n + 1)]
            assert signs == [(-1) ** k for k in range(n + 1)]


def test_boundary_matrix_range_checks(karate):
    with pytest.raises(InvalidParameterError):
        karate.boundary_matrix(0)
    with pytest.raises(InvalidParameterError):
        karate.boundary_matrix(5)


# -- adjacency and degrees --------------------------------------------------------


def test_triangle_edges_all_upper_adjacent(filled_triangle):
    a = filled_triangle.adjacency(1, "upper").toarray()
    assert (a == 1 - np.eye(3, dtype=np.int64)).all()


def test_path_lower_adjacency(path_complex):
    a = path_complex.adjacency(1, "lower").toarray()
    assert a.tolist() == [[0, 1], [1, 0]]


def test_bowtie_triangles_not_lower_adjacent(bowtie):
    a = bowtie.adjacency(2, "lower").toarray()
    assert not a.any()


def test_adjacency_symmetric_zero_diagonal(karate):
    for n, flavor in [(0, "upper"), (1, "upper"), (1, "lower"), (2, "lower")]:
        a = karate.adjacency(n, flavor).toarray()
        assert (a == a.T).all()
        assert not np.diag(a).any()


def test_upper_adjacency_implies_lower(karate):
    for n in (1, 2, 3):
        upper = karate.adjacency(n, "upper").toarray()
        lower = karate.adjacency(n, "lower").toarray()
        assert ((upper == 1) <= (lower == 1)).all()


def _adjacency_cases(karate, bowtie, two_edges):
    cases = [(karate, n, "lower") for n in range(1, 5)]
    cases += [(karate, n, "upper") for n in range(0, 5)]  # n = 0 is the graph; 4 is empty
    for K in (bowtie, two_edges):
        cases += [(K, n, "lower") for n in range(1, K.max_dim + 1)]
        cases += [(K, n, "upper") for n in range(0, K.max_dim + 1)]
    return cases


def test_adjacency_matches_pairwise_oracles(karate, bowtie, two_edges):
    for K, n, flavor in _adjacency_cases(karate, bowtie, two_edges):
        a = K.adjacency(n, flavor)
        assert isinstance(a, sp.csr_matrix) and a.has_sorted_indices
        dense = a.toarray()
        group = K.simplices(n)
        for i, s in enumerate(group):
            for j, t in enumerate(group):
                if flavor == "lower":
                    expected = oracles.lower_adjacent(s, t)
                else:
                    expected = oracles.upper_adjacent(K, s, t)
                assert dense[i, j] == int(expected), (n, flavor, s, t)


def test_upper_adjacency_at_top_dimension_is_empty(karate):
    a = karate.adjacency(karate.max_dim, "upper")
    assert a.shape == (2, 2) and a.nnz == 0


def test_graph_is_upper_adjacency_of_vertices(karate):
    a = karate.adjacency(0, "upper")
    edges = {tuple(sorted((i + 1, j + 1))) for i, j in zip(*a.nonzero())}
    assert edges == {tuple(sorted(e)) for e in karate_club_edges()}


def test_adjacency_is_cached(karate):
    assert karate.adjacency(2, "lower") is karate.adjacency(2, "lower")


def test_lower_adjacency_needs_positive_dim(karate):
    with pytest.raises(InvalidParameterError):
        karate.adjacency(0, "lower")


def test_upper_degree_triangle(filled_triangle):
    assert filled_triangle.degree((1, 2), "upper") == 1


def test_lower_degree_is_dim_plus_one(karate):
    for s in karate.simplices(2)[:5]:
        assert karate.degree(s, "lower") == 3


def test_karate_edge_upper_degree_matches_enumeration(karate):
    for edge in [(1, 2), (33, 34), (25, 26)]:
        assert karate.degree(edge, "upper") == len(oracles.cofaces_containing(karate, edge))


def test_upper_degree_matches_coface_enumeration(karate, bowtie, two_edges):
    for K in (karate, bowtie, two_edges):
        for n in range(K.max_dim + 1):
            for s in K.simplices(n):
                assert K.degree(s, "upper") == len(oracles.cofaces_containing(K, s)), s


def test_degree_unknown_simplex(karate):
    with pytest.raises(UnknownSimplexError):
        karate.degree((1, 99), "upper")


# -- lower neighborhoods ----------------------------------------------------------


def test_triangle_lower_neighborhood(filled_triangle):
    assert filled_triangle.lower_neighborhood((1, 2)) == {(1, 3), (2, 3)}


def test_path_lower_neighborhood(path_complex):
    assert path_complex.lower_neighborhood((1, 2)) == {(2, 3)}


def test_lower_neighborhoods_match_pairwise_enumeration(karate, bowtie):
    for K, n in [(bowtie, 1), (bowtie, 2), (karate, 2), (karate, 3)]:
        for s in K.simplices(n):
            assert K.lower_neighborhood(s) == oracles.pairwise_lower_neighbors(K, n, s)


def test_karate_arc_count_from_vertex_degrees(karate):
    # each edge has (deg(u)-1) + (deg(v)-1) lower neighbors
    degree = {v[0]: karate.degree(v, "upper") for v in karate.simplices(0)}
    expected = sum(d * (d - 1) for d in degree.values())
    assert karate.arc_count(1) == expected == 1056


def test_arc_counts_are_even(karate, bowtie, tetrahedron):
    for K in (karate, bowtie, tetrahedron):
        for n in range(1, K.max_dim + 1):
            assert K.arc_count(n) % 2 == 0


def test_lower_neighborhood_row_sums(karate):
    a = karate.adjacency(2, "lower").toarray()
    nbrs = karate.lower_neighbors(2)
    for i, s in enumerate(karate.simplices(2)):
        assert a[i].sum() == len(nbrs[s])


# -- edge-list parsing -------------------------------------------------------------


def test_parse_edge_lines_skips_comments_and_blanks():
    lines = ["# header", "", "1 2", "  3\t4  ", "# trailing"]
    assert parse_edge_lines(lines) == [(1, 2), (3, 4)]


@pytest.mark.parametrize(
    "bad", ["1 2 3", "1", "a b", "0 2", "5 5"]
)
def test_parse_edge_lines_rejects_malformed(bad):
    with pytest.raises(InvalidEdgeError):
        parse_edge_lines([bad])


def test_bundled_karate_edges():
    edges = karate_club_edges()
    assert len(edges) == 78
    assert len({v for e in edges for v in e}) == 34
