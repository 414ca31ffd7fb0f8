import random
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from simqwalk import (
    DegenerateSimplexError,
    InvalidEdgeError,
    InvalidParameterError,
    SimplicialComplex,
    UnknownSimplexError,
    build_walk_space,
    canonical_simplex,
    clique_complex,
    detect_communities,
    evolve,
    exact_down_communities,
    exact_up_communities,
    faces,
    finite_time_average,
    fourier_block,
    hodge_laplacian,
    karate_club_complex,
    karate_club_edges,
    laplacian_spectrum,
    parse_edge_lines,
    read_edge_list,
    simplicial_modularity,
    step_operator,
    transition_probability,
    transition_profile,
    verify_chain_identities,
    verify_symmetry,
)

import oracles
from conftest import K4_EDGES, random_clique_complex


def test_canonical_simplex_sorts():
    assert canonical_simplex((3, 1, 2)) == (1, 2, 3)


def test_canonical_simplex_vertex():
    assert canonical_simplex((7,)) == (7,)


def test_canonical_simplex_rejects_duplicates():
    with pytest.raises(DegenerateSimplexError):
        canonical_simplex((1, 1, 2))


@pytest.mark.parametrize("vertex", [1.5, True, np.True_])
def test_canonical_simplex_rejects_non_integral_ids(vertex):
    with pytest.raises(InvalidParameterError, match="integers"):
        canonical_simplex((vertex, 2))


def test_canonical_simplex_accepts_integral_values():
    assert canonical_simplex((np.int64(3), 2.0)) == (2, 3)


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


@pytest.mark.parametrize(
    "edge", [(1.5, 2), (1, np.float64(2.7)), (True, 2), (1, np.True_), (1, "4"), (1, 2, 3)]
)
def test_clique_complex_rejects_non_integral_ids(edge):
    with pytest.raises(InvalidEdgeError, match=re.escape(f"edge {edge} ")) as info:
        clique_complex([(2, 3), edge], max_dim=2)
    assert "\n" not in str(info.value)


def test_clique_complex_accepts_integral_ids_of_any_type():
    K = clique_complex([(np.int64(1), 2.0), (2, np.int32(3)), (1.0, 3)], max_dim=2)
    assert K.simplices(2) == ((1, 2, 3),)
    assert all(type(v) is int for n in (0, 1, 2) for s in K.simplices(n) for v in s)


# Ids around 2**63 would collide if they passed through float64.
WIDE_IDS = [1, 2, 5, 9, 2**31, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 7, 10**20, 10**20 + 1]


def test_clique_enumeration_matches_brute_force():
    rng = random.Random(2026)
    above_clique_number = 0
    for trial in range(60):
        size = rng.randint(2, 11)
        labels = rng.sample(WIDE_IDS if trial % 2 else range(1, 60), size)
        density = rng.choice([0.3, 0.6, 0.9, 1.0])
        edges = [
            (labels[a], labels[b])
            for a in range(size) for b in range(a + 1, size) if rng.random() < density
        ]
        if not edges:
            continue
        # repeated and reversed edges change nothing
        edges += rng.sample(edges, len(edges) // 3)
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 2)]
        rng.shuffle(edges)
        max_dim = rng.randint(1, 8)
        K = clique_complex(edges, max_dim=max_dim)
        above_clique_number += K.max_dim < max_dim
        expected = oracles.cliques_brute_force(edges, max_dim)
        assert K.counts == {n: len(group) for n, group in expected.items()}, trial
        for n in range(max_dim + 2):
            assert K.simplices(n) == tuple(expected.get(n, ())), (trial, n)
        for n in range(1, K.max_dim + 1):
            assert np.array_equal(K.boundary_matrix(n).toarray(), oracles.boundary_dense(K, n))
    assert above_clique_number >= 10


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


# -- constructor validation ------------------------------------------------------


@pytest.mark.parametrize(
    "by_dim, message",
    [
        ({0: [(1,), (2,)], 1: [(1, 2), (1,)]}, "(1,) is not a 1-simplex"),
        ({1: [(2, 3, 4), (1, 2, 3)]}, "(1, 2, 3) is not a 1-simplex"),
        ({0: [(1,), (2,)], 1: [(2, 1)]}, "(2, 1) is not canonical (ascending, ids >= 1)"),
        ({0: [(1,), (0,)]}, "(0,) is not canonical (ascending, ids >= 1)"),
        ({1: [(3, 2), (2, 1)]}, "(2, 1) is not canonical"),
        # the first offending simplex in canonical order, whatever its fault
        ({1: [(2, 1), (1, 2, 3)]}, "(1, 2, 3) is not a 1-simplex"),
        ({1: [(3,), (2, 1)]}, "(2, 1) is not canonical"),
        ({0: [(1,), (2,)], 1: [(1, 2), (1, 3)]},
         "complex not closed under faces: (3,) of (1, 3) missing"),
        ({0: [(1,)], 1: [(2, 3), (1, 4)]},
         "complex not closed under faces: (4,) of (1, 4) missing"),
        ({0: [(1,), (2,)], 1: [(1, 2), (2, 3)], 2: [(1, 2, 3)]},
         "complex not closed under faces: (3,) of (2, 3) missing"),
        ({0: [(1,), (2,), (3,)], 1: [(1, 2)], 2: [(1, 2, 3)]},
         "complex not closed under faces: (1, 3) of (1, 2, 3) missing"),
        ({}, "empty complex"),
        ({0: [], 1: []}, "empty complex"),
    ],
)
def test_constructor_rejects_malformed_complexes(by_dim, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        SimplicialComplex(by_dim)


def test_constructor_accepts_closed_complex_in_any_order():
    K = SimplicialComplex({2: [(1, 2, 3)], 1: [(2, 3), (1, 3), (1, 2), (1, 2)], 0: [(3,), (1,), (2,)]})
    assert K.counts == {0: 3, 1: 3, 2: 1}
    assert K.simplices(1) == ((1, 2), (1, 3), (2, 3))
    assert np.array_equal(K.boundary_matrix(2).toarray(), [[1], [-1], [1]])


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


def test_boundary_matrix_matches_oracle_and_is_cached(karate, bowtie, two_edges):
    for K in (karate, bowtie, two_edges):
        for n in range(1, K.max_dim + 1):
            b = K.boundary_matrix(n)
            assert b.dtype == np.int64
            assert np.array_equal(b.toarray(), oracles.boundary_dense(K, n))
            assert K.boundary_matrix(n) is b


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


# karate, 60 seeded random clique complexes and the edge cases of the
# face-rank grouping, each as a complex factory
_GRAM_CASES = [pytest.param(karate_club_complex, id="karate")]
_GRAM_CASES += [pytest.param(lambda seed=seed: random_clique_complex(seed), id=f"random{seed}")
                for seed in range(60)]
_GRAM_CASES += [
    # no dimension above 0: the only adjacency is the empty upper one
    pytest.param(lambda: SimplicialComplex({0: [(1,), (2,), (3,)]}), id="vertices-only"),
    # an isolated vertex, and edges and triangles without lower neighbours
    pytest.param(lambda: SimplicialComplex({0: [(1,), (2,), (3,)], 1: [(1, 2)]}), id="isolated-vertex"),
    pytest.param(lambda: clique_complex([(1, 2), (3, 4)], max_dim=2), id="two-edges"),
    pytest.param(lambda: clique_complex([(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)], max_dim=2),
                 id="bowtie"),
]


def _path_complex(length, seed=None):
    """A path of ``length`` edges, its vertices relabelled at random when seeded."""
    labels = list(range(1, length + 2))
    if seed is not None:
        random.Random(seed).shuffle(labels)
    return clique_complex(list(zip(labels, labels[1:])), max_dim=1)


_COMPONENT_CASES = [pytest.param(lambda seed=seed: random_clique_complex(seed), id=f"random{seed}")
                    for seed in range(1, 21)] + [
    pytest.param(lambda: _path_complex(20_000), id="path"),
    # relabelled, the positions along the path are far from monotone
    pytest.param(lambda: _path_complex(20_000, seed=3), id="relabelled-path"),
    pytest.param(lambda: SimplicialComplex({0: [(1,), (2,), (3,), (7,)], 1: [(1, 2), (1, 3), (2, 3)],
                                            2: [(1, 2, 3)]}), id="isolated-simplices"),
    pytest.param(lambda: clique_complex(K4_EDGES + [(5, 6), (7, 8), (8, 9), (10, 11)], max_dim=3),
                 id="k4-and-strays"),
]


@pytest.mark.parametrize("make", _COMPONENT_CASES)
def test_components_match_union_find(make):
    K = make()
    for n in range(K.max_dim + 1):
        for flavor in ("lower", "upper") if n else ("upper",):
            labels = K.components(n, flavor)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, oracles.component_labels(K, n, flavor)), (n, flavor)


@pytest.mark.parametrize("make", _GRAM_CASES)
def test_adjacency_equals_the_boundary_gram(make):
    K = make()
    for n in range(K.max_dim + 1):
        for flavor in ("lower", "upper") if n else ("upper",):
            a, gram = K.adjacency(n, flavor), oracles.adjacency_gram(K, n, flavor)
            for name in ("indptr", "indices", "data"):
                mine, theirs = getattr(a, name), getattr(gram, name)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), (n, flavor, name)
            assert a.shape == gram.shape and a.has_sorted_indices == gram.has_sorted_indices
            # components: each simplex labelled by its component's first simplex
            _, labels = connected_components(gram, directed=False)
            first = np.unique(labels, return_index=True)[1]
            assert np.array_equal(K.components(n, flavor), first[labels]), (n, flavor)
            group, rows = K.simplices(n), np.diff(gram.indptr)
            if flavor == "lower":
                assert K.arc_count(n) == gram.nnz
                assert K.lower_neighbors(n) == {
                    s: tuple(group[j] for j in gram.indices[gram.indptr[i] : gram.indptr[i + 1]])
                    for i, s in enumerate(group)}
            else:
                # each coface adds its n + 1 other faces to a simplex's row
                assert np.all(rows % (n + 1) == 0)
                assert [K.degree(s, "upper") for s in group] == (rows // (n + 1)).tolist()
    # the upper flavor at the top dimension has no entries
    assert K.adjacency(K.max_dim, "upper").nnz == 0


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


# Pieces of seeded edge files: ids in the forms int() reads, the whitespace
# str.split() splits at (line breaks to str.splitlines() but not to a file),
# and every kind of bad line.
_IDS = ["1", "7", "42", "007", "+3", "1_000", "\u0663", "\uff17\uff10", str(2**63 - 1), str(2**63),
        str(10**20 + 3), "9" * 18, "1" + "0" * 18]
_BLANKS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_BAD = ["1", "1 2 3", "a b", "1.5 2", "0 2", "2 -3", "5 5", "007 7", "1__0 2", "_1 2", "1_ 2",
        "1 2 # comment", "\ufeff1 2", "1\u200b 2", "-0 1", "+-1 2", "1 " + "9" * 5000, "\x00 1 2"]


def _edge_text(rng) -> str:
    lines = []
    for _ in range(rng.randrange(12)):
        pick = rng.random()
        if pick < 0.15:
            lines.append(rng.choice(["", " ", "\t", "\x0c"]))
        elif pick < 0.3:
            lines.append(rng.choice(["", " ", "\t"]) + "#" + rng.choice(["", " 1 2", " x y z", "\u00e9"]))
        elif pick < 0.93:
            u, v = rng.sample(_IDS, 2) if rng.random() < 0.5 else map(str, rng.sample(range(1, 60), 2))
            pad = [rng.choice(_BLANKS) if rng.random() < 0.3 else " \t"[rng.random() < 0.3] for _ in range(3)]
            lines.append(rng.choice(["", pad[0]]) + u + pad[1] + v + rng.choice(["", pad[2]]))
        else:
            lines.append(rng.choice(_BAD))
    ends = [rng.choice(["\n", "\n", "\r\n", "\r"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))[: None if rng.random() < 0.8 else -1]


def _outcome(parse, source):
    try:
        edges = parse(source)
    except InvalidEdgeError as exc:
        return "error", str(exc)
    return "edges", [tuple(e) for e in (edges.tolist() if isinstance(edges, np.ndarray) else edges)]


def test_edge_parsers_match_the_line_oracle(tmp_path):
    rng = random.Random(2401)
    kinds = set()
    for trial in range(400):
        text = _edge_text(rng)
        path = tmp_path / f"edges{trial}.txt"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as fh:
            expected = _outcome(oracles.parse_edge_lines, fh)
        kinds.add(expected[0])
        assert _outcome(read_edge_list, path) == expected, (trial, text)
        with open(path, encoding="utf-8") as fh:
            assert _outcome(parse_edge_lines, fh) == expected, (trial, text)
        lines = text.splitlines()
        assert _outcome(parse_edge_lines, lines) == _outcome(oracles.parse_edge_lines, lines), (trial, text)
        if expected[0] == "edges":
            edges = read_edge_list(path)
            assert edges.shape == (len(expected[1]), 2)
            wide = any(v >= 2**63 for e in expected[1] for v in e)
            assert edges.dtype == (object if wide else np.int64), (trial, text)
            assert all(type(v) is int for v in edges.ravel().tolist())
    assert kinds == {"error", "edges"}


def test_parse_edge_lines_names_a_lone_surrogate():
    with pytest.raises(InvalidEdgeError, match=re.escape("line 2: non-integer vertex in '\\ud800 1'")):
        parse_edge_lines(["1 2", "\ud800 1"])


def test_bundled_karate_edges():
    edges = karate_club_edges()
    assert len(edges) == 78
    assert len({v for e in edges for v in e}) == 34


# -- dimension arguments ------------------------------------------------------------


@pytest.mark.parametrize("call", [
    laplacian_spectrum,
    verify_chain_identities,
    hodge_laplacian,
    exact_down_communities,
    exact_up_communities,
    lambda K, n: simplicial_modularity(K, n, [K.simplices(2)]),
    build_walk_space,
    detect_communities,
    verify_symmetry,
], ids=["spectrum", "verify", "hodge_laplacian", "down", "up", "modularity", "walk_space", "detect",
        "symmetry"])
def test_every_dimension_argument_is_checked_alike(call):
    K = clique_complex(K4_EDGES)
    for bad in (1.5, True, False, "2", None, np.float64("nan"), np.inf):
        with pytest.raises(InvalidParameterError):
            call(K, bad)
    with pytest.raises(InvalidParameterError, match=re.escape("dimension 9 out of range [") + "[01], 3\\]$"):
        call(K, 9)
    for integral in (2.0, np.int64(2)):
        n = call(K, integral).n
        assert n == 2 and type(n) is int


def _k4_walk():
    return step_operator(build_walk_space(clique_complex(K4_EDGES), 1))


@pytest.mark.parametrize("call,name,low,too_low", [
    (fourier_block, "coin dimension", 1, "coin dimension must be >= 1"),
    (lambda t: evolve(_k4_walk(), np.eye(24)[0], t), "number of steps", 0, "number of steps must be >= 0"),
    (lambda t: transition_profile(_k4_walk(), (1, 2), t), "t_max", 1, "t_max must be >= 1"),
    (lambda t: transition_probability(_k4_walk(), (1, 2), (2, 3), t), "time", 1, "time must be >= 1"),
    (lambda t: finite_time_average(_k4_walk(), (1, 2), t), "time_steps", 1, "time_steps must be >= 1"),
    (lambda t: detect_communities(clique_complex(K4_EDGES), 2, "finite", t), "time_steps", 1,
     "time_steps must be >= 1"),
    (lambda d: clique_complex(K4_EDGES, max_dim=d), "max_dim", 1, "max_dim must be >= 1, got 0"),
], ids=["fourier_block", "evolve", "profile", "probability", "finite", "detect", "clique_complex"])
def test_every_count_argument_is_checked_alike(call, name, low, too_low):
    for bad in (1.5, 2.5, True, False, "2", None, np.float64("nan"), np.inf):
        with pytest.raises(InvalidParameterError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(too_low)}$"):
        call(low - 1)
    expected = call(2)
    for integral in (2.0, np.int64(2)):
        result = call(integral)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(result, expected)
        elif hasattr(expected, "weights"):
            assert result.estimator == expected.estimator == "finite(T=2)"
            assert np.array_equal(result.weights, expected.weights)
        elif isinstance(expected, SimplicialComplex):
            assert result.max_dim == 2 and type(result.max_dim) is int
        else:
            assert result == expected


@pytest.mark.parametrize("listing", ["simplices", "num_simplices"])
def test_simplex_listings_check_the_type_of_their_dimension(listing):
    K = clique_complex(K4_EDGES)
    call = getattr(K, listing)
    expected = [call(n) for n in range(K.max_dim + 1)]  # cached before the bad calls
    for bad in (1.5, True, False, "1", None, np.float64("nan"), np.inf):
        with pytest.raises(InvalidParameterError, match=re.escape(f"dimension must be an integer, got {bad!r}")):
            call(bad)
    for integral in (float, np.int64):
        assert [call(integral(n)) for n in range(K.max_dim + 1)] == expected
    # integral dimensions outside [0, max_dim] list nothing
    assert call(-1) == call(K.max_dim + 1) == call(9.0) == ((), 0)[listing == "num_simplices"]


def _same(a, b) -> bool:
    if sp.issparse(a):
        return sp.issparse(b) and a.shape == b.shape and (a != b).nnz == 0
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("call", [
    lambda K, n: K.lower_neighbors(n),
    lambda K, n: K.adjacency(n, "lower"),
    lambda K, n: K.components(n, "lower"),
    lambda K, n: K.arc_count(n),
], ids=["lower_neighbors", "adjacency", "components", "arc_count"])
def test_cached_views_normalise_the_dimension_on_cold_and_warm_caches(call):
    expected = call(karate_club_complex(), 1)
    cold = karate_club_complex()
    assert _same(call(cold, 1.0), expected)
    for K in (karate_club_complex(), cold):  # a cold cache, then one warm at n = 1
        for bad in (True, 1.5):
            with pytest.raises(InvalidParameterError, match="dimension must be an integer"):
                call(K, bad)
    assert _same(call(cold, np.int64(1)), expected)
