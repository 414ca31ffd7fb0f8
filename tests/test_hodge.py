import random
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from simqwalk import (
    InvalidParameterError,
    SimplicialComplex,
    betti_number,
    clique_complex,
    hodge_laplacian,
    karate_club_complex,
    karate_club_edges,
    laplacian_spectrum,
    verify_chain_identities,
)

import oracles
from conftest import K4_EDGES, random_clique_complex


def test_filled_triangle_laplacian(filled_triangle):
    lap = hodge_laplacian(filled_triangle, 1)
    assert np.diag(lap.up.toarray()).tolist() == [1, 1, 1]
    assert np.diag(lap.down.toarray()).tolist() == [2, 2, 2]
    # every edge pair is both upper and lower adjacent: off-diagonals cancel
    assert (lap.total.toarray() == 3 * np.eye(3, dtype=np.int64)).all()


def test_dimension_zero_is_graph_laplacian(karate):
    lap = hodge_laplacian(karate, 0)
    assert lap.down is None
    size = karate.num_simplices(0)
    expected = np.zeros((size, size), dtype=np.int64)
    for u, v in karate_club_edges():
        expected[u - 1, u - 1] += 1
        expected[v - 1, v - 1] += 1
        expected[u - 1, v - 1] -= 1
        expected[v - 1, u - 1] -= 1
    assert (lap.total == expected).all()


def test_hollow_triangle_up_laplacian_vanishes(hollow_triangle):
    lap = hodge_laplacian(hollow_triangle, 1)
    assert not lap.up.toarray().any()
    assert lap.down.toarray().any()


def test_laplacian_nonzero_pattern(karate):
    # off-diagonal entries of the total laplacian live exactly on pairs that
    # are lower- but not upper-adjacent
    for n in (1, 2):
        total = hodge_laplacian(karate, n).total.toarray()
        upper = karate.adjacency(n, "upper").toarray()
        lower = karate.adjacency(n, "lower").toarray()
        off = total - np.diag(np.diag(total))
        assert ((off != 0) == ((lower == 1) & (upper == 0))).all()


@pytest.mark.parametrize("name", ["karate", "bowtie", "two_edges", "hollow_triangle",
                                  *(f"random-{seed}" for seed in range(8))])
def test_laplacian_matches_dense_oracle(request, name):
    if name.startswith("random-"):
        K = random_clique_complex(int(name[7:]))
    else:
        K = request.getfixturevalue(name)
    for n in range(K.max_dim + 1):
        lap = hodge_laplacian(K, n)
        up, down, total = oracles.laplacian_dense(K, n)
        pairs = [(lap.up, up), (lap.total, total)]
        if n == 0:
            assert lap.down is None and not down.any()
        else:
            pairs.append((lap.down, down))
        for got, want in pairs:
            assert isinstance(got, sp.csr_matrix) and got.dtype == np.int64
            assert np.array_equal(got.toarray(), want), (name, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unsigned_boundaries_break_chain_identities(n):
    # with |B| in place of B nothing cancels, so a check that cannot fail shows;
    # the face signs are made unsigned in place on a fresh complex, before any
    # transpose, Gram or product has read them
    K = karate_club_complex()
    for dim in range(1, K.max_dim + 2):
        signs = K._signed_faces(dim)[2]
        signs[:] = 1
    report = verify_chain_identities(K, n)
    for flag in ("boundary_product_zero", "up_down_zero", "down_up_zero"):
        assert getattr(report, flag) is False, flag  # a Python bool, and False


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_chain_identities_karate(karate, n):
    report = verify_chain_identities(karate, n)
    assert report.all_hold
    # Python bools, not numpy scalars, so callers can serialize the report
    for flag in ("boundary_product_zero", "up_down_zero", "down_up_zero", "all_hold"):
        assert type(getattr(report, flag)) is bool, flag
    for seed in range(40):
        K = random_clique_complex(seed)
        if n <= K.max_dim:
            assert verify_chain_identities(K, n).all_hold, seed


def test_chain_identities_trivial_on_path(path_complex):
    report = verify_chain_identities(path_complex, 1)
    assert report.all_hold


def test_chain_identity_dimension_check(karate):
    with pytest.raises(InvalidParameterError):
        verify_chain_identities(karate, 9)


def test_betti_hollow_vs_filled(hollow_triangle, filled_triangle):
    assert betti_number(hollow_triangle, 1) == 1
    assert betti_number(filled_triangle, 1) == 0


def test_betti_zero_counts_components(karate, two_edges):
    assert betti_number(karate, 0) == oracles.graph_component_count(karate_club_edges()) == 1
    assert betti_number(two_edges, 0) == 2


def test_spectrum_sorted_and_nonnegative(karate):
    for n in range(karate.max_dim + 1):
        report = laplacian_spectrum(karate, n)
        assert (np.diff(report.eigenvalues) >= 0).all()
        assert report.eigenvalues.min() > -1e-9


def test_spectrum_tolerance_validation(karate):
    with pytest.raises(InvalidParameterError):
        laplacian_spectrum(karate, 1, kernel_tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_spectrum_tolerance_must_be_finite(karate, tol):
    with pytest.raises(InvalidParameterError):
        laplacian_spectrum(karate, 1, kernel_tol=tol)


def test_images_annihilate_exactly(karate):
    # integer test vectors make im(up) ⊥ im(down) an exact statement
    rng = np.random.default_rng(11)
    for n in (1, 2):
        lap = hodge_laplacian(karate, n)
        size = lap.up.shape[0]
        x = rng.integers(-5, 6, size=size)
        y = rng.integers(-5, 6, size=size)
        assert np.array_equal(lap.down @ (lap.up @ x), np.zeros(size, dtype=np.int64))
        assert (lap.up @ x) @ (lap.down @ y) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_betti_matches_rank_nullity(karate, n):
    # independent route: dimension count minus boundary ranks
    rank_low = np.linalg.matrix_rank(karate.boundary_matrix(n).toarray().astype(float))
    rank_high = np.linalg.matrix_rank(karate.boundary_matrix(n + 1).toarray().astype(float))
    expected = karate.num_simplices(n) - rank_low - rank_high
    assert betti_number(karate, n) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_decomposition(karate, n):
    lap = hodge_laplacian(karate, n)
    rank_up = np.linalg.matrix_rank(lap.up.toarray().astype(float), tol=1e-9)
    rank_down = np.linalg.matrix_rank(lap.down.toarray().astype(float), tol=1e-9)
    assert rank_up + rank_down + betti_number(karate, n) == karate.num_simplices(n)


def test_orientation_flip_conjugates_laplacian(karate):
    # flipping one simplex orientation conjugates L by a sign matrix and
    # leaves the spectrum untouched
    for n, flip in [(1, 5), (2, 17)]:
        b_low = karate.boundary_matrix(n).toarray()
        b_high = karate.boundary_matrix(n + 1).toarray()
        size = karate.num_simplices(n)
        total = b_high @ b_high.T + b_low.T @ b_low
        b_low_f = b_low.copy()
        b_low_f[:, flip] *= -1
        b_high_f = b_high.copy()
        b_high_f[flip, :] *= -1
        flipped = b_high_f @ b_high_f.T + b_low_f.T @ b_low_f
        signs = np.eye(size, dtype=np.int64)
        signs[flip, flip] = -1
        assert (flipped == signs @ total @ signs).all()
        assert np.allclose(
            np.linalg.eigvalsh(flipped.astype(float)),
            np.linalg.eigvalsh(total.astype(float)),
            atol=1e-9,
        )


# -- per-component spectrum ---------------------------------------------------------


def _disjoint_blocks(k4s):
    """``k4s`` disjoint K4s, then 20 isolated triangles and 10 isolated edges:
    components of several sizes at every dimension."""
    edges = [(4 * b + i, 4 * b + j) for b in range(k4s) for i in range(1, 5) for j in range(i + 1, 5)]
    base = 4 * k4s
    edges += [(base + 3 * t + i, base + 3 * t + j) for t in range(20) for i, j in ((1, 2), (1, 3), (2, 3))]
    base += 60
    edges += [(base + 2 * e + 1, base + 2 * e + 2) for e in range(10)]
    return clique_complex(edges, max_dim=3)


def _random_complex(seed):
    # seeds 3 and 7 split the triangles into blocks of two and three sizes
    rng = random.Random(seed)
    size = rng.randint(14, 20)
    pairs = [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)]
    return clique_complex([edge for edge in pairs if rng.random() < 0.3], max_dim=4)


@pytest.mark.parametrize("name", ["blocks", "karate", "random-3", "random-7"])
def test_spectrum_matches_dense_eigvalsh(karate, name):
    if name == "blocks":
        K = _disjoint_blocks(300)
    else:
        K = karate if name == "karate" else _random_complex(int(name[7:]))
    for n in range(K.max_dim + 1):
        report = laplacian_spectrum(K, n)
        want = np.linalg.eigvalsh(oracles.laplacian_dense(K, n)[2].astype(float))
        assert report.eigenvalues.shape == want.shape
        assert np.all(np.diff(report.eigenvalues) >= 0)
        assert np.abs(report.eigenvalues - want).max() <= 1e-10, (name, n)
        assert report.betti == int(np.count_nonzero(want < 1e-9)), (name, n)


def _incidence_blocks(K, n):
    """Sizes of the blocks the spectrum at n densifies, from the union-find
    oracle: for B_n and B_{n+1}, the smaller side of each component of the
    face-coface incidence, faces grouped by upper adjacency and each coface
    with its faces."""
    sizes = []
    for k in (n, n + 1):
        if 1 <= k <= K.max_dim:
            for part in oracles.up_components(K, k - 1):
                cofaces = sum(1 for s in K.simplices(k) if s[1:] in part)
                sizes.append(min(len(part), cofaces))
    return Counter(size for size in sizes if size)


def _recorded_eigvalsh_shapes(monkeypatch):
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


def test_spectrum_decomposes_no_matrix_larger_than_a_component(monkeypatch):
    K = _disjoint_blocks(30)
    shapes = _recorded_eigvalsh_shapes(monkeypatch)
    for n in range(K.max_dim + 1):
        shapes.clear()
        laplacian_spectrum(K, n)
        # one batched call per block size; each block is the smaller side of
        # an incidence component of B_n or B_{n+1}
        want = sorted((count, k, k) for k, count in _incidence_blocks(K, n).items())
        assert sorted(shapes) == want, n
        parts = oracles.down_components(K, n) if n else oracles.up_components(K, 0)
        assert max(shape[-1] for shape in shapes) <= max(len(part) for part in parts), n


def test_edge_spectrum_of_planted_blocks_needs_no_matrix_beyond_the_graph(monkeypatch):
    # six dense blocks of ten vertices with few links between them, P160 in
    # small: all edges form one lower-connected component, yet at n = 1 the
    # graph Laplacian is the largest block and each block of B_2 is one
    # planted block's edges or triangles
    rng = random.Random(1)
    edges = [(u, v) for u in range(1, 61) for v in range(u + 1, 61)
             if rng.random() < (0.5 if (u - 1) // 10 == (v - 1) // 10 else 0.03)]
    K = clique_complex(edges, max_dim=3)
    assert len(oracles.down_components(K, 1)) == 1
    shapes = _recorded_eigvalsh_shapes(monkeypatch)
    laplacian_spectrum(K, 1)
    want = sorted((count, k, k) for k, count in _incidence_blocks(K, 1).items())
    assert sorted(shapes) == want
    vertices = max(len(part) for part in oracles.up_components(K, 0))
    assert max(shape[-1] for shape in shapes) <= vertices < K.num_simplices(1)


def _assert_spectrum_matches_dense(K, name):
    for n in range(K.max_dim + 1):
        report = laplacian_spectrum(K, n)
        want = np.linalg.eigvalsh(oracles.laplacian_dense(K, n)[2].astype(float))
        assert report.eigenvalues.shape == want.shape, (name, n)
        assert report.eigenvalues.min() >= 0, (name, n)  # the kept values outrank the added zeros
        assert np.abs(report.eigenvalues - want).max() <= 1e-10, (name, n)
        assert report.betti == int(np.count_nonzero(want < 1e-9)), (name, n)


def test_spectrum_sweep_matches_dense_oracle():
    for seed in range(80):
        _assert_spectrum_matches_dense(random_clique_complex(seed), seed)


OCTAHEDRON = [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if v - u != 3]

# small complexes at the edges of the decomposition, with their holes per dimension
EDGE_CASES = {
    "isolated-vertices": (lambda: SimplicialComplex(
        {0: [(v,) for v in range(1, 6)], 1: [(1, 2), (1, 3), (2, 3)], 2: [(1, 2, 3)]}), [3, 0, 0]),
    "vertices-only": (lambda: SimplicialComplex({0: [(1,), (4,)]}), [2]),
    "above-top-dimension": (lambda: clique_complex(K4_EDGES + [(4, 5), (5, 6)], max_dim=7),
                            [1, 0, 0, 0]),
    "hollow-octahedron": (lambda: clique_complex(OCTAHEDRON, max_dim=4), [1, 0, 1]),
    "hollow-pentagon-and-triangle": (lambda: clique_complex(
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7), (6, 8), (7, 8)]), [2, 1, 0]),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_spectrum_edge_cases_match_dense_oracle(name):
    make, betti = EDGE_CASES[name]
    K = make()
    assert K.max_dim == len(betti) - 1
    assert [laplacian_spectrum(K, n).betti for n in range(K.max_dim + 1)] == betti
    _assert_spectrum_matches_dense(K, name)
    with pytest.raises(InvalidParameterError):
        laplacian_spectrum(K, K.max_dim + 1)


def test_results_holding_arrays_compare_by_identity(karate):
    # == on two instances returns a bool, where a generated __eq__ over
    # array fields raised ValueError
    for make in (laplacian_spectrum, hodge_laplacian):
        a, b = make(karate, 1), make(karate, 1)
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True, make.__name__
