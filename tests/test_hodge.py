import numpy as np
import pytest

from simqwalk import (
    InvalidParameterError,
    betti_number,
    hodge_laplacian,
    karate_club_edges,
    laplacian_spectrum,
    verify_chain_identities,
)

import oracles


def test_filled_triangle_laplacian(filled_triangle):
    lap = hodge_laplacian(filled_triangle, 1)
    assert np.diag(lap.up).tolist() == [1, 1, 1]
    assert np.diag(lap.down).tolist() == [2, 2, 2]
    # every edge pair is both upper and lower adjacent: off-diagonals cancel
    assert (lap.total == 3 * np.eye(3, dtype=np.int64)).all()


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
    assert not lap.up.any()
    assert lap.down.any()


def test_laplacian_nonzero_pattern(karate):
    # off-diagonal entries of the total laplacian live exactly on pairs that
    # are lower- but not upper-adjacent
    for n in (1, 2):
        total = hodge_laplacian(karate, n).total
        upper = karate.adjacency(n, "upper").toarray()
        lower = karate.adjacency(n, "lower").toarray()
        off = total - np.diag(np.diag(total))
        assert ((off != 0) == ((lower == 1) & (upper == 0))).all()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_chain_identities_karate(karate, n):
    report = verify_chain_identities(karate, n)
    assert report.all_hold
    # Python bools, not numpy scalars, so callers can serialize the report
    for flag in ("boundary_product_zero", "up_down_zero", "down_up_zero", "all_hold"):
        assert type(getattr(report, flag)) is bool, flag


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
    rank_up = np.linalg.matrix_rank(lap.up.astype(float), tol=1e-9)
    rank_down = np.linalg.matrix_rank(lap.down.astype(float), tol=1e-9)
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
