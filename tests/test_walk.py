import cmath
import random

import numpy as np
import pytest
import scipy.sparse as sp

from simqwalk import (
    InvalidParameterError,
    IsolatedSimplexError,
    NumericalError,
    UnknownSimplexError,
    amplitude_lower_bound,
    basis_state,
    build_walk_space,
    clique_complex,
    detect_communities,
    evolve,
    finite_time_average,
    fourier_block,
    karate_club_edges,
    long_time_average_spectral,
    shift_operator,
    step_operator,
    transition_probability,
    transition_profile,
    unitary_spectrum,
)
import simqwalk.cli
import simqwalk.community
import simqwalk.walk as walk_module
from simqwalk.walk import _group_phases, _symmetric_eigenpairs

import oracles
from conftest import BOWTIE_EDGES


def walk_on(K, n=1):
    return step_operator(build_walk_space(K, n))


# -- walk space -----------------------------------------------------------------


def test_path_walk_space(path_complex):
    ws = build_walk_space(path_complex, 1)
    assert ws.arcs == (((1, 2), (2, 3)), ((2, 3), (1, 2)))
    assert ws.m == 2
    assert ws.isolated == ()


def test_triangle_walk_space(filled_triangle):
    ws = build_walk_space(filled_triangle, 1)
    assert ws.m == 6
    assert all(ws.degree(s) == 2 for s in ws.active)


def test_walk_space_matches_arc_count(karate):
    for n in (1, 2, 3):
        ws = build_walk_space(karate, n)
        assert ws.m == karate.arc_count(n)
        assert set(ws.active) | set(ws.isolated) == set(karate.simplices(n))


def test_karate_triangle_arc_count_against_enumeration(karate):
    import oracles

    expected = sum(
        len(oracles.pairwise_lower_neighbors(karate, 2, s)) for s in karate.simplices(2)
    )
    assert build_walk_space(karate, 2).m == expected == 302


def test_walk_space_isolated_triangle(karate):
    ws = build_walk_space(karate, 2)
    assert ws.isolated == ((25, 26, 32),)


def test_walk_space_reverse_arcs_present(karate):
    ws = build_walk_space(karate, 2)
    for a, b in ws.arcs:
        assert 0 <= ws.arc(b, a) < ws.m
    for i, (a, b) in enumerate(ws.arcs):
        assert ws.arcs[ws.reverse[i]] == (b, a)


def test_walk_space_grouped_by_source(karate):
    ws = build_walk_space(karate, 1)
    sources = [a for a, _ in ws.arcs]
    assert sources == sorted(sources)
    for s in ws.active:
        blk = ws.block(s)
        targets = [b for _, b in ws.arcs[blk]]
        assert targets == sorted(targets)


def test_walk_space_csr_matches_lower_neighbors(karate, bowtie, two_edges):
    for K, n in [(karate, 1), (karate, 2), (karate, 3), (karate, 4), (bowtie, 1), (bowtie, 2)]:
        ws = build_walk_space(K, n)
        nbrs = K.lower_neighbors(n)
        assert ws.indptr[0] == 0 and ws.indptr[-1] == ws.m
        assert len(ws.indptr) == len(ws.active) + 1
        for i, s in enumerate(ws.active):
            assert ws.index[s] == i
            targets = ws.target[ws.indptr[i] : ws.indptr[i + 1]]
            assert tuple(ws.active[j] for j in targets) == nbrs[s]
            assert ws.degree(s) == len(nbrs[s])
        assert ws.isolated == tuple(s for s in K.simplices(n) if not nbrs[s])
    empty = build_walk_space(two_edges, 1)
    assert empty.m == 0 and empty.active == () and empty.indptr.tolist() == [0]


def test_arc_round_trips_every_arc(karate):
    ws = build_walk_space(karate, 2)
    for k, (a, b) in enumerate(ws.arcs):
        assert ws.arc(a, b) == k
    with pytest.raises(UnknownSimplexError):
        ws.arc((1, 2, 3), (1, 2, 3))  # no arc from a simplex to itself
    with pytest.raises(UnknownSimplexError):
        ws.arc((1, 2, 3), (30, 33, 34))  # both active, not lower-adjacent
    with pytest.raises(UnknownSimplexError):
        ws.arc((1, 2, 3), (25, 26, 32))  # isolated target
    with pytest.raises(UnknownSimplexError):
        ws.arc((1, 2), (1, 3))  # not 2-simplices


def test_walk_space_rejects_vertices(karate):
    with pytest.raises(InvalidParameterError):
        build_walk_space(karate, 0)


# -- coin, shift, step -------------------------------------------------------------


def test_fourier_block_d1():
    assert fourier_block(1).tolist() == [[1.0 + 0j]]


def test_fourier_block_d2():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(fourier_block(2), expected, atol=1e-15)


def test_fourier_block_d3():
    w = cmath.exp(2j * cmath.pi / 3)
    expected = np.array(
        [[1, 1, 1], [1, w, w**2], [1, w**2, w**4]], dtype=complex
    ) / np.sqrt(3)
    f = fourier_block(3)
    assert np.allclose(f, expected, atol=1e-14)
    assert np.abs(f.conj().T @ f - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize(
    "edges,n",
    [(BOWTIE_EDGES, 1), (BOWTIE_EDGES, 2), ([(1, 2), (1, 3), (2, 3)], 1)],
)
def test_operators_unitary(edges, n):
    K = clique_complex(edges, max_dim=2)
    ws = build_walk_space(K, n)
    if not ws.m:
        return
    walk = step_operator(ws)
    eye = np.eye(ws.m)
    for op in (walk_module.coin_operator(ws), shift_operator(ws), walk.step):
        dense = op.toarray()
        assert np.abs(dense.conj().T @ dense - eye).max() < 1e-10


def test_shift_is_involution(karate):
    ws = build_walk_space(karate, 2)
    s = shift_operator(ws)
    product = (s @ s) - np.eye(ws.m)
    assert np.abs(product.toarray() if hasattr(product, "toarray") else product).max() == 0


def test_shift_swaps_arcs(karate):
    ws = build_walk_space(karate, 1)
    walk = step_operator(ws)
    for arc in ws.arcs[:10]:
        state = basis_state(walk, *arc)
        shifted = shift_operator(ws) @ state
        assert shifted[ws.arc(arc[1], arc[0])] == 1.0
        assert np.count_nonzero(shifted) == 1


def test_path_step_is_swap(path_complex):
    walk = walk_on(path_complex)
    u = walk.step.toarray()
    assert np.allclose(u, [[0, 1], [1, 0]], atol=1e-15)
    assert np.allclose(u @ u, np.eye(2), atol=1e-15)


# -- evolution ----------------------------------------------------------------------


def test_evolve_zero_steps_is_identity(filled_triangle):
    walk = walk_on(filled_triangle)
    state = basis_state(walk, (1, 2), (1, 3))
    assert np.array_equal(evolve(walk, state, 0), state)


def test_evolve_path_swaps_and_returns(path_complex):
    walk = walk_on(path_complex)
    start = basis_state(walk, (1, 2), (2, 3))
    once = evolve(walk, start, 1)
    assert once[walk.space.arc((2, 3), (1, 2))] == pytest.approx(1.0)
    assert np.allclose(evolve(walk, start, 2), start, atol=1e-15)


def test_evolve_preserves_norm(bowtie):
    walk = walk_on(bowtie)
    rng = np.random.default_rng(3)
    state = rng.normal(size=walk.space.m) + 1j * rng.normal(size=walk.space.m)
    state /= np.linalg.norm(state)
    out = evolve(walk, state, 500)
    assert abs(np.linalg.norm(out) ** 2 - 1.0) < 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_evolve_stays_unitary_over_500_steps(karate, n):
    # dimension 2 mixes thirteen degree classes, dimension 4 has only
    # degree-1 blocks
    walk = walk_on(karate, n)
    rng = np.random.default_rng(11)
    states = rng.normal(size=(3, walk.space.m)) + 1j * rng.normal(size=(3, walk.space.m))
    evolved = np.array([evolve(walk, state, 500) for state in states])
    assert np.abs(evolved.conj() @ evolved.T - states.conj() @ states.T).max() < 1e-9


def test_evolve_matches_step_matrix(karate):
    walk = walk_on(karate, 2)
    state = np.random.default_rng(5).normal(size=walk.space.m).astype(complex)
    expected = state
    for t in range(1, 6):
        expected = walk.step @ expected
        assert np.abs(evolve(walk, state, t) - expected).max() < 1e-12


def test_finite_path_builds_no_sparse_operator(karate, monkeypatch, tmp_path):
    def refuse(space):
        raise AssertionError("the finite path built a sparse operator")

    walks = []

    def recorded(space):
        walks.append(step_operator(space))
        return walks[-1]

    monkeypatch.setattr(walk_module, "coin_operator", refuse)
    monkeypatch.setattr(walk_module, "shift_operator", refuse)
    monkeypatch.setattr(simqwalk.community, "step_operator", recorded)
    monkeypatch.setattr(simqwalk.cli, "step_operator", recorded)
    for n in (1, 2, 3, 4):
        detect_communities(karate, n, method="finite")
    edges = tmp_path / "karate.txt"
    edges.write_text("\n".join(f"{u} {v}" for u, v in karate_club_edges()) + "\n")
    argv = ["walk", "--dim", "1", "--source", "1,2", "--method", "finite", str(edges)]
    assert simqwalk.cli.main(argv + ["--output", str(tmp_path / "w.json")]) == 0
    walk = recorded(build_walk_space(karate, 2))
    source = walk.space.active[0]
    finite_time_average(walk, source, 10)
    transition_profile(walk, source, 10)
    evolve(walk, basis_state(walk, *walk.space.arcs[0]), 10)
    assert len(walks) == 6
    assert all("step" not in vars(w) for w in walks)


def test_evolve_rejects_negative_time(path_complex):
    walk = walk_on(path_complex)
    with pytest.raises(InvalidParameterError):
        evolve(walk, basis_state(walk, (1, 2), (2, 3)), -1)


# -- transition probabilities ----------------------------------------------------------


def test_path_transition_parity(path_complex):
    walk = walk_on(path_complex)
    for t in (1, 2, 3, 4, 7, 10):
        hop = transition_probability(walk, (1, 2), (2, 3), t)
        stay = transition_probability(walk, (1, 2), (1, 2), t)
        assert hop == pytest.approx(1.0 if t % 2 else 0.0, abs=1e-15)
        assert stay == pytest.approx(0.0 if t % 2 else 1.0, abs=1e-15)


@pytest.mark.parametrize("t", [1, 2, 5])
def test_sum_rule(filled_triangle, bowtie, t):
    for K in (filled_triangle, bowtie):
        walk = walk_on(K)
        degrees = np.array([walk.space.degree(s) for s in walk.space.active])
        for source in walk.space.active:
            profile = transition_profile(walk, source, t)
            assert profile[t - 1] @ degrees == pytest.approx(1.0, abs=1e-9)


def test_transition_probability_requires_t_geq_1(path_complex):
    walk = walk_on(path_complex)
    with pytest.raises(InvalidParameterError):
        transition_probability(walk, (1, 2), (2, 3), 0)


def test_finite_average_path_even_horizon(path_complex):
    walk = walk_on(path_complex)
    table = finite_time_average(walk, (1, 2), time_steps=100)
    assert table[(2, 3)] == pytest.approx(0.5, abs=1e-15)
    assert table.estimator == "finite(T=100)"


def test_finite_average_path_t3(path_complex):
    walk = walk_on(path_complex)
    table = finite_time_average(walk, (1, 2), time_steps=3)
    assert table[(2, 3)] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_finite_average_sum_rule(karate_walk_n2):
    walk = karate_walk_n2
    degrees = np.array([walk.space.degree(s) for s in walk.space.active])
    table = finite_time_average(walk, (1, 2, 3), time_steps=25)
    values = np.array([table[s] for s in walk.space.active])
    assert values @ degrees == pytest.approx(1.0, abs=1e-9)


def _one_source_per_degree(space, limit):
    by_degree = {}
    for s in space.active:
        by_degree.setdefault(space.degree(s), s)
    return [by_degree[k] for k in sorted(by_degree)[:limit]]


@pytest.mark.parametrize("name,n", [("karate", 2), ("karate", 3), ("karate", 4), ("bowtie", 1)])
def test_kernel_matches_dense_powers(request, name, n):
    # degree classes: karate n=2 has 1..13, n=3 has 5 and 8, n=4 only 1;
    # the bowtie's edges have degrees 2 and 4
    import oracles

    walk = walk_on(request.getfixturevalue(name), n)
    space = walk.space
    degrees = np.array([space.degree(s) for s in space.active])
    horizon = 6
    for source in _one_source_per_degree(space, 3):
        profile = transition_profile(walk, source, horizon)
        assert np.abs(profile @ degrees - 1.0).max() < 1e-12
        for t in range(1, horizon + 1):
            dense = oracles.transition_weights_dense(walk, source, t)
            assert np.abs(profile[t - 1] - [dense[s] for s in space.active]).max() < 1e-12
        table = finite_time_average(walk, source, horizon)
        dense_mean = oracles.finite_average_dense(walk, source, horizon)
        assert max(abs(table[s] - dense_mean[s]) for s in space.active) < 1e-12


def test_isolated_source_rejected(karate_walk_n2):
    with pytest.raises(IsolatedSimplexError):
        finite_time_average(karate_walk_n2, (25, 26, 32))


def test_unknown_source_rejected(karate_walk_n2):
    with pytest.raises(UnknownSimplexError):
        finite_time_average(karate_walk_n2, (1, 2, 99))


# -- spectral estimator ------------------------------------------------------------------


def test_spectrum_invariants(bowtie):
    walk = walk_on(bowtie)
    spec = unitary_spectrum(walk)
    m = walk.space.m
    assert spec.phases.shape == (m,)
    assert ((spec.phases >= 0) & (spec.phases < 2 * np.pi)).all()
    dense = walk.step.toarray()
    residual = dense @ spec.vectors - spec.vectors * np.exp(1j * spec.phases)[None, :]
    assert np.abs(residual).max() < 1e-10
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.abs(gram - np.eye(m)).max() < 1e-10
    assert sorted(i for g in spec.groups for i in g) == list(range(m))


def test_path_long_time_average(path_complex):
    walk = walk_on(path_complex)
    table = long_time_average_spectral(walk, (1, 2))
    assert table[(2, 3)] == pytest.approx(0.5, abs=1e-12)
    assert table[(1, 2)] == pytest.approx(0.5, abs=1e-12)


def test_spectral_sum_rule(karate):
    walk = walk_on(karate, 3)
    degrees = np.array([walk.space.degree(s) for s in walk.space.active])
    spec = unitary_spectrum(walk)
    for source in walk.space.active[:3]:
        table = long_time_average_spectral(walk, source, spec)
        values = np.array([table[s] for s in walk.space.active])
        assert values @ degrees == pytest.approx(1.0, abs=1e-9)


def test_projector_formula_reduces_when_phases_distinct(filled_triangle):
    # independent route: numpy eig + per-eigenvector sums
    walk = walk_on(filled_triangle)
    spec = unitary_spectrum(walk)
    assert all(len(g) == 1 for g in spec.groups)  # all phases simple here
    eigenvalues, eigenvectors = np.linalg.eig(walk.step.toarray())
    space = walk.space
    for source in space.active:
        table = long_time_average_spectral(walk, source, spec)
        bx = space.block(source)
        d_source = bx.stop - bx.start
        for target in space.active:
            by = space.block(target)
            total = 0.0
            for k in range(space.m):
                phi = eigenvectors[:, k] / np.linalg.norm(eigenvectors[:, k])
                overlap = np.abs(np.outer(phi[by].conj(), phi[bx])) ** 2
                total += overlap.sum()
            expected = total / (d_source * (by.stop - by.start))
            assert table[target] == pytest.approx(expected, abs=1e-10)


def test_finite_converges_to_spectral(bowtie):
    walk = walk_on(bowtie)
    spec = unitary_spectrum(walk)
    errors = []
    for horizon in (100, 400):
        worst = 0.0
        for source in walk.space.active:
            finite = finite_time_average(walk, source, horizon)
            exact = long_time_average_spectral(walk, source, spec)
            worst = max(
                worst,
                max(abs(finite[s] - exact[s]) for s in walk.space.active),
            )
        errors.append(worst)
    assert errors[1] < errors[0]


def test_finite_approaches_spectral_on_karate_edges(karate_walk_n1, karate_spectrum_n1):
    walk, spec = karate_walk_n1, karate_spectrum_n1
    exact = long_time_average_spectral(walk, (33, 34), spec)
    gaps = []
    for horizon in (100, 300):
        finite = finite_time_average(walk, (33, 34), horizon)
        gaps.append(max(abs(finite[s] - exact[s]) for s in walk.space.active))
    assert gaps[1] < gaps[0]
    assert gaps[0] < 1e-3


def test_finite_converges_to_spectral_with_degenerate_phases(karate):
    # the dimension-3 walk has repeated eigenphases, so this exercises the
    # projector path of the spectral estimator as the true long-run limit
    walk = walk_on(karate, 3)
    spec = unitary_spectrum(walk)
    assert any(len(g) > 1 for g in spec.groups)
    gaps = []
    for horizon in (200, 800):
        worst = 0.0
        for source in walk.space.active:
            finite = finite_time_average(walk, source, horizon)
            exact = long_time_average_spectral(walk, source, spec)
            worst = max(worst, max(abs(finite[s] - exact[s]) for s in walk.space.active))
        gaps.append(worst)
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def _circular_gap(a, b):
    gap = np.abs(np.subtract.outer(a, b)) % (2 * np.pi)
    return np.minimum(gap, 2 * np.pi - gap)


def _check_against_schur(walk, spec, sources):
    """Compare a spectrum with the Schur oracle: phase groups (sizes, phases,
    projectors) and the all-seed weights against per-seed projector weights."""
    phases, vectors, groups = oracles.unitary_spectrum_schur(walk)
    tol = walk_module.DEFAULT_PHASE_TOL
    assert len(spec.groups) == len(groups)
    # pair each group with the Schur group nearest in phase
    gap = _circular_gap(spec.phases[[g[0] for g in spec.groups]], phases[[g[0] for g in groups]])
    match = gap.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(groups)))
    overlap = vectors.conj().T @ spec.vectors
    for g, h in zip(spec.groups, match.tolist()):
        ours, theirs = list(g), list(groups[h])
        assert len(ours) == len(theirs)
        assert _circular_gap(spec.phases[ours], phases[theirs]).max() <= tol
        # equal ranks and no part of the group outside the Schur group's
        # span: the two projectors are equal
        outside = spec.vectors[:, ours] - vectors[:, theirs] @ overlap[np.ix_(theirs, ours)]
        assert np.linalg.norm(outside) < 1e-9
    space = walk.space
    for source in sources:
        table = long_time_average_spectral(walk, source, spec)
        values = np.array([table[t] for t in space.active])
        reference = oracles.projector_weights(walk, source, vectors, groups)
        # exactly-zero weights come out as rounding noise of order 1e-29
        np.testing.assert_allclose(values, reference, rtol=1e-10, atol=1e-25)
        assert values @ space.degrees == pytest.approx(1.0, abs=1e-12)


def test_spectrum_matches_schur_karate_edges(karate_walk_n1, karate_spectrum_n1):
    # every phase is simple at n = 1; per-seed projector weights for a sample
    sources = random.Random(6).sample(karate_walk_n1.space.active, 6)
    _check_against_schur(karate_walk_n1, karate_spectrum_n1, sources)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_matches_schur_karate(karate, n):
    # n = 3 has phase groups of sizes 2 and 3
    walk = walk_on(karate, n)
    _check_against_schur(walk, unitary_spectrum(walk), walk.space.active)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_spectrum_matches_schur_random_complexes(seed):
    rng = random.Random(seed)
    size = rng.randint(7, 11)
    pairs = [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)]
    edges = [edge for edge in pairs if rng.random() < 0.5]
    K = clique_complex(edges, max_dim=3)
    for n in (1, 2):
        if n <= K.max_dim and K.arc_count(n):
            walk = walk_on(K, n)
            _check_against_schur(walk, unitary_spectrum(walk), walk.space.active)


def test_group_masses_match_projectors_for_any_grouping(karate):
    # coarse groups of consecutive eigenvectors give Gram matrices with
    # nonzero imaginary parts; the identity sum_g tr(G_x G_y) holds for
    # any grouping
    walk = walk_on(karate, 2)
    spec = unitary_spectrum(walk)
    groups = tuple(tuple(range(k, min(k + 4, walk.space.m))) for k in range(0, walk.space.m, 4))
    masses = walk_module._group_masses(walk.space, spec.pairs, spec.basis, groups)
    degrees = walk.space.degrees
    for ix, source in enumerate(walk.space.active[:10]):
        values = (masses @ masses[ix].conj()).real / (degrees[ix] * degrees)
        reference = oracles.projector_weights(walk, source, spec.vectors, groups)
        np.testing.assert_allclose(values, reference, rtol=1e-10, atol=1e-25)


def test_cluster_separation_splits_colliding_phases():
    # phases +-0.7 of a complex symmetric unitary share the eigenvalue
    # cos(0.7) of its real part; only the imaginary part tells their
    # eigenvectors apart
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    phi = np.array([0.7, -0.7, 0.2, 1.9, -2.5, 3.0])
    rotated = sp.csr_matrix((q * np.exp(1j * phi)) @ q.T)
    eigenvalues, basis, residuals = _symmetric_eigenpairs(rotated)
    assert residuals.max() < 1e-12
    assert np.abs(basis.T @ basis - np.eye(6)).max() < 1e-12
    assert _circular_gap(np.angle(eigenvalues), phi).min(axis=1).max() < 1e-12
    for k in (0, 1):  # each colliding phase keeps its own eigenvector
        column = np.argmin(_circular_gap(np.angle(eigenvalues), phi[k : k + 1]))
        assert abs(abs(basis[:, column] @ q[:, k]) - 1) < 1e-12


def test_large_residual_is_a_numerical_error(karate, monkeypatch):
    monkeypatch.setattr(walk_module, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        unitary_spectrum(walk_on(karate, 2))


def test_memory_guard_refuses_dense_spectrum(karate_walk_n1, monkeypatch):
    # 16 m**2 bytes for m = 1056 arcs is 17.8 MB: report 17 MiB of memory
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 17 * 256}
    monkeypatch.setattr(walk_module.os, "sysconf", memory.get)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense work started before the memory check")

    monkeypatch.setattr(walk_module.scipy.linalg, "eigh", no_dense)
    with pytest.raises(NumericalError, match="physical memory"):
        unitary_spectrum(karate_walk_n1)


def test_phase_grouping_wraps_around():
    phases = np.array([1e-10, np.pi, 2 * np.pi - 1e-10])
    groups = _group_phases(phases, tol=1e-8)
    assert sorted(map(sorted, groups)) == [[0, 2], [1]]


def test_phase_grouping_keeps_distinct():
    phases = np.array([0.0, 1.0, 2.0, 3.0])
    assert len(_group_phases(phases, tol=1e-8)) == 4


def test_phase_grouping_chains_consecutive_gaps():
    # each gap is within tol, so the group spans 1.2 * tol; the same span
    # with no phase between splits in two
    tol = 1e-8
    chained = np.array([0.6 * tol, 1.0, 0.0, 1.2 * tol])
    assert _group_phases(chained, tol) == ((2, 0, 3), (1,))
    assert _group_phases(np.array([0.0, 1.0, 1.2 * tol]), tol) == ((0,), (2,), (1,))


def test_phase_grouping_wrap_merge_prepends_last_group():
    # the group below 2*pi is merged in front of the group above 0, and the
    # merged group spans 1.2 * tol across the wrap
    tol = 1e-8
    phases = np.array([0.3 * tol, 2 * np.pi - 0.3 * tol, 2 * np.pi - 0.9 * tol, np.pi])
    assert _group_phases(phases, tol) == ((2, 1, 0), (3,))


# -- amplitude lower bound ----------------------------------------------------------------


def test_path_lower_bound(path_complex):
    walk = walk_on(path_complex)
    bound = amplitude_lower_bound(walk, (1, 2), (2, 3))
    assert 0.0 <= bound <= 0.5 + 1e-12


def test_self_bound_nonnegative(bowtie):
    walk = walk_on(bowtie)
    for s in walk.space.active:
        assert amplitude_lower_bound(walk, s, s) >= 0.0


def test_bound_below_long_time_average(karate):
    walk = walk_on(karate, 3)
    spec = unitary_spectrum(walk)
    for source in walk.space.active:
        table = long_time_average_spectral(walk, source, spec)
        for target in walk.space.active:
            bound = amplitude_lower_bound(walk, source, target, spec)
            assert bound <= table[target] + 1e-9


def test_bound_below_average_karate_edges(karate_walk_n1, karate_spectrum_n1):
    walk, spec = karate_walk_n1, karate_spectrum_n1
    rng = random.Random(5)
    sources = rng.sample(walk.space.active, 3)
    for source in sources:
        table = long_time_average_spectral(walk, source, spec)
        for target in rng.sample(walk.space.active, 4):
            bound = amplitude_lower_bound(walk, source, target, spec)
            assert bound <= table[target] + 1e-9


# -- structural properties ---------------------------------------------------------------


def test_walk_ignores_edge_input_order():
    rng = random.Random(13)
    shuffled = [(b, a) for a, b in BOWTIE_EDGES]
    rng.shuffle(shuffled)
    reference = walk_on(clique_complex(BOWTIE_EDGES, max_dim=2))
    rebuilt = walk_on(clique_complex(shuffled, max_dim=2))
    assert rebuilt.space.arcs == reference.space.arcs
    assert (rebuilt.step != reference.step).nnz == 0


def test_time_average_of_phase_differences_is_bounded():
    # |(1/T) sum_t exp(i(a-b)t)| <= 2 / (T |1 - exp(i(a-b))|) for a != b
    rng = np.random.default_rng(23)
    for _ in range(20):
        delta = rng.uniform(1e-3, 2 * np.pi - 1e-3)
        z = np.exp(1j * delta)
        for horizon in (10, 100, 1000):
            mean = np.mean([z**t for t in range(1, horizon + 1)])
            assert abs(mean) <= 2.0 / (horizon * abs(1 - z)) + 1e-12
