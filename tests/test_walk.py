import cmath
import ctypes
import itertools
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from simqwalk import (
    InvalidParameterError,
    IsolatedSimplexError,
    NoAdjacencyError,
    NumericalError,
    UnknownSimplexError,
    amplitude_lower_bound,
    basis_state,
    build_walk_space,
    clique_complex,
    coin_operator,
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
from simqwalk.walk import _coin_eigenpairs, _group_phases, _real_eigenvectors

import oracles
from conftest import BOWTIE_EDGES, K4_EDGES, fake_physical_memory, random_clique_complex


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


@pytest.mark.parametrize("k", range(1, 31))
def test_planar_coin_matches_the_fourier_block(k):
    # odd, even and prime k, on unit columns held as real and imaginary planes
    rng = np.random.default_rng(k)
    z = rng.standard_normal((k, 7)) + 1j * rng.standard_normal((k, 7))
    z /= np.linalg.norm(z, axis=0)
    planar = walk_module._planar_coin(k) @ np.vstack([z.real, z.imag])
    expected = fourier_block(k) @ z
    assert np.abs(planar[:k] - expected.real).max() <= 1e-15
    assert np.abs(planar[k:] - expected.imag).max() <= 1e-15


def test_planar_coin_of_the_smallest_blocks():
    # R_1 is the identity on both planes; F_2 is real up to the rounding of
    # sin(pi), so R_2 mixes the planes by at most eps
    assert np.array_equal(walk_module._planar_coin(1), np.eye(2))
    r2 = walk_module._planar_coin(2)
    assert np.array_equal(r2[:2, :2], r2[2:, 2:])
    assert np.array_equal(r2[:2, :2], fourier_block(2).real)
    assert np.abs(r2[:2, 2:]).max() <= np.finfo(float).eps
    assert np.abs(r2[2:, :2]).max() <= np.finfo(float).eps


def _complex_case(karate, name, n):
    """karate, the bowtie and tetrahedron "union", or "random<seed>"; skips
    a dimension without arcs."""
    if name == "karate":
        return karate
    K = _bowtie_and_tetrahedron() if name == "union" else random_clique_complex(int(name[6:]))
    if n > K.max_dim or not K.arc_count(n):
        pytest.skip("no arcs at this dimension")
    return K


@pytest.mark.parametrize(
    "name,n", [(f"random{seed}", n) for seed in (1, 2, 3, 4) for n in (1, 2)] + [("union", 1)]
)
def test_evolve_matches_step_powers_on_random_complexes(karate, name, n):
    walk = walk_on(_complex_case(karate, name, n), n)
    rng = np.random.default_rng(walk.space.m)
    state = rng.normal(size=walk.space.m) + 1j * rng.normal(size=walk.space.m)
    expected = state
    for t in range(1, 9):
        expected = walk.step @ expected
        assert np.abs(evolve(walk, state, t) - expected).max() < 1e-12


@pytest.mark.parametrize(
    "name,n", [("karate", n) for n in (1, 2, 3, 4)] + [("random1", 1), ("random4", 1)]
)
def test_finite_average_stays_within_its_error_at_the_default_horizon(karate, name, n):
    # the error bound sums a per-step rounding over all T = 100 steps
    walk = walk_on(_complex_case(karate, name, n), n)
    space = walk.space
    for source in (max(space.active, key=space.degree), min(space.active, key=space.degree)):
        table = finite_time_average(walk, source)
        assert table.estimator == "finite(T=100)"
        dense = oracles.finite_average_dense(walk, source, 100)
        assert max(abs(table[s] - dense[s]) for s in space.active) <= table.error


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


# -- BLAS thread count ------------------------------------------------------------------


def _openblas_thread_calls():
    """numpy's OpenBLAS thread-count getter and setter, found through the
    handle of numpy's core extension, or None if it exports no such pair."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to two for the
    test and restored after it."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread calls")
    get, set_ = calls
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("numpy's OpenBLAS pool cannot hold two threads")
        yield get
    finally:
        set_(before)


def test_public_walk_calls_keep_the_blas_count(blas_threads, karate):
    # the walk runs on the pool as configured and never sets a thread count
    walk = walk_on(karate, 3)
    source, target = walk.space.active[:2]
    assert blas_threads() == 2
    for call in (
        lambda: unitary_spectrum(walk),
        lambda: evolve(walk, basis_state(walk, *walk.space.arcs[0]), 5),
        lambda: transition_profile(walk, source, 5),
        lambda: transition_probability(walk, source, target, 5),
        lambda: finite_time_average(walk, source, 5),
        lambda: long_time_average_spectral(walk, source),
        lambda: amplitude_lower_bound(walk, source, target),
    ):
        call()
        assert blas_threads() == 2


# -- two halves --------------------------------------------------------------------------


def _in_turn(first, second):
    """A stand-in for ``walk._beside`` that steps the second half after the
    first, on the caller's thread."""
    return first(), second()


def _force_split(monkeypatch) -> list:
    """Evolve every finite-average state of two columns or more as two
    column halves; returns the list that records the column count of each
    split state."""
    splits, split = [], walk_module._split

    def recorded(component, columns):
        if split(component, columns):
            splits.append(columns)
            return True
        return False

    monkeypatch.setattr(walk_module, "_split", recorded)
    monkeypatch.setattr(walk_module, "_SPLIT_CELLS", 0)
    return splits


def _tables(walks, time_steps):
    return [finite_time_average(walk, source, time_steps) for walk in walks for source in walk.space.active]


def _check_halves(monkeypatch, walks, time_steps) -> int:
    """Every source's finite average on ``walks``: halves stepped by two
    threads give the bytes of halves stepped one after the other on the
    caller's thread, and both stay within the table's error of the whole
    state; returns the number of split states."""
    monkeypatch.setattr(walk_module, "_SPLIT_CELLS", 10**18)
    whole = _tables(walks, time_steps)
    threads, evolution = [], walk_module._evolution
    monkeypatch.setattr(walk_module, "_evolution",
                        lambda *args: threads.append(threading.current_thread()) or evolution(*args))
    splits = _force_split(monkeypatch)
    threaded = _tables(walks, time_steps)
    # each split state's second half, and only that, ran on a worker
    split = len(splits)
    assert sum(thread is not threading.main_thread() for thread in threads) == split
    monkeypatch.setattr(walk_module, "_beside", _in_turn)
    threads.clear()
    sequential = _tables(walks, time_steps)
    assert len(splits) == 2 * split and all(thread is threading.main_thread() for thread in threads)
    assert len(whole) == len(threaded) == len(sequential)
    for one, two, in_turn in zip(whole, threaded, sequential):
        assert np.array_equal(two.weights, in_turn.weights)
        assert np.abs(two.weights - one.weights).max() <= one.error
    return split


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_changes_no_value_on_karate(karate, monkeypatch, n):
    # at n = 4 each of the two 4-simplices has one arc, which has no half
    splits = _check_halves(monkeypatch, [walk_on(karate, n)], 100)
    assert splits > 0 or n == 4


@pytest.mark.parametrize("seed", range(20))
def test_split_changes_no_value_on_random_complexes(monkeypatch, seed):
    K = random_clique_complex(seed)
    walks = [walk_on(K, n) for n in (1, 2) if n <= K.max_dim and K.arc_count(n)]
    assert _check_halves(monkeypatch, walks, 30) > 0


def test_split_halves_one_degree_class(monkeypatch):
    # every edge of K8 has lower degree 12: one component of one degree
    # class, whose 12 columns still split into halves of 6
    walk = walk_on(clique_complex([(u, v) for u in range(1, 9) for v in range(u + 1, 9)], max_dim=1))
    assert [len(component.classes) for component in walk.frame.components] == [1]
    assert _check_halves(monkeypatch, [walk], 100) == 28


def test_split_under_thread_pressure_changes_no_value(karate, monkeypatch):
    # three callers at once, each with its worker, on a switch interval of
    # a microsecond: halves that shared a buffer would change bytes
    walk = walk_on(karate, 1)
    sources = walk.space.active[:6]
    splits = _force_split(monkeypatch)
    beside = walk_module._beside
    monkeypatch.setattr(walk_module, "_beside", _in_turn)
    expected = [finite_time_average(walk, source, 30).weights for source in sources]
    monkeypatch.setattr(walk_module, "_beside", beside)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as pool:
            got = list(pool.map(lambda source: finite_time_average(walk, source, 30).weights, sources,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(splits) == 2 * len(sources)
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))


def _split_walks(karate):
    """Fresh walks on karate at n = 1..4 and on the seeded random complexes
    at n = 1, 2, with the highest-degree source of each whose state splits."""
    walks = [walk_on(karate, n) for n in range(1, 5)]
    for seed in range(20):
        K = random_clique_complex(seed)
        walks += [walk_on(K, n) for n in (1, 2) if n <= K.max_dim and K.arc_count(n)]
    for walk in walks:
        source = max(walk.space.active, key=walk.space.degree)
        if walk.space.degree(source) >= 2:
            yield walk, source


def _replace_coin(walk, source, wrap):
    """Gives the first degree class of the source's component the coin
    ``wrap(coin)``; both halves of a split state step every class."""
    frame = walk.frame
    c = walk.space.component[walk.space.index[source]]
    classes = list(frame.components[c].classes)
    classes[0] = (*classes[0][:2], wrap(classes[0][2]))
    components = list(frame.components)
    components[c] = components[c]._replace(classes=tuple(classes))
    walk.__dict__["frame"] = type(frame)(frame.planes, tuple(components))


class _HalfFailure(Exception):
    pass


@pytest.mark.parametrize("at", ["caller", "worker"])
def test_a_failing_half_raises_from_the_call_and_leaves_no_thread(karate, monkeypatch, at):
    # either half's failing matmul raises the call's error
    failed_in = []

    class FailingCoin:
        # fails in the thread of its half only, so that no other thread's
        # step can raise the error in its stead
        def __init__(self, coin):
            self.coin = coin

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == (at == "caller"):
                failed_in.append(threading.current_thread())
                raise _HalfFailure
            return getattr(ufunc, method)(self.coin, *inputs[1:], **kwargs)

    splits = _force_split(monkeypatch)
    before = threading.active_count()
    checked = 0
    for walk, source in _split_walks(karate):
        _replace_coin(walk, source, FailingCoin)
        failed_in.clear()
        with pytest.raises(_HalfFailure):
            finite_time_average(walk, source, 30)
        assert threading.active_count() == before
        assert len(failed_in) == 1
        checked += 1
    assert checked == len(splits) >= 30


def test_a_slow_worker_changes_no_value(karate, monkeypatch):
    # a worker kept off its CPU at every step only delays the call
    class SlowCoin:
        def __init__(self, coin):
            self.coin = coin

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.002)
            return getattr(ufunc, method)(self.coin, *inputs[1:], **kwargs)

    splits, beside = _force_split(monkeypatch), walk_module._beside
    for walk, source in _split_walks(karate):
        monkeypatch.setattr(walk_module, "_beside", _in_turn)
        expected = finite_time_average(walk, source, 30).weights
        _replace_coin(walk, source, SlowCoin)
        monkeypatch.setattr(walk_module, "_beside", beside)
        assert np.array_equal(finite_time_average(walk, source, 30).weights, expected)
    assert len(splits) >= 60


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


def test_finite_horizon_is_bounded_by_its_own_error(karate_walk_n1, monkeypatch):
    # the reported error T k**1.5 eps (k: largest coin) bounds a unit state's
    # error; the first T at which it reaches 1 is refused before any step
    walk = karate_walk_n1
    coin = float(walk.space.degrees.max()) ** 1.5
    limit = int(1 / (coin * walk_module._EPS))
    while limit * coin * walk_module._EPS < 1:
        limit += 1
    while (limit - 1) * coin * walk_module._EPS >= 1:
        limit -= 1
    assert finite_time_average(walk, (1, 2), 100).error == 100 * coin * walk_module._EPS

    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr(walk_module, "_evolution", no_evolution)
    for steps in (limit, 10**20, 10**400):
        with pytest.raises(InvalidParameterError, match=f"time_steps {steps} is too long"):
            finite_time_average(walk, (1, 2), steps)
    with pytest.raises(AssertionError, match="evolution started"):
        finite_time_average(walk, (1, 2), limit - 1)


def test_finite_average_path_t3(path_complex):
    walk = walk_on(path_complex)
    table = finite_time_average(walk, (1, 2), time_steps=3)
    assert table[(2, 3)] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_finite_average_sum_rule(karate_walk_n2):
    walk = karate_walk_n2
    degrees = np.array([walk.space.degree(s) for s in walk.space.active])
    table = finite_time_average(walk, (1, 2, 3), time_steps=25)
    assert table.weights @ degrees == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("method", ["finite", "spectral"])
def test_table_indexes_its_weight_array(bowtie, method):
    walk = walk_on(bowtie)
    if method == "finite":
        table = finite_time_average(walk, (1, 2), 7)
    else:
        table = long_time_average_spectral(walk, (1, 2))
    assert table.weights.shape == (len(walk.space.active),)
    for j, s in enumerate(walk.space.active):
        assert type(table[s]) is float and table[s] == table.weights[j]
    assert table[[1, 2]] == table[(1, 2)]
    with pytest.raises(KeyError):
        table[(1, 4)]


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


def _bowtie_and_tetrahedron():
    # the bowtie's edges and a relabelled tetrahedron's edges: two components
    return clique_complex(BOWTIE_EDGES + [(u + 10, v + 10) for u, v in K4_EDGES], max_dim=3)


@pytest.mark.parametrize("case", ["karate", "union"])
def test_each_seed_evolves_exactly_on_its_own_component(karate, case):
    # karate n = 2 has components of 292 and 10 arcs
    walk = walk_on(karate, 2) if case == "karate" else walk_on(_bowtie_and_tetrahedron(), 1)
    space = walk.space
    assert space.component.max() == 1
    horizon = 6
    spec = unitary_spectrum(walk)
    # one block per component, and every eigenvector lives on the arcs of one component
    arc_component = space.component[space.source]
    assert [len(block) for block in spec.basis] == np.bincount(arc_component).tolist()
    assert all(len(set(arc_component[column != 0].tolist())) == 1 for column in spec.vectors.T)
    for c in (0, 1):
        outside = space.component != c
        source = space.active[np.flatnonzero(~outside)[0]]
        table = finite_time_average(walk, source, horizon)
        weights = table.weights
        dense_mean = oracles.finite_average_dense(walk, source, horizon)
        assert np.abs(weights - [dense_mean[s] for s in space.active]).max() <= table.error
        assert np.all(weights[outside] == 0.0)
        profile = transition_profile(walk, source, horizon)
        assert np.all(profile[:, outside] == 0.0)
        for t in range(1, horizon + 1):
            dense = oracles.transition_weights_dense(walk, source, t)
            assert np.abs(profile[t - 1] - [dense[s] for s in space.active]).max() <= table.error
        spectral = long_time_average_spectral(walk, source).weights
        assert np.all(spectral[outside] == 0.0) and not np.signbit(spectral[outside]).any()
        assert spectral[~outside].min() > 0.0
        target = space.active[np.flatnonzero(outside)[0]]
        assert amplitude_lower_bound(walk, source, target) == 0.0
    rng = np.random.default_rng(17)
    state = rng.normal(size=space.m) + 1j * rng.normal(size=space.m)
    for t in range(1, 6):
        expected = np.linalg.matrix_power(walk.step.toarray(), t) @ state
        assert np.abs(evolve(walk, state, t) - expected).max() < 1e-12


@pytest.mark.parametrize(
    "name,n",
    [("karate", n) for n in (1, 2, 3, 4)]
    + [(f"random{seed}", n) for seed in (1, 2, 3, 4) for n in (1, 2)]
    + [("union", 1)],
)
def test_frame_is_component_major(karate, name, n):
    K = _complex_case(karate, name, n)
    walk = walk_on(K, n)
    space, frame = walk.space, walk.frame
    # the planes number every arc's real and imaginary row once: a permutation
    assert np.array_equal(np.sort(frame.planes, axis=None), np.arange(2 * space.m))
    row_arc = np.empty(2 * space.m, dtype=np.int64)
    row_arc[frame.planes] = np.arange(space.m)
    found, stop, seen = set(), 0, []
    for c, component in enumerate(frame.components):
        part, classes = component.part, component.classes
        # component-major: each component's slice follows the one before
        assert part.start == stop and component.planar == slice(2 * part.start, 2 * part.stop)
        stop = part.stop
        # frame position -> arc, read off the real rows of each class in turn
        base = component.planar.start
        arcs = np.concatenate([row_arc[base + 2 * cls.start : base + cls.start + cls.stop]
                               for cls, _, _ in classes])
        seen.append(arcs)
        # planar real and imaginary row of each position of the frame slice,
        # and the reverse-arc permutation that the shift applies to them
        rows = frame.planes[:, arcs] - base
        at = np.empty(2 * len(arcs), dtype=np.int64)
        at[rows] = np.arange(len(arcs))
        reverse = at[component.shift[rows[0]]]
        # each planar row's source, on both planes, is its arc's source
        source = component.source[rows[0]]
        assert np.array_equal(component.source[rows], np.broadcast_to(space.source[arcs], rows.shape))
        members = np.unique(source)
        assert np.all(space.component[members] == c)
        found.add(frozenset(space.active[i] for i in members.tolist()))
        # closed under reverse, through the component's own permutation
        assert np.array_equal(np.sort(reverse), np.arange(len(arcs)))
        assert np.array_equal(arcs[reverse], space.reverse[arcs])
        # the classes tile the slice in ascending degree
        bounds = [(cls.start, cls.stop) for cls, _, _ in classes]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == len(arcs)
        assert [k for _, k, _ in classes] == sorted({k for _, k, _ in classes})
        for cls, k, _ in classes:
            # slot-major: column j of a class holds the k arcs of its j-th
            # block, and every arc of a class has degree k
            slots = arcs[cls].reshape(k, -1)
            assert np.array_equal(slots - slots[0], np.broadcast_to(np.arange(k)[:, None], slots.shape))
            assert np.array_equal(space.indptr[source[cls][: slots.shape[1]]], slots[0])
            assert np.all(space.degrees[source[cls]] == k)
            # planes: each class's real rows, then its imaginary rows
            assert np.array_equal(rows[1, cls], np.arange(cls.start + cls.stop, 2 * cls.stop))
        # and together they tile the component's planar slice
        assert np.array_equal(np.sort(rows, axis=None), np.arange(2 * len(arcs)))
        # the planar shift is an involution that follows the reverse arc and
        # keeps real rows real
        assert np.array_equal(component.shift[component.shift], np.arange(2 * len(arcs)))
        assert np.array_equal(component.shift[rows], rows[:, reverse])
    # the frame is a permutation of the arcs, and its slices cover it
    assert stop == space.m
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(space.m))
    assert found == {c for c in oracles.down_components(K, n) if len(c) > 1}


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


def test_one_decomposition_per_walk(karate, monkeypatch):
    # spectral detection decomposes its walk once, before its first seed,
    # and every later average and bound on that walk reads the kept spectrum
    walks, events, decompose = [], [], walk_module._decompose
    average = simqwalk.community.long_time_average_spectral

    def recorded(space):
        walks.append(step_operator(space))
        return walks[-1]

    monkeypatch.setattr(simqwalk.community, "step_operator", recorded)
    monkeypatch.setattr(walk_module, "_decompose", lambda walk: events.append(walk) or decompose(walk))
    monkeypatch.setattr(simqwalk.community, "long_time_average_spectral",
                        lambda *args: events.append("seed") or average(*args))
    detect_communities(karate, 2, method="spectral")
    (walk,) = walks
    assert events[0] is walk and events[1:] == ["seed"] * (len(events) - 1) and len(events) > 2
    space = walk.space
    for source in space.active[::7]:
        long_time_average_spectral(walk, source)
        amplitude_lower_bound(walk, source, space.active[-1])
    assert unitary_spectrum(walk) is walk.spectrum
    assert sum(event != "seed" for event in events) == 1


def test_spectral_sum_rule(karate):
    walk = walk_on(karate, 3)
    degrees = np.array([walk.space.degree(s) for s in walk.space.active])
    for source in walk.space.active[:3]:
        table = long_time_average_spectral(walk, source)
        assert table.weights @ degrees == pytest.approx(1.0, abs=1e-9)


def test_projector_formula_reduces_when_phases_distinct(filled_triangle):
    # independent route: numpy eig + per-eigenvector sums
    walk = walk_on(filled_triangle)
    spec = unitary_spectrum(walk)
    assert all(len(g) == 1 for g in spec.groups)  # all phases simple here
    eigenvalues, eigenvectors = np.linalg.eig(walk.step.toarray())
    space = walk.space
    for source in space.active:
        table = long_time_average_spectral(walk, source)
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
    errors = []
    for horizon in (100, 400):
        worst = 0.0
        for source in walk.space.active:
            finite = finite_time_average(walk, source, horizon)
            exact = long_time_average_spectral(walk, source)
            worst = max(
                worst,
                max(abs(finite[s] - exact[s]) for s in walk.space.active),
            )
        errors.append(worst)
    assert errors[1] < errors[0]


def test_finite_approaches_spectral_on_karate_edges(karate_walk_n1):
    walk = karate_walk_n1
    exact = long_time_average_spectral(walk, (33, 34))
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
            exact = long_time_average_spectral(walk, source)
            worst = max(worst, max(abs(finite[s] - exact[s]) for s in walk.space.active))
        gaps.append(worst)
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def _circular_gap(a, b):
    gap = np.abs(np.subtract.outer(a, b)) % (2 * np.pi)
    return np.minimum(gap, 2 * np.pi - gap)


def _check_against_schur(walk, spec, sources):
    """Compare a spectrum with the whole-space Schur oracle: each library
    phase group lies in one component c and in the span of the Schur group
    nearest in phase, and the library ranks in c add up to the trace, so the
    rank, of that Schur projector restricted to c; so the library projectors
    in c sum to the restricted Schur projector.  Then the all-seed weights
    against per-seed projector weights."""
    phases, vectors, groups = oracles.unitary_spectrum_schur(walk)
    tol = walk_module.DEFAULT_PHASE_TOL
    space = walk.space
    arc_component = space.component[space.source]
    column_component = np.repeat(space.component[space.source[spec.pairs[0]]], 2)
    owner = np.empty(space.m, dtype=np.int64)
    for h, group in enumerate(groups):
        owner[list(group)] = h
    # pair each group with the Schur group of the Schur phase nearest its first
    match = owner[_circular_gap(spec.phases[[g[0] for g in spec.groups]], phases).argmin(axis=1)]
    ranks = {}
    for g, h in zip(spec.groups, match.tolist()):
        ours, theirs = spec.vectors[:, list(g)], vectors[:, list(groups[h])]
        (c,) = set(column_component[list(g)].tolist())
        assert _circular_gap(spec.phases[list(g)], phases[list(groups[h])]).max() <= tol
        assert np.linalg.norm(ours - theirs @ (theirs.conj().T @ ours)) < 1e-9
        ranks[c, h] = ranks.get((c, h), 0) + len(g)
    for (c, h), rank in ranks.items():
        restricted = vectors[:, list(groups[h])][arc_component == c]
        assert abs(np.sum(np.abs(restricted) ** 2) - rank) < 1e-9
    total = np.bincount(match, [len(g) for g in spec.groups], minlength=len(groups))
    assert total.tolist() == [len(g) for g in groups]
    for source in sources:
        table = long_time_average_spectral(walk, source)
        reference = oracles.projector_weights(walk, source, vectors, groups)
        # the oracle's exactly-zero weights are rounding noise of order
        # 1e-29; the library's are exact zeros
        np.testing.assert_allclose(table.weights, reference, rtol=1e-10, atol=1e-25)
        assert table.weights @ space.degrees == pytest.approx(1.0, abs=1e-12)


def test_spectrum_matches_schur_karate_edges(karate_walk_n1, karate_spectrum_n1):
    # every phase is simple at n = 1; per-seed projector weights for a sample
    sources = random.Random(6).sample(karate_walk_n1.space.active, 6)
    _check_against_schur(karate_walk_n1, karate_spectrum_n1, sources)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_matches_schur_karate(karate, n):
    # n = 3 has phase groups of sizes 2 and 3
    walk = walk_on(karate, n)
    _check_against_schur(walk, unitary_spectrum(walk), walk.space.active)


def _disjoint_union(seed):
    """Clique complex of two seeded random graphs side by side."""
    first, second = random_clique_complex(seed), random_clique_complex(seed + 100)
    edges = list(first.simplices(1)) + [(u + 20, v + 20) for u, v in second.simplices(1)]
    return clique_complex(edges, max_dim=3)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_spectrum_matches_schur_random_complexes(seed):
    K = random_clique_complex(seed)
    for n in (1, 2):
        if n <= K.max_dim and K.arc_count(n):
            walk = walk_on(K, n)
            _check_against_schur(walk, unitary_spectrum(walk), walk.space.active)


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4], ids=["bowtie_tetrahedron", "1", "2", "3", "4"])
def test_spectrum_matches_schur_on_disjoint_unions(seed):
    # one eigh per component against the oracle's one Schur form of the whole space
    K = _bowtie_and_tetrahedron() if seed is None else _disjoint_union(seed)
    assert walk_on(K, 1).space.component.max() >= 1
    for n in (1, 2):
        if K.arc_count(n):
            walk = walk_on(K, n)
            _check_against_schur(walk, unitary_spectrum(walk), walk.space.active)


def _parts(walk):
    return [component.part for component in walk.frame.components]


def _check_group_masses(walk):
    space, spec = walk.space, unitary_spectrum(walk)
    local = [tuple(tuple(range(k, min(k + 4, p.stop - p.start))) for k in range(0, p.stop - p.start, 4))
             for p in _parts(walk)]
    groups = tuple(tuple(p.start + i for i in g) for p, own in zip(_parts(walk), local) for g in own)
    for c, p in enumerate(_parts(walk)):
        masses = walk_module._group_masses(space, spec.pairs[:, p.start // 2 : p.stop // 2],
                                           spec.basis[c], local[c])
        members = np.flatnonzero(space.component == c)
        assert masses.shape == (len(members), sum(len(g) ** 2 for g in local[c]))
        degrees = space.degrees[members]
        for row, ix in enumerate(members[:10].tolist()):
            values = (masses @ masses[row].conj()).real / (degrees[row] * degrees)
            reference = oracles.projector_weights(walk, space.active[ix], spec.vectors, groups)
            np.testing.assert_allclose(values, reference[members], rtol=1e-10, atol=1e-25)
            assert np.abs(np.delete(reference, members)).max() < 1e-25


def test_group_masses_match_projectors_for_any_grouping(karate):
    # coarse groups of consecutive eigenvectors of one component give Gram
    # matrices with nonzero imaginary parts; the identity sum_g tr(G_x G_y)
    # holds for any grouping, component by component
    for walk in (walk_on(karate, 2), walk_on(_bowtie_and_tetrahedron(), 1)):
        _check_group_masses(walk)


def test_cluster_separation_splits_colliding_phases():
    # phases +-0.7 of a complex symmetric unitary share the eigenvalue
    # cos(0.7) of its real part; only the imaginary part tells their
    # eigenvectors apart
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    phi = np.array([0.7, -0.7, 0.2, 1.9, -2.5, 3.0])
    dense = (q * np.exp(1j * phi)) @ q.T
    basis = _real_eigenvectors(6, lambda: (np.arange(36), dense.ravel()))
    eigenvalues = np.einsum("ij,ij->j", basis, dense @ basis)
    residuals = np.linalg.norm(dense @ basis - basis * eigenvalues, axis=0)
    assert residuals.max() < 1e-12
    assert np.abs(basis.T @ basis - np.eye(6)).max() < 1e-12
    assert _circular_gap(np.angle(eigenvalues), phi).min(axis=1).max() < 1e-12
    for k in (0, 1):  # each colliding phase keeps its own eigenvector
        column = np.argmin(_circular_gap(np.angle(eigenvalues), phi[k : k + 1]))
        assert abs(abs(basis[:, column] @ q[:, k]) - 1) < 1e-12


def _dense_reverse_arc_operator(walk, pairs):
    """Dense ``W^dagger U W`` with W's columns ``(e_a + e_b)/sqrt(2)`` and
    ``i(e_a - e_b)/sqrt(2)`` for each arc pair (a, b)."""
    w = np.zeros((walk.space.m, 2 * pairs.shape[1]), dtype=complex)
    for p, (a, b) in enumerate(pairs.T.tolist()):
        w[[a, b], 2 * p] = 1 / np.sqrt(2)
        w[[a, b], 2 * p + 1] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    return w.conj().T @ walk.step.toarray() @ w


def _arc_pairs(space):
    first = [a for a in range(space.m) if a < space.reverse[a]]
    return np.array([first, space.reverse[first]])


def _check_reverse_arc_entries(walk):
    """``Re`` and ``Im`` of ``e^{i alpha} W^dagger U W`` from the library's
    coin-block entries against the dense and the sparse products."""
    m, pairs = walk.space.m, _arc_pairs(walk.space)
    flat, values = walk_module._reverse_arc_entries(walk.space, pairs)
    assert "step" not in vars(walk)  # the entries need no sparse step
    h = np.bincount(flat, values.real, minlength=m * m).reshape(m, m)
    k = np.bincount(flat, values.imag, minlength=m * m).reshape(m, m)
    rotation = np.exp(1j * walk_module._ALPHA)
    for reference in (_dense_reverse_arc_operator(walk, pairs),
                      oracles.reverse_arc_operator(walk, pairs).toarray()):
        assert np.abs(h - (rotation * reference).real).max() <= 1e-15
        assert np.abs(k - (rotation * reference).imag).max() <= 1e-15
    assert np.array_equal(h, h.T) and np.array_equal(k, k.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reverse_arc_entries_match_dense_operator_on_karate(karate, n):
    _check_reverse_arc_entries(walk_on(karate, n))


def test_reverse_arc_entries_match_dense_operator_on_random_complexes():
    checked = 0
    for seed in range(1, 21):
        K = random_clique_complex(seed)
        for n in range(1, K.max_dim + 1):
            if K.arc_count(n):
                _check_reverse_arc_entries(walk_on(K, n))
                checked += 1
    assert checked >= 40


def _check_coin_eigenpairs(walk, spec, rng=None):
    """The coin check of each component's columns against the dense
    operator on its pairs: on the spectrum's own block and, with ``rng``,
    on real orthonormal columns that are not eigenvectors, whose residuals
    are of order one."""
    for c, p in enumerate(_parts(walk)):
        pairs = spec.pairs[:, p.start // 2 : p.stop // 2]
        dense = _dense_reverse_arc_operator(walk, pairs)
        blocks = [spec.basis[c]]
        if rng is not None:
            blocks.append(np.linalg.qr(rng.standard_normal((p.stop - p.start,) * 2))[0])
        for basis in blocks:
            quotients = np.einsum("ij,ij->j", basis, dense @ basis)
            residuals = np.linalg.norm(dense @ basis - basis * quotients, axis=0)
            eigenvalues, coin_residuals = _coin_eigenpairs(walk, c, pairs, basis)
            assert np.abs(eigenvalues - quotients).max() < 1e-13
            assert np.abs(coin_residuals - residuals).max() < 1e-13 * max(1.0, residuals.max())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coin_eigenpair_check_matches_dense_check_on_karate(karate, karate_walk_n1,
                                                            karate_spectrum_n1, n):
    walk = karate_walk_n1 if n == 1 else walk_on(karate, n)
    _check_coin_eigenpairs(walk, karate_spectrum_n1 if n == 1 else unitary_spectrum(walk))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_coin_eigenpair_check_matches_dense_check_on_random_complexes(seed):
    rng = np.random.default_rng(seed)
    K = random_clique_complex(seed)
    for n in (1, 2):
        if n <= K.max_dim and K.arc_count(n):
            walk = walk_on(K, n)
            _check_coin_eigenpairs(walk, unitary_spectrum(walk), rng)


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4], ids=["bowtie_tetrahedron", "1", "2", "3", "4"])
def test_coin_eigenpair_check_matches_dense_check_on_disjoint_unions(seed):
    rng = np.random.default_rng(seed)
    K = _bowtie_and_tetrahedron() if seed is None else _disjoint_union(seed)
    assert walk_on(K, 1).space.component.max() >= 1
    for n in (1, 2):
        if K.arc_count(n):
            walk = walk_on(K, n)
            _check_coin_eigenpairs(walk, unitary_spectrum(walk), rng)


def _copies(shape, count, rng):
    """Edges of ``count`` copies of the graph ``shape`` on vertices 1..v, each
    copy on its own v labels drawn from 1..count*v in ascending order, so the
    copies interleave in the canonical order but each keeps the order of
    ``shape``; returns the edges and each copy's vertex map."""
    size = max(max(e) for e in shape)
    labels = rng.permutation(np.arange(1, count * size + 1)).reshape(count, size)
    maps = [dict(zip(range(1, size + 1), sorted(row.tolist()))) for row in labels]
    return [(f[u], f[v]) for f in maps for u, v in shape], maps


@pytest.mark.parametrize("shape,count,dims", [
    ([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 300, (1, 2)),  # diamonds
    (K4_EDGES, 50, (1, 2)),
    (BOWTIE_EDGES + [(u + 5, v + 5) for u, v in K4_EDGES], 2, (1, 2)),
], ids=["diamonds", "K4", "bowtie_tetrahedron"])
def test_isomorphic_copies_share_no_phase_group_and_get_the_same_weights(shape, count, dims):
    # every phase group lies in one component, and each copy of a component
    # gets the first copy's weights byte for byte
    edges, maps = _copies(shape, count, np.random.default_rng(count))
    K = clique_complex(edges, max_dim=3)
    for n in dims:
        walk = walk_on(K, n)
        space, spec = walk.space, unitary_spectrum(walk)
        column_component = np.repeat(space.component[space.source[spec.pairs[0]]], 2)
        assert all(len(set(column_component[list(g)].tolist())) == 1 for g in spec.groups)
        assert len(spec.masses) == len(_parts(walk)) == space.component.max() + 1
        # the active simplices of the first copy, on the vertices of ``shape``
        inverse = {v: u for u, v in maps[0].items()}
        shapes = [tuple(inverse[v] for v in s) for s in space.active if set(s) <= inverse.keys()]
        expected = None
        for f in maps:
            own = [space.index[tuple(f[u] for u in s)] for s in shapes]
            weights = [long_time_average_spectral(walk, space.active[ix]).weights for ix in own]
            outside = np.ones(len(space.active), dtype=bool)
            outside[own] = False
            assert all(np.all(w[outside] == 0.0) for w in weights)
            mine = np.array([w[own] for w in weights])
            if expected is None:
                expected = mine
            assert mine.tobytes() == expected.tobytes()


def test_large_residual_is_a_numerical_error(karate, monkeypatch):
    monkeypatch.setattr(walk_module, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        unitary_spectrum(walk_on(karate, 2))


def _fake_memory(monkeypatch, mib):
    """Report ``mib`` MiB of physical memory and fail any dense work."""
    fake_physical_memory(monkeypatch, mib * 2**20)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense work started")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    monkeypatch.setattr(walk_module, "_reverse_arc_entries", no_dense)


def test_memory_guard_refuses_dense_spectrum(karate, monkeypatch):
    # the eigh peaks at 40 m**2 bytes, 44.6 MB (42.5 MiB) for m = 1056 arcs;
    # H and its eigenvectors alone (16 m**2) would fit in 42 MiB (a fresh
    # walk: the session walk keeps its spectrum once made)
    _fake_memory(monkeypatch, 42)
    with pytest.raises(NumericalError, match="physical memory"):
        unitary_spectrum(walk_on(karate, 1))


def test_memory_guard_admits_a_spectrum_that_fits(karate, monkeypatch):
    _fake_memory(monkeypatch, 43)
    with pytest.raises(AssertionError, match="dense work started"):
        unitary_spectrum(walk_on(karate, 1))


def test_memory_guard_counts_the_largest_component(monkeypatch):
    # two karate copies at n = 2: m = 604 arcs in components of 292, 10, 292
    # and 10; 40 m**2 (13.9 MiB) would not fit in 4 MiB, the blocks and one
    # eigh of the largest, 8 * sum(m_c**2) + 32 * 292**2 (3.9 MiB), do, and
    # do not fit in 3 MiB
    edges = karate_club_edges()
    walk = walk_on(clique_complex(edges + [(u + 34, v + 34) for u, v in edges], max_dim=2), 2)
    sizes = np.bincount(walk.space.component[walk.space.source])
    assert walk.space.m == 604 and sizes.tolist() == [292, 10, 292, 10]
    _fake_memory(monkeypatch, 4)
    with pytest.raises(AssertionError, match="dense work started"):
        unitary_spectrum(walk)
    _fake_memory(monkeypatch, 3)
    with pytest.raises(NumericalError, match="physical memory"):
        unitary_spectrum(walk)


def test_memory_guard_admits_many_small_components(monkeypatch):
    # 200 disjoint diamonds at n = 1: m = 3,200 arcs in components of 16;
    # a dense m x m basis (16 m**2, 156 MiB) would not fit in 1 MiB, the
    # blocks and one eigh, 8 * 200 * 16**2 + 32 * 16**2 (0.4 MiB), do
    diamond = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    walk = walk_on(clique_complex([(u + 4 * i, v + 4 * i) for i in range(200) for u, v in diamond],
                                  max_dim=2), 1)
    assert np.bincount(walk.space.component[walk.space.source]).tolist() == [16] * 200
    _fake_memory(monkeypatch, 1)
    with pytest.raises(AssertionError, match="dense work started"):
        unitary_spectrum(walk)


def _no_state(component, rows):
    raise AssertionError("state allocated")


def test_memory_guard_refuses_an_evolution_state(monkeypatch):
    # K_30 at n = 1: one component of 435 * 56 = 24,360 arcs; the planar
    # state from one edge and its matmul buffer take 16 * 48,720 * 56 bytes
    # (41.6 MiB), counted whole although the state evolves as column halves
    walk = walk_on(clique_complex(list(itertools.combinations(range(1, 31), 2)), max_dim=1), 1)
    assert walk.space.m == 24360 and walk.space.degree((1, 2)) == 56
    need = 16 * 48720 * 56
    monkeypatch.setattr(walk_module, "_one_hot", _no_state)
    fake_physical_memory(monkeypatch, need - 2**20)
    with pytest.raises(NumericalError, match=r"^evolving 56 arcs from \(1, 2\) on 24360 arcs needs "
                                             r"0\.0 GiB, more than the 0\.0 GiB of physical memory$"):
        finite_time_average(walk, (1, 2), 100)
    fake_physical_memory(monkeypatch, need + 2**20)
    with pytest.raises(AssertionError, match="state allocated"):
        finite_time_average(walk, (1, 2), 100)


def test_memory_guard_counts_the_profile_table(karate_walk_n1, monkeypatch):
    # karate n = 1 from (1, 2): 23 initial arcs on the one component of
    # 1,056 arcs (16 * 2,112 * 23 bytes, 0.7 MiB) and a 5,000-step table over
    # 78 edges (8 * 5,000 * 78 bytes): 3.7 MiB, refused in 2.7 MiB
    space = karate_walk_n1.space
    assert (space.m, space.degree((1, 2)), len(space.active)) == (1056, 23, 78)
    need = 16 * 2112 * 23 + 8 * 5000 * 78
    monkeypatch.setattr(walk_module, "_one_hot", _no_state)
    fake_physical_memory(monkeypatch, need - 2**20)
    with pytest.raises(NumericalError, match="physical memory"):
        transition_profile(karate_walk_n1, (1, 2), 5000)
    fake_physical_memory(monkeypatch, need + 2**20)
    with pytest.raises(AssertionError, match="state allocated"):
        transition_profile(karate_walk_n1, (1, 2), 5000)


def test_failed_eigh_is_a_numerical_error(karate, monkeypatch):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match="^eigh of the step operator failed: Eigenvalues did not converge$"):
        unitary_spectrum(walk_on(karate, 2))


def test_coin_without_arcs_is_empty(two_edges):
    coin = coin_operator(build_walk_space(two_edges, 1))
    assert coin.shape == (0, 0) and coin.dtype == np.complex128


def test_evolve_refuses_a_state_of_another_shape(karate_walk_n1):
    with pytest.raises(InvalidParameterError, match=r"^state has shape \(3,\), expected \(1056,\)$"):
        evolve(karate_walk_n1, np.zeros(3), 1)


def test_spectrum_without_arcs_is_no_adjacency_error(two_edges):
    with pytest.raises(NoAdjacencyError, match="no lower-adjacent pairs at dimension 1"):
        unitary_spectrum(walk_on(two_edges))


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


def _random_phases(rng, tol):
    """Phases in [0, 2*pi) made of clusters: runs of gaps at, just below and
    just above ``tol``, some placed to straddle 2*pi."""
    phases = []
    for _ in range(rng.randint(0, 6)):
        start = rng.choice([rng.uniform(0, 2 * np.pi), rng.uniform(-3 * tol, 3 * tol)])
        for _ in range(rng.randint(1, 5)):
            phases.append(start % (2 * np.pi))
            start += rng.choice([0.0, 0.5 * tol, tol, 0.99 * tol, 1.01 * tol, 2 * tol, 0.3])
    rng.shuffle(phases)
    return np.array(phases, dtype=float)


def test_phase_grouping_matches_the_loop_oracle():
    rng = random.Random(29)
    wrapped = 0
    for _ in range(2000):
        tol = rng.choice([1e-8, 1e-3])
        phases = _random_phases(rng, tol)
        groups = _group_phases(phases, tol)
        assert groups == oracles.group_phases(phases, tol)
        wrapped += any(np.ptp(phases[list(g)]) > np.pi for g in groups)
    assert wrapped > 50  # the seeds do exercise the merge across 2*pi
    assert _group_phases(np.zeros(0), 1e-8) == oracles.group_phases(np.zeros(0), 1e-8) == ()


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
    for source in walk.space.active:
        table = long_time_average_spectral(walk, source)
        for target in walk.space.active:
            bound = amplitude_lower_bound(walk, source, target)
            assert bound <= table[target] + 1e-9


def test_bound_below_average_karate_edges(karate_walk_n1):
    walk = karate_walk_n1
    rng = random.Random(5)
    sources = rng.sample(walk.space.active, 3)
    for source in sources:
        table = long_time_average_spectral(walk, source)
        for target in rng.sample(walk.space.active, 4):
            bound = amplitude_lower_bound(walk, source, target)
            assert bound <= table[target] + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bound_reads_only_its_two_blocks(karate, n):
    # the bound builds no m x m ``vectors``, and equals the sum over them;
    # a fresh walk, as the session walk's kept spectrum may have built them
    walk = walk_on(karate, n)
    spec = unitary_spectrum(walk)
    space = walk.space
    pairs = [(space.active[i], space.active[j]) for i in range(0, len(space.active), 11)
             for j in range(0, len(space.active), 7)]
    bounds = [amplitude_lower_bound(walk, x, y) for x, y in pairs]
    assert "vectors" not in spec.__dict__
    for (x, y), bound in zip(pairs, bounds):
        terms = spec.vectors[space.block(y)].mean(axis=0) * spec.vectors[space.block(x)].mean(axis=0).conj()
        assert bound == float(sum(abs(terms[list(group)].sum()) ** 2 for group in spec.groups))


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


def test_spectrum_and_table_compare_by_identity(filled_triangle):
    # == on two instances returns a bool, where a generated __eq__ over
    # array fields raised ValueError; each walk keeps its one spectrum
    w = walk_on(filled_triangle)
    for a, b in [(unitary_spectrum(w), unitary_spectrum(walk_on(filled_triangle))),
                 (finite_time_average(w, (1, 2), 5), finite_time_average(w, (1, 2), 5)),
                 (long_time_average_spectral(w, (1, 2)), long_time_average_spectral(w, (1, 2)))]:
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
