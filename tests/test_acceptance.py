"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import json
import random
import time

import numpy as np
import pytest

from simqwalk import (
    betti_number,
    build_walk_space,
    clique_complex,
    detect_communities,
    exact_down_communities,
    finite_time_average,
    karate_club_edges,
    long_time_average_spectral,
    simplicial_modularity,
    step_operator,
    transition_profile,
    verify_chain_identities,
    verify_symmetry,
)
from simqwalk.cli import main as cli_main

import oracles
from reference_karate import (
    CROSS_EDGES_FIRST,
    CROSS_EDGES_SECOND,
    FOUR_SIMPLEX_COMMUNITY,
    Q1_REFERENCE,
    Q2_REFERENCE,
    TRIANGLE_COMMUNITIES,
    reference_edge_communities,
    reference_tetra_communities,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_clique_counts():
    start = time.perf_counter()
    complex_ = clique_complex(karate_club_edges(), max_dim=4)
    counts = complex_.counts
    elapsed = time.perf_counter() - start
    expected = {0: 34, 1: 78, 2: 45, 3: 11, 4: 2}
    ok = counts == expected and elapsed < 1.0
    _report(1, ok, f"counts={counts} in {elapsed:.3f}s (expected {expected}, < 1 s)")


def test_criterion_2_chain_identities(karate):
    start = time.perf_counter()
    reports = {n: verify_chain_identities(karate, n) for n in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    ok = all(r.all_hold for r in reports.values()) and elapsed < 5.0
    detail = ", ".join(f"n={n}: {'ok' if r.all_hold else 'FAILED'}" for n, r in reports.items())
    _report(2, ok, f"{detail} in {elapsed:.3f}s (< 5 s)")


def test_criterion_3_modularity_reproduction(karate):
    q1 = simplicial_modularity(karate, 1, reference_edge_communities()).modularity
    q2 = simplicial_modularity(karate, 2, TRIANGLE_COMMUNITIES).modularity
    q3 = simplicial_modularity(karate, 3, reference_tetra_communities(karate)).modularity
    q4 = simplicial_modularity(karate, 4, [FOUR_SIMPLEX_COMMUNITY]).modularity
    ok = (
        abs(q1 - Q1_REFERENCE) <= 1e-3
        and abs(q2 - Q2_REFERENCE) <= 1e-3
        and abs(q3) <= 1e-9
        and abs(q4) <= 1e-9
    )
    _report(
        3,
        ok,
        f"Q1={q1:.6f} (ref {Q1_REFERENCE}±0.001), Q2={q2:.6f} (ref {Q2_REFERENCE}±0.001), "
        f"Q3={q3:.2e}, Q4={q4:.2e} (ref 0±1e-9)",
    )


def _cli_detect(tmp_path, edges_file, dim):
    out = tmp_path / f"detect_{dim}.json"
    code = cli_main(
        ["detect", "--dim", str(dim), "--time-steps", "100", "--output", str(out), str(edges_file)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    return {frozenset(tuple(s) for s in com) for com in doc["communities"]}


def test_criterion_4_detection_reproduction(tmp_path, karate):
    edges_file = tmp_path / "karate.txt"
    edges_file.write_text("\n".join(f"{u} {v}" for u, v in karate_club_edges()) + "\n")
    start = time.perf_counter()
    detected = {n: _cli_detect(tmp_path, edges_file, n) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start

    results = {}
    results[2] = detected[2] == {frozenset(c) for c in TRIANGLE_COMMUNITIES}
    results[3] = detected[3] == {frozenset(c) for c in reference_tetra_communities(karate)}
    results[4] = detected[4] == {frozenset(FOUR_SIMPLEX_COMMUNITY)}
    cross_ok = False
    if len(detected[1]) == 2:
        a, b = detected[1]
        cross = {e for e in a | b if e in set(CROSS_EDGES_FIRST) | set(CROSS_EDGES_SECOND)}
        cross_ok = (
            {frozenset(set(CROSS_EDGES_FIRST) & c) for c in (a, b)}
            == {frozenset(CROSS_EDGES_FIRST), frozenset()}
            and {frozenset(set(CROSS_EDGES_SECOND) & c) for c in (a, b)}
            == {frozenset(CROSS_EDGES_SECOND), frozenset()}
            and len(cross) == 11
        )
    results[1] = cross_ok

    detail = ", ".join(
        f"dim {n}: {'ok' if results[n] else f'diverges ({len(detected[n])} communities)'}"
        for n in (1, 2, 3, 4)
    )
    ok = all(results.values()) and elapsed < 300.0
    _report(4, ok, f"{detail} in {elapsed:.1f}s (< 300 s)")


def test_criterion_5_unitarity_and_sum_rule(karate_walk_n1, karate_walk_n2):
    worst_unitarity = 0.0
    for walk in (karate_walk_n1, karate_walk_n2):
        dense = walk.step.toarray()
        defect = np.abs(dense.conj().T @ dense - np.eye(walk.space.m)).max()
        worst_unitarity = max(worst_unitarity, defect)

    rng = np.random.default_rng(2024)
    state = rng.normal(size=karate_walk_n1.space.m) + 1j * rng.normal(size=karate_walk_n1.space.m)
    state /= np.linalg.norm(state)
    for _ in range(1000):
        state = karate_walk_n1.step @ state
    drift = abs(np.linalg.norm(state) ** 2 - 1.0)

    worst_sum = 0.0
    chooser = random.Random(99)
    for walk in (karate_walk_n1, karate_walk_n2):
        degrees = np.array([walk.space.degree(s) for s in walk.space.active])
        for _ in range(5):
            source = chooser.choice(walk.space.active)
            t = chooser.randint(1, 100)
            profile = transition_profile(walk, source, t)
            worst_sum = max(worst_sum, abs(profile[t - 1] @ degrees - 1.0))

    ok = worst_unitarity <= 1e-10 and drift <= 1e-9 and worst_sum <= 1e-9
    _report(
        5,
        ok,
        f"max|U*U-I|={worst_unitarity:.2e} (<=1e-10), norm drift@1000={drift:.2e} (<=1e-9), "
        f"sum-rule defect={worst_sum:.2e} over 10 random (source, t) pairs (<=1e-9)",
    )


def _max_estimator_gap(walk, horizon):
    worst = 0.0
    for source in walk.space.active:
        finite = finite_time_average(walk, source, horizon)
        exact = long_time_average_spectral(walk, source)
        worst = max(worst, max(abs(finite[s] - exact[s]) for s in walk.space.active))
    return worst


def test_criterion_6_finite_time_convergence(filled_triangle, bowtie):
    details = []
    ok = True
    for name, K in (("triangle", filled_triangle), ("bowtie", bowtie)):
        walk = step_operator(build_walk_space(K, 1))
        errors = {T: _max_estimator_gap(walk, T) for T in (100, 200, 400)}
        monotone = errors[100] > errors[200] > errors[400]
        ratio_ok = errors[400] <= 0.75 * errors[200]
        ok = ok and monotone and ratio_ok
        details.append(
            f"{name}: err(100)={errors[100]:.2e} err(200)={errors[200]:.2e} "
            f"err(400)={errors[400]:.2e} monotone={monotone} ratio_ok={ratio_ok}"
        )
    _report(6, ok, "; ".join(details))


def test_criterion_7_symmetry(karate, filled_triangle, bowtie, tetrahedron, path_complex, two_edges):
    cases = (
        [("karate", karate, n) for n in (1, 2, 3)]
        + [("karate", karate, 0)]
        + [
            ("triangle", filled_triangle, 0),
            ("triangle", filled_triangle, 1),
            ("bowtie", bowtie, 0),
            ("bowtie", bowtie, 1),
            ("tetrahedron", tetrahedron, 0),
            ("tetrahedron", tetrahedron, 1),
            ("tetrahedron", tetrahedron, 2),
            ("path", path_complex, 0),
            ("two-edges", two_edges, 0),
        ]
    )
    failures = [f"{name} n={n}" for name, K, n in cases if not verify_symmetry(K, n).holds]
    _report(
        7,
        not failures,
        f"{len(cases)} down/up correspondences checked"
        + ("" if not failures else f"; failing: {failures}"),
    )


def test_criterion_8_betti(hollow_triangle, filled_triangle, karate):
    b_hollow = betti_number(hollow_triangle, 1, kernel_tol=1e-9)
    b_filled = betti_number(filled_triangle, 1, kernel_tol=1e-9)
    b_karate = betti_number(karate, 0, kernel_tol=1e-9)
    ok = b_hollow == 1 and b_filled == 0 and b_karate == 1
    _report(
        8,
        ok,
        f"hollow triangle b1={b_hollow} (=1), filled triangle b1={b_filled} (=0), "
        f"karate b0={b_karate} (=1)",
    )


def test_criterion_9_brute_force_equivalence(
    path_complex, filled_triangle, hollow_triangle, star, tetrahedron, bowtie, two_edges, karate
):
    fixtures = [
        ("path", path_complex),
        ("triangle", filled_triangle),
        ("hollow", hollow_triangle),
        ("star", star),
        ("tetrahedron", tetrahedron),
        ("bowtie", bowtie),
        ("two-edges", two_edges),
        ("karate", karate),
    ]
    worst = 0.0
    walks_checked = 0
    for name, K in fixtures:
        for n in range(1, K.max_dim + 1):
            space = build_walk_space(K, n)
            if 0 < space.m <= 12:
                walk = step_operator(space)
                for source in space.active:
                    sparse = finite_time_average(walk, source, 100)
                    dense = oracles.finite_average_dense(walk, source, 100)
                    worst = max(
                        worst, max(abs(sparse[s] - dense[s]) for s in space.active)
                    )
                walks_checked += 1
    communities_ok = all(
        exact_down_communities(K, n).as_sets() == oracles.down_components(K, n)
        for _, K in fixtures
        for n in range(1, K.max_dim + 1)
    )
    ok = worst <= 1e-10 and communities_ok and walks_checked >= 5
    _report(
        9,
        ok,
        f"{walks_checked} small walk spaces: max sparse-vs-dense gap {worst:.2e} (<=1e-10); "
        f"union-find community oracle {'matches' if communities_ok else 'DIFFERS'}",
    )
