"""The coined quantum walk on lower-adjacent simplices, step by step.

Run:  python demos/03_quantum_walk.py
"""

import numpy as np

from simqwalk import (
    amplitude_lower_bound,
    basis_state,
    build_walk_space,
    clique_complex,
    evolve,
    finite_time_average,
    long_time_average_spectral,
    step_operator,
    transition_probability,
)

# Two edges sharing a vertex: the smallest nontrivial walk space.
path = clique_complex([(1, 2), (2, 3)], max_dim=2)
space = build_walk_space(path, 1)
print("path graph walk space:")
print("  arcs:", space.arcs)

walk = step_operator(space)
print("  step operator:\n", walk.step.toarray().real)

# The walker bounces back and forth with period two.
state = basis_state(walk, (1, 2), (2, 3))
for t in range(4):
    amplitudes = evolve(walk, state, t)
    print(f"  t={t}: amplitudes {np.round(amplitudes.real, 3)}")

print("  hop weight at odd/even times:",
      [transition_probability(walk, (1, 2), (2, 3), t) for t in (1, 2, 3, 4)])

# The bowtie: two triangles joined at a vertex.  Its six edges support a
# 20-arc walk.
bowtie = clique_complex([(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)], max_dim=2)
space = build_walk_space(bowtie, 1)
walk = step_operator(space)
print(f"\nbowtie walk: {space.m} arcs over {len(space.active)} edges")

dense = walk.step.toarray()
print("  unitarity defect:", np.abs(dense.conj().T @ dense - np.eye(space.m)).max())

# Finite-horizon averages converge to the exact infinite-time average at rate
# 1/T.  The exact value comes from the spectral decomposition of the step
# operator (eigenphase-group projectors), made on first use and kept on the
# walk as ``walk.spectrum``.
print("  eigenphase groups:", len(walk.spectrum.groups))
exact = long_time_average_spectral(walk, (1, 2))
for horizon in (25, 100, 400, 1600):
    finite = finite_time_average(walk, (1, 2), horizon)
    gap = max(abs(finite[s] - exact[s]) for s in space.active)
    print(f"  T={horizon:5d}: max |finite - exact| = {gap:.2e}")

# The walk localizes near the source edge; whether a target beats the flat
# baseline 1/m is the recruitment rule used by the community detector.
print(f"\n  baseline 1/m = {1 / space.m:.4f}")
for target in space.active:
    marker = "*" if exact[target] > 1 / space.m else " "
    bound = amplitude_lower_bound(walk, (1, 2), target)
    print(f"  {marker} q((1,2) -> {target}) = {exact[target]:.4f}   lower bound {bound:.4f}")
