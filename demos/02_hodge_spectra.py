"""Hodge Laplacians, their exact identities, and hole counting.

Run:  python demos/02_hodge_spectra.py
"""

import numpy as np

from simqwalk import (
    betti_number,
    clique_complex,
    hodge_laplacian,
    karate_club_complex,
    laplacian_spectrum,
    verify_chain_identities,
)

# A hollow triangle (edges only) has a 1-dimensional hole; filling it in
# removes the hole.
hollow = clique_complex([(1, 2), (1, 3), (2, 3)], max_dim=1)
filled = clique_complex([(1, 2), (1, 3), (2, 3)], max_dim=2)
print("hollow triangle b1 =", betti_number(hollow, 1))
print("filled triangle b1 =", betti_number(filled, 1))

# The up/down split of the Laplacian on the filled triangle's edges: each
# edge sits in one triangle (up degree 1) and has two endpoints (down degree
# 2); all off-diagonal terms cancel because every edge pair is adjacent both
# ways.
lap = hodge_laplacian(filled, 1)
print("\nfilled triangle, dimension 1:")
print("  L_up:\n", lap.up.toarray())
print("  L_down:\n", lap.down.toarray())
print("  L_total:\n", lap.total.toarray())

karate = karate_club_complex()

# Dimension 0 reduces to the ordinary graph Laplacian, whose kernel counts
# connected components.
print("\nkarate b0 =", betti_number(karate, 0), "(one connected component)")

# The chain-complex identities hold exactly in integer arithmetic.
for n in range(karate.max_dim + 1):
    report = verify_chain_identities(karate, n)
    print(f"  identities at n={n}:",
          report.boundary_product_zero, report.up_down_zero, report.down_up_zero)

# Full spectra: eigenvalues are nonnegative, and the kernel dimension equals
# the number of n-dimensional holes.
for n in range(3):
    spectrum = laplacian_spectrum(karate, n)
    eigenvalues = spectrum.eigenvalues
    print(
        f"  n={n}: {eigenvalues.size} eigenvalues in "
        f"[{eigenvalues.min():.2e}, {eigenvalues.max():.2f}], betti={spectrum.betti}"
    )

# The spectrum is a property of the complex, not of the orientation
# convention: flipping one simplex conjugates the Laplacian by a sign matrix.
b1 = karate.boundary_matrix(1).toarray()
b2 = karate.boundary_matrix(2).toarray()
b1f, b2f = b1.copy(), b2.copy()
b1f[:, 10] *= -1
b2f[10, :] *= -1
flipped = b2f @ b2f.T + b1f.T @ b1f
original = b2 @ b2.T + b1.T @ b1
gap = np.abs(
    np.linalg.eigvalsh(flipped.astype(float)) - np.linalg.eigvalsh(original.astype(float))
).max()
print(f"\nspectral gap after flipping one edge orientation: {gap:.2e}")
