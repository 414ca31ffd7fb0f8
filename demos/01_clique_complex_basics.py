"""Build clique complexes from edge lists and inspect their structure.

Run:  python demos/01_clique_complex_basics.py
"""

import numpy as np

from simqwalk import clique_complex, faces, karate_club_complex

# A filled triangle: three mutually connected vertices.
triangle = clique_complex([(1, 2), (1, 3), (2, 3)], max_dim=2)
print("filled triangle:", triangle)
print("  2-simplices:", triangle.simplices(2))
print("  1-faces of (1,2,3):", faces((1, 2, 3), 1))

# The boundary matrix of the triangle: rows are edges, the one column is the
# triangle, and the signs alternate with the dropped vertex.
b2 = triangle.boundary_matrix(2).toarray()
print("  boundary matrix of the triangle face:\n", b2)

# Boundary-of-boundary vanishes identically (exact integer arithmetic).
b1 = triangle.boundary_matrix(1).toarray()
print("  B1 @ B2 =", (b1 @ b2).ravel())

# Adjacency comes in two flavors: sharing a coface (upper) or a face (lower).
print("  upper adjacency of edges:\n", triangle.adjacency(1, "upper").toarray())
print("  lower adjacency of edges:\n", triangle.adjacency(1, "lower").toarray())

# The karate-club benchmark: 34 members, 78 ties, and all their cliques.
karate = karate_club_complex(max_dim=4)
print("\nkarate club clique complex:", karate)
print("  simplex counts by dimension:", karate.counts)

# Dimension-1 lower neighborhoods: for an edge these are the edges sharing an
# endpoint, so their total count is sum_v deg(v) * (deg(v) - 1).
m1 = karate.arc_count(1)
print("  ordered lower-adjacent edge pairs (m_1):", m1)

b_checks = [
    (n, (karate.boundary_matrix(n) @ karate.boundary_matrix(n + 1)).count_nonzero())
    for n in (1, 2, 3)
]
print("  nonzeros of B_n @ B_(n+1):", b_checks)

# The two largest simplices and the tetrahedra they contain.
print("  4-simplices:", karate.simplices(4))
print("  upper degree of edge (1,2):", karate.degree((1, 2), "upper"), "triangles")
print("  lower neighborhood of (1,2,3,4,8):",
      sorted(karate.lower_neighborhood((1, 2, 3, 4, 8))))
