"""Torus construction, generator counting and topological degeneracy.

Builds k x k tori, shows the one-constraint-per-type rank structure of
the star and plaquette groups, and counts the protected-subspace
dimension from independent generators.
"""

from flipent import (
    Partition,
    build_torus,
    ground_degeneracy,
    independent_generator_count,
    ladder_operators,
    plaquette_group,
    star_group,
)

for k in range(2, 7):
    lat = build_torus(k)
    stars = star_group(lat)
    plaqs = plaquette_group(lat)
    print(
        f"k={k}: sites={lat.n_sites:3d} links={lat.n_links:3d} "
        f"star rank={stars.rank():3d} (of {stars.n_rows}) "
        f"plaquette rank={plaqs.rank():3d} "
        f"independent={independent_generator_count(lat):3d} "
        f"degeneracy={ground_degeneracy(lat)}"
    )

# The four-fold degeneracy pairs with two noncontractible loop flips
# that no star product can reproduce.
lat = build_torus(4)
stars = star_group(lat)
n_links = lat.n_links
w1, w2 = ladder_operators(lat)  # link masks
print()
print("horizontal-loop ladder flips links:", Partition(n_links, w1).a_links())
print("vertical-loop ladder flips links:  ", Partition(n_links, w2).a_links())
print("w1 in star group?", stars.contains(w1))
print("w2 in star group?", stars.contains(w2))
print("w1^w2 in star group?", stars.contains(w1 ^ w2))

# A double ladder (two parallel loops) IS a star product: the product of
# a full row of stars.  This is also why the all-vertical-links cut has
# nontrivial bulk subgroups on both sides.
from flipent.lattice import torus_v

k = 4
row0 = 0
for i in range(k):
    row0 ^= stars.row_masks[i]  # stars of row 0
double_ladder = [torus_v(k, i, 0) for i in range(k)] + [
    torus_v(k, i, k - 1) for i in range(k)
]
expected = sum(1 << l for l in double_ladder)
print("full star row == double ladder?", row0 == expected)
print("double ladder in star group?", stars.contains(row0))
