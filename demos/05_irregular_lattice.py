"""Irregular lattices through the document format.

The engine is not tied to the torus builder: any lattice described by
its incidence can be loaded, validated (even star/plaquette overlaps,
Euler count for closed surfaces) and fed to the same rank machinery.
Here: a cube (genus 0, unique ground state) and an open 2x2 patch with
the plaquette-flip group playing the role of the stabilizer group.
"""

from flipent import (
    Gf2Matrix,
    Partition,
    entropy_equal_superposition,
    ground_degeneracy,
    lattice_to_document,
    parse_lattice_document,
    plaquette_group,
    star_group,
)

CUBE = """\
LATTICE v1 closed
SITES
0
1
2
3
4
5
6
7
LINKS
0 1
2 3
4 5
6 7
0 2
1 3
4 6
5 7
0 4
1 5
2 6
3 7
PLAQUETTES
0 1 4 5
2 3 6 7
0 2 8 9
1 3 10 11
4 6 8 10
5 7 9 11
"""

cube = parse_lattice_document(CUBE)
print(
    f"cube: genus={cube.genus} star rank={star_group(cube).rank()} "
    f"plaquette rank={plaquette_group(cube).rank()} "
    f"degeneracy={ground_degeneracy(cube)}"
)

# entropy of one face of the cube in the equal superposition over the
# star group: every corner star straddles the cut
face = Partition.from_links(cube.plaquette_links[0], cube.n_links)
rep = entropy_equal_superposition(star_group(cube), face)
print(f"one face of the cube: S = {rep.s_bits} bits (diagonal={rep.diagonal})")

# open patch with plaquette x-flips as the group (generic-lattice setup)
PATCH = """\
LATTICE v1 open
SITES
0
1
2
3
4
5
6
7
8
LINKS
0 1
1 2
3 4
4 5
6 7
7 8
0 3
1 4
2 5
3 6
4 7
5 8
PLAQUETTES
0 2 6 7
1 3 7 8
2 4 9 10
3 5 10 11
"""

patch = parse_lattice_document(PATCH)
flips = plaquette_group(patch)
print(f"\nopen 2x2 patch: plaquette-flip group rank = {flips.rank()}")
# region = the four links of the lower-left face
region = Partition.from_links(patch.plaquette_links[0], patch.n_links)
rep = entropy_equal_superposition(flips, region)
print(
    f"lower-left face vs rest: S = {rep.s_bits} bits "
    f"(group {1 << rep.log2_group} elements, "
    f"{1 << rep.log2_inside_a} inside A, {1 << rep.log2_inside_b} inside B)"
)

# documents round-trip, so lattices built in code can be saved and shared
round_trip = parse_lattice_document(lattice_to_document(cube))
print("\nround-trip check:", round_trip.genus == 0)
