"""Engine vs statevector oracle, including the vertical-cut discrepancy.

Sweeps every proper bipartition of the k=2 torus, comparing the exact
rank formula against a dense partial-trace computation, then spot
checks generic-state formulas at k=3.
"""

import random

from flipent import (
    GroundStateCoeffs,
    Partition,
    binary_entropy,
    build_ground_state,
    build_torus,
    closed_form_entropy,
    entropy_equal_superposition,
    named_partition,
    oracle_entropy,
    star_group,
)
from flipent.states import alpha, p_param

lat = build_torus(2)
stars = star_group(lat)
state = build_ground_state(lat, GroundStateCoeffs.xi(0, 0))

worst = 0.0
for mask in range(1, 254 + 1):
    part = Partition(8, mask)
    s_engine = entropy_equal_superposition(stars, part).s_bits
    s_oracle = oracle_entropy(state, part)
    worst = max(worst, abs(s_engine - s_oracle))
print(f"k=2: all 254 bipartitions, max |engine - oracle| = {worst:.3e}")

# the all-vertical cut: the oracle agrees with the rank engine, not
# with the published k**2 - 1
vert = named_partition(lat, "vertical")
print(
    "k=2 vertical cut: engine",
    entropy_equal_superposition(stars, vert).s_bits,
    "oracle",
    round(oracle_entropy(state, vert), 12),
    "published",
    closed_form_entropy("vertical", 2),
)

print()
print("k=3 generic states: closed forms vs oracle")
lat3 = build_torus(3)
chain = named_partition(lat3, "chain")
ladder = named_partition(lat3, "ladder")
rng = random.Random(9)
for _ in range(3):
    c = GroundStateCoeffs.random(rng)
    state3 = build_ground_state(lat3, c)
    s_chain = oracle_entropy(state3, chain)
    s_ladder = oracle_entropy(state3, ladder)
    print(
        f"  chain:  oracle {s_chain:.9f}  formula {2 + binary_entropy(alpha(c)):.9f}"
    )
    print(
        f"  ladder: oracle {s_ladder:.9f}  formula "
        f"{2 + binary_entropy((1 + p_param(c)) / 2):.9f}"
    )
