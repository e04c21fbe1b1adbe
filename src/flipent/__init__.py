"""Entanglement entropy of spin-flip stabilizer states on lattices.

Exact GF(2) rank arithmetic for the entropy of equal-superposition
stabilizer states, a k x k toric-code front end with the published
closed forms, and a dense statevector oracle for cross-validation at
small sizes.

The oracle names (`_ORACLE_NAMES`) are served by a module-level
`__getattr__` (PEP 562): they load numpy on first use, so rank-only
code never imports it.
"""

from .engine import (
    EntropyReport,
    ScanResult,
    absolute_entanglement_scan,
    bipartition_masks,
    boundary_bounds_check,
    entropy_bounds,
    entropy_equal_superposition,
    geometric_entropy,
    ground_degeneracy,
    independent_generator_count,
    is_diagonal,
)
from .errors import LatticeFormatError, ResourceLimitError
from .gf2 import Gf2Matrix
from .lattice import (
    BoundaryStats,
    Lattice,
    Partition,
    Region,
    boundary_stats,
    build_torus,
    disk_region,
    ladder_operators,
    lattice_to_document,
    named_partition,
    parse_lattice_document,
    plaquette_group,
    random_rectangle_region,
    random_simple_region,
    region_from_sites,
    star_group,
)
from .states import (
    GroundStateCoeffs,
    alpha,
    binary_entropy,
    closed_form_entropy,
    p_param,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {
        "basis_state_entropy_invariance",
        "build_ground_state",
        "concurrence",
        "off_diagonal_mass",
        "oracle_entropy",
        "reduced_density_matrix",
        "von_neumann_entropy",
    }
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundaryStats",
    "EntropyReport",
    "Gf2Matrix",
    "GroundStateCoeffs",
    "Lattice",
    "LatticeFormatError",
    "Partition",
    "Region",
    "ResourceLimitError",
    "ScanResult",
    "absolute_entanglement_scan",
    "alpha",
    "basis_state_entropy_invariance",
    "binary_entropy",
    "bipartition_masks",
    "boundary_bounds_check",
    "boundary_stats",
    "build_ground_state",
    "build_torus",
    "closed_form_entropy",
    "concurrence",
    "disk_region",
    "entropy_bounds",
    "entropy_equal_superposition",
    "geometric_entropy",
    "ground_degeneracy",
    "independent_generator_count",
    "is_diagonal",
    "ladder_operators",
    "lattice_to_document",
    "named_partition",
    "off_diagonal_mass",
    "oracle_entropy",
    "p_param",
    "parse_lattice_document",
    "plaquette_group",
    "random_rectangle_region",
    "random_simple_region",
    "reduced_density_matrix",
    "region_from_sites",
    "star_group",
    "von_neumann_entropy",
]
