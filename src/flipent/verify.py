"""Cross-validation of the rank engine against the statevector oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .engine import bipartition_masks, entropy_equal_superposition
from .errors import ORACLE_TOL
from .gf2 import Gf2Matrix
from .lattice import Lattice, Partition, disk_region, named_partition, star_group
from .oracle import build_ground_state, oracle_entropy, support
from .states import GroundStateCoeffs

VERIFY_MAX_K = 3


@dataclass(frozen=True)
class VerifyResult:
    name: str
    s_engine: int
    s_oracle: float
    passed: bool

    @property
    def deviation(self) -> float:
        return abs(self.s_oracle - self.s_engine)


def default_suite(lat: Lattice) -> dict[str, Partition]:
    """Partitions to cross-check at a given torus size.

    k=2 is small enough to sweep every proper bipartition (254 of
    them); k=3 covers the named partitions plus a unit disk.
    """
    if lat.torus_k is None:
        raise ValueError("verification suites are defined for torus lattices")
    k = lat.torus_k
    if k > VERIFY_MAX_K:
        raise ValueError(f"oracle verification is capped at k <= {VERIFY_MAX_K}")
    if k == 2:
        n = lat.n_links
        masks = bipartition_masks(n)
        return {"links:" + lat.link_list(m): Partition(n, m) for m in masks}
    suite = {
        name: named_partition(lat, name)
        for name in ("single_spin", "chain", "ladder", "cross")
    }
    part = disk_region(lat, rect=(0, 0, 1, 1)).partition
    suite["rect:0,0,1,1"] = part
    return suite


def verify_partitions(
    lat: Lattice,
    partitions: dict[str, Partition],
    coeffs: GroundStateCoeffs | None = None,
    *,
    generators: Gf2Matrix | None = None,
    tol: float = ORACLE_TOL,
) -> list[VerifyResult]:
    """Compare engine and oracle entropies partition by partition.

    ``generators`` overrides the star group (used to exercise the
    failure path with corrupted generator sets); the oracle state is
    always the true ground state, so a corrupted engine input shows up
    as a deviation.
    """
    if coeffs is None:
        coeffs = GroundStateCoeffs.xi(0, 0)
    group = generators if generators is not None else star_group(lat)
    state = build_ground_state(lat, coeffs)
    nonzero = support(state)
    results = []
    for name in sorted(partitions):
        part = partitions[name]
        s_engine = entropy_equal_superposition(group, part).s_bits
        s_oracle = oracle_entropy(state, part, support=nonzero)
        passed = abs(s_oracle - s_engine) <= tol
        results.append(VerifyResult(name, s_engine, s_oracle, passed))
    return results


def max_deviation(results: list[VerifyResult]) -> float:
    return max((r.deviation for r in results), default=0.0)
