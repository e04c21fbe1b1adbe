"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1 checks all 25 cells of the published closed-form column
(k = 2..6) against the exact rank engine.  On the 20 cells of
single_spin, chain, ladder and cross the published value is exact, and
the engine must equal it.  On the 5 vertical cells the published value
k**2 - 1 is not exact: it counts the whole star group and leaves out
the k - 1 independent double ladders that lie inside A and the k - 1
that lie inside B.  Each vertical cell is pinned on both sides:
`closed_form_entropy` must still return the published k**2 - 1, the
engine must give the exact (k-1)**2, and its inside-A and inside-B
ranks must both be k - 1.  Criterion 2's all-bipartitions oracle sweep
at k=2 covers the vertical cut independently; see README.md ("The
vertical-cut discrepancy") for the full argument.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from flipent import (
    Gf2Matrix,
    GroundStateCoeffs,
    Partition,
    absolute_entanglement_scan,
    binary_entropy,
    boundary_bounds_check,
    build_ground_state,
    build_torus,
    closed_form_entropy,
    concurrence,
    disk_region,
    entropy_equal_superposition,
    ground_degeneracy,
    independent_generator_count,
    is_diagonal,
    named_partition,
    off_diagonal_mass,
    oracle_entropy,
    p_param,
    random_rectangle_region,
    random_simple_region,
    reduced_density_matrix,
    star_group,
    von_neumann_entropy,
)
from flipent.oracle import reduced_spectrum
from flipent.states import alpha

TABLE_PARTITIONS = ("single_spin", "chain", "ladder", "cross", "vertical")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_closed_form_column():
    t0 = time.perf_counter()
    mismatches = []
    for k in (2, 3, 4, 5, 6):
        lat = build_torus(k)
        stars = star_group(lat)
        for name in TABLE_PARTITIONS:
            rep = entropy_equal_superposition(stars, named_partition(lat, name))
            published = closed_form_entropy(name, k)
            if name != "vertical":
                if rep.s_bits != published:
                    mismatches.append(
                        f"{name}@k={k}: want published = exact = "
                        f"{published:g}, engine {rep.s_bits}"
                    )
                continue
            # The published k^2 - 1 is log2|G| alone; the k - 1 double
            # ladders inside A and the k - 1 inside B make it (k-1)^2.
            inside = (rep.log2_inside_a, rep.log2_inside_b)
            if (
                published != k * k - 1
                or rep.s_bits != (k - 1) ** 2
                or inside != (k - 1, k - 1)
            ):
                mismatches.append(
                    f"vertical@k={k}: want published {k * k - 1}, got "
                    f"{published:g}; want exact {(k - 1) ** 2}, engine "
                    f"{rep.s_bits}; want inside A/B {k - 1}/{k - 1}, engine "
                    f"{inside[0]}/{inside[1]}"
                )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report(
        1,
        ok,
        f"25 closed-form cells (20 published = exact, 5 vertical published "
        f"k^2-1 vs exact (k-1)^2), {len(mismatches)} mismatches"
        f"{': ' + '; '.join(mismatches) if mismatches else ''}, {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert not mismatches, "; ".join(mismatches)


def test_criterion_02_oracle_equivalence_k2():
    t0 = time.perf_counter()
    lat = build_torus(2)
    stars = star_group(lat)
    state = build_ground_state(lat, GroundStateCoeffs.xi(0, 0))
    worst = 0.0
    for mask in range(1, (1 << 8) - 1):
        part = Partition(8, mask)
        s_engine = entropy_equal_superposition(stars, part).s_bits
        s_oracle = von_neumann_entropy(reduced_density_matrix(state, part))
        worst = max(worst, abs(s_oracle - s_engine))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(2, ok, f"254 bipartitions, max deviation {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_03_oracle_equivalence_k3():
    t0 = time.perf_counter()
    lat = build_torus(3)
    stars = star_group(lat)
    state = build_ground_state(lat, GroundStateCoeffs.xi(0, 0))
    partitions = {
        name: named_partition(lat, name)
        for name in ("chain", "ladder", "cross", "single_spin")
    }
    partitions["disk_1x1"] = disk_region(lat, rect=(0, 0, 1, 1)).partition
    worst = 0.0
    for part in partitions.values():
        s_engine = entropy_equal_superposition(stars, part).s_bits
        s_oracle = von_neumann_entropy(reduced_density_matrix(state, part))
        worst = max(worst, abs(s_oracle - s_engine))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(3, ok, f"k=3 named+disk, max deviation {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_04_basis_state_invariance():
    worst = 0.0
    for k in (2, 3):
        lat = build_torus(k)
        for name in ("chain", "ladder"):
            part = named_partition(lat, name)
            values = [
                oracle_entropy(build_ground_state(lat, GroundStateCoeffs.xi(i, j)), part)
                for i in (0, 1)
                for j in (0, 1)
            ]
            worst = max(worst, max(values) - min(values))
    ok = worst < 1e-9
    report(4, ok, f"xi_ij spread over chain/ladder at k=2,3: {worst:.3e}")
    assert worst < 1e-9


def test_criterion_05_generic_state_formulas():
    worst = 0.0
    spectra_ok = True
    for k in (2, 3):
        lat = build_torus(k)
        chain = named_partition(lat, "chain")
        ladder = named_partition(lat, "ladder")
        rng = random.Random(500 + k)
        for _ in range(50):
            c = GroundStateCoeffs.random(rng)
            state = build_ground_state(lat, c)
            s_chain = von_neumann_entropy(reduced_density_matrix(state, chain))
            worst = max(
                worst, abs(s_chain - (k - 1 + binary_entropy(alpha(c))))
            )
            rho = reduced_density_matrix(state, ladder)
            s_ladder = von_neumann_entropy(rho)
            p = p_param(c)
            worst = max(
                worst, abs(s_ladder - (k - 1 + binary_entropy((1 + p) / 2)))
            )
            expected = sorted(
                [(1 + p) / 2**k] * (1 << (k - 1))
                + [(1 - p) / 2**k] * (1 << (k - 1)),
                reverse=True,
            )
            if not np.allclose(reduced_spectrum(rho), expected, atol=1e-9):
                spectra_ok = False
    ok = worst < 1e-9 and spectra_ok
    report(
        5,
        ok,
        f"100 random draws, max formula deviation {worst:.3e}, "
        f"spectra {'ok' if spectra_ok else 'WRONG'}",
    )
    assert worst < 1e-9
    assert spectra_ok


def test_criterion_06_concurrence_vanishes():
    worst = 0.0
    lat2 = build_torus(2)
    state2 = build_ground_state(lat2, GroundStateCoeffs.xi(0, 0))
    for i, j in itertools.combinations(range(8), 2):
        rho = reduced_density_matrix(state2, Partition.from_links([i, j], 8))
        worst = max(worst, concurrence(rho))
    lat3 = build_torus(3)
    state3 = build_ground_state(lat3, GroundStateCoeffs.xi(0, 0))
    rng = random.Random(606)
    pairs = rng.sample(list(itertools.combinations(range(18), 2)), 50)
    for i, j in pairs:
        rho = reduced_density_matrix(state3, Partition.from_links([i, j], 18))
        worst = max(worst, concurrence(rho))
    ok = worst < 1e-9
    report(6, ok, f"28 pairs at k=2 + 50 pairs at k=3, max C = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_07_degeneracy():
    ok = True
    for k in (2, 3, 4, 5, 6):
        lat = build_torus(k)
        if ground_degeneracy(lat) != 4:
            ok = False
        if independent_generator_count(lat) != 2 * k * k - 2:
            ok = False
    report(7, ok, "degeneracy 4 and 2k^2-2 independent generators for k=2..6")
    assert ok


def test_criterion_08_boundary_law_k12():
    lat = build_torus(12)
    stars = star_group(lat)
    rng = random.Random(808)
    rect_bad = loop_bad = bounds_bad = 0
    for _ in range(100):
        part, st, _ = random_rectangle_region(lat, rng)
        s = entropy_equal_superposition(stars, part).s_bits
        if s != st.boundary_length - 1:
            rect_bad += 1
    for _ in range(200):
        part, st, _ = random_simple_region(lat, rng)
        s = entropy_equal_superposition(stars, part).s_bits
        if s != st.boundary_length - st.n2 - 2 * st.n3 - 1:
            loop_bad += 1
        if not boundary_bounds_check(st, s):
            bounds_bad += 1
    ok = rect_bad == loop_bad == bounds_bad == 0
    report(
        8,
        ok,
        f"100 rects (S=L-1): {rect_bad} bad; 200 loops "
        f"(S=L-n2-2n3-1 and bounds): {loop_bad}/{bounds_bad} bad",
    )
    assert ok


def test_criterion_09_absolute_entanglement():
    stars = star_group(build_torus(2))
    res = absolute_entanglement_scan(stars, "exhaustive")
    full = Gf2Matrix([1 << i for i in range(8)], 8)
    control = absolute_entanglement_scan(full, "exhaustive")
    ok = res.min_s_bits == 1 and res.evaluated == 254 and control.min_s_bits == 0
    report(
        9,
        ok,
        f"k=2 exhaustive min S = {res.min_s_bits} over {res.evaluated}; "
        f"full-group control min S = {control.min_s_bits}",
    )
    assert res.min_s_bits == 1
    assert res.evaluated == 254
    assert control.min_s_bits == 0


def test_criterion_10_diagonality_predicate():
    lat = build_torus(2)
    stars = star_group(lat)
    state = build_ground_state(lat, GroundStateCoeffs.xi(0, 0))
    disagreements = 0
    for mask in range(1, (1 << 8) - 1):
        part = Partition(8, mask)
        predicted = is_diagonal(stars, part)
        mass = off_diagonal_mass(reduced_density_matrix(state, part))
        if predicted != (mass < 1e-12):
            disagreements += 1
    ok = disagreements == 0
    report(10, ok, f"254 bipartitions, {disagreements} predicate disagreements")
    assert disagreements == 0
