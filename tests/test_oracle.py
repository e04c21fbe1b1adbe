import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flipent import (
    GroundStateCoeffs,
    Partition,
    ResourceLimitError,
    basis_state_entropy_invariance,
    binary_entropy,
    build_ground_state,
    build_torus,
    concurrence,
    entropy_equal_superposition,
    named_partition,
    off_diagonal_mass,
    oracle_entropy,
    p_param,
    reduced_density_matrix,
    von_neumann_entropy,
)
from flipent.oracle import apply_flip, is_stabilized, reduced_spectrum, support
from flipent.states import alpha


class TestGroundStateConstruction:
    def test_k2_equal_superposition(self, xi00_k2):
        nonzero = np.flatnonzero(np.abs(xi00_k2) > 1e-15)
        assert len(nonzero) == 8
        assert np.allclose(xi00_k2[nonzero], 1 / math.sqrt(8))
        assert abs(np.vdot(xi00_k2, xi00_k2) - 1) < 1e-12

    def test_basis_states_orthogonal(self, torus_k2):
        states = [
            build_ground_state(torus_k2, GroundStateCoeffs.xi(i, j))
            for i in (0, 1)
            for j in (0, 1)
        ]
        for a, b in itertools.combinations(range(4), 2):
            assert abs(np.vdot(states[a], states[b])) < 1e-12

    def test_stabilized_by_stars_and_plaquettes(self, torus_k2):
        rng = random.Random(20)
        for _ in range(5):
            state = build_ground_state(torus_k2, GroundStateCoeffs.random(rng))
            assert is_stabilized(torus_k2, state)

    def test_k3_state_is_stabilized(self, torus_k3, xi00_k3):
        assert is_stabilized(torus_k3, xi00_k3)

    def test_plaquette_violation_detected(self, torus_k2):
        # |+>^n is fixed by every x-flip but not by the z-strings
        plus = np.full(1 << 8, 1 / 16, dtype=np.complex128)
        assert all(np.array_equal(apply_flip(plus, sm), plus)
                   for sm in torus_k2.star_masks())
        assert not is_stabilized(torus_k2, plus)

    def test_star_violation_detected(self, torus_k2):
        # the all-up basis state is fixed by the z-strings only
        up = np.zeros(1 << 8, dtype=np.complex128)
        up[0] = 1
        assert not is_stabilized(torus_k2, up)

    def test_links_cap(self, torus_k3):
        with pytest.raises(ResourceLimitError):
            build_ground_state(torus_k3, GroundStateCoeffs.xi(0, 0), max_links=10)


class TestReducedDensityMatrix:
    def test_keep_everything_gives_projector(self, xi00_k2):
        full = Partition(8, (1 << 8) - 1)
        rho = reduced_density_matrix(xi00_k2, full)
        assert np.allclose(rho, np.outer(xi00_k2, xi00_k2.conj()), atol=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_single_spin_maximally_mixed(self, torus_k2, xi00_k2):
        rho = reduced_density_matrix(xi00_k2, named_partition(torus_k2, "single_spin"))
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_ladder_totally_mixed(self, torus_k2, xi00_k2):
        rho = reduced_density_matrix(xi00_k2, named_partition(torus_k2, "ladder"))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_trace_one_and_hermitian(self, torus_k3, xi00_k3):
        rho = reduced_density_matrix(xi00_k3, named_partition(torus_k3, "cross"))
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_subsystem_cap(self, xi00_k2):
        with pytest.raises(ResourceLimitError):
            reduced_density_matrix(xi00_k2, Partition(8, 0b1111), max_subsystem=3)

    def test_no_temporary_of_state_size(self, torus_k3, xi00_k3):
        # the support of a basis state is 256 of 2**18 amplitudes; a copy
        # of the state (4 MiB) would show here
        cross = named_partition(torus_k3, "cross")
        tracemalloc.start()
        try:
            reduced_density_matrix(xi00_k3, cross)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < xi00_k3.nbytes // 4


def bit_gather_density_matrix(state, p):
    """Reference partial trace: M filled entry by entry from index bits.

    Row index bit ``pos`` is link ``a_links[pos]`` of the basis index,
    column index bit ``pos`` is link ``b_links[pos]``; rho = M M^dagger.
    """
    idx = np.arange(len(state), dtype=np.int64)

    def gather(links):
        out = np.zeros(len(idx), dtype=np.int64)
        for pos, link in enumerate(links):
            out |= ((idx >> link) & 1) << pos
        return out

    a_links, b_links = p.a_links(), p.complement().a_links()
    m = np.zeros((1 << len(a_links), 1 << len(b_links)), dtype=np.complex128)
    m[gather(a_links), gather(b_links)] = state
    return m @ m.conj().T


class TestPartialTraceAgainstBitGather:
    @pytest.mark.parametrize(
        "coeffs",
        [
            GroundStateCoeffs.xi(0, 0),
            GroundStateCoeffs.random(random.Random(25)),
            # a support found from the real part alone would miss these
            GroundStateCoeffs.from_sequence([0, 1j, 0, 0]),
            GroundStateCoeffs.from_sequence([0.6, -0.8j, 0, 0]),
        ],
        ids=["xi00", "random", "imaginary", "negative_imaginary"],
    )
    def test_every_k2_bipartition(self, torus_k2, coeffs):
        state = build_ground_state(torus_k2, coeffs)
        for mask in range(1, 255):
            p = Partition(8, mask)
            assert np.array_equal(
                reduced_density_matrix(state, p), bit_gather_density_matrix(state, p)
            ), mask

    def test_sampled_k3_bipartitions(self, xi00_k3):
        rng = random.Random(26)
        for _ in range(100):
            links = rng.sample(range(18), rng.randint(1, 8))
            p = Partition.from_links(links, 18)
            assert np.array_equal(
                reduced_density_matrix(xi00_k3, p),
                bit_gather_density_matrix(xi00_k3, p),
            ), links

    def test_sampled_k3_bipartitions_generic_state(self, torus_k3):
        # dropping the zero columns of M regroups the BLAS sums, so the
        # last bit of an entry may move
        state = build_ground_state(torus_k3, GroundStateCoeffs.random(random.Random(27)))
        rng = random.Random(28)
        for _ in range(60):
            links = rng.sample(range(18), rng.randint(1, 8))
            p = Partition.from_links(links, 18)
            assert np.allclose(
                reduced_density_matrix(state, p),
                bit_gather_density_matrix(state, p),
                rtol=0,
                atol=1e-14,
            ), links

    def test_passed_support_gives_same_rho(self, torus_k2, xi00_k3):
        generic = build_ground_state(torus_k2, GroundStateCoeffs.random(random.Random(29)))
        imaginary = build_ground_state(
            torus_k2, GroundStateCoeffs.from_sequence([0.6, -0.8j, 0, 0])
        )
        rng = random.Random(30)
        for state, n in ((generic, 8), (imaginary, 8), (xi00_k3, 18)):
            nonzero = support(state)
            assert np.array_equal(nonzero, np.flatnonzero(np.abs(state)))
            for _ in range(20):
                p = Partition(n, rng.randrange(1, (1 << n) - 1))
                if p.size_a > 12:
                    p = p.complement()
                assert np.array_equal(
                    reduced_density_matrix(state, p, support=nonzero),
                    reduced_density_matrix(state, p),
                )


class TestVonNeumannEntropy:
    def test_pure_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1
        assert von_neumann_entropy(np.outer(v, v.conj())) == 0

    def test_maximally_mixed(self):
        for m in (1, 2, 3):
            rho = np.eye(1 << m, dtype=complex) / (1 << m)
            assert von_neumann_entropy(rho) == pytest.approx(m, abs=1e-12)

    def test_k2_chain(self, torus_k2, xi00_k2):
        rho = reduced_density_matrix(xi00_k2, named_partition(torus_k2, "chain"))
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("row, col", [(0, 129), (129, 0), (64, 127), (127, 64)])
    def test_hermitian_check_covers_every_block(self, row, col):
        # the check runs over blocks of 64 rows; a 130 x 130 matrix has a
        # short last block
        rho = np.eye(130, dtype=complex) / 130
        assert von_neumann_entropy(rho) == pytest.approx(math.log2(130), abs=1e-9)
        rho[row, col] = 1e-9j
        with pytest.raises(ValueError, match="not Hermitian"):
            reduced_spectrum(rho)
        rho[col, row] = -1e-9j  # conjugate entries: Hermitian again
        assert reduced_spectrum(rho).sum() == pytest.approx(1.0, abs=1e-9)

    def test_entropy_symmetric_under_swap(self, torus_k2, xi00_k2):
        rng = random.Random(21)
        for _ in range(20):
            p = Partition(8, rng.randint(1, 254))
            sa = von_neumann_entropy(reduced_density_matrix(xi00_k2, p))
            sb = von_neumann_entropy(reduced_density_matrix(xi00_k2, p.complement()))
            assert sa == pytest.approx(sb, abs=1e-10)


class TestConcurrence:
    def test_bell_state(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert concurrence(np.outer(v, v.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_separable_diagonal(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert concurrence(rho) == 0

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2, dtype=complex))

    def test_no_pair_entanglement_k2(self, torus_k2, xi00_k2):
        for i, j in itertools.combinations(range(8), 2):
            rho = reduced_density_matrix(xi00_k2, Partition.from_links([i, j], 8))
            assert concurrence(rho) < 1e-9


class TestOffDiagonalMass:
    def test_diagonal_matrix(self):
        assert off_diagonal_mass(np.diag([0.5, 0.5]).astype(complex)) == 0

    def test_chain_diagonal_for_any_ground_state(self, torus_k2):
        rng = random.Random(22)
        chain = named_partition(torus_k2, "chain")
        for _ in range(5):
            state = build_ground_state(torus_k2, GroundStateCoeffs.random(rng))
            rho = reduced_density_matrix(state, chain)
            assert off_diagonal_mass(rho) < 1e-12

    def test_ladder_generic_not_diagonal(self, torus_k2):
        c = GroundStateCoeffs.from_sequence([1, 0, 1, 0], renormalize=True)
        assert p_param(c) == pytest.approx(1.0)
        state = build_ground_state(torus_k2, c)
        rho = reduced_density_matrix(state, named_partition(torus_k2, "ladder"))
        assert off_diagonal_mass(rho) > 0.1

    def test_k3_chain_and_ladder_diagonal_for_basis_state(self, torus_k3, xi00_k3):
        for name in ("chain", "ladder"):
            rho = reduced_density_matrix(xi00_k3, named_partition(torus_k3, name))
            assert off_diagonal_mass(rho) < 1e-12


class TestGenericStateFormulas:
    @pytest.mark.parametrize("k", [2, 3])
    def test_chain_entropy(self, k):
        lat = build_torus(k)
        chain = named_partition(lat, "chain")
        rng = random.Random(23)
        for _ in range(10):
            c = GroundStateCoeffs.random(rng)
            s = oracle_entropy(build_ground_state(lat, c), chain)
            assert s == pytest.approx(k - 1 + binary_entropy(alpha(c)), abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_ladder_entropy_and_spectrum(self, k):
        lat = build_torus(k)
        ladder = named_partition(lat, "ladder")
        rng = random.Random(24)
        for _ in range(10):
            c = GroundStateCoeffs.random(rng)
            p = p_param(c)
            state = build_ground_state(lat, c)
            rho = reduced_density_matrix(state, ladder)
            s = von_neumann_entropy(rho)
            assert s == pytest.approx(
                k - 1 + binary_entropy((1 + p) / 2), abs=1e-9
            )
            spectrum = reduced_spectrum(rho)
            expected = sorted(
                [(1 + p) / 2**k] * (1 << (k - 1)) + [(1 - p) / 2**k] * (1 << (k - 1)),
                reverse=True,
            )
            assert np.allclose(spectrum, expected, atol=1e-9)


class TestBasisStateInvariance:
    def test_k2_chain_all_equal_one(self, torus_k2):
        chain = named_partition(torus_k2, "chain")
        assert basis_state_entropy_invariance(torus_k2, chain)
        for i, j in ((0, 0), (1, 1)):
            state = build_ground_state(torus_k2, GroundStateCoeffs.xi(i, j))
            s = oracle_entropy(state, chain)
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_k2_single_spin(self, torus_k2):
        p = named_partition(torus_k2, "single_spin")
        assert basis_state_entropy_invariance(torus_k2, p)
        state = build_ground_state(torus_k2, GroundStateCoeffs.xi(0, 1))
        s = oracle_entropy(state, p)
        assert s == pytest.approx(1.0, abs=1e-9)


PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)
K2_MASKS = st.integers(min_value=1, max_value=254)
AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
).filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-6)


class TestOracleProperties:
    @PROPERTY_SETTINGS
    @given(amps=AMPLITUDES, mask=K2_MASKS)
    def test_pure_state_sides_agree(self, torus_k2, amps, mask):
        coeffs = GroundStateCoeffs.from_sequence(amps, renormalize=True)
        state = build_ground_state(torus_k2, coeffs)
        p = Partition(8, mask)
        s_a = oracle_entropy(state, p)
        s_b = oracle_entropy(state, p.complement())
        assert abs(s_a - s_b) <= 1e-9

    @PROPERTY_SETTINGS
    @given(
        i=st.integers(min_value=0, max_value=1),
        j=st.integers(min_value=0, max_value=1),
        mask=K2_MASKS,
    )
    def test_basis_state_matches_engine(self, torus_k2, stars_k2, i, j, mask):
        state = build_ground_state(torus_k2, GroundStateCoeffs.xi(i, j))
        p = Partition(8, mask)
        s_bits = entropy_equal_superposition(stars_k2, p).s_bits
        assert abs(oracle_entropy(state, p) - s_bits) <= 1e-9


class TestFlipApplication:
    def test_double_flip_is_identity(self, xi00_k2):
        flipped = apply_flip(apply_flip(xi00_k2, 0b1010), 0b1010)
        assert np.array_equal(flipped, xi00_k2)
