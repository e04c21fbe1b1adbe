import cmath
import math
import random

import numpy as np
import pytest

from flipent import (
    GroundStateCoeffs,
    alpha,
    binary_entropy,
    closed_form_entropy,
    p_param,
    von_neumann_entropy,
)

INV_SQRT2 = 1 / math.sqrt(2)


class TestCoefficients:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            GroundStateCoeffs(bad, 0, 0, 0)
        with pytest.raises(ValueError):
            GroundStateCoeffs.from_sequence([bad, 0, 0, 0], renormalize=True)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            GroundStateCoeffs(1, 1, 0, 0)

    @pytest.mark.parametrize(
        "amps, unit",
        [([1e200, 1e200, 0, 0], (INV_SQRT2, INV_SQRT2, 0, 0)),
         ([1e308 + 1e308j, 0, 0, 0], (complex(INV_SQRT2, INV_SQRT2), 0, 0, 0)),
         ([1e154] * 4, (0.5, 0.5, 0.5, 0.5))],
    )
    def test_renormalize_past_the_float_range(self, amps, unit):
        # a squared modulus, or their sum, overflowed; hypot over the parts
        # does not
        c = GroundStateCoeffs.from_sequence(amps, renormalize=True)
        assert all(abs(a - u) < 1e-12 for a, u in zip(c.as_tuple(), unit))
        with pytest.raises(ValueError, match="not normalized"):
            GroundStateCoeffs(*amps)

    def test_renormalize(self):
        c = GroundStateCoeffs.from_sequence([3, 0, 4, 0], renormalize=True)
        assert abs(c.a00 - 0.6) < 1e-12
        assert abs(c.a10 - 0.8) < 1e-12

    def test_xi_basis(self):
        c = GroundStateCoeffs.xi(1, 0)
        assert c.as_tuple() == (0j, 0j, 1 + 0j, 0j)
        with pytest.raises(ValueError):
            GroundStateCoeffs.xi(2, 0)

    def test_random_is_normalized(self):
        rng = random.Random(0)
        for _ in range(20):
            assert abs(GroundStateCoeffs.random(rng).norm_sq() - 1) < 1e-12


class TestAlphaAndP:
    def test_alpha_examples(self):
        assert alpha(GroundStateCoeffs(1, 0, 0, 0)) == 1
        assert alpha(GroundStateCoeffs(0, 1, 0, 0)) == 0
        assert alpha(GroundStateCoeffs(0.5, 0.5, 0.5, 0.5)) == 0.5

    def test_p_examples(self):
        assert p_param(GroundStateCoeffs(1, 0, 0, 0)) == 0
        assert abs(p_param(GroundStateCoeffs(INV_SQRT2, 0, INV_SQRT2, 0)) - 1) < 1e-12
        assert abs(p_param(GroundStateCoeffs(INV_SQRT2, 0, -INV_SQRT2, 0)) + 1) < 1e-12


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter_frozen_value(self):
        # independently: entropy of a Bernoulli(1/4) reduced state
        assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-15
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert abs(binary_entropy(0.25) - von_neumann_entropy(rho)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_and_maximum(self):
        rng = random.Random(1)
        for _ in range(50):
            x = rng.random()
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12
            assert binary_entropy(x) <= 1.0


class TestClosedForms:
    def test_basis_state_column(self):
        for k in (2, 3, 4, 5, 6):
            assert closed_form_entropy("single_spin", k) == 1
            assert closed_form_entropy("chain", k) == k - 1
            assert closed_form_entropy("ladder", k) == k
            assert closed_form_entropy("cross", k) == 2 * k - 1
            assert closed_form_entropy("vertical", k) == k * k - 1  # published value

    def test_chain_k5_basis(self):
        assert closed_form_entropy("chain", 5) == 4

    def test_ladder_generic_with_zero_p(self):
        c = GroundStateCoeffs(1, 0, 0, 0)
        assert closed_form_entropy("ladder", 3, c) == 3

    def test_chain_generic_at_alpha_one(self):
        c = GroundStateCoeffs(INV_SQRT2, 0, INV_SQRT2, 0)
        assert alpha(c) == pytest.approx(1)
        assert closed_form_entropy("chain", 3, c) == pytest.approx(2)

    def test_cross_and_vertical_generic_undefined(self):
        c = GroundStateCoeffs.random(random.Random(2))
        assert closed_form_entropy("cross", 4, c) is None
        assert closed_form_entropy("vertical", 4, c) is None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            closed_form_entropy("disk", 3)

    def test_global_phase_invariance(self):
        rng = random.Random(3)
        for _ in range(25):
            c = GroundStateCoeffs.random(rng)
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            rotated = GroundStateCoeffs(*(phase * a for a in c.as_tuple()))
            for name in ("chain", "ladder"):
                assert closed_form_entropy(name, 3, c) == pytest.approx(
                    closed_form_entropy(name, 3, rotated), abs=1e-12
                )

    def test_chain_formula_shape(self):
        # maximal at alpha = 1/2, reduces to the basis value at 0 and 1
        k = 4
        half = GroundStateCoeffs(INV_SQRT2, INV_SQRT2, 0, 0)
        assert alpha(half) == pytest.approx(0.5)
        assert closed_form_entropy("chain", k, half) == pytest.approx(k)
        rng = random.Random(4)
        for _ in range(30):
            c = GroundStateCoeffs.random(rng)
            assert closed_form_entropy("chain", k, c) <= k + 1e-12
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            basis = GroundStateCoeffs.xi(i, j)
            assert closed_form_entropy("chain", k, basis) == pytest.approx(k - 1)
