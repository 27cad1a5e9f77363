import math

import mpmath
import numpy as np
import pytest

from causaluplift.errors import InvalidDof
from causaluplift.special import (
    chi_square_sf,
    regularized_beta,
    regularized_gamma_q,
    student_t_sf,
)

mpmath.mp.dps = 50


def chi2_sf_oracle(x, dof):
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True))


def t_sf_oracle(t, dof):
    # numerical integration of the t density over the upper tail
    nu = mpmath.mpf(dof)
    c = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
    pdf = lambda u: c * (1 + u * u / nu) ** (-(nu + 1) / 2)
    return float(mpmath.quad(pdf, [t, mpmath.inf]))


class TestChiSquareSf:
    def test_zero_statistic(self):
        for dof in (1, 2, 7, 50, 200):
            assert chi_square_sf(0.0, dof) == 1.0

    def test_tail_limit(self):
        assert chi_square_sf(5000.0, 3) < 1e-300

    def test_quantile_value(self):
        # 0.05 upper-tail quantile of chi2(1) is 3.841...; oracle-checked
        assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=1e-4)
        assert chi_square_sf(3.841, 1) == pytest.approx(chi2_sf_oracle(3.841, 1), abs=1e-12)

    def test_against_mpmath_grid(self):
        for dof in (1, 2, 3, 5, 10, 30, 80, 150, 200):
            for x in (0.01, 0.5, 1.0, 3.0, 10.0, 35.0, 120.0, 300.0, 500.0):
                want = chi2_sf_oracle(x, dof)
                assert chi_square_sf(x, dof) == pytest.approx(want, abs=1e-10)

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            chi_square_sf(1.0, 0)
        with pytest.raises(InvalidDof):
            chi_square_sf(1.0, 1.5)

    def test_negative_statistic(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 2)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 60, 200)
        values = [chi_square_sf(float(x), 4) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRegularizedGamma:
    def test_matches_mpmath(self):
        for a in (0.5, 1.0, 2.5, 17.0, 100.0):
            for x in (0.1, 1.0, 5.0, 40.0, 250.0):
                want = float(mpmath.gammainc(a, x, regularized=True))
                assert regularized_gamma_q(a, x) == pytest.approx(want, abs=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -1.0)


class TestStudentT:
    def test_symmetry(self):
        for t in (0.3, 1.7, 4.0):
            assert student_t_sf(t, 7) + student_t_sf(-t, 7) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert student_t_sf(0.0, 9) == pytest.approx(0.5, abs=1e-14)

    def test_against_integration_oracle(self):
        for dof in (1, 2, 5, 9, 30, 120):
            for t in (0.2, 1.0, 2.5, 6.0):
                want = t_sf_oracle(t, dof)
                assert student_t_sf(t, dof) == pytest.approx(want, abs=1e-8)

    def test_infinite_argument(self):
        assert student_t_sf(math.inf, 4) == 0.0
        assert student_t_sf(-math.inf, 4) == 1.0

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            student_t_sf(1.0, 0)


class TestRegularizedBeta:
    def test_bounds(self):
        assert regularized_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_beta(2.0, 3.0, 1.0) == 1.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0)])
    def test_bad_shape(self, a, b):
        with pytest.raises(ValueError, match="shape parameters must be positive"):
            regularized_beta(a, b, 0.5)

    def test_matches_mpmath(self):
        for a, b in ((0.5, 0.5), (2.0, 5.0), (10.0, 0.5), (60.0, 0.5)):
            for x in (0.05, 0.3, 0.7, 0.95):
                want = float(mpmath.betainc(a, b, 0, x, regularized=True))
                assert regularized_beta(a, b, x) == pytest.approx(want, abs=1e-12)
