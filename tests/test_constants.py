"""Zeta values, Euler products, and series constants with reported tail bounds."""

import math
from fractions import Fraction

import mpmath
import pytest

from titchmarsh.constants import (
    CfSpec,
    ConstantResult,
    bk_product,
    cf_series,
    felix_cm,
    titchmarsh_factor,
    zeta_product_identity_gap,
    zeta_value,
)

mpmath.mp.dps = 30

# high-precision oracle for the leading constant zeta(2) zeta(3) / zeta(6)
_TITCH_REF = float(mpmath.zeta(2) * mpmath.zeta(3) / mpmath.zeta(6))


def test_zeta_closed_forms():
    assert math.isclose(zeta_value(2), math.pi**2 / 6, rel_tol=1e-15)
    assert math.isclose(zeta_value(6), math.pi**6 / 945, rel_tol=1e-15)


def test_zeta3_against_mpmath():
    assert math.isclose(zeta_value(3), float(mpmath.zeta(3)), rel_tol=1e-15)


def test_zeta_unsupported_arguments():
    for s in (0, 1, 4, 5, -2):
        with pytest.raises(ValueError):
            zeta_value(s)


def test_titchmarsh_factor_a1():
    r = titchmarsh_factor(1)
    assert r.value == zeta_value(2) * zeta_value(3) / zeta_value(6)
    assert math.isclose(r.value, _TITCH_REF, rel_tol=1e-14)
    assert r.tail_bound == 0.0
    assert r.rounding_bound >= 0.0


def test_titchmarsh_factor_local_factor():
    # p = 2 contributes 1 - 2/(4 - 2 + 1) = 1/3
    assert math.isclose(titchmarsh_factor(2).value, titchmarsh_factor(1).value / 3,
                        rel_tol=1e-15)


def test_titchmarsh_factor_sign_symmetry():
    for a in (1, 2, 6, 30):
        assert titchmarsh_factor(-a).value == titchmarsh_factor(a).value


def test_titchmarsh_factor_rejects_zero():
    with pytest.raises(ValueError):
        titchmarsh_factor(0)


def test_titchmarsh_factor_bounds_the_shift():
    assert titchmarsh_factor(-(2**39)).value > 0
    assert titchmarsh_factor(2**40).value > 0
    for a in (2**40 + 1, -(2**40) - 1):
        with pytest.raises(ValueError, match="a"):
            titchmarsh_factor(a)


def test_felix_cm_m1_is_empty_product():
    assert felix_cm(1, 1).value == titchmarsh_factor(1).value


def test_felix_cm_examples():
    assert math.isclose(felix_cm(2, 1).value, 2.5914619, rel_tol=1e-7)
    assert math.isclose(felix_cm(2, 1).value, titchmarsh_factor(1).value * 4 / 3,
                        rel_tol=1e-15)
    assert math.isclose(felix_cm(3, 2).value, 0.8329699, rel_tol=1e-6)


def test_felix_cm_validation():
    with pytest.raises(ValueError):
        felix_cm(0, 1)
    with pytest.raises(ValueError):
        felix_cm(2, 0)


def test_felix_cm_depends_on_radical():
    c1 = felix_cm(1, 1).value
    assert felix_cm(12, 1).value / c1 == felix_cm(6, 1).value / c1
    assert felix_cm(4, 1).value == felix_cm(2, 1).value
    assert felix_cm(9, 5).value == felix_cm(3, 5).value


def test_felix_cm_sign_symmetry():
    for m, a in ((2, 1), (3, 2), (5, 6)):
        assert felix_cm(m, -a).value == felix_cm(m, a).value


def test_zeta_product_identity_gap():
    # tail of the Euler product is below 1/(P-1) in log scale
    g5 = zeta_product_identity_gap(10**5)
    assert g5 <= 2.2e-5
    g6 = zeta_product_identity_gap(10**6)
    assert g6 < g5
    assert zeta_product_identity_gap(10**7) <= 1e-6


def test_bk_product_large_k_approaches_leading_constant():
    r = bk_product(50, 1, 10**4)
    assert abs(r.value - titchmarsh_factor(1).value) <= 1e-12


def test_bk_product_k2_tail_small_at_default_limit():
    r = bk_product(2, 1, 10**7)
    assert r.tail_bound <= 1e-6
    assert r.truncation == 10**7


def test_bk_tail_formula():
    # declared envelope 2 / ((k-1) P^(k-1)) relative to the value
    r = bk_product(2, 1, 100)
    assert r.tail_bound >= r.value * 2 / 100


def test_bk_monotone_in_k():
    for a in (1, -6):
        vals = [bk_product(k, a, 10**4).value for k in (2, 3, 4, 5, 10, 50)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_bk_sign_symmetry():
    for k in (2, 3):
        assert bk_product(k, -6, 10**4).value == bk_product(k, 6, 10**4).value


def test_bk_validation():
    with pytest.raises(ValueError):
        bk_product(1, 1, 10**4)
    with pytest.raises(ValueError):
        bk_product(2, 0, 10**4)
    with pytest.raises(ValueError):
        bk_product(2, 1, 50)


def test_cfspec_point_mass_recovers_leading_constant():
    r = cf_series(CfSpec.point_mass(), 1, 100)
    t = titchmarsh_factor(1)
    assert r.value == t.value
    assert r.tail_bound == 0.0


def test_cfspec_coefficients():
    pm = CfSpec.point_mass()
    assert pm.coefficient(1) == 1
    assert pm.coefficient(7) == 0
    m2 = CfSpec.mu_k_rule(2)
    assert m2.coefficient(1) == 1
    assert m2.coefficient(4) == -1
    assert m2.coefficient(8) == 0
    assert m2.coefficient(36) == 1
    pl = CfSpec.pillai_rule()
    assert pl.coefficient(1) == 1
    assert pl.coefficient(2) == Fraction(-1, 2)
    assert pl.coefficient(4) == 0
    assert pl.coefficient(6) == Fraction(1, 6)


def test_cfspec_alpha():
    assert CfSpec.mu_k_rule(2).alpha == 0.5
    assert CfSpec.mu_k_rule(4).alpha == 0.25
    assert CfSpec.pillai_rule().alpha == 1.0
    with pytest.raises(ValueError):
        CfSpec("mu_k", k=None)
    with pytest.raises(ValueError):
        CfSpec("bogus")


def test_cf_series_validation():
    with pytest.raises(ValueError):
        cf_series(CfSpec.mu_k_rule(2), 0, 100)
    with pytest.raises(ValueError):
        cf_series(CfSpec.mu_k_rule(2), 1, 5)  # cutoff below minimum


def test_cf_series_sign_symmetry():
    for spec in (CfSpec.mu_k_rule(2), CfSpec.pillai_rule()):
        assert cf_series(spec, -6, 1000).value == cf_series(spec, 6, 1000).value


def test_series_equals_product_within_tails():
    for k in (2, 3):
        for a in (1, 2, -6):
            s = cf_series(CfSpec.mu_k_rule(k), a, 10**4)
            p = bk_product(k, a, 10**7)
            budget = s.tail_bound + p.tail_bound + s.rounding_bound + p.rounding_bound
            assert abs(s.value - p.value) <= budget, (k, a)


def test_pillai_series_matches_k2_product():
    s = cf_series(CfSpec.pillai_rule(), 1, 10**4)
    p = bk_product(2, 1, 10**7)
    budget = s.tail_bound + p.tail_bound + s.rounding_bound + p.rounding_bound
    assert abs(s.value - p.value) <= budget


def test_constant_result_validation():
    with pytest.raises(ValueError):
        ConstantResult(1.0, 1, 0.0)
    with pytest.raises(ValueError):
        ConstantResult(1.0, 10, -1e-9)
    r = ConstantResult(1.5, 10, 0.25)
    assert r.rounding_bound == 0.0


def test_tail_bounds_nonnegative_everywhere():
    for r in (titchmarsh_factor(3), felix_cm(6, 1), bk_product(3, 1, 10**4),
              cf_series(CfSpec.mu_k_rule(3), 1, 1000)):
        assert r.tail_bound >= 0.0
        assert r.rounding_bound >= 0.0
        assert r.truncation >= 2
