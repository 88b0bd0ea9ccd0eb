import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nu_spectral.errors import DegreeTooHigh, NotPolynomialRoot
from nu_spectral.polynomials import (
    Interval,
    Polynomial,
    quad_discriminant,
    quad_roots,
)
from nu_spectral.scalars import sqrt_fraction

F = Fraction
P = Polynomial.of


def test_zero_polynomial_degree_sentinel():
    z = Polynomial()
    assert z.degree is None
    assert z.is_zero
    assert P(0, 0, 0).degree is None


def test_trailing_zero_normalization():
    p = P(1, 2, 0, 0)
    assert p.degree == 1
    assert p.coeffs == (F(1), F(2))


def test_arithmetic_and_eval():
    p = P(1, 0, 1)  # 1 + x^2
    q = P(0, 1)  # x
    assert (p * q).coeffs == (F(0), F(1), F(0), F(1))
    assert (p + q)(F(2)) == F(7)
    assert p(0.5) == 1.25


def test_derivative_and_antiderivative():
    p = P(3, 0, 5)
    assert p.derivative().coeffs == (F(0), F(10))
    assert p.antiderivative().derivative() == p


def test_compose_affine():
    p = P(0, 0, 1)  # x^2
    q = p.compose_affine(F(2), F(-1))  # (2x-1)^2
    assert q == P(1, -4, 4)
    # zero shift: coefficient k scales by a^k
    assert P(1, 2, 3).compose_affine(F(-1, 2), F(0)) == P(1, -1, F(3, 4))
    assert P(5, 7).compose_affine(F(1), F(0)) == P(5, 7)


def test_discriminant_quadratic():
    assert quad_discriminant(P(-4, 0, 1)) == 16
    assert quad_discriminant(P(1, -2, 1)) == 0


def test_discriminant_degenerate_convention():
    # degree <= 1 keeps b^2 so a zero value still flags a perfect square
    assert quad_discriminant(P(5, 3)) == 9
    assert quad_discriminant(P(5)) == 0
    assert quad_discriminant(Polynomial()) == 0


def test_discriminant_degree_guard():
    with pytest.raises(DegreeTooHigh):
        quad_discriminant(P(0, 0, 0, 1))


def test_quad_roots_exact_surds():
    # x^2 - 2: roots +-sqrt(2)
    r = quad_roots(P(-2, 0, 1))
    s2 = sqrt_fraction(2)
    assert r == [-1 * s2, s2]
    # double root stays doubled
    assert quad_roots(P(1, -2, 1)) == [F(1), F(1)]
    # linear
    assert quad_roots(P(3, -2)) == [F(3, 2)]


def test_quad_roots_order_is_exact():
    # the two roots round to one float; a < 0 must not reverse them
    n = 10**20
    assert quad_roots(P(-(n * n - 1), 2 * n, -1)) == [n - 1, n + 1]
    assert quad_roots(P(n * n - 1, -2 * n, 1)) == [n - 1, n + 1]


def test_quad_roots_guards():
    with pytest.raises(NotPolynomialRoot):
        quad_roots(P(4))
    with pytest.raises(DegreeTooHigh):
        quad_roots(P(0, 0, 0, 2))
    with pytest.raises(ValueError):
        quad_roots(P(1, 0, 1))  # x^2 + 1 has no real roots


def test_interval():
    i = Interval(0, math.inf)
    assert i.contains(1e-9)
    assert not i.contains(0)
    assert not i.hi_finite


# the 30th convergent p/q of sqrt(2): q sqrt(2) - p is positive, but its
# float value is 0.0
PELL_P, PELL_Q = 367296043199, 259717522849


def test_interval_order_is_exact():
    # both endpoints round to the float 1e20
    i = Interval(F(10**20), F(10**20 + 1))
    assert i.contains(F(2 * 10**20 + 1, 2))
    assert not i.contains(F(10**20))
    with pytest.raises(ValueError, match="out of order"):
        Interval(F(10**20 + 1), F(10**20))
    assert Interval(F(PELL_P, PELL_Q), sqrt_fraction(2)).hi == sqrt_fraction(2)
    with pytest.raises(ValueError, match="out of order"):
        Interval(sqrt_fraction(2), F(PELL_P, PELL_Q))
    with pytest.raises(ValueError, match="out of order"):
        Interval(sqrt_fraction(2), sqrt_fraction(2))
    # an infinite endpoint orders against a finite one past the float range
    assert Interval(F(10**400), math.inf).contains(F(10**401))
    assert Interval(-math.inf, F(-(10**400))).hi_finite


def test_interval_equality_is_exact():
    assert Interval(0, F(10**20)) != Interval(0, F(10**20 + 1))
    assert Interval(0, F(10**20)) == Interval(F(0), F(10**20))
    assert Interval(F(PELL_P, PELL_Q), sqrt_fraction(2)) != Interval(
        F(PELL_P, PELL_Q), F(PELL_P, PELL_Q) + F(1, 10**30)
    )
    assert Interval(0, math.inf) == Interval(F(0), math.inf)
    assert hash(Interval(0, math.inf)) == hash(Interval(F(0), math.inf))
    assert Interval(-math.inf, 0) != Interval(-math.inf, math.inf)


coeff = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12)
polys = st.lists(coeff, min_size=0, max_size=5).map(Polynomial)


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_product_degree_additive(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(coeff, coeff, coeff)
@settings(max_examples=80, deadline=None)
def test_quad_roots_reexpand(a, b, c):
    if a == 0:
        return
    p = P(c, b, a)
    disc = b * b - 4 * a * c
    if disc < 0:
        return
    roots = quad_roots(p)
    # a (x - r1)(x - r2) == p exactly
    x = Polynomial.x()
    rebuilt = a * (x - roots[0]) * (x - roots[1])
    assert rebuilt == p


@given(coeff, coeff)
@settings(max_examples=40, deadline=None)
def test_discriminant_zero_iff_double_root(b, c):
    # monic quadratics: zero discriminant exactly when the two roots agree
    p = P(c, b, 1)
    disc = quad_discriminant(p)
    if disc == 0:
        r = quad_roots(p)
        assert r[0] == r[1]
    elif disc > 0:
        r = quad_roots(p)
        assert r[0] != r[1]
