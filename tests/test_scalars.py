import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nu_spectral.scalars import (
    SurdSum,
    _core_product,
    _square_free,
    accurate_float,
    as_exact,
    scalar_sign,
    sqrt_fraction,
    sqrt_scalar,
)
from nu_spectral.polynomials import HALF_LINE

F = Fraction


def test_sqrt_fraction_perfect_squares():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert sqrt_fraction(F(0)) == 0
    assert sqrt_fraction(F(1)) == 1


def test_sqrt_fraction_extracts_square_part():
    r = sqrt_fraction(F(8))
    assert isinstance(r, SurdSum)
    assert r.terms() == {2: F(2)}
    assert abs(float(r) - math.sqrt(8)) < 1e-15


def test_sqrt_fraction_rational_radicand():
    # sqrt(3/4) = sqrt(3)/2
    r = sqrt_fraction(F(3, 4))
    assert r.terms() == {3: F(1, 2)}


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        sqrt_fraction(F(-2))


def test_addition_collapses_to_fraction():
    a = sqrt_fraction(2)
    b = -1 * a + F(5)
    assert a + b == F(5)
    assert isinstance(a + b, Fraction)


def test_product_of_radicals_reduces():
    # sqrt(10) * sqrt(15) = 5 sqrt(6)
    a = sqrt_fraction(10)
    b = sqrt_fraction(15)
    p = a * b
    assert p.terms() == {6: F(5)}


def test_division_exact():
    a = F(3) + 2 * sqrt_fraction(21)  # 3 + 2 sqrt(21)
    inv = 1 / a
    assert a * inv == 1
    b = sqrt_fraction(2) + sqrt_fraction(3)
    assert (b * b) / b == b
    assert b / b == 1


def test_division_mixed_radicals():
    x = F(1, 2) + sqrt_fraction(2) + sqrt_fraction(3)
    y = F(7) - sqrt_fraction(6)
    q = x / y
    assert q * y == x


def test_denesting_sqrt():
    # sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2)
    x = F(3) + 2 * sqrt_fraction(2)
    r = sqrt_scalar(x)
    assert r == F(1) + sqrt_fraction(2)
    # sqrt(7 - 4 sqrt(3)) = 2 - sqrt(3)
    y = F(7) - 4 * sqrt_fraction(3)
    assert sqrt_scalar(y) == F(2) - sqrt_fraction(3)


def test_denesting_failure_raises():
    with pytest.raises(ValueError):
        sqrt_scalar(F(1) + sqrt_fraction(2))  # 1 + sqrt(2) has no denested root


def test_sign_and_ordering():
    assert scalar_sign(sqrt_fraction(2) - F(1)) == 1
    assert scalar_sign(F(3, 2) - sqrt_fraction(2)) == 1
    assert scalar_sign(F(7, 5) - sqrt_fraction(2)) == -1
    assert scalar_sign(F(0)) == 0
    assert scalar_sign(F(1, 10**400)) == 1  # its float underflows to 0.0


def test_float_contamination():
    a = sqrt_fraction(2)
    assert isinstance(a + 0.5, float)
    assert isinstance(a * 2.0, float)
    assert abs(a * 2.0 - 2 * math.sqrt(2)) < 1e-15


def test_huge_dyadic_radicands():
    # Fractions coming from floats have power-of-two denominators; the
    # 2-powers must come out of the radical cleanly.
    v = as_exact(1.2715403174076219)
    r = sqrt_scalar(v * v)  # perfect square
    assert r == v
    s = sqrt_scalar(v)
    assert s * s == v


# numerators stay below the trial-division bound on radicand reduction, the
# documented domain where square-factor extraction (and hence cross-
# representation equality of roots) is complete
small_fracs = st.fractions(
    min_value=F(-25), max_value=F(25), max_denominator=40
)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 21, 30])


@st.composite
def surd_sums(draw):
    u = draw(small_fracs)
    v = draw(small_fracs)
    d = draw(radicands)
    return u + v * sqrt_fraction(d)


@given(surd_sums(), surd_sums())
@settings(max_examples=60, deadline=None)
def test_field_axioms_products(x, y):
    assert (x + y) - y == x
    xy = x * y
    assert abs(float(xy) - float(x) * float(y)) <= 1e-9 * max(
        1.0, abs(float(x) * float(y))
    )


@given(surd_sums())
@settings(max_examples=60, deadline=None)
def test_field_axioms_inverse(x):
    if x == 0:
        return
    assert x * (1 / x) == 1


@given(small_fracs, small_fracs, radicands)
@settings(max_examples=60, deadline=None)
def test_square_then_sqrt_roundtrip(u, v, d):
    x = u + v * sqrt_fraction(d)
    sq = x * x
    if float(x) < 0:
        x = -x
    assert sqrt_scalar(sq) == x


# -- radicands that hide prime squares ------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 31, 97, 997)  # squares _square_free extracts
_LARGE_PRIMES = (1009, 1013, 7919, 104729)  # past the trial-division bound


def _trial_division_core_product(d1, d2):
    """The radicand product by full trial division, as _core_product once
    computed it."""
    if d1 == d2:
        return d1, 1
    g = math.gcd(d1, d2)
    out, core = _square_free((d1 // g) * (d2 // g))
    return g * out, core


def _reduced(x):
    """x with the hidden squares of the large test primes pulled out of its
    radicands too, so equal values compare equal.  _square_free leaves them
    inside, and two keys for one radical make dict equality fail."""
    if not isinstance(x, SurdSum):
        return x
    out = F(0)
    for core, coeff in x.terms().items():
        for p in _LARGE_PRIMES:
            while core % (p * p) == 0:
                core //= p * p
                coeff *= p
        out = out + coeff * sqrt_fraction(core)
    return out


@st.composite
def hidden_square_radicals(draw):
    """sqrt_fraction of k * p^2 / q: a square-free k times the square of a
    small prime (extracted) or of a large prime (kept in the radicand)."""
    k = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 15, 21, 30, 1019]))
    p = draw(st.sampled_from(_SMALL_PRIMES + _LARGE_PRIMES + (1,)))
    q = draw(st.sampled_from([1, 2, 3, 4, 9, 25, 7 * 7 * 11]))
    return sqrt_fraction(F(k * p * p, q))


@st.composite
def hidden_square_sums(draw, max_radicals=3):
    x = draw(small_fracs)
    for _ in range(draw(st.integers(min_value=1, max_value=max_radicals))):
        x = x + draw(small_fracs) * draw(hidden_square_radicals())
    return x


def _keys(*xs):
    return [d for x in xs if isinstance(x, SurdSum) for d in x.terms()]


@given(hidden_square_sums(), hidden_square_sums())
@settings(max_examples=150, deadline=None)
def test_core_product_equals_trial_division(x, y):
    for d1 in _keys(x, y) + [1]:
        for d2 in _keys(x, y) + [1]:
            assert _core_product(d1, d2) == _trial_division_core_product(d1, d2)


@given(hidden_square_sums(), hidden_square_sums(), hidden_square_sums())
@settings(max_examples=100, deadline=None)
def test_ring_identities_with_hidden_squares(x, y, z):
    pairs = [
        ((x + y) + z, x + (y + z)),
        (x * y, y * x),
        ((x * y) * z, x * (y * z)),
        (x * (y + z), x * y + x * z),
        (-(x * y), (-x) * y),
        (3 * x - x, 2 * x),
        (x - x, F(0)),
    ]
    for lhs, rhs in pairs:
        assert _reduced(lhs) == _reduced(rhs)
    # products, sums and negations of fully reduced operands need no help
    if all(_reduced(v) == v for v in (x, y, z)):
        for lhs, rhs in pairs:
            assert lhs == rhs


def _has_dependent_radicals(x):
    """Two radicands of x that differ by a hidden large-prime square."""
    free = [next(iter(_reduced(sqrt_fraction(d)).terms())) for d in _keys(x) if d != 1]
    return len(set(free)) < len(free)


@given(hidden_square_sums())
@settings(max_examples=100, deadline=None)
def test_inverse_with_hidden_squares(x):
    assume(isinstance(x, SurdSum) and not _has_dependent_radicals(x))
    assert x * x.inverse() == 1


@pytest.mark.xfail(strict=True, raises=ArithmeticError, reason=(
    "sqrt(2) and sqrt(2 * 1009^2) keep separate radicand keys, so the "
    "inverse's linear system over them is singular (ROADMAP item 2)"))
def test_inverse_with_dependent_radicands():
    x = sqrt_fraction(2) + sqrt_fraction(2 * 1009 * 1009)  # 1010 sqrt(2)
    x.inverse()


def test_public_constructor_canonicalizes_its_radicands():
    # a key with a square factor folds it into its coefficient, and equal
    # cores merge in first-seen order, so equal values compare equal
    with pytest.raises(ValueError):
        SurdSum({4: F(1)})  # sqrt(4) is 2: nothing irrational remains
    assert SurdSum({4: F(1), 3: F(1)}) == 2 + sqrt_fraction(3)
    assert SurdSum({4: F(1), 3: F(1)}) - 2 == sqrt_fraction(3)
    assert SurdSum({8: F(1)}) == sqrt_fraction(8) == 2 * sqrt_fraction(2)
    assert repr(SurdSum({8: F(1)})) == repr(sqrt_fraction(8))
    x = SurdSum({3: F(1), 12: F(1, 2), 2: F(1), 1: F(5)})
    assert list(x.terms()) == [3, 2, 1] and x.terms()[3] == 2
    with pytest.raises(ValueError):
        SurdSum({2: F(1), 8: F(-1, 2), 1: F(3)})


@given(hidden_square_sums(), hidden_square_sums())
@settings(max_examples=100, deadline=None)
def test_equality_and_hash_are_consistent(x, y):
    results = [x, y, -x, x * y, y * x, x + y, y + x, 2 * x, x * 2, x * F(1, 3)]
    if isinstance(x, SurdSum):
        # the checked public constructor and the arithmetic agree
        rebuilt = SurdSum(x.terms())
        assert rebuilt == x and hash(rebuilt) == hash(x)
        results.append(rebuilt)
    for a in results:
        for b in results:
            if a == b:
                assert hash(a) == hash(b)


# -- exact signs near zero -------------------------------------------------------


def _convergent(d, k):
    """The k-th continued-fraction convergent p/q of sqrt(d), d not a square."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for _ in range(k):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


nonzero_fracs = small_fracs.filter(bool)


@given(
    st.sampled_from([2, 3, 5, 6, 7, 13, 1019, 2 * 1009 * 1009]),
    st.integers(min_value=1, max_value=45),
    nonzero_fracs,
)
@example(2, 30, F(1))  # q sqrt(2) - p = 1.4e-12 rounds to 0.0, and used to read -1
@settings(max_examples=150, deadline=None)
def test_sign_of_near_zero_surds(d, k, r):
    p, q = _convergent(d, k)
    x = r * (q * sqrt_fraction(d) - p)
    # q sqrt(d) - p has the sign of the integer q^2 d - p^2
    want = (1 if q * q * d > p * p else -1) * (1 if r > 0 else -1)
    assert scalar_sign(x) == want and scalar_sign(-x) == -want
    assert (x > 0, x < 0, x >= 0, x <= 0) == (want > 0, want < 0, want > 0, want < 0)
    assert (r * q * sqrt_fraction(d) > r * p) == (want > 0)
    assert abs(x) == want * x
    assert HALF_LINE.contains(x) == (want > 0)


@given(
    st.sampled_from([2, 3, 5, 6, 7, 13, 1019]),
    st.integers(min_value=1, max_value=45),
    nonzero_fracs,
)
@example(2, 30, F(1))  # float() of this surd is 0.0
@settings(max_examples=100, deadline=None)
def test_accurate_float_of_cancelling_surds(d, k, r):
    p, q = _convergent(d, k)
    x = r * (q * sqrt_fraction(d) - p)
    with mpmath.workdps(80):
        want = mpmath.mpf(r.numerator) / r.denominator * (q * mpmath.sqrt(d) - p)
        assert abs(accurate_float(x) / want - 1) <= 2.0**-52


def test_accurate_float_rounds_sums_that_do_not_cancel():
    # float() of this sum is one ulp off its correct rounding; rationals round once
    x = F(3, 7) + F(2, 5) * sqrt_fraction(11)
    with mpmath.workdps(40):
        want = float(mpmath.mpf(3) / 7 + mpmath.mpf(2) / 5 * mpmath.sqrt(11))
    assert accurate_float(x) == want != float(x)
    assert accurate_float(F(1, 3)) == 1 / 3


def test_accurate_float_rounds_cancelling_and_mixed_sums():
    # each result is the correctly rounded float of the exact value
    cases = (
        (F(3, 7) + F(2, 5) * sqrt_fraction(11), lambda: 3 / mpmath.mpf(7) + mpmath.sqrt(11) * 2 / 5),
        (259717522849 * sqrt_fraction(2) - 367296043199,
         lambda: 259717522849 * mpmath.sqrt(2) - 367296043199),
        (F(-5, 3) * sqrt_fraction(7) + F(1, 9) * sqrt_fraction(13) + 2,
         lambda: -5 * mpmath.sqrt(7) / 3 + mpmath.sqrt(13) / 9 + 2),
        (F(10**30, 7) * sqrt_fraction(3) - F(10**30, 4),
         lambda: mpmath.mpf(10**30) / 7 * mpmath.sqrt(3) - mpmath.mpf(10**30) / 4),
    )
    for x, exact in cases:
        with mpmath.workdps(100):
            assert accurate_float(x) == float(exact())


def test_pell_convergent_sign():
    p, q = 367296043199, 259717522849  # the 30th convergent of sqrt(2)
    x = q * sqrt_fraction(2) - p
    assert float(x) == 0.0
    assert scalar_sign(x) == 1
    assert x > 0 and not x < 0


@given(st.sampled_from(_LARGE_PRIMES), st.sampled_from([2, 3, 5, 6, 7]), nonzero_fracs)
@example(1009, 2, F(1))
@settings(max_examples=40, deadline=None)
def test_hidden_zero_sign_raises(p, k, r):
    # sqrt(k p^2) keeps p^2 in its radicand, so this zero carries two keys;
    # no bracket excludes 0, and the refinement stops at its cap
    x = r * (sqrt_fraction(k * p * p) - p * sqrt_fraction(k))
    assert isinstance(x, SurdSum)
    deciders = (scalar_sign, abs, HALF_LINE.contains, lambda v: v < 0, lambda v: v >= 0)
    for decide in deciders:
        with pytest.raises(ArithmeticError):
            decide(x)

