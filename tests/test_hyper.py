import cmath
import math
import random
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from nu_spectral import hyper
from nu_spectral.errors import (
    MaxTermsExceeded,
    NuSpectralError,
    PoleAtNonPositiveInteger,
    SeriesOverflow,
)
from nu_spectral.hyper import (
    gamma_fn,
    hermite_fn,
    hyp1f1,
    hyp1f1_deriv_regularized,
    hyp1f1_regularized,
    hyp2f1,
    hyp2f1_regularized,
    hypU,
    hypU_deriv,
    limit_2f1_at_1,
    pochhammer,
    rgamma,
    wronskian_defect,
)

F = Fraction


def rel_err(got, want):
    scale = max(abs(complex(want)), 1e-300)
    return abs(complex(got) - complex(want)) / scale


# ---------------------------------------------------------------------------
# gamma


def test_gamma_matches_math_on_reals():
    for x in np.linspace(0.1, 30.0, 113):
        assert rel_err(gamma_fn(float(x)), math.gamma(float(x))) < 1e-13
    for x in [-0.5, -3.3, -12.7, -29.5]:
        assert rel_err(gamma_fn(x), math.gamma(x)) < 1e-12


@pytest.mark.parametrize("z", [143.0, 150.0, 157.3, 165.5, 171.0, 171.5])
def test_gamma_near_the_top_of_the_float_range_matches_mpmath(z):
    # the Lanczos power alone overflows from z ~ 143; the value does not
    assert rel_err(gamma_fn(z), mpmath.gamma(z)) < 1e-12


def test_gamma_where_the_lanczos_power_nears_the_float_maximum():
    # about z in [142.2, 142.35] the power is finite, but not once scaled
    # by sqrt(2 pi), so the split power must take over there too
    for k in range(2860):
        z = 100.0 + 0.025 * k
        assert rel_err(gamma_fn(z), math.exp(math.lgamma(z))) < 1e-12, z


@pytest.mark.parametrize("z", [171.7, 172.0, 300.0, 1e6])
def test_gamma_beyond_the_float_range_raises(z):
    with pytest.raises(SeriesOverflow):
        gamma_fn(z)


def test_regularized_series_past_the_gamma_range_matches_mpmath(monkeypatch):
    # where 1/gamma(c + n) leaves the float range the regularized series is
    # the plain one over gamma(c), taken in logs; rgamma itself still raises
    with pytest.raises(SeriesOverflow):
        rgamma(171.7)
    calls = []
    in_logs = hyper._regularized_in_logs
    monkeypatch.setattr(hyper, "_regularized_in_logs", lambda *args: calls.append(args) or in_logs(*args))
    with mpmath.workdps(50):
        for fn, args, want in (
            (hyp1f1_regularized, (30, 172, 300), mpmath.hyp1f1(30, 172, 300) / mpmath.gamma(172)),
            (hyp2f1_regularized, (50, 50, 172, 0.9), mpmath.hyp2f1(50, 50, 172, 0.9) / mpmath.gamma(172)),
            (hyp2f1, (0.5, 0.3, 160.5, 0.995), mpmath.hyp2f1(0.5, 0.3, 160.5, 0.995)),
        ):
            res = fn(*args)
            err = abs(res.value - want) / abs(want)
            assert err <= res.truncation_estimate < 2e-12, (args, err)
        # the far-left 1F1 needs 1/gamma(180.5): it raises rather than return 0.0
        with pytest.raises(NuSpectralError):
            hyp1f1(-30.5, 150, -1000)
        # each value the route returns is within its estimate, or the call
        # raises; values it does not touch are the direct series' as before
        rng = random.Random(2024)
        returned = 0
        for i in range(300):
            c = rng.uniform(100, 220)
            if i % 2 == 0:
                a, z = rng.uniform(-30, 30), rng.uniform(-300, 300)
                fn, args = hyp1f1_regularized, (a, c, z)
                want = mpmath.hyp1f1(a, c, z) / mpmath.gamma(c)
            else:
                a, b, z = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 0.999)
                fn, args = hyp2f1_regularized, (a, b, c, z)
                want = mpmath.hyp2f1(a, b, c, z) / mpmath.gamma(c)
            calls.clear()
            try:
                res = fn(*args)
            except NuSpectralError:
                continue
            if calls:
                returned += 1
                err = abs(res.value - want) / abs(want)
                assert err <= max(1e-13, res.truncation_estimate), (fn.__name__, args, err)
        assert returned >= 100


def test_2f1_far_out_on_the_left_matches_mpmath():
    # below about -2^53 Pfaff's z/(z - 1) rounds to 1.0; the door checks z
    # once, and the inner connection reads its w = 1/(1 - z)
    for z, want in ((-1e17, 2.10634986761391e-05), (-1e16, 4.20200986428354e-05)):
        assert rel_err(hyp2f1(0.5, 0.3, 1.7, z).value, want) < 1e-13
    for fn in (hyp2f1, hyp2f1_regularized):
        with pytest.raises(ValueError, match="finite"):
            fn(0.5, 0.3, 1.7, -math.inf)
    # (1 - z)^-a below the normal range is taken in halves; in one piece it
    # cost the first value 7.5e-5 relative, with an estimate of 1.4e-13
    for args in ((21.3, 15.0, 1.5, -1e15), (1.5639930720408506, 0.7822337162634416,
                                            2.4897485596853137, -3.111771185831935e201)):
        res = hyp2f1(*args)
        with mpmath.workdps(30):
            assert rel_err(res.value, mpmath.hyp2f1(*args)) <= max(1e-13, res.truncation_estimate)
    # each value is within its estimate (or 1e-13), or the call raises
    rng = random.Random(2401)
    returned = 0
    with mpmath.workdps(30):
        for i in range(200):
            a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 4)
            z = -(10 ** rng.uniform(13, 300))
            fn = hyp2f1_regularized if i % 2 else hyp2f1
            want = mpmath.hyp2f1(a, b, c, z) / (mpmath.gamma(c) if i % 2 else 1)
            try:
                res = fn(a, b, c, z)
            except NuSpectralError:
                continue
            returned += 1
            err = abs(res.value - want) / abs(want)
            assert err <= max(1e-13, res.truncation_estimate), (fn.__name__, a, b, c, z, err)
    assert returned >= 100


def test_1f1_far_left_past_the_gamma_range_matches_mpmath():
    # gamma(c)/gamma(c - a) x^-a in logs where gamma(c - a) leaves the float
    # range; the regularized value there, about 4e-374, still raises
    with mpmath.workdps(30):
        res = hyp1f1(1, 200, -1000)
        want = mpmath.hyp1f1(1, 200, -1000)
        assert abs(res.value - want) / want <= res.truncation_estimate < 2e-12
        with pytest.raises(SeriesOverflow):
            hyp1f1_regularized(1, 200, -1000)
        rng = random.Random(2402)
        returned = 0
        for i in range(300):
            a = rng.uniform(-30, 30)
            c, z = a + rng.uniform(172, 400), rng.uniform(-1e4, -750)
            fn = hyp1f1_regularized if i % 2 else hyp1f1
            want = mpmath.hyp1f1(a, c, z) * (mpmath.rgamma(c) if i % 2 else 1)
            try:
                res = fn(a, c, z)
            except NuSpectralError:
                continue
            returned += 1
            err = abs(res.value - want) / abs(want)
            assert err <= max(1e-13, res.truncation_estimate), (fn.__name__, a, c, z, err)
        assert returned >= 50


def _within_estimate_or_raises(fn, args, want):
    """True where fn(*args) is within max(1e-13, its estimate) of want, None
    where it raises a NuSpectralError."""
    try:
        res = fn(*args)
    except NuSpectralError:
        return None
    return abs(res.value - want) / abs(want) <= max(1e-13, res.truncation_estimate)


def test_prefactors_share_one_float_range_rule():
    # each power in front of a series is taken whole where it is a normal
    # float, else in halves around the rest; a value below the normal range
    # adds the float spacing over it to its estimate
    with mpmath.workdps(40):
        for fn, args, want in (
            (hyp1f1, (85, 86, -10000), 2.81710411438055e-212),  # x^-a was 1e-340
            (hyp1f1, (71, 94, -17000), 4.07985963259749e-178),  # the product was subnormal
            (hyp1f1, (72, 95, -18000), 3.69587056946454e-182),
            (hyp1f1, (50, 70, -9000), 2.45563147240329e-117),  # the gammas' error
            (hyp2f1, (-51.5, -4.5, 24.5, -1e6), -4.6562853963501045e281),  # (1-z)^-a overflowed
            (hypU, (105, 1, 1000), 4.40444482876456e-320),  # the integral, subnormal
        ):
            res = fn(*args)
            assert abs(res.value - want) / abs(want) <= max(1e-13, res.truncation_estimate), args
        res = hypU(87.66303341564526, 8.48881979114583, 8624.648544251311)  # about 4.27e-346
        assert (res.value, res.truncation_estimate) == (0.0, math.inf)
        rng = random.Random(2501)
        for i in range(300):
            a, c, z = rng.uniform(-100, 100), rng.uniform(0.5, 100), rng.uniform(-3e4, -2000)
            fn = hyp1f1_regularized if i % 2 else hyp1f1
            want = mpmath.hyp1f1(a, c, z) * (mpmath.rgamma(c) if i % 2 else 1)
            assert _within_estimate_or_raises(fn, (a, c, z), want) is not False, (fn.__name__, a, c, z)
        rng, returned = random.Random(2502), 0
        for i in range(300):
            a, b, c = rng.uniform(-60, -45), rng.uniform(-5, 5), rng.uniform(0.5, 60)
            z = -(10 ** rng.uniform(5, 7))
            if abs(a) * math.log1p(-z) <= 709.78:
                continue
            fn = hyp2f1_regularized if i % 2 else hyp2f1
            want = mpmath.hyp2f1(a, b, c, z) * (mpmath.rgamma(c) if i % 2 else 1)
            ok = _within_estimate_or_raises(fn, (a, b, c, z), want)
            assert ok is not False, (fn.__name__, a, b, c, z)
            returned += ok is not None
        assert returned >= 90


def test_gamma_integers_and_half_integers():
    assert rel_err(gamma_fn(7), 720.0) < 1e-14
    assert rel_err(gamma_fn(0.5), math.sqrt(math.pi)) < 1e-14
    assert rel_err(gamma_fn(F(3, 2)), math.sqrt(math.pi) / 2) < 1e-14


def test_gamma_poles_raise_and_rgamma_is_zero():
    for z in [0, -1, -2.0, -17]:
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma_fn(z)
        assert rgamma(z) == 0.0


def test_gamma_recurrence_complex_strip():
    pts = [complex(x, y) for x in (-9.5, -2.3, 0.4, 3.7, 14.2) for y in (-8.0, 0.5, 3.0)]
    for z in pts:
        assert rel_err(gamma_fn(z + 1), z * gamma_fn(z)) < 1e-12


def test_gamma_duplication_identity():
    for z in [0.3, 1.7, complex(2.5, 1.5), complex(-1.3, 0.8), 6.25]:
        lhs = gamma_fn(2 * z)
        rhs = 2.0 ** (2 * complex(z) - 1) / math.sqrt(math.pi) * gamma_fn(z) * gamma_fn(z + 0.5)
        assert rel_err(lhs, rhs) < 1e-11


def test_gamma_reflection_identity():
    for z in [0.25, complex(0.3, 2.0), complex(-2.4, -1.1)]:
        lhs = gamma_fn(z) * gamma_fn(1 - z)
        rhs = math.pi / cmath.sin(math.pi * complex(z))
        assert rel_err(lhs, rhs) < 1e-11


def test_pochhammer():
    assert pochhammer(3.0, 4) == 3 * 4 * 5 * 6
    assert pochhammer(0.5, 2) == 0.75
    assert pochhammer(2.0, 0) == 1.0
    for n in (-1, -2):  # (3)_-1 is 1/2, not the empty product
        with pytest.raises(ValueError):
            pochhammer(3.0, n)


# one case per route; pochhammer's n is a count, not an argument
_REAL_CALLS = [
    (hyp2f1, (2, 0.75, 1.5, 0.5)),
    (hyp2f1, (2, 0.75, 1.5, -2)),
    (hyp2f1, (2, 0.75, 1.5, 0.995)),
    (hyp2f1_regularized, (0.5, 1.25, -2, 0.5)),
    (hyp1f1, (3, 1.5, 2)),
    (hyp1f1, (3, 1.5, -20)),
    (hyp1f1, (3, 1.5, -800)),
    (hyp1f1_regularized, (0.5, -2, 2)),
    (hypU, (-2, 1.5, 3)),
    (hypU, (0.5, 2, 25)),
    (hypU, (0.5, 1.5, 2)),
    (hermite_fn, (3, 1)),
    (hermite_fn, (2.5, 3)),
    (gamma_fn, (4,)),
    (gamma_fn, (-2.5,)),
    (rgamma, (3,)),
    (rgamma, (-2.5,)),
    (pochhammer, (0.5, 3)),
    (pochhammer, (3, 4)),
]


@pytest.mark.parametrize(
    "fn,args", _REAL_CALLS, ids=[f"{fn.__name__}{args}".replace(" ", "") for fn, args in _REAL_CALLS]
)
@pytest.mark.parametrize("write", ["complex", "fraction", "int"])
def test_a_real_argument_is_real_however_written(fn, args, write):
    # complex(x, 0.0), Fraction(x) and an integral x as int give the float
    # call's result bit for bit, a float included
    xs, count = (args[:1], args[1:]) if fn is pochhammer else (args, ())
    to = {"complex": lambda x: complex(x, 0.0), "fraction": Fraction,
          "int": lambda x: int(x) if x == int(x) else float(x)}[write]
    want = fn(*map(float, xs), *count)
    got = fn(*map(to, xs), *count)
    if isinstance(want, hyper.SeriesResult):
        assert (got.terms_used, got.truncation_estimate) == (want.terms_used, want.truncation_estimate)
        got, want = got.value, want.value
    assert type(got) is float and type(want) is float
    assert got.hex() == want.hex()


# ---------------------------------------------------------------------------
# exact-Fraction series oracle


def frac_gauss_series(a, b, c, z, tol=F(1, 10**30)):
    total = F(0)
    term = F(1)
    n = 0
    while abs(term) > tol:
        total += term
        term = term * (a + n) * (b + n) * z / ((c + n) * (n + 1))
        n += 1
    return total


def frac_confluent_series(a, c, z, tol=F(1, 10**30)):
    total = F(0)
    term = F(1)
    n = 0
    while abs(term) > tol:
        total += term
        term = term * (a + n) * z / ((c + n) * (n + 1))
        n += 1
    return total


# ---------------------------------------------------------------------------
# 2F1


def test_2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z
    r = hyp2f1(1, 1, 2, 0.5)
    assert rel_err(r.value, 2 * math.log(2)) < 1e-13
    assert r.truncation_estimate <= 1e-13


def test_2f1_against_exact_fraction_series():
    cases = [
        (F(1, 2), F(1, 3), F(5, 4), F(1, 3)),
        (F(2), F(3, 2), F(7, 3), F(-2, 5)),
        (F(-3), F(5, 2), F(1, 2), F(9, 10)),
    ]
    for a, b, c, z in cases:
        want = frac_gauss_series(a, b, c, z)
        got = hyp2f1(a, b, c, z)
        assert rel_err(got.value, float(want)) < 5e-13


def test_2f1_binomial_special_case():
    # 2F1(a, b; b; z) = (1-z)^(-a) regardless of b
    for a, z in [(0.7, 0.4), (2.0, -3.0), (-1.5, 0.9)]:
        got = hyp2f1(a, 2.25, 2.25, z)
        assert rel_err(got.value, (1 - z) ** (-a)) < 1e-12


def test_2f1_pfaff_consistency():
    a, b, c = 0.6, 1.3, 2.2
    z = -0.7
    lhs = hyp2f1(a, b, c, z).value
    rhs = (1 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1)).value
    assert rel_err(lhs, rhs) < 1e-13


def test_2f1_near_one_connection_matches_direct():
    from nu_spectral.hyper import _hyp2f1_near_one

    # pick a point both routes can handle and cross-validate them
    a, b, c = 0.4, 0.9, 2.6  # c-a-b = 1.3, not an integer
    z = 0.9899
    direct = hyp2f1(a, b, c, z).value  # still on the direct-series branch
    conn = _hyp2f1_near_one(a, b, c, 1.0 - z, False).value
    assert rel_err(conn, direct) < 1e-11
    # complex parameters on the sampling path toward z = 1
    ax = complex(0.5, 0.8)
    bx = complex(0.5, -0.8)
    cx = 1.3
    got = hyp2f1(ax, bx, cx, 0.9995).value
    assert abs(got) < 10.0  # oscillatory-bounded regime stays bounded


def test_2f1_complex_parameters_real_argument():
    a = complex(0.5, 1.2)
    b = complex(0.5, -1.2)
    c = 1.75
    r = hyp2f1(a, b, c, 0.3)
    # conjugate-symmetric parameters give a real value
    assert abs(r.value.imag) < 1e-13 * max(1.0, abs(r.value.real))


def test_2f1_plain_pole_raises():
    with pytest.raises(PoleAtNonPositiveInteger):
        hyp2f1(1.0, 1.0, -1.0, 0.5)


def test_2f1_regularized_degenerate_c():
    # reg 2F1(1,1;-1;z) = 2 z^2 / (1-z)^3 (first two terms killed by poles)
    for z in [0.5, 0.2, -0.4]:
        got = hyp2f1_regularized(1, 1, -1, z)
        want = 2 * z**2 / (1 - z) ** 3
        assert rel_err(got.value, want) < 1e-12
    # and at z=0 the value is rgamma(-1) = 0
    assert hyp2f1_regularized(1, 1, -1, 0.0).value == 0.0


def test_2f1_regularized_consistency_with_plain():
    a, b, c, z = 0.3, 2.2, 1.4, 0.77
    plain = hyp2f1(a, b, c, z).value
    reg = hyp2f1_regularized(a, b, c, z).value
    assert rel_err(reg, plain * rgamma(c)) < 1e-13


def test_2f1_derivative_contiguous():
    a, b, c, z = 0.9, 1.4, 2.1, 0.35
    d = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z).value
    h = 1e-6
    fd = (hyp2f1(a, b, c, z + h).value - hyp2f1(a, b, c, z - h).value) / (2 * h)
    assert rel_err(d, fd) < 1e-8


def gauss_ode_residual(a, b, c, z):
    f = hyp2f1(a, b, c, z).value
    f1 = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z).value
    f2 = (
        a * b / c * (a + 1) * (b + 1) / (c + 1) * hyp2f1(a + 2, b + 2, c + 2, z).value
    )
    resid = z * (1 - z) * f2 + (c - (a + b + 1) * z) * f1 - a * b * f
    scale = max(abs(z * (1 - z) * f2), abs((c - (a + b + 1) * z) * f1), abs(a * b * f), 1.0)
    return abs(resid) / scale


def test_2f1_satisfies_its_ode():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-2.5, 3.0, size=2)
        c = rng.uniform(0.3, 4.0)
        z = rng.uniform(0.05, 0.9)
        assert gauss_ode_residual(a, b, c, z) < 1e-9


# ---------------------------------------------------------------------------
# 2F1 near z = 1 at an integer gap c - a - b


def _reg_2f1_reference(a, b, c, z):
    """2F1(a, b; c; z) / gamma(c) in mpmath; at c = -n, the limit [dlmf]
    15.2.3_5: (a)_{n+1} (b)_{n+1} z^(n+1) 2F1(a+n+1, b+n+1; n+2; z) / (n+1)!."""
    if c <= 0 and c == int(c):
        k = int(-c) + 1
        return (mpmath.rf(a, k) * mpmath.rf(b, k) * mpmath.mpf(z) ** k
                * mpmath.hyp2f1(a + k, b + k, k + 1, z) / mpmath.factorial(k))
    return mpmath.hyp2f1(a, b, c, z) / mpmath.gamma(c)


def _integer_gap_cases(rng):
    """Seeded (a, b, c, z, regularized) with c - a - b an integer m in -3..3
    near z = 1 (1 - z from 1e-2 down to 1e-8; c rounded from a + b + m), a
    and b of both signs, both evaluators, and the regularized one at c = 0,
    -1, -2; then the Pfaff side, z < -99 with b - a an integer, and
    complex-conjugate pairs a, b with an integer real gap."""
    u = rng.uniform
    one_minus_z = lambda: 10.0 ** u(-8, -2)  # noqa: E731
    cases = []
    for m in range(-3, 4):
        for _ in range(10):
            a, b, z = u(-3, 3), u(-3, 3), 1.0 - one_minus_z()
            cases += [(a, b, a + b + m, z, reg) for reg in (False, True)]
        for c in (0.0, -1.0, -2.0):
            a = u(-3, 3)
            cases.append((a, c - a - m, c, 1.0 - one_minus_z(), True))
        a = u(-3, 3)
        cases.append((a, a + m, u(0.5, 4), -(10.0 ** u(2, 8)), rng.random() < 0.5))
    for m in (-1, 0, 2):
        x, y = u(-1, 2), u(0.1, 2)
        cases += [(complex(x, y), complex(x, -y), 2 * x + m, 1.0 - one_minus_z(), reg)
                  for reg in (False, True)]
    return cases


def test_2f1_integer_gap_near_one_matches_mpmath():
    # the logarithmic connection formula (15.8.10) in about ten terms; the
    # direct series took thousands here, or ran out of them
    with mpmath.workdps(40):
        for a, b, c, z, reg in _integer_gap_cases(random.Random(2201)):
            res = (hyp2f1_regularized if reg else hyp2f1)(a, b, c, z)
            want = _reg_2f1_reference(a, b, c, z) if reg else mpmath.hyp2f1(a, b, c, z)
            err = rel_err(res.value, want)
            assert err < 1e-12, (a, b, c, z, reg, err)
            assert err <= 10 * max(res.truncation_estimate, 1e-15), (a, b, c, z, reg, err)
            assert res.terms_used <= 30, (a, b, c, z, reg)


@pytest.mark.parametrize("a, b, c, z", [(0.5, 0.5, 1, 0.999), (1, 1, 2, 0.9999)])
def test_2f1_integer_gap_that_ran_out_of_terms(a, b, c, z):
    # both raised MaxTermsExceeded on the direct series
    res = hyp2f1(a, b, c, z)
    assert rel_err(res.value, mpmath.hyp2f1(a, b, c, z)) < 1e-12


@pytest.mark.parametrize("a, b, c, z, reg", [(0.5, 1.0, -0.5, 0.995, False), (1.0, 1.0, -1.0, 0.995, True)])
def test_2f1_integer_gap_with_a_terminating_euler_side(a, b, c, z, reg):
    # c - a = -1 and -2: Euler's transformation gives a polynomial, whose
    # reciprocal gamma is exactly 0
    res = (hyp2f1_regularized if reg else hyp2f1)(a, b, c, z)
    with mpmath.workdps(40):
        want = _reg_2f1_reference(a, b, c, z) if reg else mpmath.hyp2f1(a, b, c, z)
    assert rel_err(res.value, want) < 1e-12


def _direct_reference(a, b, c, z):
    """The 2F1 series in mpmath, for gaps so large that it converges fast."""
    a, b, c, z = map(mpmath.mpf, (a, b, c, z))
    term = total = mpmath.mpf(1)
    k = 0
    while abs(term) > mpmath.mpf(10) ** -40 * abs(total):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
    return total


@pytest.mark.parametrize("a, b, c, z", [(0.5, 0.5, 201.0, 0.995), (-50.5, -50.5, 99.0, 0.995),
                                        (0.5, 0.5, 1e7 + 1, 0.995)])
def test_2f1_integer_gap_past_the_logarithmic_route(a, b, c, z):
    # c - a or c - b beyond +-80, where the gammas of 15.8.10 leave the float
    # range: the direct series, fast at so large a gap, keeps it
    res = hyp2f1(a, b, c, z)
    with mpmath.workdps(40):
        assert rel_err(res.value, _direct_reference(a, b, c, z)) < 1e-12
    assert res.terms_used < 100


def test_2f1_connection_near_an_integer_gap_reports_its_loss():
    # the bracket of 15.8.4 cancels by about 1/|gap - m|: at 2.2 + 1e-8 it
    # was off by 9.5e-10 while reporting 7e-19.  Its estimate now covers the
    # loss; past 0.02 from an integer the value keeps 1e-12
    res = hyp2f1(0.5, 0.7, 2.2 + 1e-8, 0.995)
    assert res.truncation_estimate > 1e-9
    rng = random.Random(2202)
    with mpmath.workdps(40):
        for _ in range(200):
            a, b, m = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.randrange(-3, 4)
            off = rng.choice((1, -1)) * 10.0 ** rng.uniform(-8.5, -1)
            c, z = a + b + m + off, 1.0 - 10.0 ** rng.uniform(-8, -2)
            res = hyp2f1_regularized(a, b, c, z)
            err = rel_err(res.value, _reg_2f1_reference(a, b, c, z))
            assert err <= max(res.truncation_estimate, 1e-15), (a, b, c, z, err)
            assert abs(off) < 0.02 or err < 1e-12, (a, b, c, z, err)


def test_2f1_pfaff_side_connection_matches_mpmath():
    # far left, 15.8.4 runs at 1 - z/(z - 1) = 1/(1 - z), which Pfaff forms
    # with one rounding; 1 minus the rounded z/(z - 1) lost about u |z|
    for a, b, c, z in ((0.9, 0.3, 1.7, -1e6), (1.9, 0.3, 1.7, -3e7), (0.5, 0.25, 1.3, -1e12)):
        assert rel_err(hyp2f1(a, b, c, z).value, mpmath.hyp2f1(a, b, c, z)) < 1e-14
    rng = random.Random(2301)
    draws = 0
    with mpmath.workdps(40):
        while draws < 150:
            a, b, c = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 4)
            # the outer gap and the inner one, b - a: 15.8.4 on both sides
            if min(abs(g - round(g)) for g in (c - a - b, b - a)) < 0.02:
                continue
            z = -(10.0 ** rng.uniform(2, 12))
            draws += 1
            res = hyp2f1(a, b, c, z)
            err = rel_err(res.value, mpmath.hyp2f1(a, b, c, z))
            assert err <= max(1e-13, res.truncation_estimate), (a, b, c, z, err)


def test_2f1_direct_series_counts_its_tail_and_rounding():
    # near z = 0.99 the tail after the last term is about |last| z/(1 - z),
    # and terms of both signs cancel: both are in the estimate now
    with mpmath.workdps(40):
        for a, b, c, z in ((0.5, 0.7, 1.5, 0.99), (40.3, -39.1, 81.2, 0.999)):
            res = hyp2f1(a, b, c, z)
            assert rel_err(res.value, mpmath.hyp2f1(a, b, c, z)) <= res.truncation_estimate
        rng = random.Random(2302)
        for _ in range(300):
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            c, z = rng.uniform(0.5, 4), rng.uniform(0.9, 0.99)
            res = hyp2f1(a, b, c, z)
            err = rel_err(res.value, mpmath.hyp2f1(a, b, c, z))
            assert err <= res.truncation_estimate, (a, b, c, z, err)


def test_1f1_series_estimate_stays_its_last_term():
    # one upper parameter: the estimate stays |last term| / |sum|
    res, _ = hyper._sum_series((0.5,), 1.5, 3.0, False, "1F1")
    n = res.terms_used - 1
    last = mpmath.rf(0.5, n) / mpmath.rf(1.5, n) * mpmath.mpf(3.0) ** n / mpmath.factorial(n)
    assert rel_err(res.truncation_estimate, last / res.value) < 1e-12


def test_digamma_matches_mpmath():
    # relative to |psi| where |psi| >= 1; near its zeros psi is a sum of
    # terms of order one, so the error there is counted against 1
    rng = random.Random(2203)
    xs = [rng.uniform(-30, 200) for _ in range(400)]
    xs += [-rng.randrange(0, 30) + rng.choice((1, -1)) * 10.0 ** rng.uniform(-10, -1)
           for _ in range(60)]
    xs += [complex(rng.uniform(-30, 200), rng.uniform(-50, 50)) for _ in range(200)]
    with mpmath.workdps(40):
        for x in xs:
            want = mpmath.digamma(x)
            assert abs(hyper._digamma(x) - want) <= 1e-14 * max(abs(want), 1), x


# ---------------------------------------------------------------------------
# 1F1 and U


def test_1f1_exponential_case():
    # 1F1(a;a;z) = e^z
    r = hyp1f1(1.3, 1.3, 2.5)
    assert rel_err(r.value, math.exp(2.5)) < 1e-13


def test_1f1_against_exact_fraction_series():
    cases = [
        (F(1, 3), F(6, 5), F(5, 2)),
        (F(-4), F(3, 2), F(7)),
        (F(5, 2), F(1, 4), F(-3)),
    ]
    for a, c, z in cases:
        want = frac_confluent_series(a, c, z)
        got = hyp1f1(a, c, z)
        assert rel_err(got.value, float(want)) < 1e-12


def test_1f1_kummer_identity():
    rng = np.random.default_rng(3)
    for _ in range(12):
        a = rng.uniform(-2.0, 3.0)
        c = rng.uniform(0.4, 4.5)
        z = rng.uniform(0.3, 6.0)
        lhs = hyp1f1(a, c, z).value
        rhs = math.exp(z) * hyp1f1(c - a, c, -z).value
        assert rel_err(lhs, rhs) < 1e-9


def test_1f1_large_argument_asymptotics():
    # M*(a,c,z) -> e^z z^(a-c) / gamma(a) as z -> +inf
    a, c, z = 1.25, 2.5, 40.0
    got = hyp1f1_regularized(a, c, z).value
    want = math.exp(z) * z ** (a - c) * rgamma(a)
    assert rel_err(got, want) < 2e-2  # leading order only at z=40
    assert got == pytest.approx(want * (1 + (1 - a) * (c - a) / z), rel=2e-3)


def test_1f1_reflected_branch_accuracy():
    a, c = 0.8, 2.2
    got = hyp1f1(a, c, -30.0).value
    want = math.exp(-30.0) * hyp1f1(c - a, c, 30.0).value
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize(
    "a,c,z",
    [
        (0.5, 1.5, -800.0),
        (0.25, 0.5, -715.0),
        (2.5, 3.25, -1500.0),
        (-3.3, 4.1, -1500.0),
        (0.75, 10.0, -5000.0),
    ],
)
def test_1f1_far_left_matches_mpmath(a, c, z):
    # the reflected series e^z 1F1(c-a; c; -z) overflows here; the
    # large-argument expansion takes over
    with pytest.raises(SeriesOverflow):
        hyp1f1(c - a, c, -z)
    for regularized, fn in ((False, hyp1f1), (True, hyp1f1_regularized)):
        want = mpmath.hyp1f1(a, c, z) / (mpmath.gamma(c) if regularized else 1)
        assert rel_err(fn(a, c, z).value, float(want)) < 1e-12


def test_1f1_far_left_with_an_overflowing_power_matches_mpmath():
    # x^-a alone is 20000^80.5 ~ 1e346; the value is 3.6e225
    got = hyp1f1(-80.5, 1.5, -20000.0).value
    assert rel_err(got, mpmath.hyp1f1(-80.5, 1.5, -20000)) < 1e-12


@pytest.mark.parametrize("a,c,z", [(12.25, 24.75, -742.0), (3.5, 2.0, -720.0)])
def test_1f1_reflection_where_exp_z_is_subnormal(a, c, z):
    got = hyp1f1(a, c, z)
    assert rel_err(got.value, mpmath.hyp1f1(a, c, z)) < 1e-12


def test_1f1_reflection_sweep_below_exp_underflow():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(200):
        a, c, z = rng.uniform(-20, 20), rng.uniform(0.5, 30), rng.uniform(-745, -700)
        try:
            got = hyp1f1(a, c, z).value
        except MaxTermsExceeded:
            continue  # reported, not a wrong number
        worst = max(worst, rel_err(got, mpmath.hyp1f1(a, c, z)))
    assert worst < 1e-12


@pytest.mark.parametrize("c", [120.5, 140.5, 150.5])
def test_2f1_connection_at_large_c_matches_mpmath(c):
    # the two reciprocal gammas of the connection formula underflow together
    for fn, scale in ((hyp2f1, 1), (hyp2f1_regularized, mpmath.gamma(c))):
        got = fn(0.5, 0.3, c, 0.995).value
        assert rel_err(got, mpmath.hyp2f1(0.5, 0.3, c, 0.995) / scale) < 1e-12


@pytest.mark.parametrize("nu,z", [(300.5, 1.5), (300.5, 2.5), (281.0, 0.3)])
def test_hermite_past_the_float_range_raises(nu, z):
    # |H_nu(z)| is above 1e300 here
    with pytest.raises(SeriesOverflow):
        hermite_fn(nu, z)


def test_1f1_far_left_short_of_tolerance_raises():
    # at x = 800 the expansion in 1/x cannot resolve a = -199.5; the
    # value (9.5e221 by mpmath) is not returned at a lower accuracy
    with pytest.raises(MaxTermsExceeded):
        hyp1f1(-199.5, 1.5, -800.0)


def test_u_terminating_is_laguerre():
    # U(-n, alpha+1, z) = (-1)^n n! L_n^(alpha)(z)
    alpha, z = 1.5, 0.8
    # L_2^(alpha)(z) = (alpha+1)(alpha+2)/2 - (alpha+2) z + z^2/2
    l2 = (alpha + 1) * (alpha + 2) / 2 - (alpha + 2) * z + z * z / 2
    got = hypU(-2, alpha + 1, z)
    assert rel_err(got.value, 2.0 * l2) < 1e-13
    assert got.truncation_estimate == 0.0


def test_u_integral_representation():
    # U(a,c,z) = 1/gamma(a) int_0^inf e^(-zt) t^(a-1) (1+t)^(c-a-1) dt
    for a, c, z in [(0.8, 1.6, 2.0), (1.7, 0.4, 5.0), (2.3, 3.9, 1.2)]:
        val, _ = integrate.quad(
            lambda t, a=a, c=c, z=z: math.exp(-z * t) * t ** (a - 1) * (1 + t) ** (c - a - 1),
            0,
            np.inf,
        )
        want = val * rgamma(a)
        got = hypU(a, c, z)
        assert rel_err(got.value, want) < 1e-9


def test_u_functional_equation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.3, 2.7)
        if abs(c - round(c)) < 0.05:
            c += 0.11
        z = rng.uniform(0.5, 8.0)
        lhs = hypU(a, c, z).value
        rhs = z ** (1 - c) * hypU(a - c + 1, 2 - c, z).value
        assert rel_err(lhs, rhs) < 1e-9


def test_u_large_z_power_envelope():
    for a, c in [(0.7, 1.3), (1.9, 0.6), (2.5, 3.2)]:
        z = 50.0
        got = hypU(a, c, z).value
        # leading power: the ratio to z^-a approaches 1 like 1/z
        assert rel_err(got, z ** (-a)) < 0.15
        # and the asymptotic branch agrees with the integral representation
        val, _ = integrate.quad(
            lambda t, a=a, c=c: math.exp(-z * t) * t ** (a - 1) * (1 + t) ** (c - a - 1),
            0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        assert rel_err(got, val * rgamma(a)) < 1e-9


def test_u_integer_c_stays_accurate():
    a, z = 0.9, 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hypU(a, 2.0, z)
    val, _ = integrate.quad(
        lambda t: math.exp(-z * t) * t ** (a - 1) * (1 + t) ** (2 - a - 1),
        0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
    )
    want = val * rgamma(a)
    assert rel_err(got.value, want) < 1e-12


def _u_route_cases(rng):
    """Seeded (a, c, z) in each route region of hypU, every integer c in -1..3
    included, and the ROADMAP's wrong-sign case."""
    u = rng.uniform
    cs = [-1.0, 0.0, 1.0, 2.0, 3.0]
    terminating = [(-rng.randrange(0, 6), u(-2, 3), u(0.1, 30)) for _ in range(4)]
    integral = [(u(1.01, 4), c, u(0.05, 19.9)) for c in cs + [u(-2, 4)]]
    recurrence = [(u(-4, 1), c, u(0.05, 19.9)) for c in cs] + [
        (-k - u(0.05, 0.95), u(-2, 4), u(0.05, 19.9)) for k in range(4)
    ]
    large_z = [(u(0.1, 3), c, u(20, 60)) for c in cs] + [
        (u(-3, 3), u(-2, 4), u(60, 100)) for _ in range(4)
    ]
    # near z = 20 with c < -1 the truncated series is wrong in the 3rd digit
    large_z += [(u(2, 4), u(-2, -1), u(20, 24)) for _ in range(2)]
    return terminating + integral + recurrence + large_z + [(2.596, 1.0, 13.18)]


def test_u_and_hermite_routes_match_mpmath():
    rng = random.Random(9101)
    cases = _u_route_cases(rng)
    tol = hyper.SERIES_TOL
    large_z = [(a, c, z) for a, c, z in cases if z >= 20]
    # both sides of the asymptotic series' own acceptance test are sampled
    accepted = [
        hyper._u_asymptotic(a, c, z).truncation_estimate <= tol
        for a, c, z in large_z
    ]
    assert any(accepted) and not all(accepted)
    hermite = [(rng.uniform(-3, 6), rng.uniform(2.01, 8)) for _ in range(8)]
    hermite += [(rng.uniform(-3, 6), -rng.uniform(2.01, 6)) for _ in range(8)]
    with warnings.catch_warnings(), mpmath.workdps(30):
        warnings.simplefilter("error")
        for a, c, z in cases + [(complex(0.5, 0.8), complex(1.3, -0.4), 2.0)]:
            want = complex(mpmath.hyperu(a, c, z))
            assert rel_err(hypU(a, c, z).value, want) < 1e-10, (a, c, z)
        for nu, z in hermite + [(-2.87, 5.95)]:
            want = complex(mpmath.hermite(nu, z))
            assert rel_err(hermite_fn(nu, z).value, want) < 1e-10, (nu, z)


def test_u_at_nonpositive_integer_a_meets_its_estimate():
    # the degree-n polynomial cancels more as n grows: summed as it stands,
    # its worst error on these points is 1e-6 at n = 20 and 1e10 at n = 60,
    # all reported as 0; every value returned must meet its own estimate
    rng = random.Random(1411)
    with mpmath.workdps(40):
        for n in (6, 12, 20, 40, 60):
            for _ in range(25):
                c, z = rng.uniform(-2, 3), rng.uniform(0.1, 30)
                try:
                    res = hypU(-n, c, z)
                except NuSpectralError:
                    continue
                want = mpmath.hyperu(-n, c, z)
                err = float(abs(mpmath.mpf(res.value) - want) / abs(want))
                assert err <= max(1e-10, 10 * res.truncation_estimate), (n, c, z)


def test_u_at_complex_c_matches_mpmath():
    # the Morse continuum's U(i k + 1/2 - L, 1 + 2 i k, z): the pair of M
    # series (13.2.42) takes most small z, where the integral route runs out
    # of evaluations; every value is within 1e-10, or the call raises
    rng, raised = random.Random(7), 0
    with mpmath.workdps(30):
        for _ in range(25):
            lam, k = rng.uniform(1, 40), math.sqrt(rng.uniform(0.01, 50))
            a, c = complex(0.5 - lam, k), complex(1, 2 * k)
            for z in [10 ** rng.uniform(-6, math.log10(35)) for _ in range(11)]:
                try:
                    got = hypU(a, c, z).value
                except NuSpectralError:
                    raised += 1
                    continue
                assert rel_err(got, mpmath.hyperu(a, c, z)) < 1e-10, (a, c, z)
    assert raised <= 15  # of 275; 10 raise, all in the integral route


def test_u_small_z_singular_form():
    # for c >= 2 (non-integer): U ~ gamma(c-1)/gamma(a) z^(1-c) as z -> 0
    a, c = 1.4, 2.6
    z = 1e-4
    got = hypU(a, c, z).value
    want = gamma_fn(c - 1) * rgamma(a) * z ** (1 - c)
    assert rel_err(got, want) < 1e-3


def confluent_ode_residual_u(a, c, z):
    u0 = hypU(a, c, z).value
    u1 = hypU_deriv(a, c, z).value
    u2 = a * (a + 1) * hypU(a + 2, c + 2, z).value
    resid = z * u2 + (c - z) * u1 - a * u0
    scale = max(abs(z * u2), abs((c - z) * u1), abs(a * u0), 1e-30)
    return abs(resid) / scale


def test_u_satisfies_kummer_ode():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.uniform(0.2, 2.5)
        c = rng.uniform(0.3, 2.8)
        if abs(c - round(c)) < 0.05 or abs(c + 1 - round(c + 1)) < 0.05:
            c += 0.13
        z = rng.uniform(0.4, 6.0)
        assert confluent_ode_residual_u(a, c, z) < 1e-6


def test_1f1_regularized_derivative():
    a, c, z = 0.7, 1.9, 1.3
    d = hyp1f1_deriv_regularized(a, c, z).value
    h = 1e-6
    fd = (
        hyp1f1_regularized(a, c, z + h).value - hyp1f1_regularized(a, c, z - h).value
    ) / (2 * h)
    assert rel_err(d, fd) < 1e-8


# ---------------------------------------------------------------------------
# Hermite function


def test_hermite_fn_reproduces_polynomials():
    zs = [-1.5, -0.3, 0.0, 0.7, 1.9]
    for z in zs:
        assert rel_err(hermite_fn(0, z).value, 1.0) < 1e-12
        assert abs(hermite_fn(1, z).value - 2 * z) < 1e-12
        assert abs(hermite_fn(2, z).value - (4 * z * z - 2)) < 1e-11
        assert abs(hermite_fn(3, z).value - (8 * z**3 - 12 * z)) < 1e-11


def test_hermite_fn_recurrence_noninteger_degree():
    for nu in [0.6, 1.8, -1.3, 2.4]:
        for z in [-1.2, 0.4, 1.7]:
            lhs = hermite_fn(nu, z).value
            rhs = (
                2 * z * hermite_fn(nu - 1, z).value
                - 2 * (nu - 1) * hermite_fn(nu - 2, z).value
            )
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_hermite_fn_integral_representation():
    # H_nu(x) = 1/gamma(-nu) int_0^inf t^(-nu-1) e^(-t^2 - 2tx) dt for nu < 0
    for nu in [-2.5, -3.7]:
        for x in [-1.0, 0.3, 1.5]:
            val, _ = integrate.quad(
                lambda t, nu=nu, x=x: t ** (-nu - 1) * math.exp(-t * t - 2 * t * x),
                0,
                np.inf,
            )
            want = val * rgamma(-nu)
            got = hermite_fn(nu, x).value
            assert rel_err(got, want) < 1e-8


def test_hermite_fn_derivative():
    nu, z = 1.7, 0.8
    d = 2 * nu * hermite_fn(nu - 1, z).value
    h = 1e-6
    fd = (hermite_fn(nu, z + h).value - hermite_fn(nu, z - h).value) / (2 * h)
    assert rel_err(d, fd) < 1e-8


def test_hermite_ode_residual():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nu = rng.uniform(-3.0, 3.0)
        z = rng.uniform(-2.0, 2.0)
        h0 = hermite_fn(nu, z).value
        h1 = 2 * nu * hermite_fn(nu - 1, z).value
        h2 = 4 * nu * (nu - 1) * hermite_fn(nu - 2, z).value
        resid = h2 - 2 * z * h1 + 2 * nu * h0
        scale = max(abs(h2), abs(2 * z * h1), abs(2 * nu * h0), 1.0)
        assert abs(resid) / scale < 1e-10


# ---------------------------------------------------------------------------
# z -> 1 regimes and Wronskians


def test_limit_regimes_and_constants():
    r = limit_2f1_at_1(1, 2, 4)
    assert r.regime == "finite"
    assert rel_err(r.constant, 3.0) < 1e-12

    r = limit_2f1_at_1(0.5, 0.5, 2.0)
    assert r.regime == "finite"
    assert rel_err(r.constant, 4 / math.pi) < 1e-12

    r = limit_2f1_at_1(0.7, 1.1, 1.8)
    assert r.regime == "log"
    want = math.gamma(1.8) / (math.gamma(0.7) * math.gamma(1.1))
    assert rel_err(r.constant, want) < 1e-12

    r = limit_2f1_at_1(1.0, 1.5, 2.0)
    assert r.regime == "power"

    r = limit_2f1_at_1(0.5, complex(1.0, 0.9), 1.5)  # c-a-b = -0.9i
    assert r.regime == "oscillatory"
    assert r.finite_part is not None


@pytest.mark.parametrize("a, b, c", [(-2.0, 1.0, -1.0), (-1.0, 1.0, -2.0), (0.5, 0.5, 0.0), (-3, 2, -1)])
def test_limit_at_a_pole_of_c(a, b, c):
    # hyp2f1 refuses every nonpositive integer c; (-2, 1, -1) once divided
    # by (c)_2 = 0 on the polynomial path
    with pytest.raises(PoleAtNonPositiveInteger):
        limit_2f1_at_1(a, b, c)


def test_limit_finite_matches_series_extrapolation():
    a, b, c = 0.4, 0.7, 2.4  # c-a-b = 1.3 > 0
    lim = limit_2f1_at_1(a, b, c).constant
    near = hyp2f1(a, b, c, 0.999).value
    assert abs(near - lim) < 5e-3
    nearer = hyp2f1(a, b, c, 0.9999).value
    assert abs(nearer - lim) < abs(near - lim)


def test_limit_log_regime_growth(monkeypatch):
    a, b = 0.7, 1.1
    cst = limit_2f1_at_1(a, b, a + b).constant
    # integer c-a-b keeps the direct series; give it headroom at 0.999
    val1 = hyp2f1(a, b, a + b, 0.99).value
    monkeypatch.setattr(hyper, "MAX_TERMS", 60000)
    val2 = hyp2f1(a, b, a + b, 0.999).value
    assert rel_err(val1, -cst * math.log(0.01)) < 0.25
    assert rel_err(val2, -cst * math.log(0.001)) < 0.2
    # the log-slope between the two points pins the constant itself
    slope = (val2 - val1) / (math.log(0.001) - math.log(0.01))
    assert rel_err(-slope, cst) < 0.12


def test_wronskian_defects():
    zs = [0.3, 0.7, 1.1, 1.6, 2.4, 3.0, 3.9, 4.7, 5.5, 6.8]
    for z in zs:
        assert wronskian_defect("mm", 0.7, 1.4, z) < 1e-8
        assert wronskian_defect("mu", 0.7, 1.4, z) < 1e-8
        assert wronskian_defect("mm", 1.9, 0.6, z) < 1e-8
        assert wronskian_defect("mu", 1.9, 0.6, z) < 1e-8


def test_wronskian_unknown_pair():
    with pytest.raises(ValueError):
        wronskian_defect("xy", 1.0, 1.5, 1.0)


def test_complex_series_overflow_stops_at_once():
    # the overflowing complex term is nan, which no magnitude test passes;
    # the sum must still end and report the overflow, as real parameters do
    with pytest.raises(SeriesOverflow):
        hyp1f1(0.5 + 0.3j, 1.2 + 0.1j, 800.0)


# ---------------------------------------------------------------------------
# one float-range rule for the factors in front of a series


def test_2f1_just_below_one_falls_back_to_the_direct_series():
    # where 15.8.4 cannot form its terms (a regularized series at c' = 1 - s
    # far below 0, or a gamma past the float range), the direct series runs
    # instead; it re-raises where that series keeps no digit
    a, b, c, z = -82.38131608744716, 0.3586343164829757, 184.880011512734, 0.9949580255958481
    res = hyp2f1(a, b, c, z)
    assert abs(res.value - 0.8763318059348175) <= 1e-14 and res.truncation_estimate < 1e-11
    with mpmath.workdps(30):
        want = mpmath.hyp2f1(0.5, 0.3, 180.3, 0.995)
    res = hyp2f1(0.5, 0.3, 180.3, 0.995)  # gamma(179.5) overflowed here
    assert rel_err(res.value, want) <= max(1e-13, res.truncation_estimate) < 1e-12
    rng = random.Random(11)
    returned = 0
    with mpmath.workdps(30):
        for _ in range(400):
            a, b, c, z = rng.uniform(-200, 60), rng.uniform(-3, 3), rng.uniform(0.5, 200), rng.uniform(0.991, 0.9995)
            want = mpmath.hyp2f1(a, b, c, z)
            ok = _within_estimate_or_raises(hyp2f1, (a, b, c, z), want)
            assert ok is not False, (a, b, c, z)
            returned += ok is not None
    assert returned >= 370  # 204 returned before the fallback


def test_limit_of_a_polynomial_with_a_huge_c_matches_mpmath():
    # Chu-Vandermonde's two pochhammers overflow to inf / inf here
    for a, b, c in ((-2.7512933162286113, -43.0, -23345583.674849104), (-60.0, 1.5, 3e7), (-50.0, -7.25, -1e8 + 0.5)):
        got = limit_2f1_at_1(a, b, c)
        with mpmath.workdps(30):
            k = int(-min(x for x in (a, b) if x == int(x)))
            other = b if a == int(a) else a
            want = mpmath.rf(c - other, k) / mpmath.rf(c, k)
        assert got.regime == "finite" and rel_err(got.constant, want) < 1e-12, (a, b, c)


def test_limit_constants_past_the_gamma_range_match_mpmath():
    # gamma(200) leaves the float range; the limit is 1.00075...
    got = limit_2f1_at_1(0.5, 0.3, 200.0)
    assert got.regime == "finite" and abs(got.constant - 1.0007536730798) < 1e-12
    rng = random.Random(3001)
    with mpmath.workdps(30):
        for _ in range(100):
            a, b, c = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(100, 250)
            got = limit_2f1_at_1(a, b, c)
            s = c - a - b
            if got.regime == "finite":
                want = mpmath.gamma(c) * mpmath.gamma(s) * mpmath.rgamma(c - a) * mpmath.rgamma(c - b)
            else:
                want = mpmath.gamma(c) * mpmath.gamma(-s) * mpmath.rgamma(a) * mpmath.rgamma(b)
            assert rel_err(got.constant, want) < 1e-11, (a, b, c)


_CONTRACT = {
    "hyp2f1": 4, "hyp2f1_regularized": 4, "hyp1f1": 3, "hyp1f1_regularized": 3, "hypU": 3,
    "hermite_fn": 2, "limit_2f1_at_1": 3, "gamma_fn": 1, "rgamma": 1,
}


def _returns_a_number_or_raises(name, args):
    try:
        res = getattr(hyper, name)(*args)
    except (NuSpectralError, ValueError):
        return True
    if isinstance(res, hyper.Limit2F1):
        values = (res.constant, res.finite_part or 0.0)
    else:
        values = (res.value, res.truncation_estimate) if isinstance(res, hyper.SeriesResult) else (res,)
    return not any(cmath.isnan(v) for v in values)


@pytest.mark.parametrize("name, args", [
    ("hermite_fn", (1100.0, 0.5)),  # 2^1100 raised OverflowError
    ("limit_2f1_at_1", (-2.7512933162286113, -43.0, -23345583.674849104)),  # was nan
    ("hyp2f1", (203.5, 0.25, 200.5, 0.995)),  # 1/gamma(c - a) at a pole beside a gamma past the range
    ("limit_2f1_at_1", (0.5, 0.3, 1e307)),  # lgamma(1e307) raises OverflowError
    ("hyp1f1_regularized", (1.0, 1e307, 0.5)),  # so did 1/gamma(c) in logs
])
def test_the_exception_contract_at_its_former_defects(name, args):
    assert _returns_a_number_or_raises(name, args)


def test_u_recurrence_stops_where_it_leaves_the_float_range():
    # U at a = -7.4e7 ran 7.4e7 steps of the recurrence in a (24 s) before
    # it raised SeriesOverflow; the first non-finite step now ends it
    t0 = time.perf_counter()
    with pytest.raises(SeriesOverflow, match="in the recurrence"):
        hypU(-73550593.1979431, -8.218951816887907, 1964.652136047965)
    assert time.perf_counter() - t0 < 5.0


def test_every_evaluator_returns_a_number_or_raises_a_domain_error():
    # |arguments| up to 1e8: a value is never nan, and a failure is a
    # NuSpectralError or a ValueError, never another exception
    rng = random.Random(3002)
    names = sorted(_CONTRACT)
    for _ in range(600):
        name = rng.choice(names)
        args = tuple(rng.uniform(-10, 10) if rng.random() < 0.5 else rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 8)
                     for _ in range(_CONTRACT[name]))
        assert _returns_a_number_or_raises(name, args), (name, args)


@pytest.mark.xfail(strict=True, reason="the even/odd 1F1 pair cancels for nu < 0; its estimate is the larger piece's")
def test_hermite_even_odd_pair_reports_its_cancellation():
    res = hermite_fn(-180.5, 1.5)  # -1.39e-194 with estimate 1.4e-15
    with mpmath.workdps(40):
        want = mpmath.hermite(-180.5, 1.5)  # 2.21e-204
    assert rel_err(res.value, want) <= max(1e-13, res.truncation_estimate)
    rng = random.Random(3)
    with mpmath.workdps(40):
        for _ in range(400):
            nu, z = rng.uniform(-60, 6), rng.uniform(-2, 2)
            ok = _within_estimate_or_raises(hermite_fn, (nu, z), mpmath.hermite(nu, z))
            assert ok is not False, (nu, z)


@pytest.mark.xfail(strict=True, reason="Pfaff's inner series stops on the streak rule when c lies far below 0")
def test_pfaff_inner_series_at_a_far_negative_c():
    res = hyp2f1(-20.25, -96, -72.25, -91)  # 3.83e42 in 27 terms, estimate 4.1e-14
    with mpmath.workdps(40):
        want = mpmath.hyp2f1(-20.25, -96, -72.25, -91)  # 3.34e189
    assert rel_err(res.value, want) <= max(1e-13, res.truncation_estimate)
