"""Gauss and confluent hypergeometric evaluation.

The series routes share one engine: sum terms until three consecutive
terms fall below ``SERIES_TOL`` relative to the running sum, give up at
``MAX_TERMS``.  Every evaluator returns a SeriesResult carrying the value,
the number of terms consumed and a truncation estimate so callers can audit
accuracy.

Each public evaluator rounds its arguments once, in ``_number``: an exact
scalar (Fraction, SurdSum, int) becomes a float, and a complex whose
imaginary part is zero becomes its real part.  The routes take the numbers
they are given as they are; a call whose arguments are all real returns a
float.

Routes (documented crossovers, all for real argument z):

* 2F1: direct series on [0, 0.99]; argument z/(z-1) (Pfaff) for z < 0,
  with 1 - z/(z-1) carried as 1/(1-z) (z/(z-1) rounds to 1.0 below -2^53).
  Above 0.99 the route follows the gap c-a-b, taken with one rounding:
  within _GAP_INT_ULPS units of roundoff (relative to the largest of 1,
  |a|, |b|, |c|) of an integer m, the logarithmic connection formula
  [dlmf]_ 15.8.10, for m < 0 after Euler's transformation (15.8.1), while
  a, b, c-a and c-b lie within _LOG_ROUTE_ARG_MAX; otherwise within
  _GAP_NEAR_INT of an integer, the direct series; else the 1-z connection
  formula 15.8.4, whose bracket cancels by about 1/|gap - m| near an
  integer m (its truncation estimate counts it).
* 1F1: direct series for z >= -8 (the alternating sum loses ~e^(2|z|)
  relative accuracy, acceptable in that range); e^z-reflected series
  (13.2.39) further left, and where that series overflows (z past ~-709)
  the large-argument expansion (13.7.2) in 1/z, cut at its smallest term.
* U: terminating polynomial form when a is a nonpositive integer, where its
  rounding bound certifies it to SERIES_TOL; the divergent large-z
  asymptotic series (13.7.3), truncated at its smallest term, for z >= 20
  when its truncation estimate meets SERIES_TOL; for non-real c, the pair
  of regularized M series (13.2.42) where the terms of both series cancel
  by less than a factor _CANCEL_MAX (its truncation estimate is scaled
  by that factor); otherwise the Laplace integral (13.4.4) by an exp-sinh rule,
  reached for Re a <= 1 by the downward recurrence in a (13.3.7), stable
  because U is its minimal solution [gst]_.  There terms_used counts
  integrand evaluations and the truncation estimate is the last change
  between exp-sinh levels.
* Hermite function: 2^nu U(-nu/2, 1/2, z^2) for real nu and z > 2; the
  even/odd pair of 1F1 series elsewhere.

Gamma is a Lanczos approximation (g = 7, 9 coefficients) with the
reflection formula; the reciprocal variant returns exactly 0.0 at poles so
degenerate prefactors annihilate terms instead of raising.  Past gamma's
float range (real argument above ~171.6) both raise SeriesOverflow; a
regularized series whose 1/gamma(c + n) gets there, at real c > 0, is the
plain series times 1/gamma(c).

The factors in front of a series (the powers (1-z)^-a, e^z, (1-z)^(c-a-b),
x^-a, z^-a and 2^nu, and the gammas of 15.8.4, 15.8.10, the far-left 1F1,
that regularized series and limit_2f1_at_1) follow one rule, in
_times_power: the float product, in each route's order, where every
partial product is a normal float; else the factors from the right, a
power out of range as its half on each side of the rest; where a gamma is
past the float range or a step of that leaves the normal range, the
product in logs at real arguments.  SeriesOverflow where the product
leaves the float range; below the normal range the float spacing over the
value joins the estimate.

.. [dlmf] NIST Digital Library of Mathematical Functions, chapters 5, 13, 15.
.. [gst] A. Gil, J. Segura, N. M. Temme, Numerical Methods for Special
   Functions, SIAM 2007, ch. 4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import MaxTermsExceeded, NuSpectralError, PoleAtNonPositiveInteger, SeriesOverflow

SERIES_TOL = 1e-13
MAX_TERMS = 10000
_STREAK = 3

# crossover points, see module docstring
_2F1_DIRECT_MAX = 0.99
_1F1_REFLECT_BELOW = -8.0
_FLOAT_MIN = 2.0**-1022  # the least normal float
_SUBNORMAL_SPACING = 2.0**-1074
# math.lgamma's error in units of 2^-53: sweeps against mpmath over (0.01, 1e4)
# keep it below 4 |lgamma| + 11 (the constant near its zeros at 1 and 2)
_LGAMMA_ULPS = 4.0
_LGAMMA_ABS_ULPS = 12.0
_U_ASYMPTOTIC_MIN = 20.0
# most sum |terms| / |value| where a sum must hold SERIES_TOL (the M pair for U,
# a regularized series past gamma's float range): about SERIES_TOL / 2^-53
_CANCEL_MAX = 1e3
_HERMITE_U_ABOVE = 2.0
_ES_STEP0 = 0.5  # exp-sinh node spacing at level 0
_ES_TAIL = 40.0  # e-folds below the peak at which level 0 stops on each side
_ES_HALF_PI = 0.5 * math.pi
_INT_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# an integer gap c-a-b: c = a + b + m rounded twice is within 2 units of
# roundoff of the largest argument, and |gap - m| |d ln 2F1/dc| then stays
# under SERIES_TOL for |d ln 2F1/dc| up to about 100 (the estimate counts it)
_GAP_INT_ULPS = 8.0
# within 1e-9 of an integer, but off it, the bracket of 15.8.4 would cancel by
# about 1e9: the direct series keeps such gaps
_GAP_NEAR_INT = 1e-9
# 15.8.10 runs while a, b, c - a and c - b lie within +-80, where a product of
# two reciprocal gammas, (m - 1)! and gamma(c) stay inside the float range;
# past that the direct series keeps the gap
_LOG_ROUTE_ARG_MAX = 80.0
# 15.8.4's relative error in units of 2^-53 max(1, |a|, |b|, |c|) / |c-a-b - n|
# (n the nearest integer): seeded sweeps reach about 4
_GAP_ROUNDING_ULPS = 8.0
_SUM_ROUNDOFF = 8.0 * _UNIT_ROUNDOFF  # relative rounding per unit of mass in 15.8.10's sums
_EULER_GAMMA = 0.57721566490153286
_DIGAMMA_ASYMPTOTIC_MIN = 10.0
_DIGAMMA_B2K_OVER_2K = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


@dataclass(frozen=True)
class SeriesResult:
    value: complex | float
    terms_used: int
    truncation_estimate: float


@dataclass(frozen=True)
class Limit2F1:
    """Behaviour of 2F1(a,b;c;z) as z -> 1^-.

    regime is one of 'finite', 'log', 'oscillatory', 'power'.  For 'finite'
    the constant is the limit itself; for 'log' the function grows like
    constant * (-log(1-z)); for 'power' it diverges like
    constant * (1-z)^(c-a-b); for 'oscillatory' it stays bounded without a
    limit and constant scales the unimodular factor (1-z)^(c-a-b), with the
    convergent part reported in finite_part.
    """

    regime: str
    constant: complex
    finite_part: complex | None = None


# ---------------------------------------------------------------------------
# gamma


_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _number(z):
    """z rounded once: a complex where its imaginary part is nonzero, else
    a float (exact scalars such as Fraction, SurdSum and int included)."""
    if isinstance(z, complex):
        return z if z.imag else z.real
    return float(z)


def _is_real(z):
    return not isinstance(z, complex)


def _real_arg(z, what):
    """z as a float; ValueError where it is not real."""
    z = _number(z)
    if isinstance(z, complex):
        raise ValueError(f"{what} evaluation supports real arguments only")
    return z


def is_nonpositive_integer(z):
    """True when z is exactly a real integer <= 0 (float equality)."""
    z = _number(z)
    return _is_real(z) and z <= 0 and z == round(z)


def _near_integer(z):
    if isinstance(z, complex):
        if abs(z.imag) > _INT_TOL:
            return None
        z = z.real
    r = round(z)
    return int(r) if abs(z - r) <= _INT_TOL else None


def gamma_fn(z):
    """Gamma function for real or complex arguments (Lanczos + reflection).

    Raises PoleAtNonPositiveInteger at the poles, and SeriesOverflow where
    the value leaves the float range (real z above ~171.6).
    """
    z = _number(z)
    if is_nonpositive_integer(z):
        raise PoleAtNonPositiveInteger(f"gamma pole at {z}")
    zc = complex(z)
    if zc.real < 0.5:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        val = math.pi / (cmath.sin(math.pi * zc) * gamma_fn(1.0 - zc))
    else:
        zc -= 1.0
        x = _LANCZOS_C[0]
        for i, ci in enumerate(_LANCZOS_C[1:], start=1):
            x += ci / (zc + i)
        t = zc + _LANCZOS_G + 0.5
        try:
            val = math.sqrt(2.0 * math.pi) * t ** (zc + 0.5) * cmath.exp(-t) * x
        except OverflowError:
            val = math.inf
        # a power just under the float maximum overflows once scaled, and
        # inf * e^-t is NaN
        if not cmath.isfinite(val):
            try:  # half of the power on each side of the small e^-t
                half = t ** (0.5 * (zc + 0.5))
            except OverflowError:
                half = math.inf
            val = math.sqrt(2.0 * math.pi) * half * cmath.exp(-t) * half * x
            if not cmath.isfinite(val):
                raise SeriesOverflow(f"gamma({z}) needs a power beyond the float range") from None
    return val.real if _is_real(z) else val


def rgamma(z):
    """1/gamma(z); exactly 0.0 at the poles."""
    try:
        return 1.0 / gamma_fn(z)
    except PoleAtNonPositiveInteger:
        return 0.0


def pochhammer(a, n):
    """Rising factorial (a)_n for integer n >= 0."""
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    a = _number(a)
    out = 1.0 if _is_real(a) else complex(1.0)
    for k in range(n):
        out *= a + k
    return out


def _gamma_error(x):
    """A bound on the relative error of gamma_fn(x) and rgamma(x), from
    sweeps against mpmath (real x in (-30, 171), complex x with |Im x| < 60):
    32 + 16|x| units of roundoff from the Lanczos sum and its power, eight
    times that for complex x, and below 1/2 a further 2|x| / |x - n| (n the
    nearest integer), since the reflection's sin(pi x) starts from the
    rounded pi x; none at the poles, where rgamma is exactly 0."""
    err = (32.0 + 16.0 * abs(x)) * (1.0 if _is_real(x) else 8.0)
    if x.real < 0.5 and not is_nonpositive_integer(x):
        err += 2.0 * abs(x) / abs(x - round(x.real))
    return _UNIT_ROUNDOFF * err


def _digamma(x):
    """psi(x) for real or complex x off the poles: psi(x) = psi(x+1) - 1/x
    until Re x >= 10, then the asymptotic series [dlmf]_ 5.11.2 to x^-14."""
    shift = 0.0
    while x.real < _DIGAMMA_ASYMPTOTIC_MIN:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    tail = 0.0  # sum_k B_2k / (2k x^2k)
    for coeff in _DIGAMMA_B2K_OVER_2K[::-1]:
        tail = r * (coeff + tail)
    log = math.log(x) if _is_real(x) else cmath.log(x)
    return log - 0.5 / x - tail - shift


# ---------------------------------------------------------------------------
# series engine


def _sum_series(uppers, c, z, regularized, what):
    """sum_n prod_p (p)_n / n! * z^n * [1/gamma(c+n) or 1/(c)_n] over the
    upper parameters p, (a, b) for 2F1 and (a,) for 1F1, with a
    three-small-terms stopping rule: the SeriesResult and sum_n |term_n|.

    Plain variant divides by (c)_n; regularized multiplies by 1/gamma(c+n).
    The term ratio is applied in this loop, not in a generator, which would
    add a call per term.
    """
    u = 1.0 + 0.0j if not all(map(_is_real, (*uppers, c, z))) else 1.0
    # 1/gamma(c+n) vanishes while c+n is a nonpositive integer
    ci = _near_integer(c) if regularized else None
    leading_zero_allowance = max(3, 2 - ci) if ci is not None and ci <= 0 else 3
    total = 0.0
    mass = 0.0
    last = 0.0
    streak = 0
    n_used = 0
    try:
        for n in range(MAX_TERMS):
            t = u * rgamma(c + n) if regularized else u
            for p in uppers:
                u = u * (p + n)
            u = u * z / (n + 1.0) if regularized else u * z / ((c + n) * (n + 1.0))
            total = total + t
            size = abs(t)
            mass = mass + size
            last = t
            n_used = n + 1
            ref = abs(total)
            # max(ref, 1e-300) without a builtin call (a nan ref stays nan)
            if not size > SERIES_TOL * (ref if not ref < 1e-300 else 1e-300):
                if total == 0 and t == 0 and n < leading_zero_allowance:
                    continue  # a degenerate prefactor has not kicked in yet
                streak += 1
                if streak >= _STREAK:
                    break
            else:
                streak = 0
        else:
            raise MaxTermsExceeded(f"{what} did not converge in {MAX_TERMS} terms")
    except SeriesOverflow:  # 1/gamma(c + n) past gamma's float range
        if not (regularized and _is_real(c) and c > 0.0):
            raise
        return _regularized_in_logs(uppers, c, z, what)
    # an overflowing term leaves the total inf or nan; the test above counts
    # an inf or nan term as small, so the loop ends and this test reports it
    if not cmath.isfinite(total):
        raise SeriesOverflow(f"{what} series left the float range after {n_used} terms")
    trunc = abs(last) / max(abs(total), 1e-300) if total != 0 else abs(last)
    if len(uppers) == 2:
        # 2F1: the tail past the last term, whose ratio tends to |z|, is at
        # most |last| rho/(1 - rho), rho the larger of |z| and the last ratio
        # (0 once the series has terminated); and the rounding of n terms
        # of that mass
        a, b = uppers
        rho = 0.0
        if last != 0:
            rho = abs((a + n) * (b + n) * z / ((n + 1.0) * (c + n)))
            if not rho > abs(z):  # max() without a builtin call
                rho = abs(z)
        tail = abs(last) * rho / (1.0 - rho) if rho < 1.0 else math.inf
        trunc += (tail + _UNIT_ROUNDOFF * n_used * mass) / (ref if not ref < 1e-300 else 1e-300)
    return SeriesResult(total, n_used, trunc), mass


def _regularized_in_logs(uppers, c, z, what):
    """The regularized series at real c > 0 where 1/gamma(c + n) leaves the
    float range: the plain series S times 1/gamma(c), by _times_power, with
    the rounding of S's n terms (2^-53 n sum |t| / |S|) in the estimate.
    SeriesOverflow where the terms cancel by more than _CANCEL_MAX."""
    res, mass = _sum_series(uppers, c, z, False, what)
    total = res.value
    if not total:
        return res, 0.0
    if mass > _CANCEL_MAX * abs(total):
        raise SeriesOverflow(f"regularized {what} past gamma's float range cancels by {mass / abs(total):.1e}")
    trunc = res.truncation_estimate + _UNIT_ROUNDOFF * res.terms_used * mass / abs(total)
    out = _times_power(total, res.terms_used, trunc, ((rgamma, c),), f"regularized {what}")
    return out, mass / abs(total) * abs(out.value)


def _underflow_error(value):
    """The relative spacing of the floats at a value below the normal
    range; inf at 0.0, which a nonzero value underflowed to."""
    return _SUBNORMAL_SPACING / abs(value) if value else math.inf


def _times_power(value, terms_used, trunc, factors, what, *args):
    """The SeriesResult of value, a sum of terms_used terms whose estimate
    (the route's own error included) is trunc, times its factors, by the
    module docstring's rule; what.format(*args) names the value that
    overflows.  A factor (f, x) is gamma_fn(x), rgamma(x), e^x (f is
    math.exp or cmath.exp) or the power f ** x of a positive float f.

    The float forms add each gamma's _gamma_error to the estimate; at a pole
    of rgamma the product is its exact 0.0.  In logs, exp(L) with L the sum
    of ln|value|, the x ln f and the lgammas (gamma's sign from reflection
    below 0), the estimate adds in units of 2^-53: per gamma, lgamma's error
    (_LGAMMA_ULPS |lgamma| + _LGAMMA_ABS_ULPS, below 1/2 the reflection's
    2|x| / |x - n|, n the nearest integer) and |x psi(x)| for the rounding
    of an x that a route formed; per power 2|x ln f|; |ln|value||, each
    partial sum of L and 1 for exp.  A value below the normal range adds
    the float spacing over it (inf at a 0.0 from a nonzero value); in logs
    a 0.0 raises SeriesOverflow, as does a product past the float range,
    whose message says where the inner estimate is 1 or more (the value
    has no correct digit, and the true product may be a float)."""
    gs, err, head, out = [], 0.0, 1.0, None
    for f, x in factors:  # each factor once, its float product in the route's order
        if f is gamma_fn or f is rgamma:
            err += _gamma_error(x)
        try:
            g = f(x) if callable(f) else f ** x
        except OverflowError:  # a power past the float range
            g = math.inf
        except SeriesOverflow:  # a gamma past it
            g = None
        gs.append(g)
        head = head * g if g is not None and _FLOAT_MIN <= abs(head) < math.inf else math.nan
    if _FLOAT_MIN <= abs(head) < math.inf:  # every partial product is normal
        out = head * value
        if _FLOAT_MIN <= abs(out) < math.inf:
            return SeriesResult(out, terms_used, trunc + err)
    elif any(f is rgamma and g == 0.0 for (f, _), g in zip(factors, gs)):  # a pole of rgamma
        out = math.prod(g for g in gs if g is not None) * value
    elif None not in gs:  # from the right, a power out of range in halves
        out = value
        for (f, x), g in zip(factors[::-1], gs[::-1]):
            normal = _FLOAT_MIN <= abs(g) < math.inf
            if value and not _FLOAT_MIN <= abs(out) < math.inf or not normal and f in (gamma_fn, rgamma):
                out = None  # a step left the normal range
                break
            if not normal:  # half of the power on each side of the rest
                try:
                    g = f(0.5 * x) if callable(f) else f ** (0.5 * x)
                except OverflowError:
                    g = math.inf
                out = g * out
            out = g * out
    in_logs = out is None and value and all(_is_real(x) for _, x in factors)
    if in_logs:
        total = math.log(abs(value))
        sign, units = value / abs(value), abs(total) + 1.0
        try:
            for f, x in factors:
                if f is gamma_fn or f is rgamma:
                    lg = math.lgamma(x)
                    psi = _digamma(x) if x > 0.0 else abs(_digamma(1.0 - x)) + math.pi / abs(math.tan(math.pi * x))
                    units += _LGAMMA_ULPS * abs(lg) + _LGAMMA_ABS_ULPS + abs(x * psi)
                    if x < 0.5:
                        units += 2.0 * abs(x) / abs(x - round(x))
                        sign = -sign if math.floor(x) % 2 else sign
                    log = lg if f is gamma_fn else -lg
                else:
                    log = x if callable(f) else x * math.log(f)
                    units += 2.0 * abs(log)
                total += log
                units += abs(total)
            out = sign * math.exp(total)
        except OverflowError:  # an lgamma or the product past the float range
            out = math.inf
        err = _UNIT_ROUNDOFF * units
    if out is None or not cmath.isfinite(out) or in_logs and not out:
        message = what.format(*args) + " leaves the float range"
        if trunc >= 1.0:  # the overflow may be the lost digits'
            message += f", but its inner series lost its digits (truncation estimate {trunc:.2g})"
        raise SeriesOverflow(message)
    trunc += err
    if value and abs(out) < _FLOAT_MIN:
        trunc += _underflow_error(out)
    return SeriesResult(out, terms_used, trunc)


# ---------------------------------------------------------------------------
# Gauss 2F1


def hyp2f1(a, b, c, z):
    """2F1(a, b; c; z) for real finite z < 1.

    Raises PoleAtNonPositiveInteger when c is a nonpositive integer (use
    hyp2f1_regularized there) and ValueError for z >= 1 (see
    limit_2f1_at_1 for the boundary behaviour) or z = -inf.
    """
    if is_nonpositive_integer(c):
        raise PoleAtNonPositiveInteger(
            f"2F1 undefined at c = {c}; use hyp2f1_regularized"
        )
    return _hyp2f1_any(*_2f1_args(a, b, c, z), regularized=False)


def hyp2f1_regularized(a, b, c, z):
    """2F1(a, b; c; z) / gamma(c), defined for every c."""
    return _hyp2f1_any(*_2f1_args(a, b, c, z), regularized=True)


def _2f1_args(a, b, c, z):
    """The door of both 2F1 evaluators: a, b, c rounded once and z a finite
    float below 1, else ValueError.  The routes do not check z again: below
    about -2^53 Pfaff's z/(z-1) rounds to 1.0, and its w = 1/(1-z) holds
    the distance."""
    a, b, c = map(_number, (a, b, c))
    z = _real_arg(z, "2F1")
    if not z < 1.0:
        raise ValueError("2F1 series argument must satisfy z < 1")
    if z == -math.inf:
        raise ValueError("2F1 needs a finite argument, got -inf")
    return a, b, c, z


def _hyp2f1_any(a, b, c, z, regularized, w=None):
    """The 2F1 routes at rounded arguments; w is 1 - z where the caller has
    it more accurately than 1.0 - z (Pfaff's 1/(1-z), when z/(z-1) rounds
    next to 1)."""
    if z == 0.0:
        val = rgamma(c) if regularized else 1.0
        return SeriesResult(val, 1, 0.0)
    if z < 0.0:
        # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        cb, x, w = _number(c - b), z / (z - 1.0), 1.0 / (1.0 - z)
        inner = _hyp2f1_any(a, cb, c, x, regularized, w)
        # z below about -2^53: the inner gap b - a, formed as c - a - (c - b),
        # carries the roundings of c - b and of the gap into w^(b-a), times
        # |ln w| > 36.  Above -2^53 that is under 37 |c - b| units of
        # roundoff and is not counted, so those estimates keep their bits
        err = _UNIT_ROUNDOFF * (abs(cb) + abs(cb - a)) * -math.log(w) if x == 1.0 else 0.0
        return _times_power(inner.value, inner.terms_used, inner.truncation_estimate + err, ((1.0 - z, -a),),
                            "2F1 at z = {}", z)

    # polynomial case terminates regardless of z
    na = _near_integer(a)
    nb = _near_integer(b)
    terminating = (na is not None and na <= 0) or (nb is not None and nb <= 0)
    if z <= _2F1_DIRECT_MAX or terminating:
        return _sum_series((a, b), c, z, regularized, "2F1")[0]
    w = 1.0 - z if w is None else w
    gap = _gap(a, b, c)
    m = round(gap.real)
    off = abs(gap - m)
    int_tol = _GAP_INT_ULPS * _UNIT_ROUNDOFF * max(1.0, abs(a), abs(b), abs(c))
    if off <= int_tol and max(abs(a), abs(b), abs(c - a), abs(c - b)) <= _LOG_ROUTE_ARG_MAX:
        return _hyp2f1_log(a, b, c, gap, m, w, regularized)
    if off <= max(int_tol, _GAP_NEAR_INT):
        return _sum_series((a, b), c, z, regularized, "2F1")[0]
    try:
        return _hyp2f1_near_one(a, b, c, w, regularized)
    except SeriesOverflow:  # a term left the float range: the direct series, where it keeps a digit
        try:
            res = _sum_series((a, b), c, z, regularized, "2F1")[0]
        except NuSpectralError:
            res = None
        if res is None or not res.truncation_estimate < 1.0:
            raise
        return res


def _gap(a, b, c):
    """c - a - b, rounded once."""
    re = math.fsum((c.real, -a.real, -b.real))
    if all(map(_is_real, (a, b, c))):
        return re
    return complex(re, math.fsum((c.imag, -a.imag, -b.imag)))


def _hyp2f1_log(a, b, c, gap, m, w, regularized):
    """2F1 at z = 1 - w near 1 with the gap c - a - b the integer m, up to
    the rounding of c: the logarithmic connection formula [dlmf]_ 15.8.10,

        2F1/gamma(c) = sum_{k<m} (a)_k (b)_k (m-k-1)!/k! (z-1)^k / (gamma(a+m) gamma(b+m))
            - (z-1)^m / (gamma(a) gamma(b)) sum_k (a+m)_k (b+m)_k / (k! (k+m)!) (1-z)^k
              [ln(1-z) - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m)],

    each psi carried from k to k+1 by psi(x+1) = psi(x) + 1/x.  For m < 0,
    Euler's transformation 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a,c-b;c;z)
    turns the gap to -m.

    The truncation estimate adds to the last term the relative errors that
    the two parts carry, times their mass over the value (so it counts how
    far they cancel): the gammas' (_gamma_error), the sums' rounding, and
    the neglected parameter offsets |gap - m| and the rounding of a and b
    times the sensitivity of ln 2F1 to them, which sweeps against mpmath
    keep below the bracket's |ln(1-z)| plus its four |psi| at k = 0.
    """
    if m < 0:
        inner = _hyp2f1_log(c - a, c - b, c, -gap, -m, w, regularized)
        err = _UNIT_ROUNDOFF * abs(gap * math.log(w))
        return _times_power(inner.value, inner.terms_used, inner.truncation_estimate + err, ((w, gap),),
                            "2F1 at 1 - z = {}", w)
    s1 = mass1 = 0.0
    t = float(math.factorial(m - 1)) if m else 0.0
    for k in range(m):
        if k:
            t = t * (a + k - 1.0) * (b + k - 1.0) * -w / (k * (m - k))
        s1 += t
        mass1 += abs(t)
    log_w = math.log(w)
    psi_k1 = -_EULER_GAMMA  # psi(k+1) at k = 0
    psi_km1 = psi_k1 + math.fsum(1.0 / j for j in range(1, m + 1))
    psi_a, psi_b = _digamma(a + m), _digamma(b + m)
    bracket = log_w - psi_k1 - psi_km1 + psi_a + psi_b
    scale = abs(log_w) + abs(psi_k1) + abs(psi_km1) + abs(psi_a) + abs(psi_b)
    coeff = 1.0 / math.factorial(m)
    s2 = mass2 = 0.0
    streak = 0
    for k in range(MAX_TERMS):
        t = coeff * bracket
        s2 += t
        mass2 += abs(coeff) * (abs(bracket) + scale)
        if not abs(t) > SERIES_TOL * abs(s2):
            streak += 1
            if streak >= _STREAK:
                break
        else:
            streak = 0
        x, y = a + m + k, b + m + k
        coeff = coeff * x * y * w / ((k + 1.0) * (k + m + 1.0))
        bracket += 1.0 / x + 1.0 / y - 1.0 / (k + 1.0) - 1.0 / (k + m + 1.0)
    else:
        raise MaxTermsExceeded(f"2F1 logarithmic connection did not converge in {MAX_TERMS} terms")
    g1 = rgamma(a + m) * rgamma(b + m)
    g2 = (-w) ** m * rgamma(a) * rgamma(b)
    value = g1 * s1 - g2 * s2
    ref = max(abs(value), 1e-300)
    offset = abs(gap - m) + _UNIT_ROUNDOFF * (abs(a) + abs(b))
    err = _SUM_ROUNDOFF + offset * scale
    err1 = err + _gamma_error(a + m) + _gamma_error(b + m)
    err2 = err + _gamma_error(a) + _gamma_error(b)
    trunc = (abs(g2 * t) + abs(g1) * mass1 * err1 + abs(g2) * mass2 * err2) / ref
    factors = () if regularized else ((gamma_fn, c),)
    return _times_power(value, m + k + 1, trunc, factors, "2F1 at 1 - z = {}", w)


def _hyp2f1_near_one(a, b, c, w, regularized):
    """Connection formula in powers of w = 1-z, valid for non-integer c-a-b;
    w as in _hyp2f1_any (Pfaff's complement, which 1.0 - z would lose).

    _times_power forms the bracket's two terms and the plain value's
    gamma(c); a bracket below the normal range raises SeriesOverflow.  The
    truncation estimate adds to the two series' each term's own (its
    gammas') times its size over the bracket, where the terms cancel (the
    float spacing for a term that underflowed to 0.0), and the rounding of
    s = c-a-b (about 2^-53 max(1, |a|, |b|, |c|)) over its distance to the
    nearest integer, which pi/sin(pi s) and the regularized series near
    their poles turn into a relative error.  Seeded sweeps against mpmath (a,
    b in (-15, 15), |s - n| from 1e-9 to 0.3, 1 - z from 1e-8 to 1e-2) keep
    the error under 0.61 of it.
    """
    s = c - a - b
    f1 = _sum_series((a, b), a + b - c + 1.0, w, True, "2F1 connection")[0]
    f2 = _sum_series((c - a, c - b), s + 1.0, w, True, "2F1 connection")[0]
    pref = math.pi / cmath.sin(math.pi * complex(s))
    what = "2F1 connection at 1 - z = {}"
    t1 = _times_power(f1.value, 0, 0.0, ((rgamma, c - a), (rgamma, c - b)), what, w)
    t2 = _times_power(f2.value, 0, 0.0, ((w, s), (rgamma, a), (rgamma, b)), what, w)
    bracket = t1.value - t2.value
    if 0.0 < abs(bracket) < _FLOAT_MIN:  # its digits went to the float spacing
        raise SeriesOverflow(f"2F1 connection at 1 - z = {w}: its bracket leaves the normal range")
    ref = max(abs(bracket), _FLOAT_MIN)
    trunc = max(f1.truncation_estimate, f2.truncation_estimate)
    e1 = abs(t1.value) * t1.truncation_estimate if t1.value else _SUBNORMAL_SPACING
    e2 = abs(t2.value) * t2.truncation_estimate if t2.value else _SUBNORMAL_SPACING
    trunc += (e1 + e2) / ref
    trunc += _GAP_ROUNDING_ULPS * _UNIT_ROUNDOFF * max(1.0, abs(a), abs(b), abs(c)) / abs(s - round(s.real))
    value = pref * bracket
    if all(map(_is_real, (a, b, c))):
        value = value.real
    factors = () if regularized else ((gamma_fn, c),)
    return _times_power(value, f1.terms_used + f2.terms_used, trunc, factors, what, w)


# ---------------------------------------------------------------------------
# confluent


def hyp1f1(a, c, z):
    """Kummer's 1F1(a; c; z) for real z.

    Raises PoleAtNonPositiveInteger when c is a nonpositive integer.
    """
    if is_nonpositive_integer(c):
        raise PoleAtNonPositiveInteger(
            f"1F1 undefined at c = {c}; use hyp1f1_regularized"
        )
    return _hyp1f1_any(a, c, z, regularized=False)


def hyp1f1_regularized(a, c, z):
    """1F1(a; c; z) / gamma(c), entire in every parameter."""
    return _hyp1f1_any(a, c, z, regularized=True)


def _hyp1f1_any(a, c, z, regularized):
    a, c = _number(a), _number(c)
    z = _real_arg(z, "1F1")
    if z == 0.0:
        return SeriesResult(rgamma(c) if regularized else 1.0, 1, 0.0)
    na = _near_integer(a)
    terminating = na is not None and na <= 0
    if z < _1F1_REFLECT_BELOW and not terminating:
        # 1F1(a;c;z) = e^z 1F1(c-a; c; -z), with -z on the stable side
        try:
            inner = _hyp1f1_any(c - a, c, -z, regularized)
        except SeriesOverflow:
            return _hyp1f1_far_left(a, c, -z, regularized)
        return _times_power(inner.value, inner.terms_used, inner.truncation_estimate, ((math.exp, z),),
                            "1F1 at z = {}", z)
    return _sum_series((a,), c, z, regularized, "1F1")[0]


def _hyp1f1_far_left(a, c, x, regularized):
    """1F1(a; c; -x) where the reflected series overflows (x past ~709).

    Kummer's transformation and the large-argument expansion (13.2.39,
    13.7.2) give gamma(c)/gamma(c-a) x^-a 2F0(a, a-c+1; 1/x) up to a
    relative O(e^-x), which is below the float range there.  _times_power
    forms the prefactor and counts its gammas.
    """
    total, n_used, trunc = _2f0_sum(a, c, 1.0 / x)
    if trunc > SERIES_TOL:
        raise MaxTermsExceeded(f"1F1 large-argument series stops at {trunc:.1e} relative")
    factors = ((x, -a), (rgamma, c - a)) + (() if regularized else ((gamma_fn, c),))
    return _times_power(total, n_used, trunc, factors, "1F1 at z = {}", -x)


def hyp1f1_deriv_regularized(a, c, z):
    """d/dz of the regularized 1F1: a * 1F1reg(a+1; c+1; z)."""
    inner = hyp1f1_regularized(a + 1, c + 1, z)
    return SeriesResult(
        _number(a) * inner.value, inner.terms_used, inner.truncation_estimate
    )


def _u_terminating(n, c, z):
    """U(-n,c,z) = (-1)^n sum_k [(-n)_k / k!] (c+k)_{n-k} z^k, for any c; None
    where its rounding bound (2n + 3) 2^-53 sum |t_k| exceeds SERIES_TOL
    relative (the sum cancels), or where a term leaves the float range."""
    total = 0.0 if _is_real(c) else complex(0.0)
    mass = 0.0  # sum |t_k|
    coeff = 1.0  # (-n)_k / k!
    try:
        for k in range(n + 1):
            t = coeff * pochhammer(c + k, n - k) * z**k
            total += t
            mass += abs(t)
            coeff *= (-n + k) / (k + 1.0)
    except OverflowError:
        return None
    if not mass < math.inf or (2 * n + 3) * _UNIT_ROUNDOFF * mass > SERIES_TOL * abs(total):
        return None
    value = (-1.0) ** n * total
    return SeriesResult(value, n + 1, 0.0)


def _2f0_sum(a, c, w):
    """2F0(a, a-c+1; w) cut at its smallest term: the sum, the terms used
    and the truncation estimate |smallest| / |sum|."""
    term = 1.0 if _is_real(a) and _is_real(c) else complex(1.0)
    total = term
    best = abs(term)
    n_used = 1
    for k in range(1, MAX_TERMS):
        term = term * (a + k - 1.0) * (a - c + k) * w / k
        if abs(term) >= best:
            break  # divergence sets in; stop at the smallest term
        total += term
        best = abs(term)
        n_used += 1
        if best <= SERIES_TOL * max(abs(total), 1e-300):
            break
    return total, n_used, best / max(abs(total), 1e-300)


def _u_asymptotic(a, c, z):
    """Large-z asymptotic series z^-a 2F0(a, a-c+1; -1/z), smallest-term cut;
    the bare 2F0 sum where the cut leaves more than SERIES_TOL (hypU moves on)."""
    total, n_used, trunc = _2f0_sum(a, c, -1.0 / z)
    if trunc > SERIES_TOL:
        return SeriesResult(total, n_used, trunc)
    return _times_power(total, n_used, trunc, ((z, -a),), "U({}, {}, {})", a, c, z)


def hypU(a, c, z):
    """Tricomi's confluent U(a, c, z) for real z > 0 (routes: module docstring)."""
    a, c = _number(a), _number(c)
    z = _real_arg(z, "U")
    if z <= 0.0:
        raise ValueError("U evaluation requires z > 0")
    na = _near_integer(a)
    if na is not None and na <= 0:
        res = _u_terminating(-na, c, z)
        if res is not None:
            return res
    if z >= _U_ASYMPTOTIC_MIN:
        res = _u_asymptotic(a, c, z)
        if res.truncation_estimate <= SERIES_TOL:
            return res
    if not _is_real(c):
        res = _u_kummer_pair(a, c, z)
        if res is not None:
            return res
    # the integral gives U(b) and U(b+1) at b = a + m in (1, 2] when Re a <= 1;
    # U(b-1) = (2b - c + z) U(b) - b (b - c + 1) U(b+1) (13.3.7) then runs down
    # to a, stably since U is the minimal solution as a grows.  Run on the last
    # two exp-sinh levels, it gives U(a)'s own level change.
    m = max(0, math.floor(1.0 - a.real) + 1)
    try:
        levels, evals = _u_laplace_levels(a + m, c, z)
    except OverflowError:
        raise SeriesOverflow(f"U integrand at ({a}, {c}, {z}) left the float range") from None
    values = []
    for u0, u1 in levels:
        for b in (a + k for k in range(m, 0, -1)):
            u0, u1 = (2.0 * b - c + z) * u0 - b * (b - c + 1.0) * u1, u0
            if not cmath.isfinite(u0):  # inf and nan stay non-finite
                break
        values.append(u0)
    if not cmath.isfinite(values[1]):
        raise SeriesOverflow(f"U({a}, {c}, {z}) left the float range in the recurrence")
    change = abs(values[1] - values[0]) / max(abs(values[1]), 1e-300)
    if abs(values[1]) < _FLOAT_MIN:
        change += _underflow_error(values[1])
    return SeriesResult(values[1], evals, change)


def _u_kummer_pair(a, c, z):
    """U(a, c, z) = pi/sin(pi c) [M*(a, c, z)/gamma(a-c+1) - z^(1-c)
    M*(a-c+1, 2-c, z)/gamma(a)] (13.2.42) for non-real c, with M* the
    regularized 1F1; None where the terms of both series cancel by more
    than _CANCEL_MAX, or where a piece leaves the float range."""
    try:
        (m1, mass1), (m2, mass2) = (
            _sum_series((p,), q, z, True, "U by M series")
            for p, q in ((a, c), (a - c + 1.0, 2.0 - c))
        )
        g1, g2 = rgamma(a - c + 1.0), cmath.exp((1.0 - c) * math.log(z)) * rgamma(a)
        pref = math.pi / cmath.sin(math.pi * c)
    except (SeriesOverflow, MaxTermsExceeded, OverflowError):
        return None
    diff = m1.value * g1 - m2.value * g2
    cancel = (mass1 * abs(g1) + mass2 * abs(g2)) / max(abs(diff), 1e-300)
    value = pref * diff
    if not (cancel <= _CANCEL_MAX and cmath.isfinite(value)):
        return None
    trunc = cancel * max(m1.truncation_estimate, m2.truncation_estimate)
    return SeriesResult(value, m1.terms_used + m2.terms_used, trunc)


def _u_laplace_levels(b, c, z):
    """(U(b, c, z), U(b+1, c, z)) at the last two exp-sinh levels, Re b > 1,
    and the number of integrand evaluations.

    With s = z t, 13.4.4 reads U(b) = z^-b/gamma(b) int_0^inf e^-s s^(b-1)
    (1 + s/z)^(c-b-1) ds; U(b+1)'s integrand is that times s / (b (z + s)).
    s = exp(pi/2 sinh t) makes both ends decay double exponentially, and the
    step in t halves until a level moves both values by at most SERIES_TOL.  Terms
    carry the prefactor in their exponent, so only a U that itself overflows
    or underflows can; an overflow raises OverflowError.
    """
    cplx = not (_is_real(b) and _is_real(c))
    exp = cmath.exp if cplx else math.exp
    log_pref = -b * math.log(z) - (cmath.log(gamma_fn(b)) if cplx else math.lgamma(b))
    p = c - b - 1.0

    def node(t):
        """x, cosh t and s / (z + s) at s = exp(pi/2 sinh t), where e^x is s
        times U(b)'s integrand in s: the integrand in t is pi/2 cosh t e^x."""
        w = _ES_HALF_PI * math.sinh(t)
        s = math.exp(w)
        return log_pref + b * w - s + p * math.log1p(s / z), math.cosh(t), s / (z + s)

    # level 0 walks out from t = 0 until both integrands sit _ES_TAIL e-folds
    # below the largest node seen; for Re b > 1 each is unimodal in t, so the
    # nodes beyond are negligible at every level
    h = _ES_STEP0
    sf = sg = 0.0
    peak_f = peak_g = -math.inf
    ends = []
    for direction in (-1, 1):
        k = 0 if direction < 0 else 1
        while True:
            x, ch, q = node(direction * k * h)
            f = exp(x) * ch
            sf, sg = sf + f, sg + f * q
            log_f = x.real + math.log(ch)
            log_g = log_f + math.log(q) if q else -math.inf  # s underflowed
            peak_f, peak_g = max(peak_f, log_f), max(peak_g, log_g)
            if log_f < peak_f - _ES_TAIL and log_g < peak_g - _ES_TAIL:
                break
            k += 1
        ends.append(k)
    n = ends[0] + ends[1]  # intervals of width h across the range kept
    lo, evals, last = -ends[0] * h, n + 1, (h * sf, h * sg)
    while True:
        h *= 0.5
        evals += n
        if evals > MAX_TERMS:
            raise MaxTermsExceeded(f"U integral did not converge in {MAX_TERMS} evaluations")
        for j in range(n):
            x, ch, q = node(lo + (2 * j + 1) * h)
            f = exp(x) * ch
            sf, sg = sf + f, sg + f * q
        n *= 2
        prev, last = last, (h * sf, h * sg)
        if all(abs(v - u) <= SERIES_TOL * abs(v) for u, v in zip(prev, last)):
            return [(_ES_HALF_PI * f, _ES_HALF_PI / b * g) for f, g in (prev, last)], evals


def hypU_deriv(a, c, z):
    """d/dz U(a, c, z) = -a U(a+1, c+1, z)."""
    inner = hypU(a + 1.0, c + 1.0, z)
    return SeriesResult(
        -_number(a) * inner.value, inner.terms_used, inner.truncation_estimate
    )


# ---------------------------------------------------------------------------
# Hermite function of arbitrary (possibly complex) degree


def hermite_fn(nu, z):
    """Hermite function H_nu(z) for arbitrary real or complex degree.

    For real nu and real z > 2 it is 2^nu U(-nu/2, 1/2, z^2).  Elsewhere it
    is evaluated from its two even/odd confluent pieces:

        H_nu = 2^nu sqrt(pi) [ M(-nu/2, 1/2, z^2) / gamma((1-nu)/2)
                               - 2 z M((1-nu)/2, 3/2, z^2) / gamma(-nu/2) ]

    For integer nu >= 0 one reciprocal gamma vanishes and the other piece
    terminates, reproducing the Hermite polynomials.  For z > 0 the two
    pieces cancel as z grows, which is why z > 2 takes the U form.
    """
    nu, z = _number(nu), _number(z)
    zz = z * z
    two_pow = (2.0, nu) if _is_real(nu) else (cmath.exp, nu * math.log(2.0))
    if _is_real(nu) and _is_real(z) and z > _HERMITE_U_ABOVE:
        parts = (hypU(-0.5 * nu, 0.5, zz),)
        value, factors = parts[0].value, (two_pow,)
    else:
        parts = e, o = hyp1f1(-0.5 * nu, 0.5, zz), hyp1f1(0.5 * (1.0 - nu), 1.5, zz)
        value = rgamma(0.5 * (1.0 - nu)) * e.value - 2.0 * z * rgamma(-0.5 * nu) * o.value
        factors = (two_pow, (math.pi, 0.5))
    terms_used, trunc = sum(p.terms_used for p in parts), max(p.truncation_estimate for p in parts)
    return _times_power(value, terms_used, trunc, factors, "H_{}({})", nu, z)


# ---------------------------------------------------------------------------
# z -> 1 regime classification for 2F1


def limit_2f1_at_1(a, b, c):
    """Classify 2F1(a,b;c;z) as z -> 1^- and return the scaling constant.

    Raises PoleAtNonPositiveInteger when c is a nonpositive integer, as
    hyp2f1 does.
    """
    if is_nonpositive_integer(c):
        raise PoleAtNonPositiveInteger(f"2F1 undefined at c = {c}")
    a, b, c = map(_number, (a, b, c))
    na, nb = _near_integer(a), _near_integer(b)
    if (na is not None and na <= 0) or (nb is not None and nb <= 0):
        # polynomial: finite by Chu-Vandermonde
        n = -na if (na is not None and na <= 0) else -nb
        other = b if (na is not None and na <= 0) else a
        return Limit2F1("finite", math.prod((c - other + k) / (c + k) for k in range(n)))

    def constant(*factors):
        return _times_power(1.0, 0, 0.0, factors, "2F1({}, {}; {}; 1) constant", a, b, c).value

    s = c - a - b
    sr = s.real
    if abs(sr) < _INT_TOL and abs(s.imag) < _INT_TOL:
        return Limit2F1("log", constant((gamma_fn, a + b), (rgamma, a), (rgamma, b)))
    finite = ((gamma_fn, c), (gamma_fn, s), (rgamma, c - a), (rgamma, c - b))
    if sr > _INT_TOL:
        return Limit2F1("finite", constant(*finite))
    osc_const = constant((gamma_fn, c), (gamma_fn, -s), (rgamma, a), (rgamma, b))
    if abs(sr) <= _INT_TOL:
        return Limit2F1("oscillatory", osc_const, constant(*finite))
    return Limit2F1("power", osc_const)


# ---------------------------------------------------------------------------
# Wronskian defects for the confluent solution pairs


def wronskian_defect(pair, a, c, z):
    """Deviation of the numerical Wronskian from its closed form.

    pair 'mm': {M*(a,c,z), z^(1-c) M*(a-c+1, 2-c, z)}, whose Wronskian is
    sin(pi c) z^-c e^z / pi.
    pair 'mu': {M*(a,c,z), U(a,c,z)}, whose Wronskian is -z^-c e^z / gamma(a).
    (M* denotes the regularized Kummer function.)

    The defect is |W_numeric - W_closed| / max(1, |W_closed|); the closed
    forms grow like e^z, so an unscaled difference would say nothing at
    moderate z.
    """
    a, c, z = map(_number, (a, c, z))
    y1 = hyp1f1_regularized(a, c, z).value
    d1 = hyp1f1_deriv_regularized(a, c, z).value
    if pair == "mm":
        m2 = hyp1f1_regularized(a - c + 1.0, 2.0 - c, z).value
        dm2 = hyp1f1_deriv_regularized(a - c + 1.0, 2.0 - c, z).value
        cc = complex(c)
        y2 = z ** (1.0 - cc) * m2
        d2 = (1.0 - cc) * z ** (-cc) * m2 + z ** (1.0 - cc) * dm2
        closed = cmath.sin(math.pi * cc) * z ** (-cc) * math.exp(z) / math.pi
    elif pair == "mu":
        y2 = hypU(a, c, z).value
        d2 = hypU_deriv(a, c, z).value
        closed = -(z ** (-complex(c))) * math.exp(z) * rgamma(a)
    else:
        raise ValueError(f"unknown Wronskian pair {pair!r}")
    w = y1 * d2 - d1 * y2
    return abs(w - closed) / max(1.0, abs(closed))
