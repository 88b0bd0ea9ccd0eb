"""Classical orthogonal polynomial solutions of the hypergeometric equation.

A reduced equation phi y'' + psi y' + lam y = 0 with decreasing psi is
affinely equivalent to exactly one of the three classical forms

    deg phi = 0:   y'' - 2u y' + lam_c y = 0          (Hermite)
    deg phi = 1:   u y'' + (alpha+1-u) y' + lam_c y = 0   (Laguerre)
    deg phi = 2:   (1-u^2) y'' + (beta-alpha-(alpha+beta+2)u) y' + lam_c y = 0
                                                      (Jacobi)

classify_canonical finds the affine map u = scale*x + shift together with
the eigenvalue rescaling lam_c = lam / lambda_scale.  What is particular to
each family is declared once, in its Family record (FAMILIES); every
function here is a family_record lookup plus one generic loop.  Polynomial
eigenfunctions are produced three independent ways, all in exact
arithmetic including surd-valued alpha, beta: series_poly runs the
canonical equation's own coefficient recurrence down from the
Nikiforov-Uvarov leading coefficient (O(n) operations for every family,
the route bound states take), rodrigues_poly differentiates the weight
product, and recurrence_poly runs the three-term recurrence, whose
operator-only step potentials.recurrence_values runs over float arrays.
norm_sq gives their weighted norms in closed form.  Nothing here loads
numpy; the quadrature checks of these polynomials live in oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DoubleRootUnsupported, ParameterOutOfRange
from .polynomials import (
    HALF_LINE,
    REAL_LINE,
    UNIT_INTERVAL,
    Interval,
    Polynomial,
    quad_discriminant,
    quad_roots,
)
from .scalars import as_exact, scalar_float, scalar_sign, sqrt_scalar


class Family(NamedTuple):
    """What is particular to one classical family (a NamedTuple: immutable,
    and cheaper to define at import than a frozen dataclass).

    Each callable takes the degree n (or the variable x) and then the
    family's weight exponents: none for Hermite, alpha for Laguerre, alpha
    and beta for Jacobi; exact for the polynomial data, floats for the
    norms.  equation and rodrigues_factor alone fix the eigenpolynomials
    (series_poly); eigen_lambda is their eigenvalue, declared so that the
    solve path does not build the equation per level.  The recurrence step
    only applies operators to x, so x may be Polynomial.x() or a float
    array.  growth(n, U, *floats) is a closed-form G with |A_k| + |C_k| <= G
    for every step P_(k+1) = A_k(x) P_k - C_k P_(k-1), 1 <= k < n, and
    |P_1| <= G, on |x| <= U; inf where no closed form is known.  Then no
    |P_k| with k <= n exceeds max(G, 1)^n, and potentials' float recurrence
    drops its overflow guard where that power lies far below the guard's
    threshold: the guard cannot fire there, so no float changes.
    log_x_norm_const is the norm under the wells' x-measure du/phi_c,
    exact as potentials derives phi = |tau'| (with u = s).
    """

    name: str
    interval: Interval
    arity: int  # how many of (alpha, beta) the family takes
    equation: object  # *exps -> (phi, psi) of the canonical equation
    eigen_lambda: object  # n, *exps -> lam_c = -n psi' - n(n-1) phi''/2
    rodrigues_factor: object  # n -> factor in front of the Rodrigues derivative
    recurrence: object  # x, *exps -> (P_1(x), step(k, P_k, P_(k-1)) = P_(k+1))
    growth: object  # n, U, *floats -> G bounding the recurrence's step on |x| <= U
    log_norm_sq: object  # n, *floats -> log of the integral of P_n^2 w du
    log_x_norm_const: object  # n, *floats -> -log of that integral in du/phi_c

    def exact(self, alpha, beta):
        return tuple(map(as_exact, self._exponents(alpha, beta)))

    def floats(self, alpha, beta):
        return tuple(map(scalar_float, self._exponents(alpha, beta)))

    def _exponents(self, alpha, beta):
        exps = (alpha, beta)[: self.arity]
        for label, value in zip(("alpha", "beta"), exps):
            if value is None:
                raise ValueError(f"{self.name} polynomials need the exponent {label}")
        return exps


def check_degree(n):
    """Raise ValueError for a negative polynomial degree."""
    if n < 0:
        raise ValueError("degree must be nonnegative")


def _hermite_recurrence(x):
    two_x = x + x  # 2x without an int scalar, which numpy handles slowly
    return two_x, lambda k, cur, prev: two_x * cur - 2 * k * prev


def _laguerre_recurrence(x, a):
    def step(k, cur, prev):
        return ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)

    return 1 + a - x, step


def _jacobi_recurrence(x, a, b):
    a2_b2 = a * a - b * b

    def step(k, cur, prev):
        s = 2 * k + a + b
        lead = (s + 1) * ((s + 2) * s * x + a2_b2)
        back = 2 * (k + a) * (k + b) * (s + 2)
        return (lead * cur - back * prev) / (2 * (k + 1) * (k + a + b + 1) * s)

    return ((a - b) + (a + b + 2) * x) / 2, step


# Growth bounds G >= |A_k| + |C_k| of the recurrence steps above, for
# 1 <= k < n and |x| <= U, that also bound |P_1|.  Hermite: 2|x| + 2k.
# Laguerre: (3k + 1 + 2|a| + U) / (k + 1).  Jacobi (a, b > -1, m = a + b):
# with p = |a| + |b| + 2 and q = min(1, (m + 2)/2), s + 1 and s + 2 are at
# most p (k + 1), k + m + 1 >= q (k + 1), s >= 2 q k, and
# (k + a)(k + b) <= (p k / 2)^2; as p >= 2 and p >= |m + 2|, the two terms
# also exceed the two of |P_1| <= (|m + 2| U + |a - b|) / 2.
def _hermite_growth(n, u_max):
    return 2 * u_max + 2 * n


def _laguerre_growth(n, u_max, a):
    return 3 + 2 * abs(a) + u_max


def _jacobi_growth(n, u_max, a, b):
    if not (a > -1 and b > -1):
        return math.inf
    p, m = abs(a) + abs(b) + 2, a + b
    q = min(1.0, (m + 2) / 2)
    return p * p * u_max / (2 * q) + p * (abs(a * a - b * b) + p * p) / (8 * q * q)


def _hermite_log_norm_sq(n):
    return n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)


def _laguerre_log_norm_sq(n, a):
    return math.lgamma(n + a + 1) - math.lgamma(n + 1)


def _jacobi_log_norm_sq(n, a, b):
    # (2n+a+b+1) Gamma(n+a+b+1), which is Gamma(a+b+2) at n = 0
    if n == 0:
        tail = math.lgamma(a + b + 2)
    else:
        tail = math.log(2 * n + a + b + 1) + math.lgamma(n + a + b + 1)
    return _laguerre_log_norm_sq(n, a) + (
        (a + b + 1) * math.log(2.0) + math.lgamma(n + b + 1) - tail
    )


FAMILIES = {rec.name: rec for rec in (
    Family(
        name="hermite",
        interval=REAL_LINE,
        arity=0,
        equation=lambda: (Polynomial.of(1), Polynomial.of(0, -2)),
        eigen_lambda=lambda n: Fraction(2 * n),
        rodrigues_factor=lambda n: Fraction((-1) ** n),
        recurrence=_hermite_recurrence,
        growth=_hermite_growth,
        log_norm_sq=_hermite_log_norm_sq,
        # phi_c = 1: the x-measure is the weighted one
        log_x_norm_const=lambda n: -_hermite_log_norm_sq(n),
    ),
    Family(
        name="laguerre",
        interval=HALF_LINE,
        arity=1,
        equation=lambda a: (Polynomial.x(), Polynomial.of(1 + a, -1)),
        eigen_lambda=lambda n, a: Fraction(n),
        rodrigues_factor=lambda n: Fraction(1, math.factorial(n)),
        recurrence=_laguerre_recurrence,
        growth=_laguerre_growth,
        log_norm_sq=_laguerre_log_norm_sq,
        # u^(alpha-1) e^-u: Gamma(n+alpha+1) / (n! alpha)
        log_x_norm_const=lambda n, a: math.log(a) + math.lgamma(n + 1) - math.lgamma(n + a + 1),
    ),
    Family(
        name="jacobi",
        interval=UNIT_INTERVAL,
        arity=2,
        equation=lambda a, b: (Polynomial.of(1, 0, -1), Polynomial.of(b - a, -(a + b + 2))),
        eigen_lambda=lambda n, a, b: n * (n + a + b + 1),
        rodrigues_factor=lambda n: Fraction((-1) ** n, 2**n * math.factorial(n)),
        recurrence=_jacobi_recurrence,
        growth=_jacobi_growth,
        log_norm_sq=_jacobi_log_norm_sq,
        # (1-u)^(alpha-1) (1+u)^(beta-1): 2^(alpha+beta-1) (1/alpha + 1/beta)
        # Gamma(n+alpha+1) Gamma(n+beta+1) / (n! Gamma(n+alpha+beta+1))
        log_x_norm_const=lambda n, a, b: (
            math.lgamma(n + 1) + math.lgamma(n + a + b + 1) - (a + b - 1) * math.log(2.0)
            - math.lgamma(n + a + 1) - math.lgamma(n + b + 1) - math.log(1.0 / a + 1.0 / b)
        ),
    ),
)}


def family_record(name):
    """The Family record of a family name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class CanonicalHde:
    family: str
    alpha: object
    beta: object
    scale: object
    shift: object
    lambda_scale: object

    def lambda_canonical(self, lam):
        return lam / self.lambda_scale

    def polynomial(self, n):
        """series_poly of degree n at u = scale*x + shift, expanded in x."""
        return series_poly(self.family, n, self.alpha, self.beta).compose_affine(
            self.scale, self.shift
        )


def _exact_or_float_sqrt(x):
    try:
        return sqrt_scalar(as_exact(x))
    except ValueError:
        return math.sqrt(scalar_float(x))


def classify_canonical(phi, psi):
    """Affine normalization of phi y'' + psi y' + lam y = 0.

    Raises DoubleRootUnsupported when phi is a quadratic with a repeated
    (or complex-pair) root, and ParameterOutOfRange when the equation
    cannot carry a positive integrable weight (wrong sign pattern, or a
    Laguerre/Jacobi exponent at or below -1).
    """
    if psi.degree != 1:
        raise ParameterOutOfRange("psi must be exactly linear")
    return canonical_frame(phi)(psi)


def canonical_frame(phi):
    """psi -> classify_canonical(phi, psi) for one phi: phi's roots, and the
    Jacobi scale and shift, are found once for every psi.  What
    classify_canonical raises for phi itself is raised here; the returned
    function raises what it raises for psi (psi must be linear)."""
    d = phi.degree
    if d is None:
        raise ParameterOutOfRange("phi must be nonzero")

    if d == 0:
        f0 = phi.coeff(0)

        def hermite(psi):
            psi1 = psi.coeff(1)
            ratio = -psi1 / (2 * f0)
            if scalar_sign(ratio) <= 0:
                raise ParameterOutOfRange("psi must decrease against constant phi")
            sigma = _exact_or_float_sqrt(ratio)
            shift = sigma * psi.coeff(0) / psi1
            return CanonicalHde("hermite", None, None, sigma, shift, -psi1 / 2)

        return hermite

    if d == 1:
        f1 = phi.coeff(1)
        s0 = quad_roots(phi)[0]

        def laguerre(psi):
            psi1 = psi.coeff(1)
            sigma = -psi1 / f1
            alpha = psi(s0) / f1 - 1
            if scalar_sign(alpha + 1) <= 0:
                raise ParameterOutOfRange(f"Laguerre exponent {alpha!r} is <= -1")
            return CanonicalHde("laguerre", alpha, None, sigma, -sigma * s0, -psi1)

        return laguerre

    if scalar_sign(quad_discriminant(phi)) <= 0:
        raise DoubleRootUnsupported(
            "quadratic phi needs two distinct real roots"
        )
    f2 = phi.coeff(2)
    if scalar_sign(f2) >= 0:
        raise ParameterOutOfRange(
            "quadratic phi must open downward to carry a weight between its roots"
        )
    r1, r2 = quad_roots(phi)
    span = r2 - r1
    sigma = 2 / as_exact(span) if not isinstance(span, float) else 2.0 / span
    shift = -(r1 + r2) / span
    kk = -f2

    def jacobi(psi):
        alpha = -1 - sigma * psi(r2) / (2 * kk)
        beta = sigma * psi(r1) / (2 * kk) - 1
        if scalar_sign(alpha + 1) <= 0 or scalar_sign(beta + 1) <= 0:
            raise ParameterOutOfRange(
                f"Jacobi exponents ({alpha!r}, {beta!r}) must exceed -1"
            )
        return CanonicalHde("jacobi", alpha, beta, sigma, shift, kk)

    return jacobi


def eigen_lambda(family, n, alpha=None, beta=None):
    """Eigenvalue of the canonical equation with a degree-n polynomial
    solution, exact in the parameters."""
    check_degree(n)
    rec = family_record(family)
    return rec.eigen_lambda(n, *rec.exact(alpha, beta))


def rodrigues_poly(family, n, alpha=None, beta=None):
    """Degree-n eigenpolynomial via the differentiated weight product.

    The n-th derivative of phi^n * w is developed factor by factor so the
    weight never has to be represented explicitly; everything stays in
    exact arithmetic.
    """
    check_degree(n)
    rec = family_record(family)
    phi, psi = rec.equation(*rec.exact(alpha, beta))
    dphi = phi.derivative()
    q = Polynomial.of(1)
    for k in range(n):
        q = (psi + (n - k - 1) * dphi) * q + phi * q.derivative()
    return rec.rodrigues_factor(n) * q


def series_poly(family, n, alpha=None, beta=None):
    """Degree-n eigenpolynomial in u from the family's canonical equation.

    With phi = f0 + f1 u + f2 u^2 and psi = g0 + g1 u, matching powers of u
    in phi P'' + psi P' + lam_n P = 0 gives for the coefficients c_k

        d_k c_k = -(k+1)(f1 k + g0) c_(k+1) - f0 (k+2)(k+1) c_(k+2),

    d_k = lam_n - lam_k = (n-k)(-g1 - (n+k-1) f2), and the Rodrigues factor
    B_n fixes c_n = B_n prod_(k<n) (g1 + (n+k-1) f2) (Nikiforov-Uvarov).
    Written as c_k = e_k d_0 ... d_(k-1) the recurrence needs no division,

        e_k = -(k+1)(f1 k + g0) e_(k+1) - f0 (k+2)(k+1) d_(k+1) e_(k+2),

    from e_n = (-1)^n B_n / n!: O(n) exact products for every family, and
    no surd is ever inverted.  The result equals rodrigues_poly exactly.  ParameterOutOfRange where some d_k = 0: a Jacobi
    alpha + beta <= -2, at which c_n vanishes as well.
    """
    check_degree(n)
    rec = family_record(family)
    exps = rec.exact(alpha, beta)
    phi, psi = rec.equation(*exps)
    f0, f1, f2 = phi.coeff(0), phi.coeff(1), phi.coeff(2)
    g0, g1 = psi.coeff(0), psi.coeff(1)
    gaps = [(n - k) * (-g1 - (n + k - 1) * f2) for k in range(n)]
    if 0 in gaps:
        raise ParameterOutOfRange(
            f"{family} exponents {exps} fix no degree-{n} polynomial: "
            f"lam_{gaps.index(0)} = lam_{n}"
        )
    gaps.append(Fraction(0))  # multiplies e_(n+1) = 0
    e = [Fraction(0)] * (n + 2)
    e[n] = rec.rodrigues_factor(n) * Fraction((-1) ** n, math.factorial(n))
    for k in range(n - 1, -1, -1):
        e[k] = -(k + 1) * (f1 * k + g0) * e[k + 1] - (
            f0 * (k + 2) * (k + 1) * gaps[k + 1] * e[k + 2]
        )
    coeffs, below = [], Fraction(1)
    for k in range(n + 1):
        coeffs.append(e[k] * below)
        below = below * gaps[k]
    return Polynomial(coeffs)


def recurrence_poly(family, n, alpha=None, beta=None):
    """Same polynomial through the three-term recurrence; serves as an
    independent route for cross-checking rodrigues_poly."""
    check_degree(n)
    rec = family_record(family)
    exps = rec.exact(alpha, beta)
    prev = Polynomial.of(1)
    if n == 0:
        return prev
    cur, step = rec.recurrence(Polynomial.x(), *exps)
    for k in range(1, n):
        prev, cur = cur, step(k, cur, prev)
    return cur


def norm_sq(family, n, alpha=None, beta=None):
    """Squared weighted L2 norm of the degree-n polynomial (float).

    Summed as a logarithm from math.lgamma, so no factorial or gamma value
    on the way has to fit in a float.  ParameterOutOfRange when the norm
    itself is not a finite float: it overflows, or a weight exponent at or
    below -1 makes the integral diverge.
    """
    check_degree(n)
    rec = family_record(family)
    exps = rec.floats(alpha, beta)
    if any(not e > -1 for e in exps):
        raise ParameterOutOfRange(f"{family} exponents {exps} must exceed -1")
    log_v = rec.log_norm_sq(n, *exps)
    try:
        value = math.exp(log_v)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ParameterOutOfRange(
            f"{family} norm of degree {n} is not a finite float (log {log_v:.6g})"
        )
    return value
