"""Classical orthogonal polynomial solutions of the hypergeometric equation.

A reduced equation phi y'' + psi y' + lam y = 0 with decreasing psi is
affinely equivalent to exactly one of the three classical forms

    deg phi = 0:   y'' - 2u y' + lam_c y = 0          (Hermite)
    deg phi = 1:   u y'' + (alpha+1-u) y' + lam_c y = 0   (Laguerre)
    deg phi = 2:   (1-u^2) y'' + (beta-alpha-(alpha+beta+2)u) y' + lam_c y = 0
                                                      (Jacobi)

classify_canonical finds the affine map u = scale*x + shift together with
the eigenvalue rescaling lam_c = lam / lambda_scale.  Polynomial
eigenfunctions are produced three independent ways, all in exact
arithmetic including surd-valued alpha, beta: the terminating
hypergeometric series (series_poly, O(n) operations for Hermite and
Laguerre, the route bound states take), a differentiated Rodrigues product
(rodrigues_poly) and the three-term recurrence (recurrence_poly).
norm_sq gives their weighted norms in closed form.  Everything here is
exact or plain float arithmetic: the float recurrence the samplers run
lives in potentials, and the quadrature checks of these polynomials in
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

@dataclass(frozen=True)
class CanonicalHde:
    family: str
    alpha: object
    beta: object
    scale: object
    shift: object
    lambda_scale: object
    interval: Interval

    def to_canonical(self, x):
        return self.scale * x + self.shift

    def lambda_canonical(self, lam):
        return lam / self.lambda_scale

    def polynomial(self, n):
        """series_poly of degree n at u = scale*x + shift, expanded in x.

        Jacobi goes from its series in t = (1-u)/2 straight to x with one
        O(n^2) composition, t = (1-shift)/2 - (scale/2) x, instead of
        passing through u."""
        if self.family == "jacobi":
            return _jacobi_series_in_t(n, self.alpha, self.beta).compose_affine(
                -self.scale / 2, (1 - self.shift) / 2
            )
        poly_u = series_poly(self.family, n, self.alpha, self.beta)
        return poly_u.compose_affine(self.scale, self.shift)


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
    psi1 = psi.coeff(1)
    d = phi.degree
    if d is None:
        raise ParameterOutOfRange("phi must be nonzero")

    if d == 0:
        ratio = -psi1 / (2 * phi.coeff(0))
        if scalar_sign(ratio) <= 0:
            raise ParameterOutOfRange("psi must decrease against constant phi")
        sigma = _exact_or_float_sqrt(ratio)
        shift = sigma * psi.coeff(0) / psi1
        return CanonicalHde(
            "hermite", None, None, sigma, shift, -psi1 / 2, REAL_LINE
        )

    if d == 1:
        f1 = phi.coeff(1)
        s0 = quad_roots(phi)[0]
        sigma = -psi1 / f1
        alpha = psi(s0) / f1 - 1
        if scalar_sign(alpha + 1) <= 0:
            raise ParameterOutOfRange(f"Laguerre exponent {alpha!r} is <= -1")
        return CanonicalHde(
            "laguerre", alpha, None, sigma, -sigma * s0, -psi1, HALF_LINE
        )

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
    alpha = -1 - sigma * psi(r2) / (2 * kk)
    beta = sigma * psi(r1) / (2 * kk) - 1
    if scalar_sign(alpha + 1) <= 0 or scalar_sign(beta + 1) <= 0:
        raise ParameterOutOfRange(
            f"Jacobi exponents ({alpha!r}, {beta!r}) must exceed -1"
        )
    return CanonicalHde("jacobi", alpha, beta, sigma, shift, kk, UNIT_INTERVAL)


def _family_eq(family, alpha, beta):
    if family == "hermite":
        return Polynomial.of(1), Polynomial.of(0, -2)
    if family == "laguerre":
        return Polynomial.x(), Polynomial.of(1 + as_exact(alpha), -1)
    if family == "jacobi":
        a, b = as_exact(alpha), as_exact(beta)
        return Polynomial.of(1, 0, -1), Polynomial.of(b - a, -(a + b + 2))
    raise ValueError(f"unknown family {family!r}")


def eigen_lambda(family, n, alpha=None, beta=None):
    """Eigenvalue of the canonical equation with a degree-n polynomial
    solution, exact in the parameters."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if family == "hermite":
        return Fraction(2 * n)
    if family == "laguerre":
        return Fraction(n)
    if family == "jacobi":
        return n * (n + as_exact(alpha) + as_exact(beta) + 1)
    raise ValueError(f"unknown family {family!r}")


def _leading_norm(family, n, alpha, beta):
    if family == "hermite":
        return Fraction((-1) ** n)
    if family == "laguerre":
        return Fraction(1, math.factorial(n))
    return Fraction((-1) ** n, 2**n * math.factorial(n))


def rodrigues_poly(family, n, alpha=None, beta=None):
    """Degree-n eigenpolynomial via the differentiated weight product.

    The n-th derivative of phi^n * w is developed factor by factor so the
    weight never has to be represented explicitly; everything stays in
    exact arithmetic.
    """
    phi, psi = _family_eq(family, alpha, beta)
    dphi = phi.derivative()
    q = Polynomial.of(1)
    for k in range(n):
        q = (psi + (n - k - 1) * dphi) * q + phi * q.derivative()
    return _leading_norm(family, n, alpha, beta) * q


def series_poly(family, n, alpha=None, beta=None):
    """Degree-n eigenpolynomial from its terminating hypergeometric series.

    Neighbouring coefficients differ by the series' term ratio, so Hermite
    and Laguerre cost O(n) exact operations.  Jacobi is the 2F1 series in
    t = (1-u)/2, built from running Pochhammer products so that no surd is
    ever inverted, followed by one compose_affine back to u.  The result
    equals rodrigues_poly exactly.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if family == "hermite":
        # H_n = sum_m (-1)^m n! / (m! (n-2m)!) (2u)^(n-2m)
        coeffs = [Fraction(0)] * (n + 1)
        c = Fraction(2**n)
        for m in range(n // 2 + 1):
            k = n - 2 * m
            coeffs[k] = c
            c = c * Fraction(-k * (k - 1), 4 * (m + 1))
        return Polynomial(coeffs)
    if family == "laguerre":
        # from the top: c_n = (-1)^n / n!, c_{k-1} = -c_k k (alpha+k) / (n-k+1)
        a = as_exact(alpha)
        coeffs = [Fraction(0)] * (n + 1)
        c = Fraction((-1) ** n, math.factorial(n))
        for k in range(n, 0, -1):
            coeffs[k] = c
            c = c * (a + k) * Fraction(-k, n - k + 1)
        coeffs[0] = c
        return Polynomial(coeffs)
    if family == "jacobi":
        return _jacobi_series_in_t(n, alpha, beta).compose_affine(
            Fraction(-1, 2), Fraction(1, 2)
        )
    raise ValueError(f"unknown family {family!r}")


def _jacobi_series_in_t(n, alpha, beta):
    """P_n^(alpha, beta) as a polynomial in t = (1-u)/2: the coefficients
    d_k = (alpha+k+1)_(n-k) (-n)_k (n+alpha+beta+1)_k / (n! k!)."""
    a, b = as_exact(alpha), as_exact(beta)
    upper = [Fraction(1)] * (n + 1)
    for k in range(n, 0, -1):
        upper[k - 1] = upper[k] * (a + k)
    coeffs, lower, denom = [], Fraction(1), math.factorial(n)
    for k in range(n + 1):
        coeffs.append(upper[k] * lower * Fraction(1, denom))
        lower = lower * (k - n) * (n + a + b + 1 + k)
        denom *= k + 1
    return Polynomial(coeffs)


def recurrence_poly(family, n, alpha=None, beta=None):
    """Same polynomial through the three-term recurrence; serves as an
    independent route for cross-checking rodrigues_poly."""
    x = Polynomial.x()
    one = Polynomial.of(1)
    if n == 0:
        return one
    if family == "hermite":
        prev, cur = one, 2 * x
        for m in range(1, n):
            prev, cur = cur, 2 * x * cur - 2 * m * prev
        return cur
    if family == "laguerre":
        a = as_exact(alpha)
        prev, cur = one, Polynomial.of(1 + a, -1)
        for m in range(1, n):
            nxt = (Polynomial.of(2 * m + 1 + a, -1) * cur - (m + a) * prev) * Fraction(
                1, m + 1
            )
            prev, cur = cur, nxt
        return cur
    if family == "jacobi":
        a, b = as_exact(alpha), as_exact(beta)
        prev = one
        cur = Polynomial.of((a - b) / 2, (a + b + 2) / 2)
        for m in range(1, n):
            s = 2 * m + a + b
            lead = Polynomial.of(a * a - b * b, s * (s + 2)) * (s + 1)
            rhs = lead * cur - (2 * (m + a) * (m + b) * (s + 2)) * prev
            denom = 2 * (m + 1) * (m + a + b + 1) * s
            nxt = rhs * (1 / as_exact(denom))
            prev, cur = cur, nxt
        return cur
    raise ValueError(f"unknown family {family!r}")


def norm_sq(family, n, alpha=None, beta=None):
    """Squared weighted L2 norm of the degree-n polynomial (float).

    Summed as a logarithm from math.lgamma, so no factorial or gamma value
    on the way has to fit in a float.  ParameterOutOfRange when the norm
    itself is not a finite float: it overflows, or a weight exponent at or
    below -1 makes the integral diverge.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if family == "hermite":
        log_v = n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)
    elif family in ("laguerre", "jacobi"):
        exps = (alpha,) if family == "laguerre" else (alpha, beta)
        if any(not scalar_float(e) > -1 for e in exps):
            raise ParameterOutOfRange(
                f"{family} exponents {', '.join(map(str, exps))} must exceed -1"
            )
        a = scalar_float(alpha)
        log_v = math.lgamma(n + a + 1) - math.lgamma(n + 1)
        if family == "jacobi":
            b = scalar_float(beta)
            # (2n+a+b+1) Gamma(n+a+b+1), which is Gamma(a+b+2) at n = 0
            if n == 0:
                tail = math.lgamma(a + b + 2)
            else:
                tail = math.log(2 * n + a + b + 1) + math.lgamma(n + a + b + 1)
            log_v += (a + b + 1) * math.log(2.0) + math.lgamma(n + b + 1) - tail
    else:
        raise ValueError(f"unknown family {family!r}")
    try:
        value = math.exp(log_v)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ParameterOutOfRange(
            f"{family} norm of degree {n} is not a finite float (log {log_v:.6g})"
        )
    return value
