"""Dense univariate polynomials over the exact scalar tower.

Coefficients are stored ascending (index = power) and may be Fractions,
SurdSums, floats or complex numbers; exact inputs give exact results, a
float anywhere contaminates downstream coefficients to float.  The zero
polynomial has ``degree is None`` rather than a negative number, so degree
arithmetic can never silently go negative.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeTooHigh, NotPolynomialRoot
from .scalars import SurdSum, scalar_is_zero, scalar_sign, sqrt_scalar


class Polynomial:
    """Immutable dense polynomial, coefficients ascending.

    Integer coefficients are lifted to Fraction on construction so that
    scalar division inside root extraction stays exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while cs and scalar_is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(*coeffs):
        return Polynomial(coeffs)

    @staticmethod
    def constant(c):
        return Polynomial((c,))

    @staticmethod
    def x():
        return Polynomial((Fraction(0), Fraction(1)))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        """Coefficient of x**k (zero beyond the stored length)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations -----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float, complex, Fraction, SurdSum)):
            return Polynomial((other,))
        return None

    def __add__(self, other):
        p = self._lift(other)
        if p is None:
            return NotImplemented
        n = max(len(self.coeffs), len(p.coeffs))
        return Polynomial(tuple(self.coeff(i) + p.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        p = self._lift(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._lift(other)
        if p is None:
            return NotImplemented
        if self.is_zero or p.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(p.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(p.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, d):
        """Division by a scalar; a surd is inverted once, not per coefficient."""
        if isinstance(d, SurdSum):
            return self * d.inverse()
        return Polynomial(tuple(c / d for c in self.coeffs))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Polynomial((Fraction(1),))
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        p = self._lift(other)
        if p is None:
            return NotImplemented
        if len(self.coeffs) != len(p.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, p.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def antiderivative(self):
        """Antiderivative with zero constant term (exact division by k+1)."""
        out = [Fraction(0)]
        for k, c in enumerate(self.coeffs):
            out.append(c / (k + 1))
        return Polynomial(tuple(out))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for exact scalars, floats, complex and arrays."""
        if not self.coeffs:
            return Fraction(0) if isinstance(x, (int, Fraction, SurdSum)) else 0 * x
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def as_float(self):
        """Copy with coefficients converted to float (complex stays complex)."""
        return Polynomial(
            tuple(c if isinstance(c, complex) else float(c) for c in self.coeffs)
        )

    def compose_affine(self, a, b):
        """p(a*x + b) expanded, exact when a, b and coefficients are exact.

        With b = 0 this is the O(n) scaling of coefficient k by a**k;
        otherwise Horner's scheme in the coefficient lists, O(n^2).
        """
        if scalar_is_zero(b):
            out, power = [], Fraction(1)
            for c in self.coeffs:
                out.append(c * power)
                power = power * a
            return Polynomial(out)
        acc = []
        for c in reversed(self.coeffs):
            # acc <- acc * (a x + b) + c
            nxt = [v * b for v in acc] + [Fraction(0)]
            for k, v in enumerate(acc):
                nxt[k + 1] = nxt[k + 1] + v * a
            nxt[0] = nxt[0] + c
            acc = nxt
        return Polynomial(acc)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if scalar_is_zero(c):
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return " + ".join(parts)


def quad_discriminant(p):
    """Discriminant b^2 - 4ac of a polynomial of degree <= 2.

    For degree <= 1 the quadratic term is absent and this degenerates to
    b^2, so a vanishing discriminant still means "has a double/perfect-square
    structure" for the square-root extraction downstream.  Degree > 2 raises
    DegreeTooHigh.
    """
    if p.degree is not None and p.degree > 2:
        raise DegreeTooHigh(f"discriminant needs degree <= 2, got {p.degree}")
    a, b, c = p.coeff(2), p.coeff(1), p.coeff(0)
    if scalar_is_zero(a):
        return b * b
    return b * b - 4 * a * c


def quad_roots(p):
    """Exact roots of a degree-1 or degree-2 polynomial.

    Returns a list with one entry for linear input and two (possibly equal)
    entries for quadratic input, kept in the surd field.  Degree 0 or the
    zero polynomial raises NotPolynomialRoot; degree > 2 raises DegreeTooHigh.
    Complex roots (negative discriminant) raise ValueError.
    """
    d = p.degree
    if d is None or d == 0:
        raise NotPolynomialRoot("constant polynomial has no roots")
    if d > 2:
        raise DegreeTooHigh(f"root extraction needs degree <= 2, got {d}")
    if d == 1:
        b, c = p.coeff(1), p.coeff(0)
        return [-c / b]
    a, b, c = p.coeff(2), p.coeff(1), p.coeff(0)
    disc = b * b - 4 * a * c
    if scalar_sign(disc) < 0:
        raise ValueError("negative discriminant: roots leave the real field")
    r = sqrt_scalar(disc)
    # r >= 0, so (-b - r) / 2a <= (-b + r) / 2a exactly when a > 0
    lo, hi = -b - r, -b + r
    if scalar_sign(a) < 0:
        lo, hi = hi, lo
    two_a = 2 * a
    return [lo / two_a, hi / two_a]


def _below(a, b):
    """a < b through scalar_sign; where a float takes part (an infinite
    endpoint, or a float x) Python's own comparison, which orders a
    Fraction against a float exactly."""
    if isinstance(a, float) or isinstance(b, float):
        return a < b
    return scalar_sign(b - a) > 0


def _same(a, b):
    """a == b, decided as _below decides a < b."""
    if isinstance(a, float) or isinstance(b, float):
        return a == b
    return scalar_sign(b - a) == 0


class Interval:
    """Open interval with optionally infinite endpoints.  Finite endpoints
    are exact; order and equality are decided in the surd field, and a
    float only enters through an infinite endpoint."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        if not _below(lo, hi):
            raise ValueError("interval endpoints out of order")

    def contains(self, x):
        """lo < x < hi, decided exactly unless a float takes part (an
        infinite endpoint, or a float x)."""
        return _below(self.lo, x) and _below(x, self.hi)

    @property
    def hi_finite(self):
        return not isinstance(self.hi, float) or math.isfinite(self.hi)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return _same(self.lo, other.lo) and _same(self.hi, other.hi)

    def __hash__(self):
        # equal ints, Fractions and floats hash alike, and an exact endpoint
        # has one canonical form
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"({self.lo}, {self.hi})"


REAL_LINE = Interval(-math.inf, math.inf)
HALF_LINE = Interval(0, math.inf)
UNIT_INTERVAL = Interval(-1, 1)
