"""Exact scalar arithmetic over rationals extended by square roots.

The reduction pipeline needs to square-root discriminants and keep the
results exact, so plain ``fractions.Fraction`` is not enough.  ``SurdSum``
represents a finite sum

    q_1 * sqrt(d_1) + q_2 * sqrt(d_2) + ...

with rational coefficients ``q_i`` and positive integer radicands ``d_i``
(``d = 1`` is the rational part).  Radicands are canonicalized by pulling
out square factors, so arithmetic closes over a small, consistent set of
radicals.  Sums, products and exact division all stay in the field; division
by one radical uses the conjugate, and by several works by closing the
radicand set multiplicatively and solving a small rational linear system,
which avoids any reliance on integer factorization.

The coefficients share one denominator: a SurdSum stores an integer
numerator per radicand over one positive denominator, in lowest terms.
Sums, products, scaling and the one-radical inverse run on those ints with
one gcd per result instead of one Fraction per coefficient, equality
compares an int and a dict, and the exact sign and accurate_float bracket
the numerators over the stored denominator.  The public views (terms(),
repr, float(), hash) are those of the reduced Fraction of each radicand.

Floats passed into the algebra contaminate: the result degrades to float.
Exactness is preserved by rationalizing inputs (``Fraction(x)`` on a float
is exact) before doing algebra, which is what the callers in this package do.

Radicand canonicalization is complete for square factors with a prime
divisor below the trial-division bound and for full perfect squares of any
size.  A rational whose numerator hides the square of a large prime keeps
that square inside the radicand; representations stay self-consistent, just
not maximally reduced.

Signs and order (scalar_sign, the SurdSum comparisons against exact values)
are decided exactly: the float value decides only when it clears a bound
on its own rounding error, and integer brackets of the radicals decide the
rest.  A zero that a hidden square spreads over two radicand keys has no
decidable sign and raises ArithmeticError.
"""

from __future__ import annotations

import math
from fractions import Fraction

_TRIAL_BOUND = 1000


def _small_primes(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


_PRIMES = _small_primes(_TRIAL_BOUND)


def _square_free(n):
    """Split positive integer n into (outside, core) with n = outside^2 * core.

    core is squarefree with respect to all primes up to the trial bound and
    is never itself a perfect square.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    out = 1
    for p in _PRIMES:
        pp = p * p
        if pp > n:
            break
        while n % pp == 0:
            n //= pp
            out *= p
    r = math.isqrt(n)
    if r * r == n:
        out *= r
        n = 1
    return out, n


def _sqrt_int_float(n):
    """Float square root of a positive int, safe for huge values."""
    if n.bit_length() <= 1000:
        return math.sqrt(n)
    k = (n.bit_length() - 900) // 2
    return math.sqrt(n >> (2 * k)) * (2.0**k)


def _core_product(d1, d2):
    """sqrt(d1) * sqrt(d2) = mult * sqrt(core); returns (mult, core).

    d1 and d2 are canonical radicands: neither holds the square of a prime
    below the trial bound.  With g = gcd(d1, d2) the cofactors d1/g and d2/g
    are coprime, so each such prime divides their product at most once and
    trial division would find nothing; the perfect-square test alone gives
    what _square_free gives.
    """
    if d1 == d2:
        return d1, 1
    g = math.gcd(d1, d2)
    m = (d1 // g) * (d2 // g)
    r = math.isqrt(m)
    if r * r == m:
        return g * r, 1
    return g, m


def _over_lcm(t):
    """(numerators, lcm) of the Fractions t over the lcm of their
    denominators.  No prime divides that lcm and every numerator, so the
    pair is already in lowest terms."""
    d = math.lcm(*(q.denominator for q in t.values()))
    return {core: q.numerator * (d // q.denominator) for core, q in t.items()}, d


def sqrt_fraction(q):
    """Exact square root of a nonnegative Fraction/int.

    Returns a Fraction when the input is a perfect square, otherwise a
    SurdSum with a single radical term.  Raises ValueError on negatives.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Fraction(0)
    # sqrt(p/r) = sqrt(p*r) / r
    m = q.numerator * q.denominator
    out, core = _square_free(m)
    if core == 1:
        return Fraction(out, q.denominator)
    g = math.gcd(out, q.denominator)
    return SurdSum._raw({core: out // g}, q.denominator // g)


class SurdSum:
    """A rational linear combination of square roots of positive integers.

    Immutable.  Instances always contain at least one irrational term;
    arithmetic that collapses to a rational returns a plain Fraction.

    Stored as integer numerators, one per radicand in the order the terms
    arose, over one positive common denominator, in lowest terms: no prime
    divides the denominator and every numerator.  That form is canonical,
    so equal values with equal radicand keys store equal ints, and every
    operation runs on ints with one gcd per result.  terms() gives the
    reduced Fraction of each radicand.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, terms):
        # each radicand k = out^2 core folds out into its coefficient, and
        # equal cores merge, in the order they first appear
        t = {}
        for k, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff:
                out, core = _square_free(k)
                t[core] = t.get(core, 0) + out * coeff
        t = {core: coeff for core, coeff in t.items() if coeff}
        if not any(core != 1 for core in t):
            raise ValueError("SurdSum must carry an irrational term; use Fraction")
        self._n, self._d = _over_lcm(t)

    @classmethod
    def _raw(cls, n, d):
        """Wrap the numerators n over the denominator d as they stand:
        canonical radicands mapped to nonzero ints, at least one of them
        irrational, over d > 0 in lowest terms.  The arithmetic below builds
        its results in that form, so they skip the checks of the public
        constructor."""
        obj = object.__new__(cls)
        obj._n = n
        obj._d = d
        return obj

    @staticmethod
    def _reduced(n, d):
        """The value of the numerators n over d > 0, in lowest terms: a
        SurdSum, or a Fraction if all radicals cancel."""
        if 0 in n.values():
            n = {core: v for core, v in n.items() if v}
            if not n:
                return Fraction(0)
        if len(n) == 1 and 1 in n:
            return Fraction(n[1], d)
        g = math.gcd(d, *n.values())
        if g != 1:
            n = {core: v // g for core, v in n.items()}
            d //= g
        return SurdSum._raw(n, d)

    # -- views ---------------------------------------------------------

    def terms(self):
        d = self._d
        return {core: Fraction(v, d) for core, v in self._n.items()}

    def __float__(self):
        # v / d rounds correctly, as float() of the term's Fraction does
        d = self._d
        total = 0.0
        for core, v in self._n.items():
            total += v / d * (1.0 if core == 1 else _sqrt_int_float(core))
        return total

    def __complex__(self):
        return complex(float(self))

    # -- ring operations -------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other for an int, Fraction or SurdSum other, over
        the lcm of the two denominators."""
        d = self._d
        if isinstance(other, SurdSum):
            n2, d2 = other._n, other._d
        elif other.denominator == 1:
            # n_1 + p d shares with d what n_1 does, so no gcd is needed
            n = dict(self._n)
            v = n.get(1, 0) + sign * other.numerator * d
            if v:
                n[1] = v
            else:
                n.pop(1, None)
            return SurdSum._raw(n, d)
        else:
            n2, d2 = {1: other.numerator}, other.denominator
        g = math.gcd(d, d2)
        s1, s2 = d2 // g, sign * (d // g)
        n = {core: v * s1 for core, v in self._n.items()}
        for core, v in n2.items():
            n[core] = n.get(core, 0) + v * s2
        return SurdSum._reduced(n, d * s1)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, SurdSum)):
            return self._plus(other, 1)
        if isinstance(other, float):
            return float(self) + other
        if isinstance(other, complex):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return SurdSum._raw({c: -v for c, v in self._n.items()}, self._d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, SurdSum)):
            return self._plus(other, -1)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, p, q):
        """self * p / q for coprime ints p and q > 0.  With g = gcd(p, d) and
        h = gcd(q, numerators) divided out, the result is in lowest terms."""
        if not p:
            return Fraction(0)
        n, d = self._n, self._d
        g = math.gcd(p, d)
        h = math.gcd(q, *n.values()) if q != 1 else 1
        p //= g
        return SurdSum._raw({core: v // h * p for core, v in n.items()}, d // g * (q // h))

    def _times(self, other):
        """The numerators and denominator of self * other, not reduced."""
        n = {}
        for d1, q1 in self._n.items():
            for d2, q2 in other._n.items():
                mult, core = _core_product(d1, d2)
                n[core] = n.get(core, 0) + q1 * q2 * mult
        return n, self._d * other._d

    def __mul__(self, other):
        if isinstance(other, SurdSum):
            return SurdSum._reduced(*self._times(other))
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if isinstance(other, float):
            return float(self) * other
        if isinstance(other, complex):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Fraction(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Exact multiplicative inverse.

        With one radical, 1/(a + b sqrt(c)) = (a - b sqrt(c)) / (a^2 - b^2 c),
        which over the numerators a, b and the denominator d is
        d (a - b sqrt(c)) / (a^2 - b^2 c); with more, closes the radicand
        set under products and solves Y * X = 1 as a rational linear system
        over that basis.
        """
        n, d = self._n, self._d
        cores = sorted(n)
        if len(cores) == 1 or (len(cores) == 2 and cores[0] == 1):
            c = cores[-1]
            a, b = n.get(1, 0), n[c]
            norm = a * a - b * b * c  # nonzero: a core is never a perfect square
            if norm < 0:
                norm, d = -norm, -d
            inv = SurdSum._reduced({1: a * d, c: -b * d}, norm)
            prod, den = self._times(inv)
            one = prod.pop(1, 0) == den and not any(prod.values())
        else:
            inv = self._basis_inverse()
            one = self * inv == 1
        if not one:
            raise ArithmeticError("inverse verification failed")
        return inv

    def _basis_inverse(self):
        t = self.terms()
        basis = set(t) | {1}
        changed = True
        while changed:
            changed = False
            for d1 in list(basis):
                for d2 in list(basis):
                    _, core = _core_product(d1, d2)
                    if core not in basis:
                        basis.add(core)
                        changed = True
            if len(basis) > 16:
                raise ArithmeticError("radical basis too large to invert")
        blist = sorted(basis)
        index = {d: i for i, d in enumerate(blist)}
        n = len(blist)
        # column j holds self * sqrt(blist[j]) expanded over the basis
        mat = [[Fraction(0)] * n for _ in range(n)]
        for d1, q1 in t.items():
            for j, d2 in enumerate(blist):
                mult, core = _core_product(d1, d2)
                mat[index[core]][j] += q1 * mult
        rhs = [Fraction(0)] * n
        rhs[index[1]] = Fraction(1)
        x = _solve_fraction_system(mat, rhs)
        return SurdSum._reduced(*_over_lcm({blist[j]: x[j] for j in range(n)}))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p == 0:
                raise ZeroDivisionError("division by zero")
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        if isinstance(other, SurdSum):
            return self * other.inverse()
        if isinstance(other, float):
            return float(self) / other
        if isinstance(other, complex):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        if isinstance(other, float):
            return other / float(self)
        if isinstance(other, complex):
            return other / complex(self)
        return NotImplemented

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SurdSum):
            return self._d == other._d and self._n == other._n
        if isinstance(other, (int, Fraction)):
            return False  # invariant: never purely rational
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms().items())))

    def __abs__(self):
        return self if _surd_sign(self) > 0 else -self

    def __bool__(self):
        return True  # never the zero element

    def _versus(self, other):
        """A pair that orders as self and other do: the exact sign of
        self - other against 0 when other is exact, else the floats."""
        if isinstance(other, (int, Fraction, SurdSum)):
            return scalar_sign(self - other), 0
        return float(self), other

    def __lt__(self, other):
        a, b = self._versus(other)
        return a < b

    def __le__(self, other):
        a, b = self._versus(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._versus(other)
        return a > b

    def __ge__(self, other):
        a, b = self._versus(other)
        return a >= b

    # -- display ---------------------------------------------------------

    def __repr__(self):
        parts = []
        for core in sorted(self._n):
            q = Fraction(self._n[core], self._d)
            if core == 1:
                s = str(q)
            elif q == 1:
                s = f"sqrt({core})"
            elif q == -1:
                s = f"-sqrt({core})"
            else:
                s = f"{q}*sqrt({core})"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _solve_fraction_system(mat, rhs):
    """Gaussian elimination over Fractions.  mat is modified in place."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular radical system (dividing by zero?)")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# -- generic scalar helpers (Fraction | SurdSum | float | complex) --------


def scalar_float(x):
    if isinstance(x, complex):
        return x
    return float(x)


def scalar_is_zero(x):
    return x == 0


def scalar_sign(x):
    """Sign of an exact or float scalar: -1, 0, or 1.  Exact for Fractions
    and SurdSums, whatever their float value rounds to."""
    if isinstance(x, SurdSum):
        return _surd_sign(x)
    if x == 0:
        return 0
    if isinstance(x, complex):
        raise ValueError("sign of a complex scalar")
    return 1 if x > 0 else -1


# brackets of a surd's sign start at this many bits and double up to the cap
_SIGN_BITS = 64
_SIGN_MAX_BITS = 1 << 14


def _float_sum(x):
    """The float sum of q * sqrt(d) over the terms of the SurdSum x and a
    bound on its rounding error: each term carries at most four roundings
    and the running sum one per term, all relative to the sum of the terms'
    magnitudes, plus an absolute allowance for subnormals.  A coefficient
    past the float range gives a nan sum."""
    approx = size = 0.0
    den = x._d
    try:
        for core, c in x._n.items():
            term = c / den * (1.0 if core == 1 else _sqrt_int_float(core))
            approx += term
            size += abs(term)
    except OverflowError:
        approx = math.nan
    return approx, (len(x._n) + 3) * 2.0**-52 * size + 2.0**-1000


def _brackets(x):
    """Integer brackets (lo, hi, scale), lo <= scale * x <= hi, of the
    SurdSum x at doubling precision: over its stored denominator,
    isqrt(d * 4^k) <= sqrt(d) 2^k < that + 1 of every radical, for k from
    _SIGN_BITS to _SIGN_MAX_BITS."""
    den = x._d
    bits = _SIGN_BITS
    while bits <= _SIGN_MAX_BITS:
        lo = hi = 0
        for core, c in x._n.items():
            if core == 1:
                lo += c << bits
                hi += c << bits
            else:
                r = math.isqrt(core << (2 * bits))
                lo += min(c * r, c * (r + 1))
                hi += max(c * r, c * (r + 1))
        yield lo, hi, den << bits
        bits *= 2


def _surd_sign(x):
    """Sign, -1 or 1, of the SurdSum x.

    The float sum decides when it clears the bound on its own rounding
    error (_float_sum); otherwise the integer brackets of _brackets are
    refined until one excludes 0.  A nonzero sum always gets there; a sum
    still undecided at _SIGN_MAX_BITS is a zero that radicand keys hide (a
    square of a prime past the trial bound, as in sqrt(2 * 1009^2) - 1009
    sqrt(2)), or closer to one than that, and raises ArithmeticError.
    """
    approx, err = _float_sum(x)
    if abs(approx) > err:
        return 1 if approx > 0 else -1
    for lo, hi, _ in _brackets(x):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise ArithmeticError(
        f"sign of {x!r} undecided at {_SIGN_MAX_BITS} bits: a zero "
        "hidden by radicands that carry a square, or closer to zero than that"
    )


def accurate_float(x):
    """x as a float to full relative precision.  float() of a SurdSum adds
    rounded terms, so a sum that cancels loses digits; this one refines
    the integer brackets of its radicals until they fix 54 bits, within
    one ulp of x however much the terms cancel.  Rationals and floats pass
    through scalar_float."""
    if not isinstance(x, SurdSum):
        return scalar_float(x)
    for lo, hi, scale in _brackets(x):
        if (hi - lo) << 54 <= min(abs(lo), abs(hi)):
            return (lo + hi) / (2 * scale)  # int / int rounds correctly, as float(Fraction) does
    raise ArithmeticError(f"{x!r} is too close to zero to evaluate")


def _component_sqrt(q, w):
    """Square root of one rational component of a denested radical.

    Prefers the representation coeff * sqrt(w) with the caller's literal
    core w over a fresh canonicalization: square-factor extraction by trial
    division cannot find large square divisors, and a re-derived core would
    break the exact comparison against terms already expressed over w.
    """
    root = sqrt_fraction(q / w)
    if isinstance(root, Fraction):
        return Fraction(0) if root == 0 else SurdSum._raw({w: root.numerator}, root.denominator)
    return sqrt_fraction(q)


def sqrt_scalar(x):
    """Exact square root within the surd field.

    Handles nonnegative rationals and two-term surds u + v*sqrt(w) whose
    denested form sqrt(a) +/- sqrt(b) exists over the rationals.  Raises
    ValueError when no exact representation exists (callers decide whether
    to fall back to floats or report a domain error).
    """
    if isinstance(x, (int, Fraction)):
        return sqrt_fraction(x)
    if isinstance(x, float):
        if x < 0:
            raise ValueError("square root of a negative scalar")
        return math.sqrt(x)
    if isinstance(x, SurdSum):
        t = x.terms()
        cores = sorted(t)
        if cores == [1]:
            return sqrt_fraction(t[1])
        if len(cores) > 2 or (len(cores) == 2 and cores[0] != 1):
            raise ValueError("square root of a multi-radical sum is not supported")
        if len(cores) == 1:
            raise ValueError("sqrt of a pure radical term leaves the field")
        u, w = t[1], cores[1]
        v = t[w]
        if _surd_sign(x) < 0:
            raise ValueError("square root of a negative scalar")
        disc = u * u - v * v * w
        if disc < 0:
            raise ValueError("no exact denested square root (negative inner discriminant)")
        s = sqrt_fraction(disc)
        if not isinstance(s, Fraction):
            raise ValueError("no exact denested square root (inner root is irrational)")
        a = (u + s) / 2
        b = (u - s) / 2
        if a < 0 or b < 0:
            raise ValueError("no exact denested square root (negative components)")
        ra = _component_sqrt(a, w)
        rb = _component_sqrt(b, w)
        r = ra + rb if v > 0 else ra - rb
        if r * r != x:
            raise ValueError("denesting verification failed")
        return r
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def as_exact(x):
    """Lift ints and floats to exact Fractions; pass exact types through."""
    if isinstance(x, (Fraction, SurdSum)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot lift {type(x).__name__} to an exact scalar")
