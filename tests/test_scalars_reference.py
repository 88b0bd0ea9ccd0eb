"""SurdSum's integer kernel against the Fraction-dict kernel it replaces.

ReferenceSurd below is SurdSum as it was before the integer kernel: one
Fraction per radicand, with its own float sum, integer brackets, exact
sign and accurate_float.  Every operation, run on both from the same
inputs, must give an equal value with the same terms() order, repr,
float() bits, hash, exact sign and accurate_float, or raise alike.  The
last test guards the kernel's cost without timing it: surd sums and
products that stay irrational build no Fraction.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nu_spectral.scalars import (
    SurdSum,
    _core_product,
    _float_sum,
    _solve_fraction_system,
    _sqrt_int_float,
    _square_free,
    accurate_float,
    scalar_sign,
    sqrt_fraction,
)

F = Fraction

# -- the reference kernel -----------------------------------------------------------


def ref_sqrt_fraction(q):
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Fraction(0)
    out, core = _square_free(q.numerator * q.denominator)
    coeff = Fraction(out, q.denominator)
    if core == 1:
        return coeff
    return ReferenceSurd._raw({core: coeff})


class ReferenceSurd:
    """SurdSum with one Fraction coefficient per radicand."""

    __slots__ = ("_t",)

    @classmethod
    def _raw(cls, t):
        obj = object.__new__(cls)
        obj._t = t
        return obj

    @staticmethod
    def _wrap(terms):
        t = {core: c for core, c in terms.items() if c}
        if not t:
            return Fraction(0)
        if len(t) == 1 and 1 in t:
            return t[1]
        return ReferenceSurd._raw(t)

    def terms(self):
        return dict(self._t)

    def __float__(self):
        total = 0.0
        for core, coeff in self._t.items():
            total += float(coeff) * (1.0 if core == 1 else _sqrt_int_float(core))
        return total

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            t = dict(self._t)
            t[1] = t.get(1, Fraction(0)) + other
            return ReferenceSurd._wrap(t)
        if isinstance(other, ReferenceSurd):
            t = dict(self._t)
            for core, c in other._t.items():
                t[core] = t.get(core, Fraction(0)) + c
            return ReferenceSurd._wrap(t)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ReferenceSurd._raw({c: -v for c, v in self._t.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            return ReferenceSurd._raw({c: v * other for c, v in self._t.items()})
        if isinstance(other, ReferenceSurd):
            t = {}
            for d1, q1 in self._t.items():
                for d2, q2 in other._t.items():
                    mult, core = _core_product(d1, d2)
                    t[core] = t.get(core, Fraction(0)) + q1 * q2 * mult
            return ReferenceSurd._wrap(t)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        result = Fraction(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        cores = sorted(self._t)
        if len(cores) == 1 or (len(cores) == 2 and cores[0] == 1):
            d = cores[-1]
            a, b = self._t.get(1, Fraction(0)), self._t[d]
            norm = a * a - b * b * d
            inv = ReferenceSurd._wrap({1: a / norm, d: -b / norm})
        else:
            inv = self._basis_inverse()
        if self * inv != 1:
            raise ArithmeticError("inverse verification failed")
        return inv

    def _basis_inverse(self):
        basis = set(self._t) | {1}
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
        mat = [[Fraction(0)] * n for _ in range(n)]
        for d1, q1 in self._t.items():
            for j, d2 in enumerate(blist):
                mult, core = _core_product(d1, d2)
                mat[index[core]][j] += q1 * mult
        rhs = [Fraction(0)] * n
        rhs[index[1]] = Fraction(1)
        x = _solve_fraction_system(mat, rhs)
        return ReferenceSurd._wrap({blist[j]: x[j] for j in range(n)})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, ReferenceSurd):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, ReferenceSurd):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._t.items())))

    def __abs__(self):
        return self if ref_surd_sign(self._t) > 0 else -self

    def __lt__(self, other):
        return ref_scalar_sign(self - other) < 0

    def __repr__(self):
        parts = []
        for core in sorted(self._t):
            q = self._t[core]
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


def ref_scalar_sign(x):
    if isinstance(x, ReferenceSurd):
        return ref_surd_sign(x._t)
    return (x > 0) - (x < 0)


def ref_float_sum(t):
    approx = size = 0.0
    try:
        for core, coeff in t.items():
            term = float(coeff) * (1.0 if core == 1 else _sqrt_int_float(core))
            approx += term
            size += abs(term)
    except OverflowError:
        approx = math.nan
    return approx, (len(t) + 3) * 2.0**-52 * size + 2.0**-1000


def ref_brackets(t):
    den = math.lcm(*(q.denominator for q in t.values()))
    ints = [(core, q.numerator * (den // q.denominator)) for core, q in t.items()]
    bits = 64
    while bits <= 1 << 14:
        lo = hi = 0
        for core, c in ints:
            if core == 1:
                lo += c << bits
                hi += c << bits
            else:
                r = math.isqrt(core << (2 * bits))
                lo += min(c * r, c * (r + 1))
                hi += max(c * r, c * (r + 1))
        yield lo, hi, den << bits
        bits *= 2


def ref_surd_sign(t):
    approx, err = ref_float_sum(t)
    if abs(approx) > err:
        return 1 if approx > 0 else -1
    for lo, hi, _ in ref_brackets(t):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise ArithmeticError("undecided")


def ref_accurate_float(x):
    if not isinstance(x, ReferenceSurd):
        return float(x)
    for lo, hi, scale in ref_brackets(x._t):
        if (hi - lo) << 54 <= min(abs(lo), abs(hi)):
            return (lo + hi) / (2 * scale)
    raise ArithmeticError("too close to zero")


# -- comparing the two ----------------------------------------------------------------


def _outcome(fn, *args):
    """fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, OverflowError, ValueError) as exc:
        return type(exc)


def _float_bits(x):
    return _outcome(lambda: float(x).hex())


def assert_same(new, ref):
    """new (from SurdSum) is ref (from ReferenceSurd) in every view."""
    if isinstance(ref, type):
        assert new is ref
        return
    if not isinstance(ref, ReferenceSurd):
        assert type(new) is type(ref) and new == ref
        return
    assert isinstance(new, SurdSum)
    # the stored form is canonical: nonzero numerators over a positive
    # denominator, in lowest terms
    numerators, den = new._n, new._d
    assert den > 0 and all(numerators.values()) and math.gcd(den, *numerators.values()) == 1
    assert list(new.terms().items()) == list(ref.terms().items())
    assert all(type(q) is Fraction for q in new.terms().values())
    assert _outcome(repr, new) == _outcome(repr, ref)  # past 4300 digits str() raises
    assert _float_bits(new) == _float_bits(ref)
    assert hash(new) == hash(ref)
    assert [v.hex() for v in _float_sum(new)] == [v.hex() for v in ref_float_sum(ref._t)]
    assert _outcome(scalar_sign, new) == _outcome(ref_scalar_sign, ref)
    assert _outcome(accurate_float, new) == _outcome(ref_accurate_float, ref)


def build(recipe, root, one):
    """The sum over (q, d) of q * root(d), added in recipe order."""
    total = one * 0
    for q, d in recipe:
        total = total + q * root(d)
    return total


def pair(recipe):
    return build(recipe, sqrt_fraction, F(1)), build(recipe, ref_sqrt_fraction, F(1))


_RADICANDS = (1, 1, 2, 3, 5, 6, 7, 10, 13, 21, 1019, 2 * 1009 * 1009, 2**1001 + 1, 3 * 2**1100)
_HUGE = 2**1003 + 12345

coeffs = st.one_of(
    st.fractions(min_value=F(-25), max_value=F(25), max_denominator=60).filter(bool),
    st.builds(lambda k, q: F(k * _HUGE, q), st.sampled_from([-3, -1, 1, 2]),
              st.sampled_from([1, 3, 7, 2**1010 + 1])),
)
recipes = st.lists(st.tuples(coeffs, st.sampled_from(_RADICANDS)), min_size=1, max_size=5)
rationals = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=90),
                      st.just(F(_HUGE, 5)))

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: b - a,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "eq": lambda a, b: (a == b, b == a),
    "lt": lambda a, b: a < b,
}
_WITH_RATIONAL = {
    "add": lambda a, r: a + r,
    "radd": lambda a, r: r + a,
    "sub": lambda a, r: a - r,
    "rsub": lambda a, r: r - a,
    "mul": lambda a, r: a * r,
    "rmul": lambda a, r: r * a,
    "div": lambda a, r: a / r,
    "rdiv": lambda a, r: r / a,
}
_UNARY = {
    "neg": lambda a: -a,
    "abs": lambda a: abs(a),
    "inverse": lambda a: a.inverse(),
    "square": lambda a: a**2,
    "cube": lambda a: a**3,
}


def _cheap_to_invert(x):
    """One radical, or small ints: the inverse of several radicals solves a
    Fraction system whose cost grows fast with the size of its entries."""
    t = x.terms()
    return sum(core != 1 for core in t) == 1 or all(
        max(core, abs(q.numerator), q.denominator) < 2**64 for core, q in t.items())


@given(recipes, recipes, rationals)
@example(  # two radicals and a rational part in the middle: term order sets the float
    [(F(3, 7), 2), (F(-5, 3), 1), (F(2, 9), 3)], [(F(1, 2), 3), (F(1, 3), 2)], F(5, 4))
@example(  # the hidden 2 * 1009^2 key: this zero's sign raises
    [(F(1), 2 * 1009 * 1009), (F(-1009), 2)], [(F(1), 2)], 0)
@example([(F(1), 13)], [(F(2), 1), (F(-1), 13)], 2)  # sums to a Fraction
@example([(F(1), 13)], [(F(-1), 13)], F(1, 3))  # sums to 0
@example([(F(1), 1), (F(2), 3)], [(F(1), 1), (F(-2), 3)], 1)  # a product to -11
@example([(F(_HUGE, 3), 2)], [(F(1), 2**1001 + 1)], F(_HUGE, 5))  # past 2^1000
@settings(max_examples=400, deadline=None)
def test_every_operation_matches_the_fraction_kernel(rx, ry, r):
    x, x_ref = pair(rx)
    y, y_ref = pair(ry)
    assert_same(x, x_ref)
    assert_same(y, y_ref)
    assume(isinstance(x, SurdSum))
    for name, fn in _UNARY.items():
        if name != "inverse" or _cheap_to_invert(x):
            assert_same(_outcome(fn, x), _outcome(fn, x_ref))
    for name, fn in _WITH_RATIONAL.items():
        if name != "rdiv" or _cheap_to_invert(x):
            assert_same(_outcome(fn, x, r), _outcome(fn, x_ref, r))
    if isinstance(y, SurdSum):
        for name, fn in _BINARY.items():
            if name == "div" and not _cheap_to_invert(y):
                continue
            new, ref = _outcome(fn, x, y), _outcome(fn, x_ref, y_ref)
            if name == "eq":
                assert new == ref
            else:
                assert_same(new, ref)


@given(st.integers(-40, 40), st.integers(-40, 40).filter(bool),
       st.sampled_from([2, 3, 5, 6, 7, 13, 1019, 2**1001 + 1]), st.integers(1, 50))
@example(1, 2, 3, 1)  # norm 1 - 12 < 0
@example(0, 3, 7, 4)  # no rational part
@settings(max_examples=300, deadline=None)
def test_one_radical_inverse_matches_the_fraction_kernel(a, b, c, den):
    # (a + b sqrt(c)) / den, with norms of both signs
    x = (a + b * sqrt_fraction(c)) / den
    x_ref = (a + b * ref_sqrt_fraction(c)) / den
    assert_same(x, x_ref)
    assert_same(x.inverse(), x_ref.inverse())
    assert_same(1 / x, 1 / x_ref)


def test_public_constructor_matches_the_fraction_kernel():
    terms = {3: F(2, 9), 1: F(-5, 6), 2: F(7, 4), 5: 0}
    x = SurdSum(terms)
    x_ref = ReferenceSurd._wrap({k: F(v) for k, v in terms.items()})
    assert_same(x, x_ref)
    assert list(x.terms()) == [3, 1, 2]
    assert SurdSum(x.terms()) == x and x.terms() == SurdSum(x.terms()).terms()
    with pytest.raises(ValueError):
        SurdSum({1: F(1, 2), 7: 0})


# -- cost without timing ----------------------------------------------------------------


def test_irrational_sums_and_products_build_no_fraction(monkeypatch):
    x = F(3, 7) + F(5, 11) * sqrt_fraction(13) + F(2, 9) * sqrt_fraction(2)
    y = F(-1, 6) * sqrt_fraction(13) + F(4, 15) * sqrt_fraction(3) + 5
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 builds results there
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
    results = [x + y, y + x, x - y, y - x, x * y, y * x, x * x, x * 3, -7 * y, x + 1, 2 - y]
    seen_by_the_hook = len(built)
    probe = F(1, 3) * F(2, 5)  # the counter does see Fraction arithmetic
    monkeypatch.undo()
    assert probe == F(2, 15) and len(built) > seen_by_the_hook
    assert all(isinstance(v, SurdSum) for v in results)
    assert seen_by_the_hook == 0
