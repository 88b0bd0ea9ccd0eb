"""Reduction of generalized-hypergeometric ODEs to hypergeometric form.

The input equation is

    u'' + (psi_t / phi) u' + (phi_t / phi^2) u = 0

with deg phi <= 2, deg psi_t <= 1, deg phi_t <= 2, phi nonvanishing on the
working interval, and the free spectral parameter eps entering phi_t
affinely.  Substituting u = chi * y with a log-derivative chi'/chi = p/phi,
p a linear polynomial, turns it into

    phi y'' + psi y' + lam y = 0,      psi = psi_t + 2 p,

provided p^2 + p (psi_t - phi') + p' phi + phi_t is proportional to phi.
Completing the square shows p must be h +- sqrt(P2) with h = (phi'-psi_t)/2
and P2 = h^2 - phi_t + k phi; P2 is a perfect square of a linear polynomial
exactly when its discriminant vanishes, which is a quadratic condition on
k.  Everything here is carried out over the exact surd field so the
proportionality identity can be asserted as a polynomial zero, not a
numerical near-zero.

One rule picks the branch (select_branch): the geometric filter of the NU
book (psi' < 0 with the root of psi inside the interval) decides, and
where it keeps several branches square integrability (bound_canonical)
breaks the tie.  reduce_ghe reports the pick and the rule that decided it;
potentials.pinned_branch takes the same pick and requires it integrable.

Quantization runs the other way: the Nikiforov-Uvarov condition lam =
-n psi' - n(n-1) phi''/2 fixes eps for each n.  A GheProblem's ladder
(Ladder) solves it once for every n: the x^2 match has the same
discriminant at every level, so one square root gives p1, lam, p0 and eps
in closed form in n, the x^2 match is asserted once as an identity in n,
and the level count comes from exact inequalities in n.  Ladder.level
reads level n from it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .classical import canonical_frame, classify_canonical
from .errors import (
    AmbiguousBranch,
    DoubleRootUnsupported,
    NoAdmissibleBranch,
    NoPerfectSquare,
    ParameterOutOfRange,
    ParseError,
)
from .polynomials import Interval, Polynomial, quad_discriminant, quad_roots
from .scalars import as_exact, scalar_float, scalar_is_zero, scalar_sign, sqrt_scalar


@dataclass(frozen=True)
class EpsAffinePoly:
    """Polynomial whose coefficients depend affinely on the parameter eps."""

    const: Polynomial
    linear: Polynomial = Polynomial()

    def at(self, eps):
        if self.linear.is_zero:
            return self.const
        return self.const + as_exact(eps) * self.linear

    @property
    def max_degree(self):
        degs = [p.degree for p in (self.const, self.linear) if p.degree is not None]
        return max(degs) if degs else None


@dataclass(frozen=True)
class GheProblem:
    phi: Polynomial
    psi_tilde: Polynomial
    phi_tilde: EpsAffinePoly
    interval: Interval

    def __post_init__(self):
        if self.phi.degree is None or self.phi.degree > 2:
            raise ValueError("phi must be nonzero with degree <= 2")
        if self.psi_tilde.degree is not None and self.psi_tilde.degree > 1:
            raise ValueError("psi_tilde must have degree <= 1")
        md = self.phi_tilde.max_degree
        if md is not None and md > 2:
            raise ValueError("phi_tilde must have degree <= 2")
        if self.phi.degree == 2:
            disc = quad_discriminant(self.phi)
            if scalar_sign(disc) >= 0:
                for r in quad_roots(self.phi):
                    if self.interval.contains(r):
                        raise ValueError("phi vanishes inside the working interval")
        elif self.phi.degree == 1:
            if self.interval.contains(quad_roots(self.phi)[0]):
                raise ValueError("phi vanishes inside the working interval")

    @functools.cached_property
    def ladder(self):
        """Every bound level of the equation (Ladder), derived on first read.
        ValueError unless psi_tilde = phi' and eps enters phi_tilde(0) only,
        and when the level condition has no real root."""
        return Ladder(self)


@dataclass(frozen=True)
class FactorizedFunction:
    """Product of linear-base powers, a polynomial exponential and
    reciprocal exponentials:

        prod base_i(x)^e_i * exp(poly(x)) * prod exp(c_j/(x-r_j))

    Bases are linear polynomials oriented to be positive on the open
    working interval, and f(x), the exponential of log_value, is defined
    there.  log_value is the one float evaluator of a factor: callers that
    need a logarithm, an array or a more accurate base go through it, not
    through the terms.
    """

    power_terms: tuple = ()
    exp_poly: Polynomial = Polynomial()
    inv_exp_terms: tuple = ()

    @functools.cached_property
    def _float_terms(self):
        """The terms in floats: (c1, c0, e) per base c1 x + c0, the exponent
        polynomial or None, (r, c) per reciprocal exponential."""
        f = scalar_float
        powers = tuple((f(b.coeff(1)), f(b.coeff(0)), f(e)) for b, e in self.power_terms)
        poly = None if self.exp_poly.is_zero else self.exp_poly.as_float()
        return powers, poly, tuple((f(r), f(c)) for r, c in self.inv_exp_terms)

    def log_value(self, x, log=math.log, base_value=None, acc=0.0):
        """acc + log f(x); elementwise over an array x with log=numpy.log.

        base_value(c1, c0), when given, returns the base c1 x + c0 at x, for
        a caller that knows it more accurately than the rounded x does.
        """
        powers, poly, inv = self._float_terms
        for c1, c0, e in powers:
            acc = acc + e * log(c1 * x + c0 if base_value is None else base_value(c1, c0))
        if poly is not None:
            acc = acc + poly(x)
        for root, coeff in inv:
            acc = acc + coeff / (x - root)
        return acc

    def __call__(self, x):
        return math.exp(self.log_value(x))


@dataclass(frozen=True)
class NuBranch:
    """One consistent substitution: u = chi * y turns the input equation
    ghe into phi y'' + psi y' + lam y = 0.

    canonical is the classical form of that equation (bound_canonical) on
    a branch that Ladder.level or select_branch picked and that is square
    integrable, None on the others.  weight and weight_tilde are solved
    from psi and ghe on first read."""

    k0: object
    pi: Polynomial
    psi: Polynomial
    lam: object
    chi: FactorizedFunction
    eps: object
    ghe: GheProblem = field(repr=False)
    canonical: object = field(default=None, compare=False)

    @functools.cached_property
    def weight(self):
        """Pearson weight of the reduced equation: (phi w)' = psi w."""
        return pearson_weight(self.ghe.phi, self.psi, self.ghe.interval)

    @functools.cached_property
    def weight_tilde(self):
        """Weight of the input equation: (phi w)' = psi_tilde w."""
        return pearson_weight(self.ghe.phi, self.ghe.psi_tilde, self.ghe.interval)


@dataclass(frozen=True)
class ReductionResult:
    """Every substitution branch of ghe at eps, select_branch's pick (or
    None) and its reason line, or the selection error's class and message."""

    ghe: GheProblem
    eps: object
    k0_values: tuple
    branches: tuple
    selected: NuBranch | None
    reason: str


def _interval_probe(interval):
    """An exact point inside the interval: the midpoint of a finite one,
    else one unit in from its finite end, else 0."""
    lo, hi = interval.lo, interval.hi
    lo_finite = not isinstance(lo, float) or math.isfinite(lo)
    if lo_finite and interval.hi_finite:
        return (lo + hi) * Fraction(1, 2)
    if lo_finite:
        return lo + 1
    if interval.hi_finite:
        return hi - 1
    return Fraction(0)


def _oriented_base(root, interval):
    """Linear base vanishing at root, positive on the interval."""
    x = Polynomial.x()
    if scalar_sign(_interval_probe(interval) - root) > 0:
        return x - root
    return root - x


def build_p2(ghe, eps):
    """P2(x; k) as a pair (k-free part, coefficient of k)."""
    h = (ghe.phi.derivative() - ghe.psi_tilde) * Fraction(1, 2)
    base = h * h - ghe.phi_tilde.at(eps)
    return base, ghe.phi


def _k0_roots(base, kc):
    a0, b0, c0 = base.coeff(2), base.coeff(1), base.coeff(0)
    a1, b1, c1 = kc.coeff(2), kc.coeff(1), kc.coeff(0)
    if scalar_is_zero(a0) and scalar_is_zero(a1):
        # P2 linear in x for every k: perfect square needs the linear
        # coefficient to vanish; the degenerate discriminant is b(k)^2
        disc = Polynomial((b0 * b0, 2 * b0 * b1, b1 * b1))
    else:
        disc = Polynomial(
            (
                b0 * b0 - 4 * a0 * c0,
                2 * b0 * b1 - 4 * (a0 * c1 + a1 * c0),
                b1 * b1 - 4 * a1 * c1,
            )
        )
    if disc.is_zero:
        raise NoPerfectSquare(
            "every k makes P2 a perfect square; the input is degenerate"
        )
    if disc.degree == 0:
        raise NoPerfectSquare("no k makes P2 a perfect square")
    try:
        roots = quad_roots(disc)
    except ValueError as exc:
        raise NoPerfectSquare(f"k-discriminant has no real roots: {exc}") from exc
    unique = []
    for r in roots:
        if not any(r == s for s in unique):
            unique.append(r)
    return unique


def _sqrt_of_square(p):
    """Exact linear (or constant) square root of a perfect-square P2."""
    d = p.degree
    if d is None:
        return Polynomial()
    if d == 2:
        a2 = p.coeff(2)
        if scalar_sign(a2) < 0:
            raise NoPerfectSquare("P2 opens downward; square root leaves the reals")
        s = sqrt_scalar(as_exact(a2))
        r = Polynomial((p.coeff(1) / (2 * s), s))
        if r * r != p:
            raise NoPerfectSquare("P2 is not an exact perfect square")
        return r
    if d == 1:
        raise NoPerfectSquare("P2 is linear in x and cannot be a square")
    c = p.coeff(0)
    if scalar_sign(c) < 0:
        raise NoPerfectSquare("P2 is a negative constant")
    return Polynomial((sqrt_scalar(as_exact(c)),))


def _log_derivative_solver(phi, interval):
    """p -> the closed-form f with f'/f = p/phi, deg p <= 1, as a
    FactorizedFunction; phi's roots and their oriented bases are found once
    for every p.  A simple root r gets the residue p(r)/phi'(r) as its
    exponent and the polynomial part of p/phi (p/f0, or p1/f1 for linear
    phi) integrates into exp_poly; a double root gives base^(p1/f2) times
    exp(-p(r)/(f2 (x - r))).  Zero exponents are dropped.  A quadratic phi
    with no real root raises DoubleRootUnsupported: f would need an arctan
    factor, which a FactorizedFunction cannot hold."""
    def nonzero(terms):
        return tuple((at, e) for at, e in terms if not scalar_is_zero(e))

    d = phi.degree
    lead = phi.coeff(d)
    disc_sign = scalar_sign(quad_discriminant(phi)) if d == 2 else 1
    if disc_sign < 0:
        raise DoubleRootUnsupported(
            "phi has no real root (negative discriminant): chi would need an "
            "arctan factor, which a FactorizedFunction cannot hold"
        )
    if disc_sign == 0:
        r = quad_roots(phi)[0]
        base = _oriented_base(r, interval)
        return lambda p: FactorizedFunction(
            power_terms=nonzero([(base, p.coeff(1) / lead)]),
            inv_exp_terms=nonzero([(r, -p(r) / lead)]),
        )
    dphi, steps = phi.derivative(), (1 / lead, 1 / (2 * lead))  # x^k/lead -> x^(k+1) steps[k]
    roots = [(_oriented_base(r, interval), r, dphi(r)) for r in (quad_roots(phi) if d else ())]

    def simple_roots(p):
        return FactorizedFunction(
            power_terms=nonzero((base, p(r) / slope) for base, r, slope in roots),
            exp_poly=Polynomial((0, *(c * k for c, k in zip(p.coeffs[d:], steps)))),
        )

    return simple_roots


def chi_from_pi(pi, phi, interval):
    """The multiplier chi with chi'/chi = pi/phi."""
    return _log_derivative_solver(phi, interval)(pi)


def pearson_weight(phi, psi, interval):
    """Weight omega solving the Pearson equation (phi omega)' = psi omega."""
    return _log_derivative_solver(phi, interval)(psi - phi.derivative())


def branch_candidates(ghe, eps):
    """All (k0, sign) substitution branches, each verified exactly.

    Branches whose square root leaves the real surd field are skipped; if
    none survives, NoPerfectSquare propagates.
    """
    return _candidates(ghe, as_exact(eps))[1]


def _candidates(ghe, eps):
    """(k0 values, branches) from one P2."""
    base, kc = build_p2(ghe, eps)
    k0s = _k0_roots(base, kc)
    h = (ghe.phi.derivative() - ghe.psi_tilde) * Fraction(1, 2)
    branches = []
    last_err = None
    for k0 in k0s:
        p2 = base + as_exact(k0) * kc
        try:
            root = _sqrt_of_square(p2)
        except (NoPerfectSquare, ValueError) as exc:
            last_err = exc
            continue
        for pi in dict.fromkeys(h + sign * root for sign in (1, -1)):  # one where root = 0
            branches.append(_make_branch(ghe, eps, pi, k0 + pi.coeff(1)))
    if not branches:
        raise NoPerfectSquare(
            f"no branch admits an exact real square root: {last_err}"
        )
    return k0s, branches


def _make_branch(ghe, eps, pi, lam):
    """The branch of pi with eigenvalue coefficient lam = k0 + pi', after
    asserting the reduction identity exactly."""
    _assert_reduction_identity(ghe, eps, pi, lam)
    psi = ghe.psi_tilde + 2 * pi
    chi = chi_from_pi(pi, ghe.phi, ghe.interval)
    return NuBranch(lam - pi.coeff(1), pi, psi, lam, chi, eps, ghe)


def _assert_reduction_identity(ghe, eps, pi, lam):
    lhs = as_exact(lam) * ghe.phi
    rhs = (
        pi * pi
        + pi * (ghe.psi_tilde - ghe.phi.derivative())
        + pi.coeff(1) * ghe.phi
        + ghe.phi_tilde.at(eps)
    )
    if lhs != rhs:
        raise AssertionError(
            "internal error: substitution identity violated; "
            f"pi={pi!r}, lam={lam!r}"
        )


def _zero_inside(psi, interval):
    """psi decreases and its zero lies inside the interval."""
    if psi.degree != 1 or scalar_sign(psi.coeff(1)) >= 0:
        return False
    return interval.contains(-psi.coeff(0) / psi.coeff(1))


def bound_canonical(ghe, psi):
    """The canonical form of phi y'' + psi y' + lam y = 0 when psi can carry
    a bound state, else None: psi decreases, its zero lies inside the
    interval, and the state is square-integrable in x.  With psi_tilde =
    phi' the substitution has slope proportional to phi, so the x-measure
    is du/phi_c and the weight u^alpha e^-u or (1-u)^alpha (1+u)^beta
    integrates against it only for positive exponents.  Where psi_tilde !=
    phi' the test asks that u = chi y be square integrable against rho/phi,
    rho the input's Pearson weight ((phi rho)' = psi_tilde rho), as the
    reduced weight is rho chi^2: the measure of the input's Sturm-Liouville
    form when eps enters phi_tilde(0) only, not a physical norm in general,
    so select_branch asks it only to break the geometric filter's ties."""
    if not _zero_inside(psi, ghe.interval):
        return None
    try:
        canonical = classify_canonical(ghe.phi, psi)
    except (ParameterOutOfRange, DoubleRootUnsupported):
        return None
    if any(e is not None and scalar_sign(e) <= 0 for e in (canonical.alpha, canonical.beta)):
        return None
    return canonical


class Ladder:
    """Every bound level of one reduced equation, derived once, in closed
    form in n.

    With pi = p0 + p1 x, psi_tilde = phi' and lam = lam_n = -n psi' -
    n(n-1) phi''/2, the reduction identity lam phi = pi^2 + p1 phi +
    phi_t(eps) is matched term by term: x^2 is a quadratic in p1, x^1
    linear in p0, x^0 linear in eps.  The quadratic's discriminant f2^2 -
    4 c2 is the same at every n, so one square root r serves every level.
    Of its roots p1(n) = (-(2n+1) f2 -+ r)/2 only the lower can bind: a
    bound level has p1 < 0 (psi' = 2 p1 < 0 when f2 = 0, and pi decreasing
    from phi's lower root to its upper one when f2 < 0; f2 > 0 has no
    classical form), and the upper root is nonnegative whenever f2 <= 0.
    So p1(n) is affine in n, lam(n) quadratic, and with w = 2 p1 the
    numerator P(n) = w p0 quadratic.  The x^2 match is asserted once, as an
    identity of polynomials in n; x^1 and x^0 hold by construction, as p0
    and eps are solved from them.

    A level is bound when bound_canonical accepts its psi: psi decreases,
    its zero lies inside the interval, and the weight exponent pi/phi' at
    each root of phi is positive (with no root, pi/phi decreases).  With
    w < 0, which all of that implies and which implies psi' < 0, each
    condition is the sign of a polynomial of degree <= 2 in n.  count, the
    first level that is not bound (math.inf when none is), is solved from
    those inequalities with O(log count) exact sign tests each; no level is
    derived to find it.
    """

    def __init__(self, ghe):
        phi, phi_t = ghe.phi, ghe.phi_tilde
        if ghe.psi_tilde != phi.derivative() or phi_t.linear.degree != 0:
            raise ValueError("quantization needs psi_tilde = phi' and eps in phi_tilde(0) only")
        self.ghe = ghe
        f0, f1, f2 = (phi.coeff(k) for k in range(3))
        c0, c1, c2 = (phi_t.const.coeff(k) for k in range(3))
        disc = f2 * f2 - 4 * c2
        if scalar_sign(disc) < 0:
            raise ValueError("negative discriminant: roots leave the real field")
        r = sqrt_scalar(disc)
        try:
            self._frame = canonical_frame(phi)
        except (ParameterOutOfRange, DoubleRootUnsupported):
            self.conditions = [(Polynomial(), 1)]  # no classical form: nothing is bound
            self.count = 0
            return
        self._chi = _log_derivative_solver(phi, ghe.interval)
        # p1 = (-(2n+1) f2 - r)/2, and lam = -n (2 f2 + 2 p1) - n(n-1) f2 = f2 n^2 + r n
        self.p1 = p1 = Polynomial.of((-f2 - r) * Fraction(1, 2), -f2)
        self.lam = lam = Polynomial.of(0, r, f2)
        if lam * f2 != p1 * p1 + p1 * f2 + c2:
            raise AssertionError(f"internal error: x^2 match violated; p1={p1!r}, lam={lam!r}")
        w = 2 * p1
        self.big_p = big_p = lam * f1 - p1 * f1 - c1  # w p0: the x^1 match
        w_sq = w * w
        dphi = phi.derivative()
        # psi = phi' + 2 pi has the sign of phi' at a root of phi where
        # pi/phi' > 0, so a finite end of the interval there needs no test
        roots = [(x0, scalar_sign(dphi(x0))) for x0 in quad_roots(phi)] if phi.degree else []
        ends = [
            (x0, s)
            for x0, s in ((ghe.interval.lo, 1), (ghe.interval.hi, -1))
            if (not isinstance(x0, float) or math.isfinite(x0)) and (x0, s) not in roots
        ]
        # (q, s): sign(q(n)) = s; as w < 0, sign(w f) = -sign(f)
        self.conditions = [(w, -1)]
        self.conditions += [(w * dphi(x0) + 2 * big_p + w_sq * x0, -s) for x0, s in ends]
        self.conditions += [(big_p + w_sq * (x0 * Fraction(1, 2)), -s) for x0, s in roots]
        if not roots:
            self.conditions.append((Polynomial.constant(f0), 1))  # pi/phi decreases
        self.count = math.inf
        for q, s in self.conditions:  # each search stops at the least failure found so far
            self.count = _first_failure(q, s, 0, self.count)

    def level(self, n):
        """The bound branch of level n, with its canonical form, or None
        when level n is not bound."""
        if n < 0 or (
            n >= self.count and not all(scalar_sign(q(n)) == s for q, s in self.conditions)
        ):
            return None
        ghe = self.ghe
        p1, lam = self.p1(n), self.lam(n)
        p0 = self.big_p(n) / (2 * p1)
        # the x^0 match
        eps = (lam * ghe.phi.coeff(0) - p0 * p0 - p1 * ghe.phi.coeff(0)
               - ghe.phi_tilde.const.coeff(0)) / ghe.phi_tilde.linear.coeff(0)
        pi = Polynomial.of(p0, p1)
        psi = ghe.psi_tilde + 2 * pi
        return NuBranch(lam - p1, pi, psi, lam, self._chi(pi), eps, ghe, self._frame(psi))

    def branch(self, n):
        """The bound branch of level n; ValueError when it is not bound."""
        br = self.level(n)
        if br is None:
            raise ValueError(f"level n={n} is not bound")
        return br


def _first_failure(q, want, lo, hi=math.inf):
    """The least integer n in [lo, hi) with sign(q(n)) != want; hi if none
    (or if the range is empty).

    q is a polynomial in n of degree <= 2 with exact coefficients, so over
    the integers it turns at most once, where its difference q(n+1) - q(n),
    of degree <= 1, changes sign.  On each monotone stretch the failures
    form a prefix or a suffix: an exact sign test at each end and a
    bisection (after a doubling search on an unbounded stretch) find the
    first one with O(log) tests.
    """

    if lo >= hi:
        return hi

    def fails(k):
        return scalar_sign(q(k)) != want

    cuts = [lo, hi]
    if q.degree == 2:
        step = q.compose_affine(1, 1) - q
        turn = _first_failure(step, scalar_sign(step(lo)), lo, hi)
        if turn < hi:
            cuts.insert(1, turn)
    for a, b in zip(cuts, cuts[1:]):
        if fails(a):
            return a
        # a passes, so the failures on [a, b) are a suffix of it
        if b == math.inf:
            if not q.degree or scalar_sign(q.coeffs[-1]) == want:
                continue  # q ends with the sign it has at a
            size = 1
            while not fails(a + size):
                a, size = a + size, 2 * size
            b = a + size
        elif fails(b - 1):
            b -= 1
        else:
            continue
        while b - a > 1:  # a passes, b fails
            mid = (a + b) // 2
            a, b = (a, mid) if fails(mid) else (mid, b)
        return b
    return hi


def select_branch(branches, ghe):
    """The one branch rule: (branch, reason), the pick with its canonical
    form (bound_canonical, None where not square integrable) and the line
    naming the rule that decided.  The geometric filter decides (psi
    decreases, its zero inside the interval); integrability only breaks its
    ties, so a unique geometric pick stays selected with canonical None.
    NoAdmissibleBranch when the filter keeps no branch, AmbiguousBranch
    when it keeps several and integrability leaves none or several."""
    interval = ghe.interval
    matches = [(br, bound_canonical(ghe, br.psi)) for br in branches if _zero_inside(br.psi, interval)]
    if not matches:
        raise NoAdmissibleBranch("no branch has decreasing psi with its zero inside the interval")
    bound = [m for m in matches if m[1] is not None]
    if len(matches) == 1:
        (branch, canonical), rule = matches[0], "unique admissible branch"
    elif len(bound) == 1:
        (branch, canonical), rule = bound[0], f"the only square-integrable one of {len(matches)} such branches"
    else:
        raise AmbiguousBranch([br for br, _ in matches])
    slope = branch.psi.coeff(1)
    zero = -branch.psi.coeff(0) / slope
    reason = f"psi slope {slope} is negative and its zero {zero} lies in ({interval.lo}, {interval.hi}); {rule}"
    return replace(branch, canonical=canonical), reason


def reduce_ghe(ghe, eps):
    """Every substitution branch at a concrete eps, and the one
    select_branch picks; a selection error is reported on the result, not
    raised (NoPerfectSquare is)."""
    eps = as_exact(eps)
    k0s, branches = _candidates(ghe, eps)
    try:
        selected, reason = select_branch(branches, ghe)
    except (NoAdmissibleBranch, AmbiguousBranch) as exc:
        selected, reason = None, f"{type(exc).__name__}: {exc}"
    return ReductionResult(ghe, eps, tuple(k0s), tuple(branches), selected, reason)


# ---------------------------------------------------------------------------
# one-line text format for the command line


_GHE_KEYS = ("phi", "psi_tilde", "phi_tilde", "interval")


def _parse_coefficient(piece, where):
    """One coefficient: a signed sum of atoms, each a rational number
    (integer, p/q, or plain decimal without exponent) or [q*]eps.  Returns
    (constant, eps multiplier) as Fractions."""
    if not piece:
        raise ParseError("empty coefficient", where)
    const = Fraction(0)
    slope = Fraction(0)
    consumed = 0
    for m in re.finditer(r"[+-]?[^+-]+", piece):
        atom = m.group()
        consumed += len(atom)
        sign = Fraction(1)
        body = atom
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        if body.endswith("eps"):
            mult = body[:-3].rstrip("*")
            try:
                slope += sign * (Fraction(mult) if mult else Fraction(1))
            except (ValueError, ZeroDivisionError):
                raise ParseError(
                    f"bad eps multiplier {atom!r}", where + m.start()
                ) from None
        else:
            try:
                const += sign * Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise ParseError(
                    f"not a rational coefficient: {atom!r}", where + m.start()
                ) from None
    if consumed != len(piece):
        raise ParseError(f"malformed coefficient {piece!r}", where)
    return const, slope


def _parse_endpoint(piece, where):
    name = piece.strip()
    if name in ("inf", "+inf"):
        return math.inf
    if name == "-inf":
        return -math.inf
    try:
        return Fraction(name)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad interval endpoint {name!r}", where) from None


def parse_ghe_text(text):
    """Parse the one-line equation description used by the command line.

    Four whitespace-separated key=value fields with keys phi, psi_tilde,
    phi_tilde and interval, in any order.  Polynomial values are
    comma-separated coefficients in ascending powers; each coefficient is a
    rational number, optionally combined with a multiple of the literal
    ``eps`` marking where the spectral parameter enters (phi_tilde only).
    The interval is ``lo,hi`` and accepts -inf / inf.  Example:

        phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=-inf,inf

    Returns (ghe, needs_eps).  Raises ParseError with the character offset
    of the offending piece; structural defects (phi vanishing inside the
    interval, degrees too high) surface as ValueError from the GheProblem
    constructor.
    """
    fields = {}
    for m in re.finditer(r"\S+", text):
        token, where = m.group(), m.start()
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {token!r}", where)
        if key not in _GHE_KEYS:
            raise ParseError(f"unknown field {key!r}", where)
        if key in fields:
            raise ParseError(f"duplicate field {key!r}", where)
        fields[key] = (value, where + len(key) + 1)
    for key in _GHE_KEYS:
        if key not in fields:
            raise ParseError(f"missing field {key!r}")

    polys = {}
    for key in ("phi", "psi_tilde", "phi_tilde"):
        value, where = fields[key]
        consts, slopes = [], []
        offset = 0
        for piece in value.split(","):
            c, s = _parse_coefficient(piece, where + offset)
            if s != 0 and key != "phi_tilde":
                raise ParseError(
                    "eps placeholder only enters phi_tilde", where + offset
                )
            consts.append(c)
            slopes.append(s)
            offset += len(piece) + 1
        polys[key] = (Polynomial(consts), Polynomial(slopes))

    value, where = fields["interval"]
    pieces = value.split(",")
    if len(pieces) != 2:
        raise ParseError("interval needs exactly two endpoints", where)
    lo = _parse_endpoint(pieces[0], where)
    hi = _parse_endpoint(pieces[1], where + len(pieces[0]) + 1)
    try:
        interval = Interval(lo, hi)
    except ValueError:
        raise ParseError("interval endpoints out of order", where) from None

    linear = polys["phi_tilde"][1]
    ghe = GheProblem(
        phi=polys["phi"][0],
        psi_tilde=polys["psi_tilde"][0],
        phi_tilde=EpsAffinePoly(const=polys["phi_tilde"][0], linear=linear),
        interval=interval,
    )
    return ghe, not linear.is_zero
