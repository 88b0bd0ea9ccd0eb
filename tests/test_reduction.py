import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nu_spectral.errors import (
    AmbiguousBranch,
    NoAdmissibleBranch,
    NoPerfectSquare,
)
from nu_spectral.polynomials import (
    HALF_LINE,
    REAL_LINE,
    UNIT_INTERVAL,
    Interval,
    Polynomial,
    quad_discriminant,
    quad_roots,
)
from nu_spectral.reduction import (
    EpsAffinePoly,
    FactorizedFunction,
    GheProblem,
    _k0_roots,
    _log_derivative_solver,
    _oriented_base,
    branch_candidates,
    build_p2,
    chi_from_pi,
    pearson_weight,
    reduce_ghe,
    select_branch,
)
from nu_spectral.scalars import SurdSum, as_exact, scalar_is_zero, sqrt_scalar

X = Polynomial.x()


def parabolic_well():
    # u'' + (eps - x^2) u = 0 on the real line
    return GheProblem(
        phi=Polynomial.of(1),
        psi_tilde=Polynomial(),
        phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
        interval=REAL_LINE,
    )


def exp_radial_well(lam_sq):
    # s u'' + u' + (eps - lam_sq + lam*s - s^2/4)/s u = 0 on (0, inf)
    lam = sqrt_scalar(as_exact(lam_sq))
    const = Polynomial.of(-as_exact(lam_sq), lam, Fraction(-1, 4))
    return GheProblem(
        phi=X,
        psi_tilde=Polynomial.of(1),
        phi_tilde=EpsAffinePoly(const=const, linear=Polynomial.of(1)),
        interval=HALF_LINE,
    )


def tanh_well(v0, t):
    # (1-s^2) u'' - 2s u' + (eps - C (s-t)^2)/(1-s^2) u = 0 on (-1, 1),
    # C = v0 / (1 - t^2); t is the rationalized slope parameter.
    v0 = as_exact(v0)
    t = as_exact(t)
    big_c = v0 / (1 - t * t)
    shifted = X - Polynomial.constant(t)
    return GheProblem(
        phi=Polynomial.of(1, 0, -1),
        psi_tilde=Polynomial.of(0, -2),
        phi_tilde=EpsAffinePoly(const=-big_c * (shifted * shifted), linear=Polynomial.of(1)),
        interval=UNIT_INTERVAL,
    )


def reduction_identity_defect(ghe, br):
    lhs = as_exact(br.lam) * ghe.phi
    rhs = (
        br.pi * br.pi
        + br.pi * (ghe.psi_tilde - ghe.phi.derivative())
        + br.pi.coeff(1) * ghe.phi
        + ghe.phi_tilde.at(br.eps)
    )
    return lhs - rhs


class TestParabolicWell:
    def test_k0_equals_eps(self):
        ghe = parabolic_well()
        assert _k0_roots(*build_p2(ghe, Fraction(5))) == [Fraction(5)]

    def test_selected_branch_fields(self):
        res = reduce_ghe(parabolic_well(), Fraction(5))
        br = res.selected
        assert br.pi == Polynomial.of(0, -1)
        assert br.psi == Polynomial.of(0, -2)
        assert br.lam == Fraction(4)
        assert br.chi == FactorizedFunction(exp_poly=Polynomial.of(0, 0, Fraction(-1, 2)))
        assert br.weight == FactorizedFunction(exp_poly=Polynomial.of(0, 0, -1))
        assert br.weight_tilde == FactorizedFunction()

    def test_rejected_branch_is_increasing(self):
        branches = branch_candidates(parabolic_well(), Fraction(5))
        assert len(branches) == 2
        others = [b for b in branches if b.pi != Polynomial.of(0, -1)]
        assert others[0].pi == X

    def test_lambda_is_exact_fraction(self):
        res = reduce_ghe(parabolic_well(), Fraction(7, 3))
        assert res.selected.lam == Fraction(4, 3)


class TestExpRadialWell:
    def test_k0_pair(self):
        ghe = exp_radial_well(25)
        k0s = _k0_roots(*build_p2(ghe, Fraction(19, 4)))
        assert k0s == [Fraction(1, 2), Fraction(19, 2)]

    def test_selected_branch_ground_state(self):
        res = reduce_ghe(exp_radial_well(25), Fraction(19, 4))
        br = res.selected
        assert br.k0 == Fraction(1, 2)
        assert br.pi == Polynomial.of(Fraction(9, 2), Fraction(-1, 2))
        assert br.psi == Polynomial.of(10, -1)
        assert br.lam == 0
        assert br.chi == FactorizedFunction(
            power_terms=((X, Fraction(9, 2)),),
            exp_poly=Polynomial.of(0, Fraction(-1, 2)),
        )
        assert br.weight == FactorizedFunction(
            power_terms=((X, Fraction(9)),),
            exp_poly=Polynomial.of(0, -1),
        )
        assert br.weight_tilde == FactorizedFunction()

    def test_surd_k0_when_gap_not_square(self):
        ghe = exp_radial_well(25)
        k0s = _k0_roots(*build_p2(ghe, Fraction(3)))
        expected = sqrt_scalar(Fraction(22))
        assert k0s == [5 - expected, 5 + expected]

    def test_all_branches_satisfy_identity(self):
        ghe = exp_radial_well(25)
        for br in branch_candidates(ghe, Fraction(3)):
            assert reduction_identity_defect(ghe, br).is_zero

    def test_ambiguous_when_psi_roots_collide_near_threshold(self):
        # shallow gap: both square-root signs give decreasing psi with a
        # positive zero, so the geometric filter cannot decide alone
        ghe = exp_radial_well(25)
        with pytest.raises(AmbiguousBranch) as exc:
            reduce_ghe(ghe, Fraction(2481, 100))
        assert len(exc.value.branches) == 2

    def test_no_real_reduction_above_threshold(self):
        with pytest.raises(NoPerfectSquare):
            reduce_ghe(exp_radial_well(25), Fraction(26))


class TestTanhWell:
    V0 = Fraction(4)
    T = Fraction(math.tanh(0.5))

    def well(self):
        return tanh_well(self.V0, self.T)

    def edges(self, eps):
        t = self.T
        v_minus = self.V0 * (1 - t) / (1 + t)
        v_plus = self.V0 * (1 + t) / (1 - t)
        km = sqrt_scalar(v_minus - eps)
        kp = sqrt_scalar(v_plus - eps)
        return km, kp

    def test_selected_branch_matches_edge_exponents(self):
        eps = Fraction(1, 4)
        km, kp = self.edges(eps)
        half_diff = (kp - km) / 2
        half_sum = (kp + km) / 2
        res = reduce_ghe(self.well(), eps)
        br = res.selected
        assert br.pi == Polynomial.of(half_diff, -half_sum)
        assert br.psi == Polynomial.of(2 * half_diff, -2 * half_sum - 2)
        assert br.k0 == (eps + self.V0 - kp * km) / 2
        assert br.lam == br.k0 - half_sum

    def test_weight_is_two_sided_power(self):
        eps = Fraction(1, 4)
        km, kp = self.edges(eps)
        br = reduce_ghe(self.well(), eps).selected
        assert br.weight.power_terms == (
            (Polynomial.of(1, 1), kp),
            (Polynomial.of(1, -1), km),
        )
        assert br.weight.exp_poly.is_zero
        assert br.chi.power_terms == (
            (Polynomial.of(1, 1), kp / 2),
            (Polynomial.of(1, -1), km / 2),
        )

    def test_identity_holds_for_every_branch(self):
        ghe = self.well()
        for br in branch_candidates(ghe, Fraction(1, 4)):
            assert reduction_identity_defect(ghe, br).is_zero

    def test_weight_equals_input_weight_times_chi_squared(self):
        br = reduce_ghe(self.well(), Fraction(1, 4)).selected
        for x in (-0.8, -0.2, 0.5, 0.9):
            rebuilt = br.weight_tilde(x) * br.chi(x) ** 2
            assert br.weight(x) == pytest.approx(rebuilt, rel=1e-12)

    def test_ambiguous_in_shallow_window(self):
        # the lower edge exponent drops below one here and the partner
        # branch passes the decreasing/root-inside filter as well
        with pytest.raises(AmbiguousBranch) as exc:
            reduce_ghe(self.well(), Fraction(1))
        assert len(exc.value.branches) == 2

    def test_select_false_keeps_branches_on_ambiguity(self):
        res = reduce_ghe(self.well(), Fraction(1), select=False)
        assert res.selected is None
        assert len(res.branches) >= 2


class TestK0Degeneracies:
    def test_linear_phi_tilde_never_square(self):
        ghe = GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=X, linear=Polynomial.of(1)),
            interval=REAL_LINE,
        )
        with pytest.raises(NoPerfectSquare):
            _k0_roots(*build_p2(ghe, Fraction(1)))

    def test_constant_phi_tilde_degenerate(self):
        ghe = GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=Polynomial.of(-3), linear=Polynomial.of(1)),
            interval=REAL_LINE,
        )
        with pytest.raises(NoPerfectSquare):
            _k0_roots(*build_p2(ghe, Fraction(1)))

    def test_build_p2_shape(self):
        base, kcoef = build_p2(parabolic_well(), Fraction(2))
        assert base == X * X - Polynomial.of(2)
        assert kcoef == Polynomial.of(1)


class TestSelection:
    def test_no_admissible_branch_off_interval(self):
        ghe = GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
            interval=Interval(1, 2),
        )
        with pytest.raises(NoAdmissibleBranch):
            reduce_ghe(ghe, Fraction(3))

    def test_root_outside_interval_not_admissible(self):
        branches = branch_candidates(parabolic_well(), Fraction(5))
        with pytest.raises(NoAdmissibleBranch):
            select_branch(branches, Interval(5, 6))


def log_deriv_from_terms(f, x):
    """(d/dx log f)(x) summed factor by factor from a FactorizedFunction."""
    total = f.exp_poly.as_float().derivative()(x)
    for base, expo in f.power_terms:
        b = base.as_float()
        total += float(expo) * b.derivative()(x) / b(x)
    for root, coeff in f.inv_exp_terms:
        total -= float(coeff) / (x - float(root)) ** 2
    return total


class TestWeightSolver:
    def test_double_root_weight(self):
        # phi = (x-1)^2, psi = 3x - 1: the weight picks up an essential
        # factor exp(-2/(x-1)) alongside the power of (x-1)
        phi = (X - 1) * (X - 1)
        psi = Polynomial.of(-1, 3)
        w = pearson_weight(phi, psi, Interval(1, math.inf))
        assert w.power_terms == ((X - 1, Fraction(1)),)
        assert w.inv_exp_terms == ((Fraction(1), Fraction(-2)),)
        for x in (1.5, 2.0, 4.0):
            numer = psi - phi.derivative()
            assert log_deriv_from_terms(w, x) == pytest.approx(
                numer.as_float()(x) / phi.as_float()(x), rel=1e-12
            )

    def test_nonconstant_input_weight(self):
        ghe = GheProblem(
            phi=X,
            psi_tilde=Polynomial.of(2),
            phi_tilde=EpsAffinePoly(const=Polynomial.of(-1), linear=Polynomial.of(1)),
            interval=HALF_LINE,
        )
        wt = pearson_weight(ghe.phi, ghe.psi_tilde, ghe.interval)
        assert wt.power_terms == ((X, Fraction(1)),)
        assert wt(1.0) != wt(2.0)

    def test_call_matches_log_deriv_numerically(self):
        # the value f(x) against f's factors, through the log-derivative
        pi = Polynomial.of(Fraction(1, 3), Fraction(-1, 2))
        f = chi_from_pi(pi, Polynomial.of(1, 0, -1), UNIT_INTERVAL)
        h = 1e-6
        for x in (-0.4, 0.2, 0.7):
            fd = (math.log(f(x + h)) - math.log(f(x - h))) / (2 * h)
            assert fd == pytest.approx(log_deriv_from_terms(f, x), rel=1e-7)


class TestLazyWeights:
    """NuBranch.weight and weight_tilde are solved from psi and the branch's
    equation on first read, and equal the eager solutions."""

    CASES = [
        (parabolic_well(), Fraction(5)),
        (exp_radial_well(25), Fraction(19, 4)),
        (exp_radial_well(25), Fraction(3)),  # surd k0 and exponents
        (tanh_well(62, Fraction(1, 3)), Fraction(7)),
        (
            GheProblem(
                phi=X,
                psi_tilde=Polynomial.of(2),
                phi_tilde=EpsAffinePoly(const=Polynomial.of(-1), linear=Polynomial.of(1)),
                interval=HALF_LINE,
            ),
            Fraction(1),
        ),
    ]

    @pytest.mark.parametrize("ghe,eps", CASES, ids=["parabolic", "exp25", "exp25-surd", "tanh", "psi_tilde-2"])
    def test_weights_equal_the_eager_solutions(self, ghe, eps):
        res = reduce_ghe(ghe, eps, select=False)
        assert res.branches
        for br in res.branches:
            assert "weight" not in vars(br) and "weight_tilde" not in vars(br)
            assert br.weight == pearson_weight(ghe.phi, br.psi, ghe.interval)
            assert br.weight_tilde == pearson_weight(ghe.phi, ghe.psi_tilde, ghe.interval)
            assert br.weight is br.weight  # kept on the record after the first read
            # equality and hashing see the equation, not the cached weights
            twin = replace(br)
            assert twin == br and hash(twin) == hash(br)


class TestExactOrientation:
    """A linear base vanishing at an end of the interval is oriented to be
    positive on it, decided exactly when the end and the interval's
    midpoint share a float."""

    LO, HI = Fraction(10**20), Fraction(10**20 + 1)

    def test_root_at_the_lower_end(self):
        chi = chi_from_pi(Polynomial.of(1), X - self.LO, Interval(self.LO, self.HI))
        assert chi.power_terms == ((X - self.LO, Fraction(1)),)

    def test_root_at_the_end_of_a_half_line(self):
        # the probe point LO + 1 rounds to the float of LO
        chi = chi_from_pi(Polynomial.of(1), X - self.LO, Interval(self.LO, math.inf))
        assert chi.power_terms == ((X - self.LO, Fraction(1)),)
        chi = chi_from_pi(Polynomial.of(1), X - self.HI, Interval(-math.inf, self.HI))
        assert chi.power_terms == ((self.HI - X, Fraction(1)),)

    def test_root_at_the_upper_end(self):
        chi = chi_from_pi(Polynomial.of(1), X - self.HI, Interval(self.LO, self.HI))
        assert chi.power_terms == ((self.HI - X, Fraction(1)),)


class TestGheValidation:
    def test_phi_root_inside_interval_rejected(self):
        with pytest.raises(ValueError):
            GheProblem(
                phi=X,
                psi_tilde=Polynomial.of(1),
                phi_tilde=EpsAffinePoly(const=Polynomial.of(-1), linear=Polynomial.of(1)),
                interval=Interval(-1, 1),
            )

    def test_degree_bounds_enforced(self):
        with pytest.raises(ValueError):
            GheProblem(
                phi=X * X * X,
                psi_tilde=Polynomial(),
                phi_tilde=EpsAffinePoly(const=Polynomial.of(1)),
                interval=REAL_LINE,
            )


small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)

SOLVER_CASES = [
    (Polynomial.of(2), REAL_LINE, (-0.7, 0.3, 1.9)),
    (X, HALF_LINE, (0.5, 1.0, 3.0)),
    (Polynomial.of(1, 0, -1), UNIT_INTERVAL, (-0.6, 0.1, 0.6)),
    ((X - 1) * (X - 1), Interval(1, math.inf), (1.5, 2.0, 4.0)),
]


@settings(max_examples=60, deadline=None)
@given(a=small_fracs, b=small_fracs, case=st.sampled_from(SOLVER_CASES))
def test_log_derivative_solver_property(a, b, case):
    phi, interval, probes = case
    pi = Polynomial.of(a, b)
    f = chi_from_pi(pi, phi, interval)
    pif, phif = pi.as_float(), phi.as_float()
    for x in probes:
        assert f(x) > 0
        assert abs(log_deriv_from_terms(f, x) - pif(x) / phif(x)) < 1e-9 * max(
            1.0, abs(pif(x) / phif(x))
        )


def test_surd_branch_fields_stay_exact():
    ghe = exp_radial_well(25)
    res = reduce_ghe(ghe, Fraction(3))
    br = res.selected
    gap = sqrt_scalar(Fraction(22))
    assert isinstance(br.k0, SurdSum)
    assert br.k0 == 5 - gap
    assert br.lam == Fraction(9, 2) - gap
    assert br.chi.power_terms == ((X, gap),)


def reference_solver(phi, interval):
    """The four per-degree closures that solved f'/f = p/phi before the
    residue formula, kept to check it against."""
    d = phi.degree
    if d == 0:
        scale = 1 / as_exact(phi.coeff(0))
        return lambda p: FactorizedFunction(exp_poly=(p * scale).antiderivative())
    if d == 1:
        f1 = phi.coeff(1)
        r = quad_roots(phi)[0]
        base = _oriented_base(r, interval)

        def linear(p):
            slope = p.coeff(1) / f1
            exp_poly = Polynomial((0, slope)) if not scalar_is_zero(slope) else Polynomial()
            return FactorizedFunction(power_terms=((base, p(r) / f1),), exp_poly=exp_poly)

        return linear
    if scalar_is_zero(quad_discriminant(phi)):
        f2 = phi.coeff(2)
        r = quad_roots(phi)[0]
        base = _oriented_base(r, interval)

        def double_root(p):
            slope = p.coeff(1) / f2
            terms = ((base, slope),) if not scalar_is_zero(slope) else ()
            pr = p(r)
            inv = ((r, -pr / f2),) if not scalar_is_zero(pr) else ()
            return FactorizedFunction(power_terms=terms, inv_exp_terms=inv)

        return double_root
    dphi = phi.derivative()
    roots = tuple((_oriented_base(r, interval), r, dphi(r)) for r in quad_roots(phi))

    def two_roots(p):
        exponents = ((base, p(r) / slope) for base, r, slope in roots)
        return FactorizedFunction(
            power_terms=tuple((base, e) for base, e in exponents if not scalar_is_zero(e))
        )

    return two_roots


def _sweep_cases(rng):
    """(phi, interval, p) over constant, linear, double-root and two-root
    phi, with rational or one-radical surd coefficients; about a third of
    the p vanish at a root of phi."""

    def rational(nonzero=False):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if q or not nonzero:
                return q

    def number(k, nonzero=False):
        q = rational(nonzero)
        if k and rng.random() < 0.5:
            q = q + rational(nonzero=True) * sqrt_scalar(Fraction(k))
        return q

    for _ in range(240):
        k = rng.choice((0, 2, 3, 5))
        kind = rng.choice(("constant", "linear", "double", "two"))
        if kind == "constant":
            phi, roots = Polynomial.of(number(k, nonzero=True)), []
            interval = REAL_LINE
        elif kind == "linear":
            r = number(k)
            phi, roots = number(k, nonzero=True) * (X - r), [r]
            interval = rng.choice((Interval(r, math.inf), Interval(-math.inf, r)))
        elif kind == "double":
            r = number(k)
            phi, roots = number(k, nonzero=True) * (X - r) * (X - r), [r]
            interval = rng.choice((Interval(r, math.inf), Interval(-math.inf, r)))
        else:
            # rational roots, or a conjugate pair a +- b sqrt(k)
            if k:
                a, b = rational(), abs(rational(nonzero=True))
                lo, hi = a - b * sqrt_scalar(Fraction(k)), a + b * sqrt_scalar(Fraction(k))
            else:
                lo, hi = sorted({rational(), rational()} | {Fraction(10)})[:2]
            lead = rational(nonzero=True)
            phi, roots = lead * (X - lo) * (X - hi), [lo, hi]
            interval = rng.choice(
                (Interval(lo, hi), Interval(hi, math.inf), Interval(-math.inf, lo))
            )
        if roots and rng.random() < 0.35:
            p = number(k, nonzero=True) * (X - rng.choice(roots))
        else:
            p = Polynomial.of(number(k), number(k))
        yield phi, interval, p


def test_residue_formula_equals_the_per_degree_solvers():
    zero_exponents = 0
    for phi, interval, p in _sweep_cases(random.Random(13)):
        got = _log_derivative_solver(phi, interval)(p)
        want = reference_solver(phi, interval)(p)
        kept = tuple((base, e) for base, e in want.power_terms if not scalar_is_zero(e))
        zero_exponents += len(want.power_terms) - len(kept)
        assert got.power_terms == kept, (phi, interval, p)
        assert got.exp_poly == want.exp_poly, (phi, interval, p)
        assert got.inv_exp_terms == want.inv_exp_terms, (phi, interval, p)
    assert zero_exponents  # the one allowed difference is exercised


def test_factor_call_is_the_exponential_of_its_log_value():
    f = pearson_weight((X - 1) * (X - 1), Polynomial.of(-1, 3), Interval(1, math.inf))
    for x in (1.5, 2.0, 4.0):
        assert f(x) == math.exp(f.log_value(x))
        assert f.log_value(x, acc=2.5) == pytest.approx(2.5 + f.log_value(x), rel=1e-15)
        # a base_value hook replaces the base computed from x
        assert f.log_value(x, base_value=lambda c1, c0: c1 * x + c0) == f.log_value(x)
