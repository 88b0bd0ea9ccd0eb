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
    bound_canonical,
    build_p2,
    chi_from_pi,
    parse_ghe_text,
    pearson_weight,
    reduce_ghe,
    select_branch,
)
from nu_spectral.potentials import eigen_eps, harmonic, morse, pinned_branch, rosen_morse2
from nu_spectral.scalars import SurdSum, as_exact, scalar_is_zero, scalar_sign, sqrt_scalar

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


def geometric_filter(branches, interval):
    """The branches whose psi decreases with its zero inside the interval,
    written out here apart from the selection rule."""
    return [
        br
        for br in branches
        if br.psi.degree == 1
        and scalar_sign(br.psi.coeff(1)) < 0
        and interval.contains(-br.psi.coeff(0) / br.psi.coeff(1))
    ]


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

    def test_integrability_breaks_the_tie_near_threshold(self):
        # shallow gap: both square-root signs give decreasing psi with a
        # positive zero, so the geometric filter cannot decide alone; the
        # partner's edge exponent -sqrt(19)/10 is not square integrable
        ghe = exp_radial_well(25)
        res = reduce_ghe(ghe, Fraction(2481, 100))
        kept = geometric_filter(res.branches, ghe.interval)
        assert len(kept) == 2
        assert [br for br in kept if bound_canonical(ghe, br.psi)] == [res.selected]
        assert res.selected.lam == Fraction(9, 2) - sqrt_scalar(Fraction(19, 100))
        assert res.selected.canonical == bound_canonical(ghe, res.selected.psi)
        assert res.reason == (
            "psi slope -1 is negative and its zero 1 + 1/5*sqrt(19) lies in (0, inf); "
            "the only square-integrable one of 2 such branches"
        )

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

    def test_integrability_breaks_the_tie_in_shallow_window(self):
        # the lower edge exponent drops below one here and the partner
        # branch passes the decreasing/root-inside filter as well; the
        # branch whose weight has the edge exponents kp and km is integrable
        ghe, eps = self.well(), Fraction(1)
        res = reduce_ghe(ghe, eps)
        kept = geometric_filter(res.branches, ghe.interval)
        assert len(kept) == 2
        assert [br for br in kept if bound_canonical(ghe, br.psi)] == [res.selected]
        km, kp = self.edges(eps)
        assert res.selected.pi == Polynomial.of((kp - km) / 2, -(kp + km) / 2)
        assert res.reason.endswith("; the only square-integrable one of 2 such branches")

    def test_tie_keeps_every_branch(self):
        res = reduce_ghe(self.well(), Fraction(1))
        assert len(res.branches) == 4
        assert res.branches.index(res.selected) == 1
        assert res.selected.canonical is not None
        assert all(br.canonical is None for br in res.branches)


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
        # reduce_ghe reports the selection error instead of raising it
        ghe = GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
            interval=Interval(1, 2),
        )
        res = reduce_ghe(ghe, Fraction(3))
        assert res.selected is None and len(res.branches) == 2
        assert res.reason == (
            "NoAdmissibleBranch: no branch has decreasing psi with its zero inside the interval"
        )

    def test_root_outside_interval_not_admissible(self):
        branches = branch_candidates(parabolic_well(), Fraction(5))
        with pytest.raises(NoAdmissibleBranch):
            select_branch(branches, replace(parabolic_well(), interval=Interval(5, 6)))

    def test_tie_that_integrability_leaves_is_ambiguous(self):
        # the integrable branch twice: a tie the rule cannot break
        ghe = parabolic_well()
        branches = branch_candidates(ghe, Fraction(5))
        with pytest.raises(AmbiguousBranch) as raised:
            select_branch(branches * 2, ghe)
        assert len(raised.value.branches) == 2
        assert str(raised.value) == (
            "2 branches pass the geometric filter and square integrability does not break the tie"
        )

    def test_integrability_only_breaks_ties(self):
        # seeded equations in the command line's one-line grammar, half with
        # psi_tilde != phi'.  Wherever the geometric filter keeps one branch
        # that branch is selected, integrable or not: a rule built as "filter
        # and integrable" selects none for the non-integrable ones below
        rng = random.Random(28)
        frames = (  # phi, phi', interval
            ("1", "0", "-inf,inf"), ("1", "0", "0,3"), ("0,1", "1", "0,inf"),
            ("0,-1", "-1", "-inf,0"), ("0,0,1", "0,2", "0,inf"), ("1,0,-1", "0,-2", "-1,1"),
            ("0,1,-1", "1,-2", "0,1"),
        )

        def q():
            return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4)))

        unique = non_integrable = non_integrable_tilde = ties = 0
        for _ in range(400):
            phi, dphi, interval = rng.choice(frames)
            psi_tilde = dphi if rng.random() < 0.5 else f"{q()},{q()}"
            ghe, _ = parse_ghe_text(
                f"phi={phi} psi_tilde={psi_tilde} phi_tilde={q()}+eps,{q()},{q()} interval={interval}"
            )
            try:
                res = reduce_ghe(ghe, q())
            except NoPerfectSquare:
                continue
            kept = geometric_filter(res.branches, ghe.interval)
            if len(kept) != 1:
                ties += len(kept) > 1
                continue
            unique += 1
            assert res.selected == kept[0]
            assert res.reason.endswith("; unique admissible branch")
            if bound_canonical(ghe, kept[0].psi) is None:
                assert res.selected.canonical is None
                non_integrable += 1
                non_integrable_tilde += psi_tilde != dphi
        assert unique >= 100 and ties >= 1
        assert non_integrable >= 5 and non_integrable_tilde >= 1


def test_one_rule_on_seeded_wells():
    # 31 seeded wells, at every ladder level n <= 7 and at six rationals
    # between v_min and the lower plateau (for the harmonic well, eps_8).
    # The rule leaves no tie, picks the ladder's branch at a level, keeps
    # every pick the geometric filter made alone, and is pinned_branch's pick
    rng = random.Random(7)
    wells = [harmonic()]
    wells += [morse(Lambda=Fraction(rng.randrange(3, 41), 4)) for _ in range(15)]
    wells += [rosen_morse2(rng.randint(2, 30), round(rng.uniform(0.1, 0.8), 2)) for _ in range(15)]
    levels = ties = no_square = 0
    for spec in wells:
        ghe = spec.ghe
        energies = []
        for n in range(8):
            br = ghe.ladder.level(n)
            if br is None:
                break
            energies.append((br, br.eps))
        top = spec.plateaus[0] if spec.plateaus else eigen_eps(spec, 8)
        lo, hi = float(spec.v_min), float(top)
        for _ in range(6):
            eps = Fraction(lo + (hi - lo) * rng.uniform(0.01, 0.99)).limit_denominator(1000)
            assert scalar_sign(eps - spec.v_min) > 0 and scalar_sign(top - eps) > 0
            energies.append((None, eps))
        for level, eps in energies:
            try:
                res = reduce_ghe(ghe, eps)
            except NoPerfectSquare:  # the denesting defect: it must raise alike
                no_square += 1
                with pytest.raises(NoPerfectSquare):
                    pinned_branch(spec, eps)
                continue
            assert res.selected is not None, res.reason
            kept = geometric_filter(res.branches, ghe.interval)
            if len(kept) == 1:
                assert res.selected == kept[0]
            ties += len(kept) > 1
            if level is not None:
                levels += 1
                assert res.selected == level and res.selected.canonical == level.canonical
            pinned = pinned_branch(spec, eps)
            assert pinned == res.selected and pinned.canonical == res.selected.canonical
    assert (levels, ties, no_square) == (99, 51, 0)


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
        res = reduce_ghe(ghe, eps)
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
