"""Bound and scattering analysis of the three worked potentials.

Closed-form spectra and samplers are one route; the sinc-DVR oracle and
direct quadrature are the independent route.  Exact assertions
(Fraction/SurdSum equality) cover the symbolic layer, tolerance assertions
cover the numeric layer.
"""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nu_spectral import oracle, potentials, reduction
from nu_spectral.classical import CanonicalHde, classify_canonical, family_record, series_poly
from nu_spectral.errors import (
    AmbiguousBranch,
    EmptySpectrum,
    EnergyBelowRegion,
    NoAdmissibleBranch,
    NonFiniteEnergy,
    NoScatteringRegion,
    NuSpectralError,
)
from nu_spectral.oracle import FdGrid, WkbScan, compare_spectra, quad_adaptive
from nu_spectral.potentials import (
    WELLS,
    bound_spectrum,
    bound_state,
    eigen_eps,
    eigenvalue_count,
    harmonic,
    morse,
    normalization_defect,
    oracle_spectrum,
    pinned_branch,
    recurrence_values,
    rosen_morse2,
    scattering_states,
    wavefunction_residual,
)
from nu_spectral.polynomials import HALF_LINE, REAL_LINE, UNIT_INTERVAL, Polynomial
from nu_spectral.reduction import EpsAffinePoly, GheProblem, reduce_ghe
from nu_spectral.scalars import SurdSum, accurate_float, scalar_float, sqrt_scalar


def overlap(f, g, lo, hi):
    return quad_adaptive(lambda x: f(x) * g(x), lo, hi)


def hyperbolic_norm_with_tail(spec, state, x0=18.0):
    """Norm of a hyperbolic-well state: quadrature on [-x0, x0] plus the
    analytic tail mass.

    Beyond x ~ 19 float tanh saturates and samplers cut off, so the slow
    e^(-2 kappa_minus x) tail has to be completed in closed form; at x0 the
    asymptotic model is already exact to machine precision.
    """
    v1, v2 = spec.exact["v1"], spec.exact["v2"]
    b_n = sqrt_scalar(v2) - state.n - Fraction(1, 2)
    kappa_minus = float(b_n - v1 / b_n)
    core = overlap(state.sampler, state.sampler, -x0, x0)
    tail = state.sampler(x0) ** 2 / (2.0 * kappa_minus)
    return core + tail


# -- harmonic ------------------------------------------------------------------


class TestHarmonicWell:
    def test_eigenvalues_are_exact_odd_integers(self):
        spec = harmonic()
        states = bound_spectrum(spec, n_max=20)
        assert [s.eps for s in states] == [Fraction(2 * n + 1) for n in range(21)]

    def test_physical_energy_map(self):
        spec = harmonic(m=2.0, Omega=3.0, hbar=1.5)
        states = bound_spectrum(spec, n_max=2)
        for n, st in enumerate(states):
            assert st.energy == pytest.approx(1.5 * 3.0 / 2.0 * (2 * n + 1))

    def test_fd_oracle_agreement(self):
        spec = harmonic()
        oracle = oracle_spectrum(spec, k_max=6)
        analytic = [float(eigen_eps(spec, n)) for n in range(6)]
        report = compare_spectra(analytic, oracle, rel_tol=1e-5)
        assert report.ok

    def test_sampler_normalization(self):
        spec = harmonic()
        for st in bound_spectrum(spec, n_max=3):
            total = overlap(st.sampler, st.sampler, -10.0, 10.0)
            assert abs(total - 1.0) < 1e-8

    def test_sampler_orthogonality(self):
        spec = harmonic()
        states = bound_spectrum(spec, n_max=3)
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            cross = overlap(states[i].sampler, states[j].sampler, -10.0, 10.0)
            assert abs(cross) < 1e-8

    def test_schrodinger_residual(self):
        spec = harmonic()
        xs = [-2.5, -1.0, 0.3, 1.7, 3.1]
        for st in bound_spectrum(spec, n_max=2):
            assert wavefunction_residual(spec, st.sampler, st.eps, xs) < 1e-6

    def test_residual_detects_wrong_energy(self):
        spec = harmonic()
        st = bound_spectrum(spec, n_max=0)[0]
        assert wavefunction_residual(spec, st.sampler, 1.5, [0.4, 1.1]) > 1e-2

    def test_infinite_family_needs_cap(self):
        with pytest.raises(ValueError):
            bound_spectrum(harmonic())
        with pytest.raises(ValueError):
            oracle_spectrum(harmonic())

    def test_no_scattering_region(self):
        with pytest.raises(NoScatteringRegion):
            scattering_states(harmonic(), 100.0)


# -- morse ---------------------------------------------------------------------


class TestMorseWell:
    def test_exactly_five_states_at_depth_five(self):
        spec = morse(Lambda=5)
        assert eigenvalue_count(spec) == 5
        states = bound_spectrum(spec)
        expected = [Fraction(19, 4), Fraction(51, 4), Fraction(75, 4),
                    Fraction(91, 4), Fraction(99, 4)]
        assert [s.eps for s in states] == expected

    def test_fd_oracle_agreement(self):
        spec = morse(Lambda=5)
        oracle = oracle_spectrum(spec)
        analytic = [float(eigen_eps(spec, n)) for n in range(5)]
        report = compare_spectra(analytic, oracle, rel_tol=1e-4)
        assert report.ok

    def test_closed_form_normalization_against_quadrature(self):
        spec = morse(Lambda=5)
        for st in bound_spectrum(spec):
            total = overlap(st.sampler, st.sampler, -2.0, 30.0)
            assert abs(total - 1.0) < 1e-8

    def test_sampler_orthogonality(self):
        spec = morse(Lambda=5)
        states = bound_spectrum(spec)
        for i, j in ((0, 1), (1, 2), (0, 4), (2, 3)):
            cross = overlap(states[i].sampler, states[j].sampler, -2.0, 35.0)
            assert abs(cross) < 1e-8

    def test_schrodinger_residual(self):
        spec = morse(Lambda=5)
        xs = [-0.5, 0.4, 1.2, 2.5, 4.0]
        for st in bound_spectrum(spec):
            assert wavefunction_residual(spec, st.sampler, st.eps, xs) < 1e-6

    def test_physical_norm_scales_with_coordinate(self):
        narrow = morse(Lambda=5, a=2.0)
        wide = morse(Lambda=5, a=1.0)
        s_n = bound_spectrum(narrow, n_max=0)[0]
        s_w = bound_spectrum(wide, n_max=0)[0]
        assert s_n.norm_const_sq == pytest.approx(2.0 * s_w.norm_const_sq)

    def test_dissociation_energy_parameterization(self):
        by_depth = morse(Lambda=5, a=2.0)
        by_energy = morse(De=50.0, a=2.0)
        assert by_energy.exact["lam"] == 5
        assert [s.eps for s in bound_spectrum(by_depth)] == [
            s.eps for s in bound_spectrum(by_energy)
        ]
        assert by_depth.physical_params["De"] == pytest.approx(50.0)

    def test_energy_map_uses_well_scale(self):
        spec = morse(Lambda=5, a=2.0)
        ground = bound_spectrum(spec, n_max=0)[0]
        # energy_scale = a^2 hbar^2 / (2 m) = 2
        assert ground.energy == pytest.approx(2.0 * 19.0 / 4.0)

    def test_shifted_well_oracle_agreement(self):
        spec = morse(Lambda=5, xe=0.3)
        oracle = oracle_spectrum(spec)
        analytic = [float(eigen_eps(spec, n)) for n in range(5)]
        assert compare_spectra(analytic, oracle, rel_tol=1e-4).ok

    def test_cutoff_is_strict(self):
        with pytest.raises(EmptySpectrum):
            bound_spectrum(morse(Lambda=Fraction(1, 2)))
        assert eigenvalue_count(morse(Lambda=0.51)) == 1
        assert eigenvalue_count(morse(Lambda=Fraction(3, 2))) == 1
        assert eigenvalue_count(morse(Lambda=Fraction(7, 2))) == 3

    def test_top_level_a_float_ulp_below_the_plateau(self):
        # eps_5 = Lambda^2 - 2^-80 rounds to the plateau as a float; the
        # order and region checks decide on the exact values
        lam = Fraction(11, 2) + Fraction(1, 2**40)
        states = bound_spectrum(morse(Lambda=5.5 + 2**-40))
        assert len(states) == 6
        assert states[-1].eps == lam * lam - Fraction(1, 2**80)

    def test_bound_state_count_tracks_well_depth(self):
        rng = random.Random(20250814)
        grid = FdGrid(-2.0, 40.0, 4201)
        for _ in range(20):
            j = rng.randrange(0, 19)
            frac = 0.25 + 0.70 * rng.random()
            lam = j + 0.5 + frac
            spec = morse(Lambda=lam)
            count = eigenvalue_count(spec)
            assert count == j + 1
            oracle = oracle_spectrum(spec, grid=grid)
            assert len(oracle.eigenvalues) == count


def _morse_scattering_ref(lam, eps, x):
    """e^(-s/2) s^(i kappa) U(i kappa + 1/2 - Lambda, 1 + 2 i kappa, s) at
    s = 2 Lambda e^-x, kappa = sqrt(eps - Lambda^2), in mpmath (b = 1)."""
    lam = mpmath.mpf(lam.numerator) / lam.denominator
    kappa = mpmath.sqrt(mpmath.mpf(eps) - lam * lam)
    s = 2 * lam * mpmath.exp(-mpmath.mpf(x))
    return mpmath.exp(-s / 2) * s ** (1j * kappa) * mpmath.hyperu(
        1j * kappa + 0.5 - lam, 1 + 2j * kappa, s
    )


class TestMorseScattering:
    ENERGIES = (26.0, 30.0, 37.5, 50.0, 61.0)

    def test_one_bounded_solution_above_plateau(self):
        rng = random.Random(1601)
        for _ in range(30):
            lam = Fraction(rng.randrange(5, 160), 4)  # rational Lambda in (1, 40)
            eps = float(lam * lam) + rng.uniform(0.01, 50.0)
            assert scattering_states(morse(Lambda=lam), eps).degeneracy == 1

    def test_sampler_matches_the_hyperu_form(self):
        # each value within 1e-8 of the largest |psi| sampled, from deep in
        # the wall (s = 300) out onto the plateau (s = 1e-7), or a raise
        rng, raised = random.Random(1602), 0
        with mpmath.workdps(30):
            for _ in range(20):
                lam = Fraction(rng.randrange(5, 160), 4)
                eps = float(lam * lam) + rng.uniform(0.01, 50.0)
                sampler = scattering_states(morse(Lambda=lam), eps).solutions[0]
                xs = [math.log(2 * float(lam) / s) for s in (300, 60, 15, 3, 0.5, 1e-2, 1e-4, 1e-7)]
                want = [complex(_morse_scattering_ref(lam, eps, x)) for x in xs]
                top = max(map(abs, want))
                for x, w in zip(xs, want):
                    try:
                        got = sampler(x)
                    except NuSpectralError:
                        raised += 1
                        continue
                    assert abs(got - w) <= 1e-8 * top, (lam, eps, x)
        assert raised <= 8  # of 160; 4 raise, all in U's integral route

    def test_demo_energies_to_1e10(self):
        spec = morse(Lambda=5)
        with mpmath.workdps(30):
            for eps in self.ENERGIES:
                sampler = scattering_states(spec, eps).solutions[0]
                for x in np.arange(-4.0, 20.01, 0.25):
                    want = complex(_morse_scattering_ref(Fraction(5), eps, x))
                    assert abs(sampler(x) - want) <= 1e-10 * abs(want), (eps, x)

    def test_solution_decays_in_the_wall(self):
        sampler = scattering_states(morse(Lambda=5), 30.0).solutions[0]
        assert abs(sampler(-4.0)) < 1e-100
        # a standing wave on the plateau: bounded, and as large far out as near
        plateau = [abs(sampler(x)) for x in np.linspace(0.0, 20.0, 81)]
        assert 1.0 < max(plateau) < 20.0 and max(plateau[60:]) > 0.5 * max(plateau)

    def test_sampler_deep_in_the_wall_underflows(self):
        # s is about 1484 at x = -5 and 4034 at x = -6: U's large-z series,
        # and the value sinks below the float range instead of overflowing
        sampler = scattering_states(morse(Lambda=5), 26.0).solutions[0]
        for x in (-5.0, -6.0):
            assert abs(sampler(x)) < 1e-300

    def test_reference_solves_the_morse_equation(self):
        # the mpmath form the samplers are judged by: -psi'' + v psi = eps psi
        lam, eps = Fraction(5), 30
        with mpmath.workdps(30):
            for x in (-2.0, 1.5, 9.0):
                psi = _morse_scattering_ref(lam, eps, x)
                d2 = mpmath.diff(lambda y: _morse_scattering_ref(lam, eps, y), x, 2)
                v = 25 * (1 - mpmath.exp(-mpmath.mpf(x))) ** 2
                assert abs(-d2 + (v - eps) * psi) <= 1e-20 * abs(eps * psi)

    def test_plateau_energy_rejected(self):
        spec = morse(Lambda=5)
        for eps in (25.0, 24.0, 1.0):
            with pytest.raises(EnergyBelowRegion):
                scattering_states(spec, eps)

    @pytest.mark.parametrize("lam,above", [(1.2, True), (1.1, False), (5.0, False)])
    def test_threshold_is_decided_exactly(self, lam, above):
        # v_minus is the plateau Lambda^2 rounded to a float, which lands
        # above, below or on the exact plateau
        spec = morse(Lambda=lam)
        assert (Fraction(spec.v_minus) > spec.plateaus[0]) == above
        if above:
            assert scattering_states(spec, spec.v_minus).degeneracy == 1
        else:
            with pytest.raises(EnergyBelowRegion):
                scattering_states(spec, spec.v_minus)


# -- rosen-morse ---------------------------------------------------------------


class TestHyperbolicWell:
    def test_single_bound_state_for_reference_well(self):
        spec = rosen_morse2(4, 0.5)
        assert eigenvalue_count(spec) == 1
        states = bound_spectrum(spec)
        assert len(states) == 1
        assert float(states[0].eps) == pytest.approx(1.2099285593, abs=1e-9)

    def test_ground_energy_matches_fd(self):
        spec = rosen_morse2(4, 0.5)
        oracle = oracle_spectrum(spec)
        analytic = [float(eigen_eps(spec, 0))]
        assert compare_spectra(analytic, oracle, rel_tol=1e-4).ok

    def test_weight_exponents_carry_exact_edge_momenta(self):
        spec = rosen_morse2(4, 0.5)
        v1, v2 = spec.exact["v1"], spec.exact["v2"]
        b0 = sqrt_scalar(v2) - Fraction(1, 2)
        a0 = v1 / b0
        branch = pinned_branch(spec, eigen_eps(spec, 0))
        exponents = {
            tuple(base.coeffs): expo for base, expo in branch.weight.power_terms
        }
        assert exponents[(1, 1)] == b0 + a0  # (1+s)^(kappa_plus)
        assert exponents[(1, -1)] == b0 - a0  # (1-s)^(kappa_minus)

    def test_ground_polynomial_is_constant(self):
        st = bound_spectrum(rosen_morse2(4, 0.5))[0]
        assert tuple(st.poly.coeffs) == (1,)

    def test_sampler_normalization(self):
        spec = rosen_morse2(4, 0.5)
        st = bound_spectrum(spec)[0]
        assert abs(hyperbolic_norm_with_tail(spec, st) - 1.0) < 1e-8

    def test_schrodinger_residual(self):
        spec = rosen_morse2(4, 0.5)
        st = bound_spectrum(spec)[0]
        xs = [-4.0, -1.5, 0.2, 1.0, 3.5]
        assert wavefunction_residual(spec, st.sampler, st.eps, xs) < 1e-6

    def test_three_state_well_against_fd(self):
        spec = rosen_morse2(24, 0.25)
        assert eigenvalue_count(spec) == 3
        states = bound_spectrum(spec)
        floats = [float(s.eps) for s in states]
        assert floats == sorted(floats)
        oracle = oracle_spectrum(spec, grid=FdGrid(-25.0, 25.0, 4001))
        assert compare_spectra(floats, oracle, rel_tol=1e-4).ok

    def test_three_state_well_orthonormality(self):
        spec = rosen_morse2(24, 0.25)
        states = bound_spectrum(spec)
        for st in states:
            assert abs(hyperbolic_norm_with_tail(spec, st) - 1.0) < 1e-8
        # cross terms decay at the combined rate, so no tail completion needed
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cross = overlap(states[i].sampler, states[j].sampler, -18.0, 18.0)
            assert abs(cross) < 1e-8

    def test_empty_spectrum_for_shallow_well(self):
        with pytest.raises(EmptySpectrum):
            bound_spectrum(rosen_morse2(0.75, 0.5))


def _rm2_scattering_ref(spec, eps, x, sign=1, floats=False):
    """t^rho1 (1-t)^rho2 2F1(a, b; 1 + 2 rho1; t) at t = (1 + tanh x)/2, in
    mpmath: rho1 = sign sqrt(v_plus - eps)/2 (an imaginary root in the
    upper half plane), rho2 = i sqrt(eps - v_minus)/2.  With floats, t and
    1 - t are the sampler's own floats (potentials._tanh_affine)."""
    vm, vp, v2 = (_mp_exact(spec.exact[k]) for k in ("vm", "vp", "v2"))
    e = mpmath.mpf(eps)
    rho1 = sign * mpmath.sqrt(mpmath.mpc(vp - e)) / 2
    rho2 = 1j * mpmath.sqrt(e - vm) / 2
    a, b = rho1 + rho2 + 0.5 - mpmath.sqrt(v2), rho1 + rho2 + 0.5 + mpmath.sqrt(v2)
    if floats:
        t, rest = (mpmath.mpf(float(potentials._tanh_affine(c, 0.5, x))) for c in (0.5, -0.5))
    else:
        t = (1 + mpmath.tanh(mpmath.mpf(x))) / 2
        rest = 1 - t
    return complex(t**rho1 * rest**rho2 * mpmath.hyp2f1(a, b, 1 + 2 * rho1, t))


class TestHyperbolicScattering:
    def test_degeneracy_one_between_plateaus(self):
        spec = rosen_morse2(4, 0.5)
        assert scattering_states(spec, 2.0).degeneracy == 1

    def test_degeneracy_two_above_upper_plateau(self):
        spec = rosen_morse2(4, 0.5)
        assert scattering_states(spec, 15.0).degeneracy == 2

    def test_sampled_solutions_stay_bounded(self):
        spec = rosen_morse2(4, 0.5)
        (one,) = scattering_states(spec, 2.0).solutions
        assert abs(one(-12.0)) < 1e-12  # the closed channel decays
        assert 0.1 < abs(one(12.0)) < 10.0
        for sol in scattering_states(spec, 15.0).solutions:
            assert 0.1 < abs(sol(-12.0)) < 10.0
            assert 0.1 < abs(sol(12.0)) < 10.0

    def test_integer_upper_exponent_needs_no_companion(self):
        spec = rosen_morse2(4, 0.5)
        eps = spec.v_plus - 4.0  # upper edge exponent 1 up to rounding
        (sol,) = scattering_states(spec, eps).solutions
        assert abs(sol(-12.0)) < 1e-6 * abs(sol(12.0))
        with mpmath.workdps(30):
            for x in (-6.0, 0.0, 4.0):
                want = _rm2_scattering_ref(spec, eps, x)
                assert abs(sol(x) - want) <= 1e-10 * abs(want)

    def test_upper_threshold_is_decided_exactly(self):
        # the float v_plus is the exact plateau rounded: above it the left
        # channel is open, on or below it closed
        spec = rosen_morse2(4, 0.5)
        vp = spec.plateaus[1]
        for eps in (spec.v_plus, math.nextafter(spec.v_plus, 0), math.nextafter(spec.v_plus, 99)):
            want = 2 if Fraction(eps) > vp else 1
            assert scattering_states(spec, eps).degeneracy == want

    def test_samplers_match_mpmath(self):
        # against the closed form at the sampler's own floats t and 1 - t to
        # 1e-10; at the exact x, the rounding of t near 1 costs up to 7.5e-10
        # at x = 8, because hyp2f1 forms 1 - t from the rounded t
        spec = rosen_morse2(4, 0.5)
        with mpmath.workdps(30):
            for eps in (2.0, 15.0, spec.v_plus - 4.0):
                for sol, sign in zip(scattering_states(spec, eps).solutions, (1, -1)):
                    for x in np.arange(-8.0, 8.01, 0.5):
                        got = sol(x)
                        own = _rm2_scattering_ref(spec, eps, x, sign, floats=True)
                        assert abs(got - own) <= 1e-10 * abs(own), (eps, sign, x)
                        want = _rm2_scattering_ref(spec, eps, x, sign)
                        assert abs(got - want) <= 1e-9 * abs(want), (eps, sign, x)

    def test_energy_at_or_below_lower_plateau_rejected(self):
        spec = rosen_morse2(4, 0.5)
        for eps in (spec.v_minus, 1.0, 0.0):
            with pytest.raises(EnergyBelowRegion):
                scattering_states(spec, eps)


# -- deep states: samplers against mpmath ----------------------------------------


def _mp_exact(v):
    """A Fraction or SurdSum as an mpmath number."""
    terms = v.terms() if isinstance(v, SurdSum) else {1: Fraction(v)}
    return mpmath.fsum(
        mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(core)
        for core, q in terms.items()
    )


def _harmonic_ref(spec, n, x):
    x = mpmath.mpf(x)
    norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
    return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm


def _morse_ref(spec, n, x):
    lam = _mp_exact(spec.exact["lam"])
    s = 2 * lam * spec.exact["b"] * mpmath.exp(-mpmath.mpf(x))
    a = 2 * lam - 2 * n - 1
    norm = mpmath.factorial(n) * a / mpmath.gamma(2 * lam - n)
    return mpmath.sqrt(norm) * mpmath.laguerre(n, a, s) * s ** (a / 2) * mpmath.exp(-s / 2)


class TestDeepSamplers:
    """Bound-state samplers at high n against 40-digit closed forms.  The
    samplers run the family recurrence in floats, so their error stays at
    rounding level relative to the state's peak."""

    CASES = [
        ("harmonic", {}, 20, (-10.0, 10.0), _harmonic_ref),
        ("harmonic", {}, 40, (-13.0, 13.0), _harmonic_ref),
        ("harmonic", {}, 60, (-16.0, 16.0), _harmonic_ref),
        ("morse", {"Lambda": 20.5}, 15, (-3.0, 14.0), _morse_ref),
        # the top level of the deep surd well: weakly bound, long tail
        ("morse", {"De": 579}, 33, (-3.0, 60.0), _morse_ref),
    ]

    @pytest.mark.parametrize("name,params,n,window,ref", CASES)
    def test_sampler_matches_mpmath(self, name, params, n, window, ref):
        spec = WELLS[name](**params)
        state = bound_state(spec, n)
        rng = random.Random(7919 + n)
        lo, hi = window
        xs = np.array(sorted(rng.uniform(lo, hi) for _ in range(120)))
        grid = np.linspace(lo, hi, 400)
        with mpmath.workdps(40):
            want = np.array([float(ref(spec, n, x)) for x in xs])
            peak = max(abs(float(ref(spec, n, x))) for x in grid)
        got = state.sampler(xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * peak
        scalar = np.array([state.sampler(float(x)) for x in xs])
        assert np.array_equal(got, scalar)

    def test_residual_matches_pointwise_loop(self):
        spec = morse(Lambda=20.5)
        st = bound_state(spec, 15)
        xs, step = [-1.5, 0.2, 2.9, 7.4], 1e-3
        worst = 0.0
        for x in xs:
            f = [st.sampler(x + k * step) for k in (-2, -1, 0, 1, 2)]
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step * step)
            gap = float(st.eps) - float(spec.reduced_potential(x))
            worst = max(worst, abs(d2 + gap * f[2]) / max(1.0, abs(f[2]) * abs(gap)))
        assert wavefunction_residual(spec, st.sampler, st.eps, xs) == worst

    def test_harmonic_n60_normalized(self):
        spec = harmonic()
        assert normalization_defect(spec, bound_state(spec, 60)) <= 1e-8


# -- branch pinning ------------------------------------------------------------


class TestBranchPinning:
    def test_generic_selector_resolves_reference_ground_energy(self):
        # the geometric filter keeps two branches; integrability breaks the tie
        spec = rosen_morse2(4, 0.5)
        eps0 = eigen_eps(spec, 0)
        res = reduce_ghe(spec.ghe, eps0)
        assert res.reason.endswith("; the only square-integrable one of 2 such branches")
        assert res.selected == pinned_branch(spec, eps0)

    def test_pinning_resolves_the_ambiguity(self):
        spec = rosen_morse2(4, 0.5)
        eps0 = eigen_eps(spec, 0)
        branch = pinned_branch(spec, eps0)
        assert branch.lam == closed_form_lambda(spec, eps0)

    def test_morse_ambiguous_window_resolved(self):
        spec = morse(Lambda=5)
        eps = Fraction(2481, 100)  # edge exponent sqrt(19)/10 < 1/2
        res = reduce_ghe(spec.ghe, eps)
        assert res.reason.endswith("; the only square-integrable one of 2 such branches")
        branch = pinned_branch(spec, eps)
        expected = Fraction(9, 2) - sqrt_scalar(Fraction(19, 100))
        assert branch.lam == expected and res.selected == branch

    def test_factory_by_name(self):
        assert WELLS["harmonic"]().name == "harmonic"
        assert WELLS["morse"](Lambda=3).name == "morse"
        assert "coulomb" not in WELLS


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [lambda: morse(Lambda=5), lambda: rosen_morse2(4, 0.5),
                                  harmonic], ids=["morse", "rosen_morse2", "harmonic"])
def test_non_finite_scattering_energy_rejected(make, eps):
    # checked before the well is asked anything, so even the confining
    # well reports the energy rather than its missing scattering region
    with pytest.raises(NonFiniteEnergy):
        scattering_states(make(), eps)


# -- one record per well ---------------------------------------------------------


def _scattering_verdict(spec, eps):
    """The scattering state's solutions sampled at three points, or the
    exception type the request raises."""
    try:
        state = scattering_states(spec, eps)
    except NoScatteringRegion as exc:
        return type(exc)
    return [[sol(x) for x in (-3.0, 0.5, 4.0)] for sol in state.solutions]


@pytest.mark.parametrize(
    "spec",
    [harmonic(), morse(Lambda=5), rosen_morse2(62, 0.35)],
    ids=["harmonic", "morse", "rosen_morse2"],
)
def test_renamed_well_behaves_the_same(spec):
    """Normalization and scattering read the spec's fields, never its name."""
    renamed = dataclasses.replace(spec, name="copy")
    n_max = None if math.isfinite(spec.v_minus) else 8
    states = bound_spectrum(spec, n_max=n_max)
    renamed_states = bound_spectrum(renamed, n_max=n_max)
    assert [st.eps for st in renamed_states] == [st.eps for st in states]
    for st, twin in zip(states, renamed_states):
        assert normalization_defect(renamed, twin) == normalization_defect(spec, st)
    # between the plateaus and above both; any energy for the confining well
    energies = [float(e) + 0.5 for e in spec.plateaus] or [100.0]
    for eps in energies:
        assert _scattering_verdict(renamed, eps) == _scattering_verdict(spec, eps)


# -- derived spectra against hand-written closed forms ---------------------------
#
# The package derives levels, counts, branches and norms from the
# quantization condition; the wells' textbook closed forms live here only,
# as the references the derivation must reproduce exactly.


def closed_form_eps(spec, n):
    if spec.name == "harmonic":
        return Fraction(2 * n + 1)
    if spec.name == "morse":
        gap = spec.exact["lam"] - n - Fraction(1, 2)
        return spec.exact["lam_sq"] - gap * gap
    b_n = sqrt_scalar(spec.exact["v2"]) - n - Fraction(1, 2)
    gap = b_n - spec.exact["v1"] / b_n
    return spec.exact["vm"] - gap * gap


def closed_form_count(spec):
    n = 0
    if spec.name == "morse":
        while spec.exact["lam"] - Fraction(1, 2) - n > 0:
            n += 1
        return n
    while True:
        b_n = sqrt_scalar(spec.exact["v2"]) - n - Fraction(1, 2)
        if not (b_n > 0 and b_n * b_n - spec.exact["v1"] > 0):
            return n
        n += 1


def closed_form_lambda(spec, eps):
    """Eigenvalue coefficient lam(eps) of the integrable branch."""
    if spec.name == "harmonic":
        return eps - 1
    if spec.name == "morse":
        kappa = sqrt_scalar(spec.exact["lam_sq"] - eps)
        return spec.exact["lam"] - kappa - Fraction(1, 2)
    km = sqrt_scalar(spec.exact["vm"] - eps)
    kp = sqrt_scalar(spec.exact["vp"] - eps)
    k0 = (eps + spec.exact["v0"] - kp * km) / 2
    return k0 - (kp + km) / 2


def closed_form_vertex(spec):
    """Where v(s) has its minimum."""
    if spec.name == "harmonic":
        return Fraction(0)
    if spec.name == "morse":
        return 2 * spec.exact["lam"]
    return spec.exact["t"]


def closed_form_plateaus(spec):
    if spec.name == "harmonic":
        return ()
    if spec.name == "morse":
        return (spec.exact["lam_sq"],)
    return spec.exact["vm"], spec.exact["vp"]


def _sweep_wells():
    rng = random.Random(20261017)
    wells = [
        morse(Lambda=Fraction(rng.randrange(2, 160), rng.choice((1, 2, 3, 4, 7))))
        for _ in range(8)
    ]
    wells += [morse(De=k * k / 2.0) for k in (3, 11, 26)]  # rational Lambda
    wells += [morse(De=rng.uniform(1.0, 600.0)) for _ in range(6)]  # surd Lambda
    wells += [
        rosen_morse2(rng.uniform(1.0, 250.0), rng.uniform(0.05, 0.9))
        for _ in range(10)
    ]
    thresholds = [morse(Lambda=lam) for lam in (0.51, Fraction(3, 2), Fraction(7, 2))]
    return wells + thresholds + [rosen_morse2(4, 0.5)], rng


class TestDerivedSpectra:
    def test_levels_and_count_equal_closed_forms(self):
        wells, _ = _sweep_wells()
        for spec in wells:
            count = eigenvalue_count(spec)
            assert count == closed_form_count(spec)
            ghe = spec.ghe
            for n in range(count):
                eps = eigen_eps(spec, n)
                assert eps == closed_form_eps(spec, n)
                lam = closed_form_lambda(spec, eps)
                assert ghe.ladder.level(n).lam == lam
                assert pinned_branch(spec, eps).lam == lam
            assert ghe.ladder.level(count) is None

    def test_plateaus_equal_closed_forms(self):
        wells, _ = _sweep_wells()
        for spec in [harmonic(), *wells]:
            plateaus = closed_form_plateaus(spec)
            assert spec.plateaus == plateaus
            floats = [scalar_float(p) for p in plateaus] + [math.inf, math.inf]
            assert (spec.v_minus, spec.v_plus) == tuple(floats[:2])

    def test_harmonic_levels_are_unbounded(self):
        spec = harmonic()
        assert eigenvalue_count(spec) == math.inf
        for n in (0, 1, 17, 171):
            assert eigen_eps(spec, n) == closed_form_eps(spec, n)

    def test_pinned_lambda_equals_closed_form(self):
        # between levels only the exponential wells: for the hyperbolic ones
        # a generic rational eps needs square roots that sqrt_scalar cannot
        # denest, and branch_candidates raises NoPerfectSquare
        wells, rng = _sweep_wells()
        for spec in wells:
            if spec.name != "morse":
                continue
            for _ in range(4):
                frac = Fraction(rng.uniform(0.02, 0.98)).limit_denominator(10**4)
                eps = frac * Fraction(spec.v_minus).limit_denominator(10**4)
                assert pinned_branch(spec, eps).lam == closed_form_lambda(spec, eps)
        eps = Fraction(37, 3)
        assert pinned_branch(harmonic(), eps).lam == closed_form_lambda(harmonic(), eps)

    def test_pinned_branch_failures_are_domain_errors(self, monkeypatch):
        # no integrable branch, or two of them, raise as select_branch does
        spec = morse(Lambda=5)
        eps = eigen_eps(spec, 2)
        branches = potentials.branch_candidates(spec.ghe, eps)
        monkeypatch.setattr(potentials, "branch_candidates", lambda ghe, eps: [])
        with pytest.raises(NoAdmissibleBranch):
            pinned_branch(spec, eps)
        monkeypatch.setattr(potentials, "branch_candidates", lambda ghe, eps: branches * 2)
        with pytest.raises(AmbiguousBranch) as raised:
            pinned_branch(spec, eps)
        assert len(raised.value.branches) == 2

    def test_missing_level_is_rejected(self):
        spec = morse(Lambda=5)
        with pytest.raises(ValueError):
            eigen_eps(spec, 5)
        with pytest.raises(ValueError):
            bound_state(spec, 5)



# Each constructor declares a map and v(s); these are the reduced equations
# and float potentials the wells spelt out by hand before they were derived.


def hand_written_ghe(spec):
    if spec.name == "harmonic":
        X = Polynomial.x()
        return GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
            interval=REAL_LINE,
        )
    if spec.name == "morse":
        lam, lam_sq = spec.exact["lam"], spec.exact["lam_sq"]
        return GheProblem(
            phi=Polynomial.x(),
            psi_tilde=Polynomial.of(1),
            phi_tilde=EpsAffinePoly(
                const=Polynomial.of(-lam_sq, lam, Fraction(-1, 4)),
                linear=Polynomial.of(1),
            ),
            interval=HALF_LINE,
        )
    shifted = Polynomial.x() - Polynomial.constant(spec.exact["t"])
    return GheProblem(
        phi=Polynomial.of(1, 0, -1),
        psi_tilde=Polynomial.of(0, -2),
        phi_tilde=EpsAffinePoly(
            const=-spec.exact["csq"] * (shifted * shifted), linear=Polynomial.of(1)
        ),
        interval=UNIT_INTERVAL,
    )


def hand_written_potential(spec):
    if spec.name == "harmonic":
        return lambda x: x * x
    if spec.name == "morse":
        lamf2, b = scalar_float(spec.exact["lam_sq"]), spec.exact["b"]
        return lambda x: lamf2 * (1.0 - b * np.exp(-x)) ** 2
    cf, tf = scalar_float(spec.exact["csq"]), scalar_float(spec.exact["t"])
    return lambda x: cf * (np.tanh(x) - tf) ** 2


def _declared_wells():
    wells, rng = _sweep_wells()
    wells += [harmonic(), harmonic(m=2.0, Omega=3.0), morse(Lambda=5)]
    wells += [morse(Lambda=Fraction(37, 4)), morse(De=3.7), rosen_morse2(62, 0.35)]
    wells += [
        morse(Lambda=rng.uniform(0.5, 60.0), xe=rng.uniform(-2.0, 2.0), a=rng.uniform(0.3, 3.0))
        for _ in range(6)
    ]
    wells += [morse(De=rng.uniform(1.0, 600.0), xe=rng.uniform(-2.0, 2.0)) for _ in range(4)]
    return wells


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestDeclaredWell:
    def test_reduced_equation_equals_hand_written(self):
        for spec in _declared_wells():
            assert spec.ghe == hand_written_ghe(spec), spec.physical_params

    def test_vertex_plateaus_and_floor(self):
        for spec in _declared_wells():
            vertex = closed_form_vertex(spec)
            assert spec.v.derivative()(vertex) == 0
            assert spec.v_min == spec.v(vertex) == 0
            assert spec.plateaus == closed_form_plateaus(spec)
            # s rises with x on the line and the tanh map, falls on the exponential one
            assert spec.sigma == (-1 if spec.name == "morse" else 1)

    def test_float_potential_is_bit_identical_to_hand_written(self):
        xs = np.concatenate([np.linspace(-40.0, 40.0, 1601), [-0.0, 1e-300, 19.06, -19.06]])
        for spec in _declared_wells():
            want = hand_written_potential(spec)(xs)
            assert _bits(spec.reduced_potential(xs)) == _bits(want), spec.physical_params
            # a scalar gives the array's bits: the square is a product, not pow
            got = [spec.reduced_potential(float(x)) for x in xs[::23]]
            assert _bits(got) == _bits(want[::23]), spec.physical_params

    def test_float_potential_of_a_well_with_no_level(self):
        # below Lambda = 1/2 the vertex 2 Lambda is under 1 and is not divided
        # out: the same values, rounded along another route
        for lam in (0.05, 0.3, 0.49):
            spec = morse(Lambda=lam, xe=0.4)
            assert eigenvalue_count(spec) == 0
            xs = np.linspace(-40.0, 40.0, 801)
            want = hand_written_potential(spec)(xs)
            floor = 1e-15 * lam * lam  # the rounding of a sum that cancels at the vertex
            assert np.allclose(spec.reduced_potential(xs), want, rtol=1e-15, atol=floor)


class TestSingleQuantizationWalk:
    """bound_spectrum quantizes once per spectrum: it builds one ladder, on
    the spec's own reduced equation, and one state per level it keeps,
    each through the module-level bound_state."""

    @staticmethod
    def _counting(monkeypatch, spec):
        """Counts ladders built on spec.ghe apart from those built on any
        other equation, and records the levels bound_state is asked for."""
        calls = {"ladder": 0, "foreign": 0, "levels": []}
        ladder, state = reduction.Ladder, potentials.bound_state

        def ladder_counted(ghe):
            calls["ladder" if ghe is spec.ghe else "foreign"] += 1
            return ladder(ghe)

        def state_counted(spec_, n):
            calls["levels"].append(n)
            return state(spec_, n)

        monkeypatch.setattr(reduction, "Ladder", ladder_counted)
        monkeypatch.setattr(potentials, "bound_state", state_counted)
        return calls

    @pytest.mark.parametrize(
        "make",
        [
            lambda: morse(Lambda=5),
            lambda: morse(Lambda=Fraction(81, 4)),
            lambda: morse(De=200.0),
            lambda: rosen_morse2(4, 0.5),
            lambda: rosen_morse2(62, 0.35),
            lambda: rosen_morse2(238, 0.51),
        ],
        ids=["morse5", "morse81/4", "morseDe200", "rm2-4", "rm2-62", "rm2-238"],
    )
    def test_finite_well_walks_count_plus_one_levels(self, monkeypatch, make):
        spec = make()
        count = closed_form_count(spec)
        calls = self._counting(monkeypatch, spec)
        states = bound_spectrum(spec)
        assert len(states) == count
        assert calls == {"ladder": 1, "foreign": 0, "levels": list(range(count))}
        assert eigenvalue_count(spec) == count and calls["ladder"] == 1

    def test_confining_well_walks_n_max_plus_one_levels(self, monkeypatch):
        spec = harmonic()
        calls = self._counting(monkeypatch, spec)
        states = bound_spectrum(spec, n_max=12)
        assert [st.n for st in states] == list(range(13))
        assert calls == {"ladder": 1, "foreign": 0, "levels": list(range(13))}

    def test_cap_below_the_count(self, monkeypatch):
        spec = morse(Lambda=20)
        calls = self._counting(monkeypatch, spec)
        assert len(bound_spectrum(spec, n_max=3)) == 4
        assert calls == {"ladder": 1, "foreign": 0, "levels": [0, 1, 2, 3]}
        assert bound_spectrum(spec, n_max=-1) == []
        with pytest.raises(EmptySpectrum):
            bound_spectrum(rosen_morse2(0.75, 0.5), n_max=-1)
        assert calls == {"ladder": 1, "foreign": 1, "levels": [0, 1, 2, 3]}

    def test_walk_builds_the_same_states_as_bound_state(self):
        for spec in (morse(De=200.0), rosen_morse2(62, 0.35)):
            for st in bound_spectrum(spec):
                solo = bound_state(spec, st.n)
                assert (st.eps, st.poly, st.chi) == (solo.eps, solo.poly, solo.chi)
                assert st.norm_const_sq == solo.norm_const_sq

    def test_jacobi_single_composition_equals_two(self):
        """BoundState.poly and CanonicalHde.polynomial equal the series in u
        composed to s, at every level of seeded wells with surd Jacobi
        exponents."""
        rng = random.Random(4099)
        wells = [
            rosen_morse2(rng.uniform(20.0, 250.0), rng.uniform(0.1, 0.6))
            for _ in range(6)
        ] + [rosen_morse2(100.0, 0.3)]
        levels = 0
        for spec in wells:
            ghe = spec.ghe
            for st in bound_spectrum(spec):
                br = ghe.ladder.level(st.n)
                can = classify_canonical(ghe.phi, br.psi)
                assert isinstance(can.alpha, SurdSum) and isinstance(can.beta, SurdSum)
                two_step = series_poly("jacobi", st.n, can.alpha, can.beta)
                two_step = two_step.compose_affine(can.scale, can.shift)
                assert can.polynomial(st.n) == two_step
                assert st.poly == two_step
                levels += 1
        assert levels == 35


class TestLazyByProducts:
    """A spectrum builds no exact eigenpolynomial and no Pearson weight;
    each is built on its first read and equals the eager construction."""

    def test_spectrum_builds_neither(self, monkeypatch):
        calls = {"polynomial": 0, "pearson_weight": 0}
        polynomial, weight = CanonicalHde.polynomial, reduction.pearson_weight

        def polynomial_counted(self, n):
            calls["polynomial"] += 1
            return polynomial(self, n)

        def weight_counted(*args):
            calls["pearson_weight"] += 1
            return weight(*args)

        monkeypatch.setattr(CanonicalHde, "polynomial", polynomial_counted)
        monkeypatch.setattr(reduction, "pearson_weight", weight_counted)
        states = bound_spectrum(morse(De=579.0))
        assert len(states) == 34
        assert calls == {"polynomial": 0, "pearson_weight": 0}
        first = states[7].poly
        assert states[7].poly is first
        assert calls == {"polynomial": 1, "pearson_weight": 0}

    @pytest.mark.parametrize(
        "spec,n_max,count",
        [(morse(De=579.0), None, 34), (harmonic(), 60, 61), (rosen_morse2(125, 0.44), None, 4)],
        ids=["morseDe579", "harmonic-60", "rm2-125"],
    )
    def test_poly_equals_the_expanded_series(self, spec, n_max, count):
        states = bound_spectrum(spec, n_max=n_max)
        assert len(states) == count
        for st in states:
            br = spec.ghe.ladder.level(st.n)
            want = classify_canonical(spec.ghe.phi, br.psi).polynomial(st.n)
            assert st.poly == want
            assert st.poly.degree == st.n

    def test_replaced_state_builds_its_own_poly(self):
        st = bound_spectrum(morse(De=579.0))[12]
        poly = st.poly
        copy = dataclasses.replace(st, sampler=lambda x: 0.0)
        assert "poly" not in vars(copy)  # nothing cached is carried over
        assert copy.poly == poly and copy.poly is not poly


def _recurrence_unhoisted(family, n, u, alpha=None, beta=None):
    """recurrence_values as first written: every invariant recomputed in
    each step and the rescale mask built at every step.  The reference for
    bit-identity."""
    u = np.asarray(u, dtype=float)
    e = np.zeros(u.shape)
    prev = np.ones(u.shape)
    if n == 0:
        return prev, e
    a = None if alpha is None else float(alpha)
    b = None if beta is None else float(beta)
    if family == "hermite":
        cur = 2.0 * u
    elif family == "laguerre":
        cur = 1.0 + a - u
    else:
        cur = 0.5 * ((a - b) + (a + b + 2.0) * u)
    for k in range(1, n):
        if family == "hermite":
            nxt = 2.0 * u * cur - 2.0 * k * prev
        elif family == "laguerre":
            nxt = ((2 * k + 1 + a - u) * cur - (k + a) * prev) / (k + 1)
        else:
            s = 2 * k + a + b
            lead = (s + 1.0) * ((s + 2.0) * s * u + (a * a - b * b))
            back = 2.0 * (k + a) * (k + b) * (s + 2.0)
            nxt = (lead * cur - back * prev) / (2.0 * (k + 1) * (k + a + b + 1) * s)
        prev, cur = cur, nxt
        big = np.abs(cur) > potentials._RESCALE_AT
        if big.any():
            cur = np.where(big, cur / potentials._RESCALE_AT, cur)
            prev = np.where(big, prev / potentials._RESCALE_AT, prev)
            e = e + np.where(big, potentials._RESCALE_LOG, 0.0)
    return cur, e


class TestRecurrenceRescaling:
    """Where the forward recurrence grows past _RESCALE_AT, the values it
    returns as m * exp(e) still match mpmath, and every float equals the
    unhoisted recurrence bit for bit."""

    CASES = [
        # u = 0.3 stays below the threshold while u = 25 passes it: a mixed mask
        ("hermite", 120, (0.3, 25.0), None, None),
        ("hermite", 171, (0.5, 3.0), None, None),
        ("hermite", 200, (-1.7, 40.0), None, None),
        # past the largest zero (about 1205) the values pass 2^1000
        ("laguerre", 300, (0.5, 700.0, 1500.0), 2.5, None),
        ("jacobi", 400, (0.3, -1.5, 1.5), 3.5, 1.25),
    ]

    @staticmethod
    def _mp_value(family, n, u, a, b):
        if family == "hermite":
            return mpmath.hermite(n, u)
        if family == "laguerre":
            return mpmath.laguerre(n, a, u)
        return mpmath.jacobi(n, a, b, u)

    @pytest.mark.parametrize("family,n,us,a,b", CASES)
    def test_matches_mpmath(self, family, n, us, a, b):
        m, e = recurrence_values(family, n, np.array(us), a, b)
        assert (e > 0).any()
        with mpmath.workdps(40):
            for u, mi, ei in zip(us, m, e):
                want = self._mp_value(family, n, u, a, b)
                got = mpmath.mpf(float(mi)) * mpmath.exp(mpmath.mpf(float(ei)))
                assert abs(got / want - 1) <= 1e-10

    @pytest.mark.parametrize("family,n,us,a,b", CASES + [
        ("hermite", 0, (1.0,), None, None),
        ("laguerre", 1, (2.0,), Fraction(1, 3), None),
        ("jacobi", 37, (-0.9, 0.0, 0.45), sqrt_scalar(Fraction(2)), Fraction(7, 2)),
    ])
    def test_bit_identical_to_the_unhoisted_recurrence(self, family, n, us, a, b):
        xs = np.concatenate([np.array(us), np.linspace(-2.0, 2.0, 41)])
        got = recurrence_values(family, n, xs, a, b)
        want = _recurrence_unhoisted(family, n, xs, a, b)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


    def test_non_finite_input_keeps_its_bits(self):
        # NaN and inf fail the dot-product guard and reach the elementwise
        # test, so an inf rescales at the same step as before and the
        # finite values beside it keep their bits
        for us in ((math.nan, 0.3, -1.7), (math.inf, -0.3, 1.7), (-math.inf, 0.9)):
            xs = np.array(us)
            for family, n, a, b in (("hermite", 40, None, None), ("laguerre", 30, 2.5, None)):
                with np.errstate(invalid="ignore"):  # inf - inf
                    got = recurrence_values(family, n, xs, a, b)
                    want = _recurrence_unhoisted(family, n, xs, a, b)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()


def test_nan_beside_a_rescaled_value():
    # a NaN abscissa must not stop the rescale at the finite one beside it
    alone = recurrence_values("hermite", 400, [40.0])
    mixed = recurrence_values("hermite", 400, [40.0, math.nan])
    assert alone[1][0] > 0
    assert mixed[0][:1].tobytes() == alone[0].tobytes()
    assert mixed[1][:1].tobytes() == alone[1].tobytes()


_FAMILY_NAMES = ("hermite", "laguerre", "jacobi")


def _draw(rng, family):
    """A seeded (n, U, alpha, beta): n <= 150, U from 0.03 to 1000 (to 10^4
    for Laguerre, whose values pass 2^500 only far beyond its zeros), and
    exponents from just above -1 to about 19."""
    n = int(rng.integers(0, 151))
    u_max = 10 ** rng.uniform(-1.5, 4.0 if family == "laguerre" else 3.0)
    a = None if family == "hermite" else -1 + 10 ** rng.uniform(-3, 1.3)
    b = -1 + 10 ** rng.uniform(-3, 1.3) if family == "jacobi" else None
    return n, u_max, a, b


def _bound_holds(family, n, u, a, b):
    """Whether n log2 max(G, 1) < 490 for the family's growth bound G on u."""
    rec = family_record(family)
    g = rec.growth(n, float(np.max(np.abs(u), initial=0.0)), *rec.floats(a, b))
    return n * math.log2(max(g, 1.0)) < potentials._UNGUARDED_BITS


def _same_bits(got, want):
    return all(
        np.shape(g) == np.shape(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want)
    )


class TestUnguardedRecurrence:
    """Where Family.growth keeps every value below 2^490 the recurrence runs
    without its overflow guard; the floats stay those of the guarded
    reference everywhere, on both sides of the bound and where the guard
    fires."""

    def test_bit_identical_sweep(self):
        rng = np.random.default_rng(2701)
        kinds = {}
        for family in _FAMILY_NAMES:
            for _ in range(150):
                n, u_max, a, b = _draw(rng, family)
                u = rng.uniform(-u_max, u_max, int(rng.integers(1, 9)))
                got = recurrence_values(family, n, u, a, b)
                want = _recurrence_unhoisted(family, n, u, a, b)
                assert _same_bits(got, want), (family, n, u_max, a, b)
                if _bound_holds(family, n, u, a, b):
                    kind = "bound holds"
                else:
                    kind = "guard fires" if (want[1] > 0).any() else "guard idle"
                kinds[family, kind] = kinds.get((family, kind), 0) + 1
        for family in _FAMILY_NAMES:
            for kind in ("bound holds", "guard idle", "guard fires"):
                assert kinds.get((family, kind), 0) >= 10, (family, kind, kinds)

    @pytest.mark.parametrize(
        "u",
        [0.3, np.array(-0.7), 40.0, [], np.zeros((0, 3)), [math.nan], [math.inf, 0.3],
         [-math.inf], [math.nan, 2.0, -math.inf], [[0.1, 0.9], [-0.4, 40.0]]],
        ids=["float", "0-d", "far", "empty", "empty-2d", "nan", "inf", "-inf", "mixed", "2-d"],
    )
    @pytest.mark.parametrize(
        "family,a,b", [("hermite", None, None), ("laguerre", 2.5, None), ("jacobi", 0.5, -0.25)]
    )
    def test_bit_identical_on_any_shape_and_non_finite_input(self, u, family, a, b):
        for n in (0, 1, 2, 37, 150, 400):
            with np.errstate(all="ignore"):  # inf - inf, and the reference's overflow
                got = recurrence_values(family, n, u, a, b)
                want = _recurrence_unhoisted(family, n, u, a, b)
            assert _same_bits(got, want), n

    def test_guard_fires_past_the_bound(self):
        assert not _bound_holds("hermite", 400, [40.0], None, None)
        got = recurrence_values("hermite", 400, [40.0, 0.5])
        assert got[1][0] > 0
        assert _same_bits(got, _recurrence_unhoisted("hermite", 400, [40.0, 0.5]))

    def test_no_bound_outside_the_jacobi_range(self):
        rec = family_record("jacobi")
        for a, b in ((-1.0, 0.5), (0.5, -1.5), (math.nan, 0.0)):
            assert rec.growth(3, 0.5, a, b) == math.inf
            assert not _bound_holds("jacobi", 3, [0.5], a, b)

    def test_bit_identical_near_the_threshold(self):
        # low degrees at huge |u|, where the bound is nearly tight: on both
        # sides of n log2 G = 490 the floats are the reference's, and past
        # 2^500 the guard fires
        fired = 0
        for family, a, b in (("hermite", None, None), ("laguerre", 0.5, None),
                             ("jacobi", 0.25, 0.75)):
            for n in (2, 3, 4):
                for bits in range(460, 540, 3):
                    u = np.array([-(2.0 ** (bits / n)), 0.5, 2.0 ** (bits / n)])
                    got = recurrence_values(family, n, u, a, b)
                    assert _same_bits(got, _recurrence_unhoisted(family, n, u, a, b))
                    fired += (got[1] > 0).any()
        assert fired > 30

    def test_growth_bounds_each_step(self):
        # |A_k(u)| + |C_k| <= G for k < n and |P_1(u)| <= G at u = +-U (A_k
        # is affine in u): the family's own step maps (1, 0) to A_k(u) and
        # (0, 1) to -C_k
        rng = np.random.default_rng(2703)
        for family in _FAMILY_NAMES:
            rec = family_record(family)
            for _ in range(100):
                n, u_max, a, b = _draw(rng, family)
                n = max(n, 2)
                exps = rec.floats(a, b)
                u = np.array([-u_max, u_max])
                p1, step = rec.recurrence(u, *exps)
                one, zero = np.ones(2), np.zeros(2)
                worst = max(
                    float(np.max(np.abs(step(float(k), one, zero)) + np.abs(step(float(k), zero, one))))
                    for k in range(1, n)
                )
                g = rec.growth(n, u_max, *exps)
                assert float(np.max(np.abs(p1))) <= g and worst <= g, (family, n, u_max, a, b)

    def test_growth_bounds_every_degree(self):
        # log2 max_(k <= n) |P_k| from the guarded reference's (m, e) never
        # exceeds n log2 max(G, 1), G the family's growth bound on |u| <= U
        rng = np.random.default_rng(2702)
        for family in _FAMILY_NAMES:
            rec = family_record(family)
            for _ in range(30):
                n, u_max, a, b = _draw(rng, family)
                n = max(n, 1)
                u = np.concatenate([[-u_max, u_max], rng.uniform(-u_max, u_max, 6)])
                g = rec.growth(n, u_max, *rec.floats(a, b))
                peak = -math.inf
                with np.errstate(divide="ignore"):  # a zero of P_k
                    for k in range(n + 1):
                        m, e = _recurrence_unhoisted(family, k, u, a, b)
                        peak = max(peak, float(np.max(np.log2(np.abs(m)) + e / math.log(2.0))))
                assert peak <= n * math.log2(max(g, 1.0)), (family, n, u_max, a, b)


def _mp_norm_closed_form(family, n, a, b):
    """Weighted integral of P_n^2 under the x-measure du/phi_c."""
    mp = mpmath.mp
    if family == "hermite":
        return 2**n * mp.factorial(n) * mp.sqrt(mp.pi)
    if family == "laguerre":
        return mp.gamma(n + a + 1) / (mp.factorial(n) * a)
    return (
        2 ** (a + b - 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1) * (1 / a + 1 / b)
        / (mp.factorial(n) * mp.gamma(n + a + b + 1))
    )


def _mp_norm_quadrature(family, n, a, b):
    """The same integral by mpmath quadrature.  Edge factors t^(alpha-1)
    with alpha near 0 are taken out by t = w^(1/alpha), which turns
    t^(alpha-1) dt into dw/alpha."""
    mp = mpmath.mp
    if family == "hermite":
        return mp.quad(lambda u: mp.hermite(n, u) ** 2 * mp.exp(-u * u), [-mp.inf, 0, mp.inf])
    if family == "laguerre":
        head = mp.quad(
            lambda w: mp.laguerre(n, a, w ** (1 / a)) ** 2 * mp.exp(-(w ** (1 / a))) / a,
            [0, 1],
        )
        tail = mp.quad(
            lambda u: mp.laguerre(n, a, u) ** 2 * u ** (a - 1) * mp.exp(-u),
            mp.linspace(1, 4 * n + 4 * a + 20, 6) + [mp.inf],
        )
        return head + tail
    upper = mp.quad(  # u in [0, 1], 1 - u = w^(1/alpha)
        lambda w: mp.jacobi(n, a, b, 1 - w ** (1 / a)) ** 2 * (2 - w ** (1 / a)) ** (b - 1) / a,
        [0, 1],
    )
    lower = mp.quad(  # u in [-1, 0], 1 + u = w^(1/beta)
        lambda w: mp.jacobi(n, a, b, w ** (1 / b) - 1) ** 2 * (2 - w ** (1 / b)) ** (a - 1) / b,
        [0, 1],
    )
    return upper + lower


def _closed_form_exponents(spec, n):
    """(family, alpha, beta) of level n from the closed forms."""
    if spec.name == "harmonic":
        return "hermite", None, None
    if spec.name == "morse":
        return "laguerre", _mp_exact(2 * spec.exact["lam"] - 2 * n - 1), None
    b_n = sqrt_scalar(spec.exact["v2"]) - n - Fraction(1, 2)
    a_n = spec.exact["v1"] / b_n
    return "jacobi", _mp_exact(b_n - a_n), _mp_exact(b_n + a_n)


class TestClosedFormNorms:
    CASES = [
        ("harmonic", {}, 7),
        ("morse", {"Lambda": 0.51}, 0),  # alpha = 0.02
        ("morse", {"Lambda": 5, "a": 2.0}, 4),
        ("morse", {"De": 579}, 33),
        ("rosen_morse2", {"v0": 24, "mu": 0.25}, 2),
        ("rosen_morse2", {"v0": 238, "mu": 0.51}, 5),  # alpha = 0.0067
    ]

    @pytest.mark.parametrize("name,params,n", CASES)
    def test_norm_matches_mpmath(self, name, params, n):
        spec = WELLS[name](**params)
        state = bound_state(spec, n)
        with mpmath.workdps(30):
            family, a, b = _closed_form_exponents(spec, n)
            closed = _mp_norm_closed_form(family, n, a, b)
            assert abs(_mp_norm_quadrature(family, n, a, b) / closed - 1) <= 1e-25
            want = float(1 / closed)
        got = state.norm_const_sq / spec.coordinate_scale
        assert abs(got / want - 1.0) <= 1e-13


class TestNormOverflow:
    def test_harmonic_n171_normalized(self):
        spec = harmonic()
        state = bound_state(spec, 171)
        assert state.norm_const_sq == 0.0  # below the float range
        assert normalization_defect(spec, state) <= 1e-8

    def test_weakly_bound_hyperbolic_top_level(self):
        spec = rosen_morse2(v0=238, mu=0.51)
        states = bound_spectrum(spec)
        assert len(states) == 6
        for st in states:
            assert normalization_defect(spec, st) <= 1e-8


class TestNormalizationPartition:
    """Normalization starts from panels of equal WKB phase over the window
    oracle.WkbScan.edges derives from the reduced potential at eps_n: a deep
    level meets the tolerance in one or two rounds, and every level
    integrates to its closed-form norm within 1e-12."""

    WELLS_DEEP = [
        ("harmonic", {}, 60),
        ("morse", {"Lambda": 36.75}, None),
        ("morse", {"De": 579}, None),
        ("rosen_morse2", {"v0": 238, "mu": 0.51}, None),
    ]

    @pytest.mark.parametrize("name,params,n_max", WELLS_DEEP)
    def test_rounds_and_defects(self, name, params, n_max):
        spec = WELLS[name](**params)
        for st in bound_spectrum(spec, n_max=n_max):
            rounds = []

            def sampler(x, inner=st.sampler):
                rounds.append(np.size(x))
                return inner(x)

            defect = normalization_defect(spec, dataclasses.replace(st, sampler=sampler))
            # each quadrature round is one call; the first also holds one
            # point per plateau end, where the closed-form tail starts
            assert rounds[0] > len(spec.plateau_ends)
            assert (rounds[0] - len(spec.plateau_ends)) % 21 == 0
            assert all(size % 21 == 0 for size in rounds[1:])
            if st.n >= 20:
                assert len(rounds) <= 2, st.n
            # the weakly bound top level of the hyperbolic well (n = 5) too:
            # its tail's rate comes from the exact gap to the plateau
            assert defect <= 1e-12, st.n


def _fresh_normalization(spec, st):
    """The window and the defect as a fresh WkbScan gives them, with each
    plateau tail's edge sampled on its own."""
    lo, hi, _ = spec.fd_box
    edges = WkbScan(spec.reduced_potential, lo, hi).edges(scalar_float(st.eps))
    total = quad_adaptive(lambda x: st.sampler(x) ** 2, *edges)
    for _, side, plateau in spec.plateau_ends:
        edge = edges[0] if (side > 0) == (spec.sigma > 0) else edges[-1]
        total += st.sampler(edge) ** 2 / (2.0 * math.sqrt(accurate_float(plateau - st.eps)))
    return edges, abs(total - 1.0)


class TestNormalizationScan:
    """Every level of a well reads its window from one scan of the float
    potential, spec.wkb_scan: each box it reaches is sampled once for all
    levels, and each window, panel and defect keeps the bits of a fresh
    WkbScan per level."""

    @pytest.mark.parametrize("name,params,n_max", TestNormalizationPartition.WELLS_DEEP)
    def test_each_box_is_sampled_once(self, name, params, n_max, monkeypatch):
        spec = WELLS[name](**params)
        boxes, sample = [], oracle._potential

        def counting(v, x):
            if v is spec.reduced_potential and np.size(x) == 2049:
                boxes.append((float(x[0]), float(x[-1])))
            return sample(v, x)

        monkeypatch.setattr(oracle, "_potential", counting)
        states = bound_spectrum(spec, n_max=n_max)
        for st in states:
            assert normalization_defect(spec, st) <= 1e-12, st.n
        assert boxes and len(boxes) == len(set(boxes)) < len(states)

    @pytest.mark.parametrize("name,params,ns", [
        *TestNormalizationPartition.WELLS_DEEP,
        ("harmonic", {}, [170]),  # the window leaves fd_box: the scan widens it
        ("morse", {"Lambda": 10000}, [0, 5]),  # a window a few cells wide
        ("morse", {"Lambda": 100000}, [0]),  # a well inside one cell: the scan zooms in
        ("rosen_morse2", {"v0": 1e6, "mu": 0.5}, [0, 100]),
    ])
    def test_bit_for_bit_as_fresh_per_level(self, name, params, ns):
        spec = WELLS[name](**params)
        states = (bound_spectrum(spec, n_max=ns) if not isinstance(ns, list)
                  else [bound_state(spec, n) for n in ns])
        for st in states:
            edges, defect = _fresh_normalization(spec, st)
            assert spec.wkb_scan.edges(scalar_float(st.eps)) == edges, st.n
            assert normalization_defect(spec, st) == defect, st.n
        # the boxes the scan sampled: fd_box, and the widened or zoomed ones
        width = spec.fd_box[1] - spec.fd_box[0]
        widths = [hi - lo for lo, hi in spec.wkb_scan._boxes]
        if (name, ns) == ("harmonic", [170]):
            assert max(widths) > width and edges[-1] > spec.fd_box[1]
        if (name, params) == ("morse", {"Lambda": 100000}):
            assert min(widths) <= 2 * width / 2048 and len(edges) > 2


class TestNormalizationWindow:
    """The window comes from the level and the potential alone, so a deep
    Morse well keeps its minimum inside it, and a level a hair below the
    plateau has its exact closed-form tail."""

    @pytest.mark.parametrize("lam", [300, 400, 1000])
    def test_deep_morse(self, lam):
        spec = morse(Lambda=lam)
        for n in (0, 5):
            assert normalization_defect(spec, bound_state(spec, n)) <= 1e-11, n

    @pytest.mark.parametrize("name,params,n", [
        ("harmonic", {}, 450),
        ("morse", {"Lambda": 1000}, 400),
        ("morse", {"Lambda": 1000}, 700),
        ("morse", {"Lambda": 1000}, 999),
    ])
    def test_levels_past_a_hundred_starting_panels(self, name, params, n):
        # one starting panel per pi of WKB phase, several hundred of them:
        # quad_adaptive's subinterval cap grows with the starting panels
        spec = WELLS[name](**params)
        assert normalization_defect(spec, bound_state(spec, n)) <= 1e-11

    def test_ground_state_of_a_very_deep_well(self):
        # at Lambda = 1e4 the ground state's classically allowed region is
        # 0.02 wide, three of the 2048 cells that WkbScan lays over fd_box
        spec = morse(Lambda=10000)
        assert normalization_defect(spec, bound_state(spec, 0)) <= 1e-11

    @pytest.mark.parametrize("lam", [5.5001, 5.5000000000001])
    def test_levels_just_below_the_plateau(self, lam):
        spec = morse(Lambda=lam)
        states = bound_spectrum(spec)
        assert len(states) == 6
        for st in states:
            assert normalization_defect(spec, st) <= 1e-13, st.n

    def test_plateau_rounded_off_its_exact_value(self):
        # this well's float potential levels off two ulps from float(vm), and
        # its top level's density falls by a factor e only every 28 units
        spec = rosen_morse2(163, 0.18)
        vm = float(spec.exact["vm"])
        assert float(spec.reduced_potential(np.array(math.inf))) != vm
        for st in bound_spectrum(spec):
            assert normalization_defect(spec, st) <= 1e-12, st.n
