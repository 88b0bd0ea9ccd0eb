"""Release gates.

Eight end-to-end checks, each printing a single [PASS]/[FAIL] line.  Under
pytest every gate runs as an ordinary test; running the file directly
(python tests/test_acceptance.py) executes all eight in order and exits
nonzero if any of them fails.
"""

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import scipy.special

from nu_spectral import (
    FactorizedFunction,
    FdGrid,
    Polynomial,
    bound_spectrum,
    compare_spectra,
    eigen_eps,
    eigen_lambda,
    eigenvalue_count,
    harmonic,
    hermite_fn,
    hyp1f1,
    hyp2f1,
    hypU,
    limit_2f1_at_1,
    morse,
    norm_defect,
    normalization_defect,
    oracle_spectrum,
    orthogonality_defect,
    pinned_branch,
    quad_adaptive,
    recurrence_poly,
    reduce_ghe,
    rodrigues_poly,
    rosen_morse2,
    scalar_float,
    scattering_states,
    sqrt_scalar,
    wronskian_defect,
)
from nu_spectral.cli import main as cli_main
from nu_spectral.oracle import _sinc_dvr

HALF = Fraction(1, 2)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    assert code == 0, f"cli {argv} exited {code}: {buf.getvalue()}"
    return buf.getvalue()


def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _find_branch(branches, k0, pi_coeffs):
    for br in branches:
        if br.k0 == k0 and br.pi.coeffs == tuple(pi_coeffs):
            return br
    raise AssertionError(f"no branch with k0={k0} pi={pi_coeffs}")


def _branch_identity_holds(ghe, br):
    """lam*phi == pi^2 + pi*(psi_tilde - phi') + pi'*phi + phi_tilde, exactly."""
    phi_tilde = ghe.phi_tilde
    if hasattr(phi_tilde, "at"):
        phi_tilde = phi_tilde.at(br.eps)
    lhs = ghe.phi * br.lam
    rhs = (
        br.pi * br.pi
        + br.pi * (ghe.psi_tilde - ghe.phi.derivative())
        + br.pi.derivative() * ghe.phi
        + phi_tilde
    )
    return (lhs - rhs).is_zero


def _sampled_bounded(sampler, direction):
    """Growth verdict from samples near |x| = 12 against samples near 8.

    Three offsets per station so an oscillation node cannot masquerade as
    decay; a closed channel changes the amplitude by e^(4*kappa) between the
    stations, far beyond the factor-50 line.
    """
    far = max(abs(sampler(direction * (12.0 - d))) for d in (0.0, 0.4, 0.8))
    near = max(abs(sampler(direction * (8.0 - d))) for d in (0.0, 0.4, 0.8))
    return far < 50.0 * max(near, 1e-300)


# -- gate bodies ---------------------------------------------------------------


def gate_harmonic():
    start = time.monotonic()
    spec = harmonic()
    states = bound_spectrum(spec, n_max=20)
    assert len(states) == 21
    for n, st in enumerate(states):
        assert isinstance(st.eps, Fraction)
        assert st.eps == 2 * n + 1

    header, rows = _csv_rows(
        _cli(["solve", "--potential", "harmonic", "--n-max", "20"])
    )
    assert header[:2] == ["n", "eps_n"]
    assert [r[1] for r in rows] == [format(float(2 * n + 1), ".17g") for n in range(21)]

    oracle = oracle_spectrum(spec, k_max=6, grid=FdGrid(-10.0, 10.0, 4001))
    report = compare_spectra([s.eps for s in states[:6]], oracle, rel_tol=1e-5)
    assert report.ok, report.rel_errors
    assert time.monotonic() - start < 5.0


def gate_morse_bound():
    start = time.monotonic()
    spec = morse(Lambda=5)
    assert eigenvalue_count(spec) == 5
    states = bound_spectrum(spec)
    assert len(states) == 5
    for n, st in enumerate(states):
        gap = HALF + n - 5
        assert st.eps == 25 - gap * gap

    report = compare_spectra(
        [scalar_float(s.eps) for s in states], oracle_spectrum(spec), rel_tol=1e-4
    )
    assert report.ok, report.rel_errors
    for st in states:
        assert normalization_defect(spec, st) <= 1e-8
    assert time.monotonic() - start < 10.0


def gate_morse_scattering():
    spec = morse(Lambda=5)
    for eps in (26.0, 30.0, 37.5, 50.0, 61.0):
        state = scattering_states(spec, eps)
        assert state.degeneracy == 1
        # the solution decays in the wall and stays bounded on the plateau
        (sol,) = state.solutions
        assert abs(sol(-4.0)) < 1e-100
        assert _sampled_bounded(sol, +1.0)


def gate_rosen_morse2():
    spec = rosen_morse2(4, 0.5)
    assert eigenvalue_count(spec) == 1
    states = bound_spectrum(spec)
    assert len(states) == 1
    report = compare_spectra(
        [scalar_float(states[0].eps)], oracle_spectrum(spec), rel_tol=1e-4
    )
    assert report.ok, report.rel_errors

    mid = scattering_states(spec, 2.0)  # one open channel
    top = scattering_states(spec, 15.0)  # both channels open
    assert mid.degeneracy == 1
    assert top.degeneracy == 2
    for state in (mid, top):
        for sol in state.solutions:
            assert _sampled_bounded(sol, -1.0) and _sampled_bounded(sol, +1.0)


def gate_reduction_tables():
    # harmonic: phi = 1, single k0 = eps, deformation +-s
    spec = harmonic()
    eps0 = eigen_eps(spec, 0)
    ghe = spec.ghe
    res = reduce_ghe(ghe, eps0)
    assert res.k0_values == (eps0,)
    assert len(res.branches) == 2
    for slope, lam in ((Fraction(1), eps0 + 1), (Fraction(-1), eps0 - 1)):
        br = _find_branch(res.branches, eps0, (Fraction(0), slope))
        assert br.lam == lam
        assert br.psi == Polynomial.of(0, 2 * slope)
        assert br.chi == FactorizedFunction(exp_poly=Polynomial.of(0, 0, slope * HALF))
        assert br.weight == FactorizedFunction(exp_poly=Polynomial.of(0, 0, slope))
        assert _branch_identity_holds(ghe, br)
    assert res.selected.pi.coeffs == (Fraction(0), Fraction(-1))

    # morse: phi = s, k0 = 5 -+ kappa, deformation -+(kappa - s/2)
    spec = morse(Lambda=5)
    eps0 = eigen_eps(spec, 0)
    kappa = sqrt_scalar(spec.exact["lam_sq"] - eps0)
    depth = spec.exact["lam"]
    ghe = spec.ghe
    res = reduce_ghe(ghe, eps0)
    assert set(res.k0_values) == {depth - kappa, depth + kappa}
    assert len(res.branches) == 4
    base_x = Polynomial.of(0, 1)
    for k0, p0, p1 in (
        (depth - kappa, -kappa, HALF),
        (depth - kappa, kappa, -HALF),
        (depth + kappa, kappa, HALF),
        (depth + kappa, -kappa, -HALF),
    ):
        br = _find_branch(res.branches, k0, (p0, p1))
        assert br.lam == k0 + p1
        assert br.psi == Polynomial.of(1 + 2 * p0, 2 * p1)
        assert br.chi == FactorizedFunction(
            power_terms=((base_x, p0),), exp_poly=Polynomial.of(0, p1)
        )
        assert br.weight == FactorizedFunction(
            power_terms=((base_x, 2 * p0),), exp_poly=Polynomial.of(0, 2 * p1)
        )
        assert _branch_identity_holds(ghe, br)
    assert res.selected.lam == 0

    # rosen-morse II: phi = 1 - s^2, two k0 values, surd coefficients
    spec = rosen_morse2(4, 0.5)
    eps0 = eigen_eps(spec, 0)
    ghe = spec.ghe
    km = sqrt_scalar(spec.exact["vm"] - eps0)
    kp = sqrt_scalar(spec.exact["vp"] - eps0)
    k_lo = (spec.exact["v0"] + eps0 - kp * km) / 2
    k_hi = (spec.exact["v0"] + eps0 + kp * km) / 2
    a0 = (kp - km) / 2
    b0 = (kp + km) / 2
    # at the exact ground energy two branches share the admissible geometry
    # and only the boundary decay of chi separates them: reduce_ghe's
    # integrability tie-break and pinned_branch take that branch below
    res = reduce_ghe(ghe, eps0)
    assert set(res.k0_values) == {k_lo, k_hi}
    assert len(res.branches) == 4
    one_minus = Polynomial.of(1, -1)
    one_plus = Polynomial.of(1, 1)
    for k0, p0, p1 in (
        (k_lo, a0, -b0),
        (k_lo, -a0, b0),
        (k_hi, b0, -a0),
        (k_hi, -b0, a0),
    ):
        br = _find_branch(res.branches, k0, (p0, p1))
        assert br.lam == k0 + p1
        assert br.psi == Polynomial.of(2 * p0, 2 * p1 - 2)
        for factor, scale in ((br.chi, 1), (br.weight, 2)):
            assert set(factor.power_terms) == {
                (one_minus, -scale * (p0 + p1) / 2),
                (one_plus, scale * (p0 - p1) / 2),
            }
            assert factor.exp_poly.is_zero
            assert not factor.inv_exp_terms
        assert _branch_identity_holds(ghe, br)
    chosen = pinned_branch(spec, eps0)
    assert chosen == res.selected
    assert chosen.lam == 0
    assert chosen.pi.coeffs == (a0, -b0)
    assert set(chosen.weight.power_terms) == {(one_minus, km), (one_plus, kp)}

    # the same three problems through the command line, text format in
    csq, t0 = spec.exact["csq"], spec.exact["t"]
    rm2_text = (
        f"phi=1,0,-1 psi_tilde=0,-2 "
        f"phi_tilde={-csq * t0 * t0}+eps,{2 * csq * t0},{-csq} interval=-1,1"
    )
    for text, eps_str, n_branches in (
        ("phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=-inf,inf", "1", 2),
        ("phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf", "19/4", 4),
        # probe energy low enough that only one deformation keeps its
        # turning point inside the interval
        (rm2_text, "1/4", 4),
    ):
        doc = json.loads(_cli(["reduce", text, "--eps", eps_str, "--format", "json"]))
        assert len(doc["branches"]) == n_branches
        assert doc["selected"] is not None
    doc = json.loads(
        _cli(
            [
                "reduce",
                "phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf",
                "--eps",
                "19/4",
                "--format",
                "json",
            ]
        )
    )
    chosen = doc["branches"][doc["selected"] - 1]
    assert chosen["lam"] == "0"
    assert chosen["pi"] == ["9/2", "-1/2"]


def gate_classical_families():
    families = (
        ("hermite", None, None),
        ("laguerre", Fraction(9, 2), None),
        ("jacobi", Fraction(1, 2), Fraction(7, 2)),
    )
    for family, alpha, beta in families:
        for n in range(13):
            assert rodrigues_poly(family, n, alpha, beta) == recurrence_poly(
                family, n, alpha, beta
            )
        for m in range(11):
            for n in range(m + 1, 11):
                defect = orthogonality_defect(family, m, n, alpha, beta)
                assert defect <= 1e-10, (family, m, n, defect)
        for n in range(11):
            defect = norm_defect(family, n, alpha, beta)
            assert defect <= 1e-9, (family, n, defect)


def gate_hypergeometric():
    # limiting behaviour at argument 1, constants against direct gamma forms
    gamma = scipy.special.gamma
    cases = (
        ((1.0, 2.0, 4.0), "finite"),
        ((0.5, 0.5, 2.0), "finite"),
        ((0.4, 0.7, 2.4), "finite"),
        ((1.5, 0.3, 2.0), "finite"),
        ((-2.0, 1.3, 0.8), "finite"),
        ((0.7, 1.1, 1.8), "log"),
        ((0.5, 0.5, 1.0), "log"),
        ((1.2, 0.8, 2.0), "log"),
        ((1.0, 1.5, 2.0), "power"),
        ((2.2, 1.5, 2.6), "power"),
        ((0.5, 1.0 + 0.9j, 1.5), "oscillatory"),
        ((0.3, 0.9 + 0.4j, 1.2), "oscillatory"),
    )
    assert len(cases) == 12
    for (a, b, c), regime in cases:
        lim = limit_2f1_at_1(a, b, c)
        assert lim.regime == regime, (a, b, c, lim.regime)
        if a == -2.0:
            # terminating series: sum the three terms directly
            expected = 1.0 + a * b / c + a * (a + 1) * b * (b + 1) / (c * (c + 1) * 2)
        elif regime in ("finite", "log"):
            expected = (
                gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
                if regime == "finite"
                else gamma(a + b) / (gamma(a) * gamma(b))
            )
        else:
            expected = gamma(c) * gamma(a + b - c) / (gamma(a) * gamma(b))
        assert abs(lim.constant - expected) <= 1e-10 * max(1.0, abs(expected))

    # first-kind confluent reflection
    for a, c, z in (
        (0.7, 1.4, 0.5),
        (0.7, 1.4, 2.3),
        (0.7, 1.4, -1.1),
        (1.9, 0.6, 1.7),
        (-1.5, 2.2, 0.9),
        (2.4, 3.3, -2.0),
    ):
        lhs = hyp1f1(a, c, z).value
        rhs = math.exp(z) * hyp1f1(c - a, c, -z).value
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (a, c, z)

    # second-kind index shift
    for a, c, z in (
        (0.6, 1.45, 2.0),
        (1.2, 0.35, 0.8),
        (0.9, 1.7, 3.5),
        (1.8, 0.25, 1.2),
    ):
        lhs = hypU(a, c, z).value
        rhs = z ** (1.0 - c) * hypU(a - c + 1.0, 2.0 - c, z).value
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (a, c, z)

    # wronskians of the two solution pairs
    zs = (0.3, 0.6, 1.0, 1.5, 2.1, 2.8, 3.6, 4.2, 5.0, 5.7)
    for a, c in ((0.7, 1.4), (1.9, 0.6)):
        for pair in ("mm", "mu"):
            for z in zs:
                assert wronskian_defect(pair, a, c, z) <= 1e-8, (pair, a, c, z)

    # hermite function against its integral representation on Re(nu) < -2
    for nu in (-2.2, -2.5, -3.1, -3.7):
        for z in (-1.0, 0.3, 1.2):
            direct = hermite_fn(nu, z).value

            def integrand(t, nu=nu, z=z):
                return t ** (-nu - 1.0) * np.exp(-t * t - 2.0 * t * z)

            via_integral = quad_adaptive(integrand, 0.0, 30.0) / math.gamma(-nu)
            assert abs(direct - via_integral) <= 1e-8 * max(1.0, abs(direct))

    # differential-equation residuals on random parameter draws
    rng = random.Random(20250814)

    def off_integer(lo, hi):
        while True:
            v = rng.uniform(lo, hi)
            if abs(v - round(v)) > 0.07:
                return v

    def residual(terms):
        return abs(sum(terms)) / max(1.0, *map(abs, terms))

    for _ in range(50):
        a, b = rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5)
        c = rng.uniform(0.5, 3.0)
        z = rng.choice((-1, 1)) * rng.uniform(0.05, 0.6)
        y = hyp2f1(a, b, c, z).value
        dy = a * b / c * hyp2f1(a + 1, b + 1, c + 1, z).value
        d2y = (
            a * b / c * (a + 1) * (b + 1) / (c + 1)
            * hyp2f1(a + 2, b + 2, c + 2, z).value
        )
        terms = (z * (1 - z) * d2y, (c - (a + b + 1) * z) * dy, -a * b * y)
        assert residual(terms) <= 1e-6, ("gauss", a, b, c, z)

    for _ in range(50):
        a, c = rng.uniform(0.2, 2.5), rng.uniform(0.5, 3.0)
        z = rng.choice((-1, 1)) * rng.uniform(0.05, 3.0)
        y = hyp1f1(a, c, z).value
        dy = a / c * hyp1f1(a + 1, c + 1, z).value
        d2y = a * (a + 1) / (c * (c + 1)) * hyp1f1(a + 2, c + 2, z).value
        terms = (z * d2y, (c - z) * dy, -a * y)
        assert residual(terms) <= 1e-6, ("kummer", a, c, z)

    for _ in range(50):
        a, c = rng.uniform(0.3, 2.2), off_integer(0.3, 1.8)
        z = rng.uniform(0.5, 4.0)
        y = hypU(a, c, z).value
        dy = -a * hypU(a + 1, c + 1, z).value
        d2y = a * (a + 1) * hypU(a + 2, c + 2, z).value
        terms = (z * d2y, (c - z) * dy, -a * y)
        assert residual(terms) <= 1e-6, ("tricomi", a, c, z)

    for _ in range(50):
        nu = off_integer(-2.5, 2.5)
        z = rng.choice((-1, 1)) * rng.uniform(0.05, 2.0)
        y = hermite_fn(nu, z).value
        dy = 2 * nu * hermite_fn(nu - 1, z).value
        d2y = 4 * nu * (nu - 1) * hermite_fn(nu - 2, z).value
        terms = (d2y, -2 * z * dy, 2 * nu * y)
        assert residual(terms) <= 1e-6, ("hermite", nu, z)


def gate_invariants():
    # exponential convergence of the sinc-DVR oracle: on a fixed box the
    # error falls by over 100x when the basis grows 1.5x
    m_spec = morse(Lambda=5)
    for v, (lo, hi), exact, sizes in (
        (harmonic().reduced_potential, (-8.0, 8.0), [1.0, 3.0, 5.0, 7.0], (16, 24, 36)),
        (m_spec.reduced_potential, (-2.0, 20.0), [4.75, 12.75, 18.75], (40, 60, 90)),
    ):
        errs = [
            np.max(np.abs(_sinc_dvr(v, np.linspace(lo, hi, n + 2)[1:-1], np.inf)[:len(exact)]
                          - exact))
            for n in sizes
        ]
        assert errs[1] < errs[0] / 100 and errs[2] < errs[1] / 100, errs

    # eigenvalue coefficients stay distinct deep into each family
    for family, alpha, beta in (
        ("hermite", None, None),
        ("laguerre", Fraction(9, 2), None),
        ("jacobi", Fraction(1, 2), Fraction(7, 2)),
    ):
        values = {eigen_lambda(family, n, alpha, beta) for n in range(31)}
        assert len(values) == 31

    # every bound level sits strictly inside the binding region
    for spec, n_max in ((harmonic(), 20), (morse(Lambda=5), None), (rosen_morse2(4, 0.5), None)):
        for st in bound_spectrum(spec, n_max=n_max):
            assert spec.v_min < scalar_float(st.eps) < spec.v_minus

    # byte-identical output across separate processes
    cmd = [
        sys.executable,
        "-m",
        "nu_spectral.cli",
        "solve",
        "--potential",
        "morse",
        "--params",
        "Lambda=5",
        "--with-oracle",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    argv = ["reduce", "phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=-inf,inf",
            "--eps", "1", "--format", "json"]
    assert _cli(argv) == _cli(argv)


GATES = (
    ("harmonic: exact odd ladder, oracle agreement, under 5 s", gate_harmonic),
    ("morse: five normalized levels matching the oracle, under 10 s", gate_morse_bound),
    ("morse: one bounded scattering solution above the plateau", gate_morse_scattering),
    ("rosen-morse II: single level, degeneracy verdicts 1 and 2", gate_rosen_morse2),
    ("reduction: closed-form branch data reproduced symbolically", gate_reduction_tables),
    ("classical families: rodrigues = recurrence, orthonormal to quadrature", gate_classical_families),
    ("hypergeometric layer: limits, reflections, wronskians, residuals", gate_hypergeometric),
    ("invariants: convergence order, distinctness, determinism", gate_invariants),
)


def _announce(label, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_harmonic_ladder_and_oracle():
    _announce(GATES[0][0], GATES[0][1])


def test_morse_bound_levels_normalized():
    _announce(GATES[1][0], GATES[1][1])


def test_morse_scattering_nondegenerate():
    _announce(GATES[2][0], GATES[2][1])


def test_rosen_morse2_level_and_degeneracy():
    _announce(GATES[3][0], GATES[3][1])


def test_reduction_branch_tables():
    _announce(GATES[4][0], GATES[4][1])


def test_classical_polynomial_consistency():
    _announce(GATES[5][0], GATES[5][1])


def test_hypergeometric_identities():
    _announce(GATES[6][0], GATES[6][1])


def test_invariants_convergence_determinism():
    _announce(GATES[7][0], GATES[7][1])


if __name__ == "__main__":
    failures = 0
    for gate_label, gate_body in GATES:
        try:
            gate_body()
        except BaseException as exc:
            print(f"[FAIL] {gate_label}: {type(exc).__name__}: {exc}")
            failures += 1
        else:
            print(f"[PASS] {gate_label}")
    sys.exit(1 if failures else 0)
