"""The ladder (reduction.Ladder) against the per-level derivation it replaces.

quantize_reference below solves each level on its own, as the code did
before the ladder: the x^2 match at that n by quad_roots, bound_canonical
on each root, and the reduction identity asserted on the branch.  On ten
seeded input sets shaped like each deep-spectra benchmark workload, every
level the ladder gives must equal it exactly, and so must the count.
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nu_spectral.classical import family_record
from nu_spectral.errors import AmbiguousBranch, EmptySpectrum
from nu_spectral.polynomials import REAL_LINE, UNIT_INTERVAL, Polynomial, quad_roots
from nu_spectral.potentials import (
    BoundState,
    _state_sampler,
    bound_spectrum,
    eigenvalue_count,
    harmonic,
    morse,
    normalization_defect,
    rosen_morse2,
)
from nu_spectral.reduction import (
    EpsAffinePoly,
    GheProblem,
    _assert_reduction_identity,
    _first_failure,
    _make_branch,
    bound_canonical,
    reduce_ghe,
)

X = Polynomial.x()


def quantize_reference(ghe, n):
    """The bound branch of level n, derived for that level alone."""
    phi, phi_t = ghe.phi, ghe.phi_tilde
    if ghe.psi_tilde != phi.derivative() or phi_t.linear.degree != 0:
        raise ValueError("quantization needs psi_tilde = phi' and eps in phi_tilde(0) only")
    f0, f1, f2 = (phi.coeff(k) for k in range(3))
    c0, c1, c2 = (phi_t.const.coeff(k) for k in range(3))
    p1_roots = quad_roots(Polynomial.of(n * (n + 1) * f2 * f2 + c2, (2 * n + 1) * f2, 1))
    found = []
    for p1 in dict.fromkeys(p1_roots):  # a double root is one branch
        if p1 == 0:
            continue
        lam = -n * (2 * f2 + 2 * p1) - n * (n - 1) * f2
        p0 = (lam * f1 - p1 * f1 - c1) / (2 * p1)
        pi = Polynomial.of(p0, p1)
        canonical = bound_canonical(ghe, ghe.psi_tilde + 2 * pi)
        if canonical is None:
            continue
        eps = (lam * f0 - p0 * p0 - p1 * f0 - c0) / phi_t.linear.coeff(0)
        branch = _make_branch(ghe, eps, pi, lam)  # asserts the reduction identity
        found.append(dataclasses.replace(branch, canonical=canonical))
    if len(found) > 1:
        raise AmbiguousBranch(found)
    return found[0] if found else None


def reference_levels(spec, n_max=None):
    """quantize_reference at n = 0, 1, ... up to the first unbound level."""
    levels = []
    while n_max is None or len(levels) <= n_max:
        br = quantize_reference(spec.ghe, len(levels))
        if br is None:
            break
        levels.append(br)
    return levels


# -- seeded wells shaped like the deep-spectra workloads -------------------------


def _stratified(rng, lo, hi, k):
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def rational_wells(rng):
    """Harmonic n_max near 14, 40 and 60; Morse with quarter-integer Lambda
    near 6, 20 and 36."""
    wells = [(harmonic(), top - rng.randint(0, 1)) for top in (14, 40, 60)]
    wells += [(morse(Lambda=base + rng.randint(0, 3) / 4), None) for base in (6, 20, 36)]
    return wells


def surd_wells(rng):
    """Rosen-Morse II on a Latin hypercube over v0 in (20, 250) and mu in
    (0.1, 0.6), and Morse given by De with sqrt(2 De) irrational."""
    mus = _stratified(rng, 0.1, 0.6, 8)
    rng.shuffle(mus)
    wells = [
        (rosen_morse2(float(round(v0)), round(mu, 2)), None)
        for v0, mu in zip(_stratified(rng, 20, 250, 8), mus)
    ]
    for lam in (8, 20, 34):
        de = lam * lam // 2 + rng.randint(0, 4)
        while math.isqrt(2 * de) ** 2 == 2 * de:
            de += 1
        wells.append((morse(De=float(de)), None))
    return wells


def _reference_state(spec, br, n):
    """What bound_state builds from a branch: canonical, chi, norm, sampler."""
    canonical = br.canonical
    rec = family_record(canonical.family)
    log_norm = rec.log_x_norm_const(n, *rec.floats(canonical.alpha, canonical.beta))
    norm = math.exp(log_norm) * spec.coordinate_scale
    return norm, _state_sampler(spec, n, canonical, br.chi, log_norm)


@pytest.mark.parametrize("kind", ["rational", "surd"])
@pytest.mark.parametrize("seed", range(1, 11))
def test_ladder_equals_the_per_level_derivation(kind, seed):
    rng = random.Random(f"ladder-{kind}:{seed}")
    for spec, n_max in (rational_wells if kind == "rational" else surd_wells)(rng):
        ghe = spec.ghe
        reference = reference_levels(spec, n_max)
        states = bound_spectrum(spec, n_max=n_max)
        assert len(states) == len(reference) > 0
        if n_max is None:
            assert eigenvalue_count(spec) == len(reference)
            assert ghe.ladder.level(len(reference)) is None
        lo, hi, _ = spec.fd_box
        xs = np.linspace(lo, hi, 33)
        for n, (st, ref) in enumerate(zip(states, reference)):
            br = ghe.ladder.level(n)
            _assert_reduction_identity(ghe, br.eps, br.pi, br.lam)
            assert br == ref and br.canonical == ref.canonical
            norm, sampler = _reference_state(spec, ref, n)
            assert (st.eps, st.chi, st.canonical) == (ref.eps, ref.chi, ref.canonical)
            assert st.poly == ref.canonical.polynomial(n)
            assert st.norm_const_sq == norm
            assert np.array_equal(st.sampler(xs), sampler(xs))
            if n == 0:  # a quadrature reads the sampler across the whole window
                solo = BoundState(n, ref.eps, st.energy, ref.canonical, ref.chi, norm, sampler)
                assert normalization_defect(spec, st) == normalization_defect(spec, solo)


def test_first_failure_equals_a_scan():
    # small quadratics in n, every sign pattern, empty and unbounded ranges
    rng = random.Random(11)
    for _ in range(600):
        size = rng.randint(1, 3)
        q = Polynomial([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(size)])
        want, lo = rng.choice((-1, 1)), rng.randint(0, 5)
        hi = rng.choice((lo - 1, lo, lo + rng.randint(1, 60), math.inf))
        # every root lies below 1 + 40 / (1/4) = 161, so the sign is settled by 400
        scan = (k for k in range(lo, min(hi, 400)) if np.sign(float(q(k))) != want)
        assert _first_failure(q, want, lo, hi) == next(scan, hi), (q, want, lo, hi)


# -- edge cases ---------------------------------------------------------------------


def _jacobi_ghe(c2, c1=0):
    """phi = 1 - x^2 on (-1, 1) with phi_tilde = eps + c1 x + c2 x^2."""
    return GheProblem(
        phi=Polynomial.of(1, 0, -1),
        psi_tilde=Polynomial.of(0, -2),
        phi_tilde=EpsAffinePoly(const=Polynomial.of(0, c1, c2), linear=Polynomial.of(1)),
        interval=UNIT_INTERVAL,
    )


def _levels(ghe, top):
    return [ghe.ladder.level(n) for n in range(top)], [
        quantize_reference(ghe, n) for n in range(top)
    ]


@pytest.mark.parametrize(
    "ghe",
    [
        GheProblem(Polynomial.of(1), Polynomial.of(1), EpsAffinePoly(-X * X, Polynomial.of(1)),
                   REAL_LINE),
        GheProblem(Polynomial.of(1), Polynomial(), EpsAffinePoly(-X * X, X), REAL_LINE),
    ],
    ids=["psi_tilde-not-phi'", "eps-times-x"],
)
def test_outside_the_condition_is_a_value_error(ghe):
    for quantizer in (lambda ghe, n: ghe.ladder.level(n), quantize_reference):
        with pytest.raises(ValueError, match="psi_tilde = phi'"):
            quantizer(ghe, 0)


def test_zero_p1_is_skipped():
    # D = 1 + 24 = 25: p1(n) = n - 2 vanishes at n = 2, which binds nothing
    ghe = _jacobi_ghe(-6)
    ladder, reference = _levels(ghe, 5)
    assert ladder == reference
    assert [br is not None for br in ladder] == [True, True, False, False, False]
    assert ghe.ladder.count == 2


@pytest.mark.parametrize(
    "ghe",
    [
        _jacobi_ghe(Fraction(1, 4)),
        _jacobi_ghe(Fraction(1, 4), Fraction(3, 2)),
        GheProblem(Polynomial.of(1), Polynomial(), EpsAffinePoly(-X, Polynomial.of(1)),
                   REAL_LINE),
    ],
    ids=["jacobi", "jacobi-tilted", "constant-phi"],
)
def test_double_root_is_one_branch(ghe):
    # f2^2 = 4 c2: both roots of the x^2 match coincide at every n
    ladder, reference = _levels(ghe, 4)
    assert ladder == reference == [None] * 4
    assert ghe.ladder.count == 0


def test_ambiguous_geometric_filter_is_resolved():
    # at the ground level the geometric filter alone keeps two branches;
    # the ladder, like the per-level derivation, binds one, and reduce_ghe's
    # tie-break selects that one
    spec = rosen_morse2(4, 0.5)
    br = spec.ghe.ladder.level(0)
    res = reduce_ghe(spec.ghe, br.eps)
    assert res.reason.endswith("; the only square-integrable one of 2 such branches")
    assert res.selected == br == quantize_reference(spec.ghe, 0)
    assert res.selected.canonical == br.canonical


@pytest.mark.parametrize(
    "spec",
    [rosen_morse2(0.75, 0.5), morse(Lambda=Fraction(1, 2))],
    ids=["rm2-shallow", "morse-half"],
)
def test_empty_spectrum(spec):
    assert spec.ghe.ladder.level(0) is None and quantize_reference(spec.ghe, 0) is None
    assert eigenvalue_count(spec) == 0
    with pytest.raises(EmptySpectrum):
        bound_spectrum(spec)
