import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nu_spectral.classical import (
    CanonicalHde,
    classify_canonical,
    eigen_lambda,
    family_record,
    norm_sq,
    recurrence_poly,
    rodrigues_poly,
    series_poly,
)
from nu_spectral.errors import DoubleRootUnsupported, ParameterOutOfRange
from nu_spectral.oracle import inner_product, norm_defect, orthogonality_defect
from nu_spectral.polynomials import Polynomial
from nu_spectral.potentials import (
    eigen_eps,
    morse,
    pinned_branch,
    recurrence_values,
    rosen_morse2,
)
from nu_spectral.scalars import SurdSum, sqrt_scalar

X = Polynomial.x()


class TestFrozenPolynomials:
    def test_hermite_low_orders(self):
        assert rodrigues_poly("hermite", 0) == Polynomial.of(1)
        assert rodrigues_poly("hermite", 1) == Polynomial.of(0, 2)
        assert rodrigues_poly("hermite", 2) == Polynomial.of(-2, 0, 4)
        assert rodrigues_poly("hermite", 3) == Polynomial.of(0, -12, 0, 8)

    def test_laguerre_first_order(self):
        assert rodrigues_poly("laguerre", 1, alpha=Fraction(0)) == Polynomial.of(1, -1)

    def test_laguerre_second_order_shifted(self):
        a = Fraction(3, 2)
        expected = Polynomial.of(
            (a + 1) * (a + 2) / 2, -(a + 2), Fraction(1, 2)
        )
        assert rodrigues_poly("laguerre", 2, alpha=a) == expected

    def test_jacobi_first_order(self):
        a, b = Fraction(5, 2), Fraction(-1, 2)
        expected = Polynomial.of((a - b) / 2, (a + b + 2) / 2)
        assert rodrigues_poly("jacobi", 1, alpha=a, beta=b) == expected

    def test_legendre_second_order(self):
        assert rodrigues_poly("jacobi", 2, alpha=Fraction(0), beta=Fraction(0)) == Polynomial.of(
            Fraction(-1, 2), 0, Fraction(3, 2)
        )

    def test_hermite_leading_coefficient(self):
        assert rodrigues_poly("hermite", 12).coeff(12) == 2**12


class TestTwoRouteAgreement:
    @pytest.mark.parametrize("n", range(13))
    def test_hermite(self, n):
        assert rodrigues_poly("hermite", n) == recurrence_poly("hermite", n)

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3, 2), Fraction(-1, 2)])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    def test_laguerre(self, alpha, n):
        assert rodrigues_poly("laguerre", n, alpha) == recurrence_poly(
            "laguerre", n, alpha
        )

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (Fraction(0), Fraction(0)),
            (Fraction(5, 2), Fraction(-1, 2)),
            (Fraction(-9, 10), Fraction(17, 10)),
        ],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_jacobi(self, alpha, beta, n):
        assert rodrigues_poly("jacobi", n, alpha, beta) == recurrence_poly(
            "jacobi", n, alpha, beta
        )

    def test_laguerre_surd_parameter(self):
        alpha = sqrt_scalar(Fraction(2)) - 1
        for n in range(9):
            assert rodrigues_poly("laguerre", n, alpha) == recurrence_poly(
                "laguerre", n, alpha
            )

    def test_jacobi_surd_parameters(self):
        alpha = sqrt_scalar(Fraction(2)) / 2
        beta = sqrt_scalar(Fraction(3)) - 1
        for n in range(7):
            assert rodrigues_poly("jacobi", n, alpha, beta) == recurrence_poly(
                "jacobi", n, alpha, beta
            )


def canonical_of(spec, n):
    """Canonical form of a well's n-th bound state, as bound_state finds it."""
    br = pinned_branch(spec, eigen_eps(spec, n))
    return classify_canonical(spec.ghe.phi, br.psi)


class TestSeriesRoute:
    """series_poly, the route bound states take, against the Rodrigues
    product, coefficient for coefficient."""

    def test_hermite_to_60(self):
        for n in range(61):
            assert series_poly("hermite", n) == rodrigues_poly("hermite", n)

    def test_laguerre_to_60(self):
        alpha = Fraction(3, 2)
        for n in range(61):
            assert series_poly("laguerre", n, alpha) == rodrigues_poly(
                "laguerre", n, alpha
            )

    def test_laguerre_surd_alpha_from_deep_morse(self):
        spec = morse(De=579)
        for n in (0, 16, 33):
            can = canonical_of(spec, n)
            assert isinstance(can.alpha, SurdSum)
            assert series_poly("laguerre", n, can.alpha) == rodrigues_poly(
                "laguerre", n, can.alpha
            )

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (Fraction(0), Fraction(0)),
            (Fraction(5, 2), Fraction(-1, 2)),
            (Fraction(-9, 10), Fraction(17, 10)),
        ],
    )
    def test_jacobi_rational(self, alpha, beta):
        for n in range(21):
            assert series_poly("jacobi", n, alpha, beta) == rodrigues_poly(
                "jacobi", n, alpha, beta
            )

    def test_jacobi_surd_parameters_from_rosen_morse2(self):
        spec = rosen_morse2(v0=100.0, mu=0.3)  # five levels, n = 0..4
        for n in (0, 1, 3, 4):
            can = canonical_of(spec, n)
            assert isinstance(can.alpha, SurdSum) and isinstance(can.beta, SurdSum)
            assert series_poly("jacobi", n, can.alpha, can.beta) == rodrigues_poly(
                "jacobi", n, can.alpha, can.beta
            )

    @staticmethod
    def sweep(seed, family, n_max, count):
        """(n, alpha, beta) draws: rational exponents, or one-radical surds
        a + b sqrt(d), all above -1; the first two, one of each kind, at n = n_max."""
        rng = random.Random(seed)
        out = []
        for i in range(count):
            exps = []
            while len(exps) < 2:
                if i % 2:
                    e = Fraction(rng.randint(-4, 6), rng.randint(1, 5)) + Fraction(
                        rng.randint(1, 5), rng.randint(1, 4)
                    ) * sqrt_scalar(Fraction(rng.choice([2, 3, 5, 7, 11])))
                else:
                    e = Fraction(rng.randint(-9, 60), rng.randint(1, 12))
                if e > -1:
                    exps.append(e)
            out.append((n_max if i < 2 else rng.randint(0, n_max), *exps))
        return [(n, *(a, b)[: family_record(family).arity]) for n, a, b in out]

    @pytest.mark.parametrize(
        "family,n_max,count", [("hermite", 60, 4), ("laguerre", 30, 10), ("jacobi", 30, 8)]
    )
    def test_seeded_sweep_three_routes(self, family, n_max, count):
        for n, *exps in self.sweep(12, family, n_max, count):
            p = series_poly(family, n, *exps)
            assert p == rodrigues_poly(family, n, *exps), (n, exps)
            assert p == recurrence_poly(family, n, *exps), (n, exps)

    @pytest.mark.parametrize("family", ["hermite", "laguerre", "jacobi"])
    def test_eigenvalue_gaps_are_the_series_divisors(self, family):
        # the declared eigenvalue against the gaps the series reads from the
        # equation, lam_n - lam_k = (n-k)(-psi' - (n+k-1) phi''/2), and
        # against its closed form per family
        rec = family_record(family)
        for n, *exps in self.sweep(13, family, 30, 8):
            phi, psi = rec.equation(*exps)
            f2, g1 = phi.coeff(2), psi.coeff(1)
            closed = {"hermite": 2 * n, "laguerre": n, "jacobi": n * (n + sum(exps) + 1)}
            lam_n = eigen_lambda(family, n, *exps)
            assert lam_n == closed[family]
            for k in range(n):
                gap = lam_n - eigen_lambda(family, k, *exps)
                assert gap == (n - k) * (-g1 - (n + k - 1) * f2), (n, k, exps)

    @pytest.mark.parametrize(
        "alpha,beta,n",
        [(Fraction(-3, 2), Fraction(-3, 2), 2), (Fraction(-3, 2), Fraction(-5, 2), 2)],
    )
    def test_jacobi_without_own_polynomial_is_a_domain_error(self, alpha, beta, n):
        # n + k + alpha + beta + 1 = 0 for some k < n: lam_k = lam_n and the
        # leading coefficient vanishes, so the equation does not fix P_n;
        # the two reference routes still return a polynomial there
        with pytest.raises(ParameterOutOfRange):
            series_poly("jacobi", n, alpha, beta)
        rodrigues_poly("jacobi", n, alpha, beta)
        recurrence_poly("jacobi", n, alpha, beta)
        assert series_poly("jacobi", 1, alpha, beta) == rodrigues_poly("jacobi", 1, alpha, beta)


def eigen_ode_residual(family, n, alpha=None, beta=None):
    rec = family_record(family)
    phi, psi = rec.equation(*rec.exact(alpha, beta))
    p = rodrigues_poly(family, n, alpha, beta)
    lam = eigen_lambda(family, n, alpha, beta)
    return phi * p.derivative().derivative() + psi * p.derivative() + lam * p


class TestEigenEquation:
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_hermite_ode_exact(self, n):
        assert eigen_ode_residual("hermite", n).is_zero

    @pytest.mark.parametrize("n", [0, 2, 6])
    def test_laguerre_ode_exact(self, n):
        assert eigen_ode_residual("laguerre", n, Fraction(7, 3)).is_zero

    @pytest.mark.parametrize("n", [0, 3, 8])
    def test_jacobi_ode_exact(self, n):
        assert eigen_ode_residual(
            "jacobi", n, Fraction(-1, 2), Fraction(4, 5)
        ).is_zero

    def test_jacobi_surd_ode_exact(self):
        assert eigen_ode_residual(
            "jacobi", 4, sqrt_scalar(Fraction(5)) - 2, Fraction(1, 2)
        ).is_zero

    def test_eigenvalues_distinct_to_30(self):
        for family, a, b in (
            ("hermite", None, None),
            ("laguerre", Fraction(-9, 10), None),
            ("jacobi", Fraction(-9, 10), Fraction(-9, 10)),
        ):
            lams = [eigen_lambda(family, n, a, b) for n in range(31)]
            assert all(x < y for x, y in zip(lams, lams[1:]))


class TestClassification:
    def test_plain_hermite(self):
        c = classify_canonical(Polynomial.of(1), Polynomial.of(0, -2))
        assert c.family == "hermite"
        assert c.scale == 1 and c.shift == 0
        assert c.lambda_scale == 1

    def test_scaled_shifted_hermite(self):
        c = classify_canonical(Polynomial.of(2), Polynomial.of(1, -4))
        assert c.family == "hermite"
        assert c.scale == 1
        assert c.shift == Fraction(-1, 4)
        assert c.lambda_scale == 2
        # the map really sends psi to the canonical -2u
        u = c.scale * Fraction(3) + c.shift
        assert Polynomial.of(1, -4)(Fraction(3)) / (2 * c.scale) == -2 * u

    def test_plain_laguerre(self):
        c = classify_canonical(X, Polynomial.of(10, -1))
        assert c.family == "laguerre"
        assert c.alpha == 9
        assert c.scale == 1 and c.shift == 0 and c.lambda_scale == 1

    def test_scaled_laguerre(self):
        c = classify_canonical(Polynomial.of(0, 2), Polynomial.of(3, -3))
        assert c.family == "laguerre"
        assert c.alpha == Fraction(1, 2)
        assert c.scale == Fraction(3, 2)
        assert c.lambda_scale == 3

    def test_jacobi_from_symmetric_quadratic(self):
        c = classify_canonical(Polynomial.of(1, 0, -1), Polynomial.of(1, -4))
        assert c.family == "jacobi"
        assert c.scale == 1 and c.shift == 0 and c.lambda_scale == 1
        assert c.alpha == Fraction(1, 2)
        assert c.beta == Fraction(3, 2)

    def test_jacobi_orientation_at_roots_one_float_apart(self):
        # roots 10**20 -+ 1 round to the same float; the order stays exact
        n = 10**20
        c = classify_canonical(Polynomial.of(-(n * n - 1), 2 * n, -1), Polynomial.of(n, -1))
        assert c.family == "jacobi"
        assert c.scale == 1
        assert c.alpha == c.beta == Fraction(-1, 2)

    def test_jacobi_shifted_interval(self):
        # phi = -(x-1)(x-3): interval (1, 3) maps to (-1, 1)
        phi = Polynomial.of(-3, 4, -1)
        psi = Polynomial.of(5, -2)
        c = classify_canonical(phi, psi)
        assert c.family == "jacobi"
        assert c.scale == 1 and c.shift == -2
        assert c.scale * Fraction(2) + c.shift == 0
        assert c.alpha == Fraction(-1, 2)
        assert c.beta == Fraction(1, 2)

    def test_double_root_rejected(self):
        with pytest.raises(DoubleRootUnsupported):
            classify_canonical((X - 1) * (X - 1), Polynomial.of(0, -1))

    def test_complex_roots_rejected(self):
        with pytest.raises(DoubleRootUnsupported):
            classify_canonical(Polynomial.of(1, 0, 1), Polynomial.of(0, -1))

    def test_upward_quadratic_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            classify_canonical(Polynomial.of(-1, 0, 1), Polynomial.of(0, -1))

    def test_laguerre_exponent_bound(self):
        with pytest.raises(ParameterOutOfRange):
            classify_canonical(X, Polynomial.of(0, -1))

    def test_jacobi_exponent_bound(self):
        with pytest.raises(ParameterOutOfRange):
            classify_canonical(Polynomial.of(1, 0, -1), Polynomial.of(2, -1))

    def test_increasing_psi_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            classify_canonical(Polynomial.of(1), Polynomial.of(0, 2))

    def test_constant_psi_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            classify_canonical(Polynomial.of(1), Polynomial.of(3))


class TestReductionRoundTrip:
    def test_parabolic_well_eigencondition(self):
        from nu_spectral.polynomials import REAL_LINE
        from nu_spectral.reduction import EpsAffinePoly, GheProblem, reduce_ghe

        ghe = GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
            interval=REAL_LINE,
        )
        br = reduce_ghe(ghe, Fraction(11)).selected
        c = classify_canonical(ghe.phi, br.psi)
        assert c.lambda_canonical(br.lam) == eigen_lambda("hermite", 5)


class TestQuadratureOrthogonality:
    @pytest.mark.parametrize("m,n", [(0, 3), (2, 5), (1, 4)])
    def test_hermite_orthogonal(self, m, n):
        assert orthogonality_defect("hermite", m, n) < 1e-10

    @pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 6)])
    def test_laguerre_orthogonal_singular_weight(self, m, n):
        assert orthogonality_defect("laguerre", m, n, Fraction(-1, 2)) < 1e-10

    @pytest.mark.parametrize("m,n", [(0, 4), (2, 6), (1, 5)])
    def test_jacobi_orthogonal(self, m, n):
        assert (
            orthogonality_defect("jacobi", m, n, Fraction(-1, 2), Fraction(3, 10))
            < 1e-10
        )

    @pytest.mark.parametrize("n", range(11))
    def test_hermite_norms(self, n):
        assert norm_defect("hermite", n) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 10])
    def test_laguerre_norms(self, n):
        assert norm_defect("laguerre", n, Fraction(-1, 2)) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_jacobi_norms(self, n):
        assert norm_defect("jacobi", n, Fraction(-1, 2), Fraction(3, 10)) < 1e-9

    def test_inner_product_degenerate_weight_value(self):
        # <1, 1> with the arcsine-type weight is the beta function value
        val = inner_product(
            "jacobi", Polynomial.of(1), Polynomial.of(1), Fraction(-1, 2), Fraction(-1, 2)
        )
        assert val == pytest.approx(math.pi, rel=1e-11)


exponents = st.fractions(
    min_value=Fraction(-9, 10), max_value=Fraction(3), max_denominator=10
)


@settings(max_examples=40, deadline=None)
@given(alpha=exponents, n=st.integers(min_value=0, max_value=5))
def test_laguerre_routes_agree_property(alpha, n):
    assert rodrigues_poly("laguerre", n, alpha) == recurrence_poly(
        "laguerre", n, alpha
    )
    assert eigen_ode_residual("laguerre", n, alpha).is_zero


@settings(max_examples=40, deadline=None)
@given(alpha=exponents, beta=exponents, n=st.integers(min_value=0, max_value=5))
def test_jacobi_routes_agree_property(alpha, beta, n):
    assert rodrigues_poly("jacobi", n, alpha, beta) == recurrence_poly(
        "jacobi", n, alpha, beta
    )
    assert eigen_ode_residual("jacobi", n, alpha, beta).is_zero


def _mp_family_norm_sq(family, n, a=None, b=None):
    """The classical squared norms in mpmath (DLMF 18.3)."""
    mp = mpmath.mp
    if family == "hermite":
        return 2**n * mp.factorial(n) * mp.sqrt(mp.pi)
    a = mp.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mp.mpf(a)
    if family == "laguerre":
        return mp.gamma(n + a + 1) / mp.factorial(n)
    b = mp.mpf(b.numerator) / b.denominator if isinstance(b, Fraction) else mp.mpf(b)
    if n == 0:
        return 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)
    return (
        2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
        / (mp.factorial(n) * (2 * n + a + b + 1) * mp.gamma(n + a + b + 1))
    )


class TestLogDomainNorms:
    CASES = [
        ("hermite", 0, None, None),
        ("hermite", 7, None, None),
        ("hermite", 150, None, None),  # 1.4e308, just inside the float range
        ("laguerre", 0, Fraction(-1, 2), None),
        ("laguerre", 33, 3.7, None),
        ("laguerre", 171, 0.5, None),  # 171! alone overflows
        ("jacobi", 0, Fraction(-1, 2), Fraction(-1, 2)),  # a+b+1 = 0: pi
        ("jacobi", 0, -0.7, -0.7),  # a+b+1 < 0
        ("jacobi", 10, Fraction(-1, 2), Fraction(3, 10)),
        ("jacobi", 40, 12.25, 0.0067),
        ("jacobi", 200, 150.5, 150.5),  # e^136, from gammas near e^1000
    ]

    @pytest.mark.parametrize("family,n,a,b", CASES)
    def test_matches_mpmath(self, family, n, a, b):
        with mpmath.workdps(30):
            want = _mp_family_norm_sq(family, n, a, b)
            got = norm_sq(family, n, a, b)
            assert abs(mpmath.mpf(got) / want - 1) <= 2e-13

    def test_surd_exponent(self):
        a = sqrt_scalar(Fraction(2))
        with mpmath.workdps(30):
            want = _mp_family_norm_sq("laguerre", 12, mpmath.sqrt(2))
        assert norm_sq("laguerre", 12, a) == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize(
        "family,n,a,b",
        [
            ("hermite", 170, None, None),
            ("hermite", 171, None, None),
            ("laguerre", 10, 200.0, None),
            ("jacobi", 10, 1100.0, 1.0),
        ],
    )
    def test_overflow_is_a_domain_error(self, family, n, a, b):
        with pytest.raises(ParameterOutOfRange):
            norm_sq(family, n, a, b)

    @pytest.mark.parametrize(
        "family,a,b",
        [("laguerre", -1, None), ("laguerre", Fraction(-3, 2), None), ("jacobi", 0.5, -1)],
    )
    def test_divergent_weight_is_a_domain_error(self, family, a, b):
        with pytest.raises(ParameterOutOfRange):
            norm_sq(family, 2, a, b)


class TestCanonicalPolynomial:
    """CanonicalHde.polynomial against series_poly composed to x."""

    def test_hermite_and_laguerre(self):
        her = classify_canonical(Polynomial.of(2), Polynomial.of(1, -4))
        lag = classify_canonical(Polynomial.of(0, 2), Polynomial.of(3, -3))
        for n in range(12):
            for can in (her, lag):
                want = series_poly(can.family, n, can.alpha, can.beta)
                assert can.polynomial(n) == want.compose_affine(can.scale, can.shift)

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.sampled_from([2, 3, 5, 7]),
        h=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-5, 2)]),
        c=st.fractions(min_value=-1, max_value=1, max_denominator=7),
        n=st.integers(min_value=0, max_value=9),
    )
    def test_jacobi_surd_affine_map(self, r, h, c, n):
        # phi = r - (x-h)^2 has roots h +- sqrt(r): a surd scale, and a surd
        # shift unless h = 0; psi has its zero at h + c, far enough inside
        # for exponents above -1
        phi = Polynomial.of(r - h * h, 2 * h, -1)
        can = classify_canonical(phi, Polynomial.of(3 * (h + c), -3))
        assert isinstance(can.scale, SurdSum)
        assert h == 0 or isinstance(can.shift, SurdSum)
        want = series_poly("jacobi", n, can.alpha, can.beta)
        assert can.polynomial(n) == want.compose_affine(can.scale, can.shift)


# every public way to a family polynomial, as (family, n, alpha, beta) -> value
_ENTRY_POINTS = {
    "eigen_lambda": eigen_lambda,
    "rodrigues_poly": rodrigues_poly,
    "series_poly": series_poly,
    "recurrence_poly": recurrence_poly,
    "norm_sq": norm_sq,
    "recurrence_values": lambda family, n, a, b: recurrence_values(family, n, [0.5], a, b),
    "CanonicalHde.polynomial": lambda family, n, a, b: CanonicalHde(
        family, a, b, Fraction(1), Fraction(0), Fraction(1)
    ).polynomial(n),
}


class TestBoundaryChecks:
    """A negative degree or a missing exponent is a ValueError at every
    entry point, never a polynomial or a TypeError from deep inside."""

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize(
        "family,a,b", [("hermite", None, None), ("laguerre", 2.5, None), ("jacobi", 0.5, 1.5)]
    )
    def test_negative_degree(self, entry, family, a, b):
        for n in (-1, -4):
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                _ENTRY_POINTS[entry](family, n, a, b)

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize(
        "family,n,a,b,missing",
        [
            ("laguerre", 2, None, None, "alpha"),
            ("laguerre", 3, None, 1.5, "alpha"),
            ("jacobi", 2, None, 1.5, "alpha"),
            ("jacobi", 0, 0.5, None, "beta"),
            ("jacobi", 3, None, None, "alpha"),
        ],
    )
    def test_missing_exponent(self, entry, family, n, a, b, missing):
        with pytest.raises(ValueError, match=f"{family} polynomials need the exponent {missing}"):
            _ENTRY_POINTS[entry](family, n, a, b)

    def test_valid_calls_still_run(self):
        for entry in _ENTRY_POINTS.values():
            for n in (0, 3):
                entry("hermite", n, None, None)
                entry("laguerre", n, 2.5, None)
                entry("jacobi", n, 0.5, 1.5)
