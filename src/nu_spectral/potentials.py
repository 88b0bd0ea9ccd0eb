"""Three end-to-end solvable one-dimensional quantum systems.

Each constructor returns one PotentialSpec record holding all that is
particular to its well: the change of variable s = tau(x), the reduced
equation it produces and the normalization window; no function here
branches on the well's name, nor on a family's (the float recurrence and
the x-measure norm come from classical.FAMILIES).  Levels, their count and
branches are read from the reduced equation's ladder (reduction.Ladder),
which derives them once, in closed form in n, and asserts the reduction
identity once; each level is checked exactly against the classical
eigenvalue.  The plateaus and the continuum come from the same equation:
an end of the working interval that is a simple root of phi is a plateau,
its channel is open where phi_tilde is positive there, and the bounded
solutions are Gauss 2F1 (phi quadratic) or Tricomi U (phi linear, whose
infinite end is a wall).  A parameter, or a scale derived
from them, that is zero or leaves the float range is a ValueError.  The
systems:

  harmonic      v(x) = x^2 on the line (x in units of sqrt(hbar/(m*Omega)))
  morse         v(x) = Lambda^2 (1 - b e^{-x})^2, b = e^{a x_e}, x = a * x_phys
  rosen_morse2  v(x) = v0 cosh^2(mu) (tanh x - tanh mu)^2

All module mathematics runs in the dimensionless coordinate x above;
physical energies are recovered through the per-system linear map stored
on the spec.  Exactness strategy: the shape parameters are rationalized
once (Lambda, and tanh mu for the hyperbolic well) so eigenvalues,
substitution branches and polynomial coefficients stay in the exact surd
field end to end; floats only appear in samplers and quadrature.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import eigen_lambda, family_record
from .errors import (
    EmptySpectrum,
    EnergyBelowRegion,
    NonFiniteEnergy,
    NoScatteringRegion,
)
from .oracle import FdGrid, fd_bound_states, quad_adaptive, wkb_edges
from .polynomials import HALF_LINE, REAL_LINE, UNIT_INTERVAL, Polynomial
from .reduction import EpsAffinePoly, GheProblem, bound_canonical, branch_candidates
from .scalars import as_exact, scalar_float, scalar_is_zero, scalar_sign, sqrt_scalar

X = Polynomial.x()


@dataclass(frozen=True)
class ChangeOfVariable:
    """Declared substitution s = forward(x) with its slope.

    affine_value, when set, evaluates c1*forward(x) + c0 in a form that
    keeps relative precision where the plain route would cancel; samplers
    use it for weight factors that vanish at an endpoint of the reduced
    interval.
    """

    forward: object
    deriv: object
    affine_value: object = None


@dataclass(frozen=True)
class PotentialSpec:
    name: str
    physical_params: dict
    tau: ChangeOfVariable
    ghe: GheProblem
    reduced_potential: object
    v_min: object  # exact minimum of the reduced potential
    energy_scale: float  # physical E = energy_scale * eps
    coordinate_scale: float  # physical-coordinate norm = this * reduced norm
    # (lo, hi, points): the oracle's starting box and largest basis; lo:hi
    # also places the verify residual probes and the --samples-dir abscissas
    fd_box: tuple
    exact: dict  # rationalized shape parameters
    # state -> (lo, hi, lo_plateau, hi_plateau): the quadrature window, and the
    # plateau whose closed-form tail is added past each edge (None: no tail)
    norm_window: object

    @functools.cached_property
    def _plateau_ends(self):
        """(r, side, const(r), linear(r)) at each end r of the working
        interval that is a simple root of phi: side is +1 at the lower end
        and -1 at the upper, and phi_tilde(r; eps) = const(r) + eps linear(r)."""
        ghe = self.ghe
        phi, dphi, phi_t = ghe.phi, ghe.phi.derivative(), ghe.phi_tilde
        return tuple(
            (r, side, phi_t.const(r), phi_t.linear(r))
            for r, side in ((ghe.interval.lo, 1), (ghe.interval.hi, -1))
            if not isinstance(r, float) and scalar_is_zero(phi(r)) and not scalar_is_zero(dphi(r))
        )

    @functools.cached_property
    def plateaus(self):
        """The exact plateaus, ascending: at each plateau end, the eps where
        phi_tilde vanishes."""
        values = [-c / lin for _, _, c, lin in self._plateau_ends]
        return tuple(sorted(values, key=functools.cmp_to_key(lambda p, q: scalar_sign(p - q))))

    @property
    def v_minus(self):
        return scalar_float((*self.plateaus, math.inf)[0])

    @property
    def v_plus(self):
        return scalar_float((*self.plateaus, math.inf, math.inf)[1])


@dataclass(frozen=True)
class BoundState:
    """One bound level.

    sampler is the normalized wavefunction in the dimensionless coordinate:
    called with a float it returns a float, called with a numpy array of
    positions it returns the values as an array of the same shape.  poly is
    expanded from canonical on first read; nothing on the solve path reads
    it, since the sampler runs the family's float recurrence.
    """

    n: int
    eps: object  # exact reduced eigenvalue
    energy: float  # physical energy
    canonical: object  # classical form of the level's reduced equation
    chi: object = None  # bare non-polynomial factor, in s
    norm_const_sq: float = 0.0  # physical-coordinate; underflows to 0.0 below ~1e-308
    sampler: object = None  # x -> normalized wavefunction value(s)

    @functools.cached_property
    def poly(self):
        """Exact polynomial factor, in s."""
        return self.canonical.polynomial(self.n)


@dataclass(frozen=True)
class ScatteringState:
    """The continuum at one energy: a basis of the solutions bounded at
    both ends, one sampler x -> complex per open channel, so its
    degeneracy is their count."""

    eps: float
    solutions: tuple

    @property
    def degeneracy(self):
        return len(self.solutions)


def _require_positive(**params):
    for key, val in params.items():
        if not 0 < scalar_float(val) < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {val!r}")


def _derived_scale(name, compute):
    """compute(), a positive scale a well derives from its parameters, as a
    float; ValueError when it is zero, not finite or overflows on the way."""
    try:
        value = scalar_float(compute())
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"these parameters put {name} at zero or out of the float range")
    return value


# -- constructors -------------------------------------------------------------


def harmonic(m=1.0, Omega=1.0, hbar=1.0):
    _require_positive(m=m, Omega=Omega, hbar=hbar)
    x0 = _derived_scale("the length unit", lambda: math.sqrt(hbar / (m * Omega)))

    def norm_window(state):
        # gaussian times a polynomial: past the classical turning point
        # sqrt(2n+1) the density decays like exp(-x^2); a margin of 5 leaves
        # less than 1e-15 of the mass outside
        edge = math.sqrt(2 * state.n + 1) + 5.0
        return -edge, edge, None, None

    spec = PotentialSpec(
        name="harmonic",
        physical_params={"m": m, "Omega": Omega, "hbar": hbar},
        tau=ChangeOfVariable(
            forward=lambda x: x,
            deriv=lambda x: 1.0,
        ),
        ghe=GheProblem(
            phi=Polynomial.of(1),
            psi_tilde=Polynomial(),
            phi_tilde=EpsAffinePoly(const=-(X * X), linear=Polynomial.of(1)),
            interval=REAL_LINE,
        ),
        reduced_potential=lambda x: x * x,
        v_min=Fraction(0),
        energy_scale=_derived_scale("the energy unit", lambda: hbar * Omega / 2.0),
        coordinate_scale=_derived_scale("the inverse length unit", lambda: 1.0 / x0),
        fd_box=(-10.0, 10.0, 1200),
        exact={},
        norm_window=norm_window,
    )
    _verify_declared_substitution(spec)
    return spec


def morse(Lambda=None, De=None, a=1.0, xe=0.0, m=1.0, hbar=1.0):
    """Exponentially saturating well.

    Either the dimensionless depth Lambda or the physical dissociation
    energy De fixes the shape; the remaining parameters only move scales.
    """
    _require_positive(a=a, m=m, hbar=hbar)
    if (Lambda is None) == (De is None):
        raise ValueError("give exactly one of Lambda or De")
    if Lambda is not None:
        _require_positive(Lambda=Lambda)
        lam = as_exact(Lambda)
        lam_sq = lam * lam
        De = _derived_scale("De", lambda: scalar_float(lam_sq) * a * a * hbar * hbar / (2.0 * m))
    else:
        _require_positive(De=De)
        lam_sq = as_exact(_derived_scale("Lambda^2", lambda: 2.0 * m * De / (a * hbar) ** 2))
        lam = sqrt_scalar(lam_sq)
    b = _derived_scale("exp(a*xe)", lambda: math.exp(a * xe))
    lamf = scalar_float(lam)
    lamf2 = scalar_float(lam_sq)
    s0 = _derived_scale("s at x = 0", lambda: 2.0 * lamf * b)
    # left wall: s = 2*lam*b*e^{-x} = 700 puts e^{-s/2} past underflow; right
    # cap: past s = 2^-1022, e^{-s/2} L_n(s) is exactly 1 in floats, so the
    # closed-form plateau tail is exact there however small kappa is
    wall, flat = math.log(s0 / 700.0), math.log(s0) + 1022.0 * math.log(2.0)

    def norm_window(state):
        kappa = math.sqrt(scalar_float(lam_sq - state.eps))
        return wall, min(max(20.0, 20.0 / kappa), flat), None, lam_sq

    spec = PotentialSpec(
        name="morse",
        physical_params={"De": De, "a": a, "xe": xe, "m": m, "hbar": hbar},
        tau=ChangeOfVariable(
            forward=lambda x: 2.0 * lamf * b * np.exp(-x),
            deriv=lambda x: -2.0 * lamf * b * math.exp(-x),
        ),
        ghe=GheProblem(
            phi=X,
            psi_tilde=Polynomial.of(1),
            phi_tilde=EpsAffinePoly(
                const=Polynomial.of(-lam_sq, lam, Fraction(-1, 4)),
                linear=Polynomial.of(1),
            ),
            interval=HALF_LINE,
        ),
        reduced_potential=lambda x: lamf2 * (1.0 - b * np.exp(-x)) ** 2,
        v_min=Fraction(0),
        energy_scale=_derived_scale("the energy unit", lambda: a * a * hbar * hbar / (2.0 * m)),
        coordinate_scale=a,
        fd_box=(a * xe - 2.0, a * xe + 12.0, 1200),
        exact={"lam": lam, "lam_sq": lam_sq, "b": b},
        norm_window=norm_window,
    )
    _verify_declared_substitution(spec)
    return spec


def _tanh_affine(c1, c0, x):
    """c1*tanh(x) + c0 in a saturation-proof form, elementwise over arrays.

    Float tanh rounds to +-1 near |x| = 19, and from about |x| = 15 on a
    factor like 1 - tanh(x) degrades into a ulp staircase.  Folding the
    affine coefficients into the exponential keeps full relative precision
    out to arbitrarily large |x|.
    """
    e2 = np.exp(-2.0 * np.abs(x))
    ratio = e2 / (1.0 + e2)  # (1 - tanh|x|) / 2
    return np.where(x >= 0.0, (c1 + c0) - 2.0 * c1 * ratio, (c0 - c1) + 2.0 * c1 * ratio)


def rosen_morse2(v0, mu):
    """Asymmetric hyperbolic well with unequal plateaus v0 e^{-2 mu} and
    v0 e^{+2 mu}.  tanh(mu) is rationalized once; every derived shape
    quantity below is exact in it."""
    _require_positive(v0=v0, mu=mu)
    v0x = as_exact(v0)
    t = as_exact(math.tanh(mu))
    _derived_scale("1 - tanh(mu)^2", lambda: 1 - t * t)
    csq = v0x / (1 - t * t)  # v0 cosh^2(mu)
    v1 = csq * t  # (v0/2) sinh(2 mu)
    v2 = csq + Fraction(1, 4)
    vm = v0x * (1 - t) / (1 + t)  # lower plateau, at x -> +inf
    vp = v0x * (1 + t) / (1 - t)  # upper plateau, at x -> -inf
    cf, tf = _derived_scale("v0 cosh^2(mu)", lambda: csq), scalar_float(t)
    _derived_scale("the upper plateau", lambda: vp)
    shifted = X - Polynomial.constant(t)

    spec = PotentialSpec(
        name="rosen_morse2",
        physical_params={"v0": v0, "mu": mu},
        tau=ChangeOfVariable(
            forward=np.tanh,
            deriv=lambda x: 1.0 - math.tanh(x) ** 2,
            affine_value=_tanh_affine,
        ),
        ghe=GheProblem(
            phi=Polynomial.of(1, 0, -1),
            psi_tilde=Polynomial.of(0, -2),
            phi_tilde=EpsAffinePoly(
                const=-csq * (shifted * shifted), linear=Polynomial.of(1)
            ),
            interval=UNIT_INTERVAL,
        ),
        reduced_potential=lambda x: cf * (np.tanh(x) - tf) ** 2,
        v_min=Fraction(0),
        energy_scale=1.0,
        coordinate_scale=1.0,
        fd_box=(-15.0, 15.0, 1200),
        exact={"v0": v0x, "t": t, "csq": csq, "v1": v1, "v2": v2, "vm": vm, "vp": vp},
        norm_window=lambda state: (-18.0, 18.0, vp, vm),
    )
    _verify_declared_substitution(spec)
    return spec


WELLS = {"harmonic": harmonic, "morse": morse, "rosen_morse2": rosen_morse2}


# -- declared-substitution and branch-selection verification ------------------


def _verify_declared_substitution(spec):
    """Check numerically that s = tau(x) really maps -psi'' + v psi = eps psi
    onto the declared equation coefficients, at eps = 1; a mismatch means the
    declared table row and the declared substitution disagree."""
    ghe = spec.ghe
    phi = ghe.phi.as_float()
    psi_t = ghe.psi_tilde.as_float()
    phi_t = ghe.phi_tilde.at(Fraction(1)).as_float()
    h = 1e-5
    # moderate abscissas: far enough out to probe shape, close enough in
    # that the slope has not collapsed below finite-difference resolution
    for x in (-1.37, 0.25, 1.9):
        s = spec.tau.forward(x)
        dtau = spec.tau.deriv(x)
        ddtau = (spec.tau.deriv(x + h) - spec.tau.deriv(x - h)) / (2 * h)
        lhs1 = psi_t(s) / phi(s)
        rhs1 = ddtau / dtau**2
        if abs(lhs1 - rhs1) > 1e-7 * max(1.0, abs(rhs1)):
            raise ValueError(
                f"{spec.name}: declared slope disagrees with psi_t/phi at x={x}"
            )
        lhs2 = phi_t(s) / phi(s) ** 2
        rhs2 = (1.0 - float(spec.reduced_potential(x))) / dtau**2
        if abs(lhs2 - rhs2) > 1e-7 * max(1.0, abs(rhs2)):
            raise ValueError(
                f"{spec.name}: declared equation disagrees with eps - v at x={x}"
            )


def pinned_branch(spec, eps):
    """The physically integrable substitution branch at a concrete eps.

    The geometric admissibility filter alone is ambiguous in narrow
    parameter windows (partner branches with non-normalizable weights pass
    it); requiring square integrability (reduction.bound_canonical)
    resolves the choice deterministically.
    """
    eps = as_exact(eps)
    ghe = spec.ghe
    matches = [
        br
        for br in branch_candidates(ghe, eps)
        if bound_canonical(ghe, br.psi) is not None
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"{spec.name}: {len(matches)} integrable branches at eps={eps}"
        )
    return matches[0]


# -- bound spectra -------------------------------------------------------------


def eigenvalue_count(spec):
    """Number of bound states (math.inf for the confining well)."""
    return spec.ghe.ladder.count


def eigen_eps(spec, n):
    """Exact reduced eigenvalue of the n-th bound state."""
    return spec.ghe.ladder.branch(n).eps


def bound_state(spec, n):
    """The n-th bound state, from the reduced equation's ladder."""
    br = spec.ghe.ladder.branch(n)
    canonical = br.canonical
    lam_target = eigen_lambda(canonical.family, n, canonical.alpha, canonical.beta)
    if canonical.lambda_canonical(br.lam) != lam_target:
        raise RuntimeError(
            f"{spec.name}: eigenvalue identity broken at n={n}"
        )
    rec = family_record(canonical.family)
    log_norm = rec.log_x_norm_const(n, *rec.floats(canonical.alpha, canonical.beta))
    return BoundState(
        n=n,
        eps=br.eps,
        energy=spec.energy_scale * scalar_float(br.eps),
        canonical=canonical,
        chi=br.chi,
        norm_const_sq=math.exp(log_norm) * spec.coordinate_scale,
        sampler=_state_sampler(spec, n, canonical, br.chi, log_norm),
    )


# rescaling step of recurrence_values: an exact power of two, far inside the
# float range on both sides
_RESCALE_AT = 2.0**500
_RESCALE_LOG = 500.0 * math.log(2.0)
# a sum of squares below this leaves every value below _RESCALE_AT
_SQUARES_BELOW = 2.0**999


def recurrence_values(family, n, u, alpha=None, beta=None):
    """The degree-n family polynomial at the float array u, by the forward
    three-term recurrence (stable for real u: Gil, Segura & Temme,
    Numerical Methods for Special Functions, ch. 4).

    Returns (m, e) with P_n(u) = m * exp(e).  Where the recurrence grows
    past 2^500 both carried terms are scaled down by that power of two and
    e records it, so any degree stays inside the float range; pass e to
    the caller's log-weight instead of forming P_n itself.
    """
    rec = family_record(family)
    return _scaled_recurrence(rec.recurrence, n, u, rec.floats(alpha, beta))


def _scaled_recurrence(recurrence, n, u, exps):
    """recurrence_values once the record is looked up (a sampler does it once)."""
    u = np.asarray(u, dtype=float)
    e = np.zeros(u.shape)
    prev = np.ones(u.shape)
    if n == 0:
        return prev, e
    cur, step = recurrence(u, *exps)
    # a value past 2^512 overflows the guard's dot product to inf, which
    # fails the guard as it should: no warning for that
    with np.errstate(over="ignore"):
        # float k: numpy scales by a Python float faster than by an int; k is exact
        for k in map(float, range(1, n)):
            prev, cur = cur, step(k, cur, prev)
            # one dot product per step clears the common case; NaN and inf
            # fail it and fall through to the elementwise test, which
            # rescales only when some value has grown past the threshold
            flat = cur.ravel()
            if flat @ flat < _SQUARES_BELOW:
                continue
            if np.abs(cur).max(initial=0.0) > _RESCALE_AT:
                big = np.abs(cur) > _RESCALE_AT
                cur = np.where(big, cur / _RESCALE_AT, cur)
                prev = np.where(big, prev / _RESCALE_AT, prev)
                e = e + np.where(big, _RESCALE_LOG, 0.0)
    return cur, e


def _state_sampler(spec, n, canonical, chi, log_norm):
    """x -> exp(log_norm/2) * P_n(scale*tau(x) + shift) * chi(tau(x)).

    The polynomial comes from the family's float recurrence, never from
    the expanded coefficients, and chi from chi.log_value added to the
    recurrence's scale exponent, each base through the substitution's
    cancellation-free affine form when it has one (the reduced variable
    saturates in floats long before the weight's true decay runs out).
    Elementwise, so one call evaluates a whole array of positions.
    """
    tau = spec.tau.forward
    rec = family_record(canonical.family)
    recurrence, exps = rec.recurrence, rec.floats(canonical.alpha, canonical.beta)
    scale, shift = scalar_float(canonical.scale), scalar_float(canonical.shift)

    def sampler(x):
        xs = np.asarray(x, dtype=float)
        s = tau(xs)
        m, log_w = _scaled_recurrence(recurrence, n, scale * s + shift, exps)
        with np.errstate(divide="ignore"):
            log_w = chi.log_value(s, np.log, _bases_at(spec.tau, xs, s), log_w + 0.5 * log_norm)
        vals = m * np.exp(log_w)
        return vals if vals.ndim else float(vals)

    return sampler


def _bases_at(tau, xs, s):
    """(c1, c0) -> c1*s + c0 at s = tau(xs), through the substitution's
    cancellation-free affine form when it has one."""
    if tau.affine_value is None:
        return lambda c1, c0: c1 * s + c0
    return lambda c1, c0: tau.affine_value(c1, c0, xs)


def bound_spectrum(spec, n_max=None):
    """All bound states (or the first n_max+1 of an infinite family).

    The reduced equation's ladder gives the level count, solved once from
    inequalities in n, and each level's branch in closed form; every state
    is built through bound_state.  Raises EmptySpectrum when the shape
    parameters admit no bound state at all, and checks the strict ordering
    and region invariants before returning.
    """
    count = eigenvalue_count(spec)
    if n_max is None and count == math.inf:
        raise ValueError("confining potential: pass n_max to cap the family")
    if count == 0:
        raise EmptySpectrum(f"{spec.name}: no bound level clears the cutoff")
    top = count if n_max is None else min(count, n_max + 1)  # a negative cap keeps no level
    states = [bound_state(spec, n) for n in range(top)]
    v_min, v_minus = spec.v_min, (*spec.plateaus, math.inf)[0]
    for lo_state, hi_state in zip(states, states[1:]):
        if scalar_sign(hi_state.eps - lo_state.eps) <= 0:
            raise RuntimeError(f"{spec.name}: spectrum not strictly increasing")
    for st in states:
        if scalar_sign(st.eps - v_min) <= 0 or scalar_sign(v_minus - st.eps) <= 0:
            raise RuntimeError(
                f"{spec.name}: eps_{st.n}={scalar_float(st.eps)} escapes the bound region"
            )
    return states


def oracle_spectrum(spec, k_max=None, grid=None):
    """Sinc-DVR eigenvalues below the lower plateau.  The oracle starts from
    the potential's default box (or a caller-supplied grid, whose points cap
    the basis) and sizes its own box from the potential alone."""
    if grid is None:
        lo, hi, pts = spec.fd_box
        grid = FdGrid(lo, hi, pts)
    threshold = spec.v_minus
    if not math.isfinite(threshold):
        if k_max is None:
            raise ValueError("confining potential: pass k_max for the oracle")
        return fd_bound_states(spec.reduced_potential, grid, k_max=k_max)
    return fd_bound_states(spec.reduced_potential, grid, threshold=threshold)


def wavefunction_residual(spec, sampler, eps, xs):
    """Worst scaled defect of psi'' + (eps - v) psi = 0 over the points.

    Five-point central differences, all stencil points in one call of
    sampler, which takes a numpy array as BoundState.sampler does; the
    denominator guard keeps nodes (psi ~ 0) from reading as false failures.
    """
    xs, step = np.asarray(xs, dtype=float), 1e-3  # the stencil's spacing
    if not xs.size:
        return 0.0
    f = sampler(xs[:, None] + np.arange(-2, 3) * step).T
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step * step)
    gap = scalar_float(eps) - np.asarray(spec.reduced_potential(xs), dtype=float)
    defect = np.abs(d2 + gap * f[2]) / np.maximum(1.0, np.abs(f[2]) * np.abs(gap))
    return float(defect.max())


# levels up to this n start normalization from the window as one panel:
# their recurrences are short, so the rounds that find the panels cost little
ONE_PANEL_LEVELS = 8


def normalization_defect(spec, state):
    """|1 - integral of sampler^2| over the whole line.

    The quadrature window (spec.norm_window) stops where the density is
    still representable at full precision; past an edge with a plateau the
    density is a single decaying exponential to machine accuracy, so the
    remaining mass is added in closed form rather than chased numerically,
    at the decay rate sqrt(plateau - eps_n).

    Above n = ONE_PANEL_LEVELS the adaptive rule starts from panels of
    equal WKB phase of the reduced potential at eps_n (oracle.wkb_edges),
    one per pi (about one per node), counted to 20 units of decay past
    each turning point; those panels already resolve the level's n nodes,
    so one round usually meets the tolerance.  Lower levels start from the
    whole window.
    """

    def sq(x):
        return state.sampler(x) ** 2

    lo, hi, lo_plateau, hi_plateau = spec.norm_window(state)
    edges = (lo, hi)
    if state.n > ONE_PANEL_LEVELS:
        edges = wkb_edges(spec.reduced_potential, scalar_float(state.eps), lo, hi)
    total = quad_adaptive(sq, *edges)
    for edge, plateau in ((hi, hi_plateau), (lo, lo_plateau)):
        if plateau is not None:
            rate = math.sqrt(scalar_float(plateau - state.eps))
            total += sq(edge) / (2.0 * rate)
    return abs(total - 1.0)


# -- scattering ----------------------------------------------------------------


def scattering_states(spec, eps):
    """The continuum at eps, derived from the reduced equation spec.ghe.

    Each plateau end r is a channel, open exactly when phi_tilde(r; eps) > 0
    (an exact sign: eps is a dyadic rational).  Its indicial exponents are
    +-sqrt(-phi_tilde(r; eps))/|phi'(r)|; a closed channel's solution takes
    the one >= 0.  The basis holds one solution bounded at both ends per open
    channel, built without evaluating a special function:

      phi quadratic, both roots r1, r2 plateau ends, t = (s - r1)/(r2 - r1):
        t^rho1 (1-t)^rho2 2F1(a, b; 1 + 2 rho1; t), a, b = rho1 + rho2 +
        1/2 -+ sqrt(1/4 - c2/f2^2) (c2, f2 the s^2 coefficients of
        phi_tilde and phi), built at a closed end, or with both open at r1
        with rho1 = +-i kappa1: c is no pole, and c - a - b = -2 rho2 no
        integer;
      phi = f1 (s - r) linear, its infinite end a wall (c2 < 0), sigma =
        side (s - r) > 0, phi_tilde/f1^2 = -rho^2 + q1 sigma - w^2 sigma^2:
        e^(-w sigma) sigma^rho U(rho + 1/2 - q1/(2w), 1 + 2 rho, 2 w sigma),
        the one solution that decays in the wall.

    NonFiniteEnergy for a nan or infinite eps, NoScatteringRegion when no
    end is a plateau, EnergyBelowRegion when no channel is open, and
    ValueError for an equation of another shape.
    """
    from .hyper import hyp2f1, hypU  # the solve and verify paths never load hyper

    eps = float(eps)
    if not math.isfinite(eps):
        raise NonFiniteEnergy(f"scattering energy must be finite, got {eps}")
    ends = spec._plateau_ends
    if not ends:
        raise NoScatteringRegion("no end of the working interval is a plateau")
    e, ghe, tau = as_exact(eps), spec.ghe, spec.tau
    gaps = [c + e * lin for _, _, c, lin in ends]
    is_open = [scalar_sign(g) > 0 for g in gaps]
    if not any(is_open):
        raise EnergyBelowRegion(f"eps={eps} does not exceed the lower plateau {spec.v_minus}")
    dphi = ghe.phi.derivative()
    rho = [cmath.sqrt(-scalar_float(g)) / abs(scalar_float(dphi(end[0]))) for end, g in zip(ends, gaps)]
    c1, c2 = (ghe.phi_tilde.const.coeff(k) + e * ghe.phi_tilde.linear.coeff(k) for k in (1, 2))

    if ghe.phi.degree == 2 and len(ends) == 2:
        if is_open[0] and not is_open[1]:
            ends, rho = ends[::-1], rho[::-1]
        r1, r2, rho2 = ends[0][0], ends[1][0], rho[1]
        root = cmath.sqrt(0.25 - scalar_float(c2 / ghe.phi.coeff(2) ** 2))
        # (s - r_k)/(r_other - r_k): zero at its own end, one at the other
        t_base = (scalar_float(1 / (r2 - r1)), scalar_float(r1 / (r1 - r2)))
        rest_base = (scalar_float(1 / (r1 - r2)), scalar_float(r2 / (r2 - r1)))

        def gauss(rho1):
            a, b, c = rho1 + rho2 + 0.5 - root, rho1 + rho2 + 0.5 + root, 1.0 + 2.0 * rho1

            def sampler(x):
                base = _bases_at(tau, x, tau.forward(x))
                t, rest = float(base(*t_base)), float(base(*rest_base))
                return cmath.exp(rho1 * math.log(t) + rho2 * math.log(rest)) * hyp2f1(a, b, c, t).value

            return sampler

        return ScatteringState(eps, tuple(map(gauss, (rho[0], -rho[0]) if all(is_open) else rho[:1])))
    (r, side, *_), (rho,) = ends[0], rho
    wall = (ghe.interval.hi, ghe.interval.lo)[side < 0]
    if ghe.phi.degree != 1 or not isinstance(wall, float) or scalar_sign(c2) >= 0:
        raise ValueError(f"{spec.name}: no continuum solver for this reduced equation")
    f1_sq = ghe.phi.coeff(1) ** 2
    w = math.sqrt(-scalar_float(c2 / f1_sq))
    q1 = scalar_float(side * (c1 + 2 * c2 * r) / f1_sq)
    a, c, sigma_base = rho + 0.5 - q1 / (2.0 * w), 1.0 + 2.0 * rho, (side, scalar_float(-side * r))

    def sampler(x):
        sigma = float(_bases_at(tau, x, tau.forward(x))(*sigma_base))
        u = hypU(a, c, 2.0 * w * sigma).value
        return cmath.exp(rho * math.log(sigma) - w * sigma + cmath.log(u))

    return ScatteringState(eps, (sampler,))
