"""Independent numerical cross-checks: finite-difference spectra and
adaptive quadrature.

The eigenvalue oracle discretizes -psi'' + v(x) psi = eps psi with the
standard three-point stencil on a uniform grid, Dirichlet walls at the box
edges, and solves the symmetric tridiagonal problem by LAPACK bisection
(scipy.linalg.eigvalsh_tridiagonal).  Raw eigenvalues carry an O(h^2)
discretization bias, so the oracle always solves on the requested grid and
on a coarsened companion and Richardson-extrapolates the pair; the
difference between the two runs doubles as an error estimate and trips
GridTooCoarse when it exceeds the caller's tolerance.

Quadrature is implemented here and vectorised: integrands take a numpy
array of abscissas and return the values with the same shape, so a whole
round of nodes costs one call.  quad_adaptive is a globally adaptive
10/21-point Gauss-Kronrod rule with QUADPACK's nodes and error estimate,
for smooth (possibly infinite-range) integrands.  tanh_sinh is a
double-exponential rule for weights with endpoint exponents in (-1, 0),
where the integrand must be evaluated with exact distances to the
endpoints rather than through a rounded abscissa.  scipy serves only the
tridiagonal eigensolver and is imported on the first oracle solve, so
importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, GridTooCoarse, NoConvergence

DEFAULT_QUAD_TOL = 1e-11
DEFAULT_GRID_RTOL = 1e-3
QUAD_MAX_SUBINTERVALS = 200


@dataclass(frozen=True)
class FdGrid:
    lo: float
    hi: float
    n: int  # grid points including both walls

    def __post_init__(self):
        if self.n < 9:
            raise ValueError("grid needs at least 9 points")
        if not self.lo < self.hi:
            raise ValueError("grid endpoints out of order")

    @property
    def h(self):
        return (self.hi - self.lo) / (self.n - 1)

    def coarsened(self):
        """Companion grid with (close to) twice the spacing."""
        return FdGrid(self.lo, self.hi, (self.n - 1) // 2 + 1)


@dataclass(frozen=True)
class OracleSpectrum:
    eigenvalues: tuple  # Richardson-extrapolated, below threshold
    raw_fine: tuple
    raw_coarse: tuple
    error_estimates: tuple
    grid: FdGrid
    threshold: float


@dataclass(frozen=True)
class SpectraReport:
    analytic: tuple
    oracle: tuple
    rel_errors: tuple
    rel_tol: float
    ok: bool


def _solve_grid(v, grid, threshold, k_max):
    from scipy.linalg import eigvalsh_tridiagonal

    x = np.linspace(grid.lo, grid.hi, grid.n)
    h = x[1] - x[0]
    xi = x[1:-1]
    vi = np.asarray(v(xi), dtype=float)
    d = 2.0 / h**2 + vi
    e = np.full(len(xi) - 1, -1.0 / h**2)
    if math.isfinite(threshold):
        lo_ev = float(d.min()) - 2.0 / h**2 - 1.0
        w = eigvalsh_tridiagonal(d, e, select="v", select_range=(lo_ev, threshold))
    else:
        top = min(k_max + 3, len(xi) - 1)
        w = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, top))
    return np.sort(w)


def fd_bound_states(v, grid, threshold=math.inf, k_max=None, rtol=DEFAULT_GRID_RTOL):
    """Bound-state energies of -psi'' + v psi = eps psi inside the box.

    v must accept a numpy array of positions.  threshold bounds the
    spectrum from above (energies at or above it belong to the continuum
    and are discarded); with an infinite threshold k_max picks how many
    low-lying states to return.  Raises GridTooCoarse when the fine and
    coarsened runs disagree beyond rtol after extrapolation.
    """
    if not math.isfinite(threshold) and k_max is None:
        raise ValueError("k_max is required when threshold is infinite")
    fine = _solve_grid(v, grid, threshold, k_max)
    coarse_grid = grid.coarsened()
    coarse = _solve_grid(v, coarse_grid, threshold, k_max)
    r = (coarse_grid.h / grid.h) ** 2
    m = min(len(fine), len(coarse))
    extr, errs, rf, rc = [], [], [], []
    for i in range(m):
        ei = (r * fine[i] - coarse[i]) / (r - 1.0)
        est = abs(fine[i] - coarse[i]) / (r - 1.0)
        if ei >= threshold:
            continue
        extr.append(float(ei))
        errs.append(float(est))
        rf.append(float(fine[i]))
        rc.append(float(coarse[i]))
    if k_max is not None:
        extr, errs = extr[:k_max], errs[:k_max]
        rf, rc = rf[:k_max], rc[:k_max]
    for ei, est in zip(extr, errs):
        if est > rtol * max(1.0, abs(ei)):
            raise GridTooCoarse(
                f"fine/coarse grids disagree by {est:.2e} at eigenvalue {ei:.6g} "
                f"(tolerance {rtol:.1e}); refine the grid"
            )
    return OracleSpectrum(
        tuple(extr), tuple(rf), tuple(rc), tuple(errs), grid, threshold
    )


def fd_convergence_ratio(v, grid, threshold=math.inf, state=0):
    """Eigenvalue-difference ratio across three dyadic grids.

    For an O(h^2) stencil the ratio (e_4h - e_2h)/(e_2h - e_h) approaches 4;
    values far from 4 flag an implementation or resolution problem.
    """
    if (grid.n - 1) % 4:
        raise ValueError("need n-1 divisible by 4 for three dyadic grids")
    g1 = grid
    g2 = grid.coarsened()
    g4 = g2.coarsened()
    k = state + 1
    e1 = _solve_grid(v, g1, threshold, k)[state]
    e2 = _solve_grid(v, g2, threshold, k)[state]
    e4 = _solve_grid(v, g4, threshold, k)[state]
    denom = e2 - e1
    if denom == 0:
        raise GridTooCoarse("eigenvalues identical across grids; cannot estimate order")
    return float((e4 - e2) / denom)


def compare_spectra(analytic, oracle, rel_tol):
    """Pair analytic and oracle energies; CountMismatch if lengths differ."""
    analytic = tuple(float(a) for a in analytic)
    ov = oracle.eigenvalues if isinstance(oracle, OracleSpectrum) else tuple(oracle)
    if len(analytic) != len(ov):
        raise CountMismatch(
            f"analytic spectrum has {len(analytic)} levels, oracle has {len(ov)}"
        )
    rel = tuple(
        abs(a - o) / max(1.0, abs(a)) for a, o in zip(analytic, ov)
    )
    ok = all(r <= rel_tol for r in rel)
    return SpectraReport(analytic, tuple(ov), rel, rel_tol, ok)


# ---------------------------------------------------------------------------
# quadrature


# QUADPACK qk21: Kronrod abscissae on [0, 1] (every odd entry is also a
# 10-point Gauss node), their Kronrod weights, and the Gauss weights.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208005460760, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1] with their weights; Gauss weights sit on the
# odd Kronrod nodes
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _values(f, x):
    """f on an array of abscissas, as a float array of the same shape;
    NoConvergence on any non-finite value."""
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise NoConvergence(f"integrand is not finite at x={bad!r}")
    return y


def _finite_range(f, lo, hi):
    """(g, a, b) with the integral of g over [a, b] equal to that of f over
    [lo, hi]; an infinite end is mapped by x = end -+ (1-t)/t, t in (0, 1],
    as in QUADPACK's qagi."""
    lo, hi = float(lo), float(hi)
    if math.isfinite(lo) and math.isfinite(hi):
        return f, lo, hi
    if not math.isfinite(lo) and not math.isfinite(hi):

        def g(t):
            r = (1.0 - t) / t
            y = f(np.concatenate([r, -r]))
            return (y[: len(t)] + y[len(t):]) / (t * t)

        return g, 0.0, 1.0
    if math.isfinite(lo):
        return (lambda t: f(lo + (1.0 - t) / t) / (t * t)), 0.0, 1.0
    return (lambda t: f(hi - (1.0 - t) / t) / (t * t)), 0.0, 1.0


def _gk21(g, a, b):
    """Kronrod estimates and QUADPACK error estimates on the subintervals
    [a_i, b_i], from one call of g with all 21 nodes of every subinterval."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = centre[:, None] + half[:, None] * _NODES
    y = _values(g, x.ravel()).reshape(x.shape)
    resk = y @ _KRONROD
    resg = y @ _GAUSS
    resabs = np.abs(y) @ _KRONROD
    resasc = np.abs(y - 0.5 * resk[:, None]) @ _KRONROD
    err = np.abs((resk - resg) * half)
    resasc = resasc * np.abs(half)
    resabs = resabs * np.abs(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
    return resk * half, np.maximum(err, floor)


def quad_adaptive(f, lo, hi, tol=DEFAULT_QUAD_TOL, abs_tol=None):
    """Adaptive 10/21-point Gauss-Kronrod quadrature; NoConvergence on failure.

    f takes a 1-D float array of abscissas and returns the integrand values
    with the same shape.  Each round calls it once, with the 21 nodes of
    every subinterval that round bisects; infinite ends are mapped onto
    (0, 1].  The rule stops when the summed QUADPACK error estimate meets
    max(abs_tol, tol * |result|): tol bounds the relative error, abs_tol
    (defaulting to tol) sets the absolute floor.  Pass a larger abs_tol when
    the integrand's lobes dwarf the cancelled result, where a fixed
    absolute request would exceed what double precision can deliver.
    NoConvergence is raised when meeting the target would take more than
    QUAD_MAX_SUBINTERVALS subintervals, or when the integrand returns a
    non-finite value.
    """
    epsabs = tol if abs_tol is None else abs_tol
    g, a, b = _finite_range(f, lo, hi)
    lefts, rights = np.array([a]), np.array([b])
    vals, errs = _gk21(g, lefts, rights)
    while True:
        total, err = float(vals.sum()), float(errs.sum())
        target = max(epsabs, tol * abs(total))
        if err <= target:
            return total
        # bisect the fewest worst subintervals whose error covers the excess
        order = np.argsort(errs)[::-1]
        k = int(np.searchsorted(np.cumsum(errs[order]), err - target)) + 1
        split = order[:k]
        if len(vals) + len(split) > QUAD_MAX_SUBINTERVALS:
            raise NoConvergence(
                f"adaptive quadrature needs more than {QUAD_MAX_SUBINTERVALS} "
                f"subintervals: error estimate {err:.2e} against target {target:.1e}"
            )
        mids = 0.5 * (lefts[split] + rights[split])
        new_l = np.concatenate([lefts[split], mids])
        new_r = np.concatenate([mids, rights[split]])
        new_v, new_e = _gk21(g, new_l, new_r)
        keep = np.ones(len(vals), dtype=bool)
        keep[split] = False
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        vals = np.concatenate([vals[keep], new_v])
        errs = np.concatenate([errs[keep], new_e])


def tanh_sinh(g, a, b, tol=1e-12, max_level=10):
    """Tanh-sinh quadrature on (a, b) for endpoint-singular integrands.

    g is called as g(x, d_lo, d_hi) with three float arrays of the same
    shape, one call per level, and returns the integrand values with that
    shape.  d_lo = x - a and d_hi = b - x are computed to full relative
    precision even when they underflow the spacing of floats near the
    endpoints; integrable endpoint blow-ups (power exponents > -1) must use
    the distances, not x itself.  Abscissas whose weight underflows to zero
    are not passed to g.
    """
    rad = 0.5 * (b - a)
    t_max = 6.0

    def level_sum(t):
        u = 0.5 * math.pi * np.sinh(t)
        q = np.exp(-2.0 * np.abs(u))
        near = rad * 2.0 * q / (1.0 + q)  # distance to the nearer endpoint
        far = (b - a) - near
        upper = u >= 0
        w = 0.5 * math.pi * np.cosh(t) * rad * 4.0 * q / (1.0 + q) ** 2
        live = w != 0.0
        near, far, upper, w = near[live], far[live], upper[live], w[live]
        d_lo = np.where(upper, far, near)
        d_hi = np.where(upper, near, far)
        x = np.where(upper, b - near, a + near)
        y = np.broadcast_to(np.asarray(g(x, d_lo, d_hi), dtype=float), x.shape)
        return float(np.sum(w * y))

    h = 1.0
    total = h * level_sum(np.arange(-int(t_max), int(t_max) + 1) * h)
    for level in range(1, max_level + 1):
        h *= 0.5
        j_top = int(t_max / h)
        j_start = -j_top if j_top % 2 else -j_top + 1  # odd multiples only
        add = level_sum(np.arange(j_start, j_top + 1, 2) * h)
        new_total = 0.5 * total + h * add
        if level >= 3 and abs(new_total - total) <= tol * max(1.0, abs(new_total)):
            return new_total
        total = new_total
    raise NoConvergence("tanh-sinh rule did not settle within the level budget")
