"""Independent numerical cross-checks: a sinc-DVR bound-state solver and
adaptive quadrature.

The eigenvalue oracle solves -psi'' + v(x) psi = eps psi in the sinc
discrete-variable representation (DVR) of Colbert & Miller (J. Chem. Phys.
96, 1982 (1992)).  On n evenly spaced points x_i = lo + i h inside a box the
kinetic matrix is T_ii = pi^2 / (3 h^2), T_ij = 2 (-1)^(i-j) / (h^2 (i-j)^2);
the potential adds v(x_i) on the diagonal, and numpy.linalg.eigvalsh returns
the levels.  For an analytic potential the error falls exponentially as h
shrinks, so no extrapolation step is needed.

The oracle sizes its basis from the potential alone; it never sees the
analytic levels it is compared with.

* The spacing starts at the sampling limit pi/h = SAMPLING * sqrt(E_ref -
  min v).  E_ref is the threshold, or the top requested level when the
  well confines.  A well that bends faster than that, |v''| > (E_ref -
  min v)^2, is sampled at the wavenumber sqrt(|v''| / (E_ref - min v)).
* Each wall sits past the top level's classical turning point by the WKB
  decay length ln(1/tol)/(2 kappa), kappa = sqrt(v - E), that leaves the
  level within TARGET * rtol of where an open wall would put it.  The first
  walls are placed before any solve, from the WKB top level: the energy at
  which the Bohr-Sommerfeld phase over the starting box reaches
  pi (n + 1/2).  For a confining well whose starting box holds that
  level's turning points, the energy also sets E_ref.
* Under a finite threshold the number of levels is fixed first, by Sturm's
  oscillation theorem: it is the number of nodes of the solution at the
  threshold energy.  The box grows by BOX_GROWTH on its plateau sides until
  the level count reaches that number, so a level just below the threshold
  is not lost to a box that squeezes it out.  A top level whose Sturm node
  lies d past the well sits less than 1/d^2 below the threshold; when that
  is inside the accuracy asked for, it is placed midway in the gap and no
  box has to reach it.
* The spacing then shrinks by COARSE_RATIO until a solve agrees with the
  coarser one to TARGET * rtol.  When that moves the top level by more than
  TARGET * rtol, or loses a level, the walls are placed again.

Each level's error estimate adds the walls' allowance to the last spacing
change.  GridTooCoarse is raised when an estimate exceeds rtol, or when the
box needs more points than the caller allows.

Quadrature is implemented here and vectorised: integrands take a numpy
array of abscissas and return the values with the same shape, so a whole
round of nodes costs one call.  quad_adaptive is a globally adaptive
10/21-point Gauss-Kronrod rule with QUADPACK's nodes and error estimate,
for smooth (possibly infinite-range) integrands.  It starts from the panels
between the edges it is given.  QUADPACK starts from one panel and bisects,
which spends several rounds finding where a wavefunction's nodes are;
WkbScan.edges finds a level's window from the potential alone (20 units of
decay past the outermost turning points, or where v reaches its plateau)
and places the panels beforehand, at equal steps of the WKB phase (the
integral of max(sqrt(|e - v|), |v'|^(1/3)) dx), about QUAD_PANEL_PHASE or
one node each.  A WkbScan samples v once per box for all the levels of a
well, with the running minima of its cell means and its plateau points,
which any energy reads by binary search, so each level's window costs
arithmetic over the window alone.
tanh_sinh is a double-exponential rule for weights with endpoint exponents in (-1, 0),
where the integrand must be evaluated with exact distances to the
endpoints rather than through a rounded abscissa.  inner_product,
orthogonality_defect and norm_defect apply the two rules to the classical
polynomials, against the closed-form norms of classical.norm_sq, choosing
the rule by the finiteness of each end of the family's interval.  numpy is
the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import family_record, norm_sq, rodrigues_poly
from .errors import CountMismatch, GridTooCoarse, NoConvergence
from .reduction import pearson_weight

DEFAULT_QUAD_TOL = 1e-11
DEFAULT_GRID_RTOL = 1e-3
QUAD_MAX_SUBINTERVALS = 200
QUAD_PANEL_PHASE = math.pi  # WKB phase per panel of a starting partition (WkbScan.edges)
TANH_SINH_TOL = 1e-12  # relative change between levels at which tanh_sinh stops
TANH_SINH_LEVELS = 10  # halvings of the step tanh_sinh tries before giving up
INNER_PRODUCT_TOL = 1e-12  # relative target of inner_product's adaptive tail

SAMPLING = 2.0  # pi/h over the largest local wavenumber sqrt(E_ref - min v)
TARGET = 1e-2  # each wall and the spacing may add this fraction of rtol
BOX_GROWTH = 1.5  # a plateau side's reach past the top turning point grows by this
COARSE_RATIO = 1.5  # spacing of the companion solve over that of the answer
MAX_ROUNDS = 16
_SEED_TOL = 1e-2  # of the WKB top level's gap to the threshold: its walls' decay rate moves by half that
# the Sturm count's Numerov step, and the reach (both in spacings h) past
# which a straight run heading for zero counts as a zero-energy resonance:
# Numerov's own error puts a resonance's node some 5e5 h away
NUMEROV_STEP = 0.125
RESONANCE_REACH = 1e4


@dataclass(frozen=True)
class FdGrid:
    """A box [lo, hi] and a number of points.

    Passed to fd_bound_states, lo:hi is the starting box and n the largest
    basis the oracle may use; on an OracleSpectrum it is the box the oracle
    settled on and the basis it used there.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("grid endpoints and their span must be finite floats")
        if self.n < 9:
            raise ValueError("grid needs at least 9 points")
        if not self.lo < self.hi:
            raise ValueError("grid endpoints out of order")

    def coarsened(self):
        """The same box with (close to) half the points."""
        return FdGrid(self.lo, self.hi, (self.n - 1) // 2 + 1)


@dataclass(frozen=True)
class OracleSpectrum:
    eigenvalues: tuple  # below threshold, ascending
    error_estimates: tuple  # one per eigenvalue
    grid: FdGrid  # the box and basis the eigenvalues come from


@dataclass(frozen=True)
class SpectraReport:
    analytic: tuple
    oracle: tuple
    rel_errors: tuple
    rel_tol: float

    @property
    def ok(self):
        return all(r <= self.rel_tol for r in self.rel_errors)


def _potential(v, x):
    """v at the points x (an array or a number), as floats of x's shape;
    overflow in a steep wall reads as inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        y = np.asarray(v(x), dtype=float)
    return y if y.shape == x.shape else np.broadcast_to(y, x.shape)


def _sinc_dvr(v, x, v_cap):
    """Eigenvalues of -d^2/dx^2 + v on the evenly spaced points x, with v
    clipped at v_cap so that a deep wall costs no precision."""
    n, h = len(x), x[1] - x[0]
    k = np.arange(1, n, dtype=float)
    row = np.empty(n)
    row[0] = math.pi**2 / 3.0
    row[1:] = np.where(k % 2, -2.0, 2.0) / (k * k)
    row /= h * h
    # t[i, j] = row[|i - j|], read as windows of the row mirrored about 0
    mirrored = np.concatenate([row[:0:-1], row])
    t = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()
    t.flat[:: n + 1] += np.minimum(_potential(v, x), v_cap)
    return np.linalg.eigvalsh(t)


def _walk(v, x0, direction, e, shift, step, limit):
    """The wall past the turning point x0 of energy e, walking in direction
    -1 or +1: the first point where a wall moves the level by less than
    shift.  A wall where the WKB phase past x0 is phi and the decay rate
    kappa = sqrt(v - e) moves it by about 4 kappa^2 exp(-2 phi), the shift of
    a level held by its tail alone; on a plateau that puts the wall
    ln(1/tol) / (2 kappa) past x0, with tol = shift / (4 kappa^2).  The
    phase must reach at least 1 first, so that a wall is not placed where
    kappa has not yet risen from 0.  Past limit, x0 + direction * limit."""
    done = 0.0
    for start in np.arange(0.0, limit, 256 * step):
        xs = x0 + direction * (start + step * np.arange(1, 257))
        # a starting box far wider than the well walks in huge steps, where
        # v and the phase may leave the float range
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kappa_sq = np.clip(_potential(v, xs) - e, 0.0, 1e300)
            phase = done + step * np.cumsum(np.sqrt(kappa_sq))
            moved = np.log(4.0 * kappa_sq) - 2.0 * phase
        hit = np.flatnonzero((phase >= 1.0) & (moved <= math.log(shift)))
        if hit.size:
            return float(xs[hit[0]])
        done = float(phase[-1])
    return x0 + direction * limit


def _turning_points(v, lo, hi, e, step):
    """The outermost points of [lo, hi] where v < e (the box edges if none)."""
    xs = np.arange(lo, hi, step)
    inside = np.flatnonzero(_potential(v, xs) < e)
    return (float(xs[inside[0]]), float(xs[inside[-1]])) if inside.size else (lo, hi)


def _threshold_count(v, lo, hi, threshold, h, limit):
    """Bound levels below a finite threshold, by Sturm's oscillation theorem.

    The count is the number of nodes of the threshold-energy solution that
    vanishes deep in the higher wall, integrated by Numerov steps towards
    the lower side.  That side ends where the potential has reached the
    threshold.  The solution runs straight from there, so one more node lies
    ahead when it heads for zero; it is counted when it lies within
    RESONANCE_REACH spacings, since a solution that runs flat (a zero-energy
    resonance, as in Morse with half-integer Lambda) has no node ahead.  The
    walks into the wall and along the plateau stop at limit.

    Returns the count, the start and end of the integration, and the
    distance d from the end to the node ahead (None if there is none).  The
    node stands for a shallow level, whose tail exp(-kappa x) past the well
    matches the straight run: kappa is at most 1/d, so the level lies less
    than 1/d^2 below the threshold, and a box holds it only if it reaches
    past the node.
    """
    walled = 1 if _potential(v, hi) > _potential(v, lo) else -1
    turning = _turning_points(v, lo, hi, threshold, h)
    start = _walk(v, turning[walled > 0], walled, threshold, 1e-9, h, limit)
    end, reach = turning[walled < 0], h
    tail = 1e-10 * max(1.0, threshold - float(_potential(v, end)))
    while reach < limit and abs(
            float(_potential(v, end - walled * reach)) - threshold) > tail:
        reach *= 2.0
    end -= walled * reach
    # Numerov stays stable while step^2 (v - threshold) / 12 stays small
    wall = float(_potential(v, start)) - threshold
    step = NUMEROV_STEP * h
    if wall > 0:
        step = min(step, math.sqrt(6.0 / wall))
    vs = _potential(v, np.linspace(start, end, int(abs(end - start) / step) + 2))
    step = abs(end - start) / (len(vs) - 1)
    g = step**2 / 12.0 * (threshold - vs)
    c = (1.0 + g).tolist()
    g12 = (12.0 * g).tolist()
    # u = c psi obeys u[i+1] = 2 u[i] - u[i-1] - 12 g[i] psi[i]
    u_prev, u = 0.0, c[1]
    nodes = 0
    for i in range(1, len(c) - 1):
        u_next = 2.0 * u - u_prev - g12[i] * u / c[i]
        nodes += (u_next < 0.0) != (u < 0.0)
        u_prev, u = u, u_next
        if abs(u) > 1e250:
            u_prev, u = u_prev * 1e-250, u * 1e-250
    psi, slope = u / c[-1], (u / c[-1] - u_prev / c[-2]) / step
    if (psi < 0.0) == (slope < 0.0) or abs(psi) >= RESONANCE_REACH * h * abs(slope):
        return nodes, start, end, None
    return nodes + 1, start, end, abs(psi / slope)


def _toward(edge, wanted, pivot, h, floor):
    """A wall moved toward where it is wanted.  Measured from the pivot, it
    moves out by at most BOX_GROWTH times its reach (or the floor) per round,
    since a level squeezed by a short box sits high and asks for too much;
    and it moves in only when it reaches more than BOX_GROWTH times as far
    as wanted, so that a settled box does not wander."""
    reach, need = abs(edge - pivot), abs(wanted - pivot)
    if need > reach + h:
        return pivot + math.copysign(min(need, BOX_GROWTH * max(reach, floor)), wanted - pivot)
    if reach > BOX_GROWTH * need + h:
        return wanted
    return edge


def _wkb_level(v, box, n, threshold, v_min):
    """(e, held): the energy e of level n by the Bohr-Sommerfeld rule, where
    the phase, the integral of sqrt(max(e - v, 0)) over box on 2049 points,
    reaches pi (n + 1/2), and whether both ends of the box lie above e.
    When one does not, the box cuts off some of the phase and e lies too
    high.  e is bisected until the bracket is _SEED_TOL of its distance to
    the threshold or its height above v_min, whichever is less.  None when
    the phase at a finite threshold falls short."""
    xs = np.linspace(box[0], box[1], 2049)
    vs, step, target = _potential(v, xs), xs[1] - xs[0], math.pi * (n + 0.5)

    def short(e):
        with np.errstate(over="ignore", invalid="ignore"):
            return step * float(np.sqrt(np.fmax(e - vs, 0.0)).sum()) < target

    lo, hi = v_min, threshold
    if math.isfinite(threshold):
        if short(threshold):
            return None
    else:
        # a well more than 2^53 above 0 has no float at v_min + 1
        hi = v_min + max(1.0, math.ulp(v_min))
        while short(hi):
            hi = lo + 2.0 * (hi - lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
        if hi - lo <= _SEED_TOL * min(hi - v_min, threshold - hi):
            break
    e = 0.5 * (lo + hi)
    return e, bool(vs[0] >= e and vs[-1] >= e)


def fd_bound_states(v, grid, threshold=math.inf, k_max=None, rtol=DEFAULT_GRID_RTOL):
    """Bound-state energies of -psi'' + v psi = eps psi by sinc-DVR.

    v must accept a numpy array of positions.  grid.lo:grid.hi is the box
    to start from and grid.n the largest basis allowed; a starting box whose
    lowest point is one of its ends lies on a slope off the well, and is
    first extended along falling v past the well.  The returned spectrum's
    grid is the box and basis the levels come from.  threshold
    bounds the spectrum from above (energies at or above it belong to the
    continuum and are discarded); with an infinite threshold k_max picks how
    many low-lying states to return.  Raises GridTooCoarse when the box
    needs more than grid.n points, when a level's error estimate exceeds
    rtol * max(1, |level|), or when the top level lies within rounding of
    the well's floor.  A top level closer to the threshold than
    TARGET * rtol allows is placed from its Sturm node rather than boxed; a
    node further than RESONANCE_REACH spacings ahead is taken for a
    zero-energy resonance and not counted.  The first round's walls come
    from the WKB estimate of the top level (_wkb_level, on 2049 points of
    the starting box, extended past a Sturm node where the count asks for
    it; the Sturm count or k_max gives n), so the first solve runs on about
    the box they settle on; when the phase at a finite threshold falls
    short of that level, the first solve runs on the starting box.  Walls
    and spacing settle in turn, until a refinement keeps the count and the
    top level (to TARGET * rtol).
    """
    finite = math.isfinite(threshold)
    if not finite and k_max is None:
        raise ValueError("k_max is required when threshold is infinite")
    lo, hi = grid.lo, grid.hi
    probe = np.linspace(lo, hi, 257)
    rim = _potential(v, probe)
    lowest = int(np.argmin(rim))
    if lowest in (0, len(probe) - 1):
        # the starting box lies on a slope off the well: walk on along
        # falling v, past the well and out through its far wall, and start
        # from the box that reaches there
        e, step = float(rim[lowest]), probe[1] - probe[0]
        reach = _walk(v, float(probe[lowest]), 1 if lowest else -1, e,
                      TARGET * rtol * max(1.0, abs(e)), step, grid.n * step)
        lo, hi = (lo, reach) if lowest else (reach, hi)
        probe = np.linspace(lo, hi, 257)
        rim = _potential(v, probe)
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = np.abs(np.diff(rim, 2)) / (probe[1] - probe[0]) ** 2
    v_min = float(rim.min())
    # the energy of the sampling limit: the threshold, or, for a confining
    # well, first the starting box's rim and then the top requested level
    e_ref = threshold if finite else float(rim.max())
    if not e_ref > v_min:
        raise GridTooCoarse(
            f"the potential is at least {e_ref:.6g} on the whole starting box "
            f"[{lo:.6g}, {hi:.6g}]; start from a box over the well"
        )
    centre = 0.5 * (lo + hi)

    def spacing():
        # the largest local wavenumber, or the potential's own: a shallow
        # well that bends on a shorter scale than its levels' wavelength
        # must still be sampled across
        depth = e_ref - v_min
        bends = curvature[(rim[1:-1] < e_ref) & np.isfinite(curvature)]
        return math.pi / (SAMPLING * math.sqrt(max(depth, bends.max(initial=0.0) / depth)))

    def sample_for(top):
        # sample the top level's largest wavenumber, give or take 10%
        nonlocal e_ref, h
        e_ref = top + 0.1 * (top - v_min)
        if not e_ref > v_min:
            raise GridTooCoarse(
                f"the level {top:.17g} lies within rounding of the well's floor "
                f"{v_min:.17g}; no spacing resolves it"
            )
        h = spacing()

    def lattice(box, h):
        # points on a lattice through the centre: a grown box keeps every
        # point it had, so the levels move by the walls' effect alone
        return centre + h * np.arange(math.floor((box[0] - centre) / h) + 1,
                                      math.ceil((box[1] - centre) / h))

    def solve(box, h):
        nonlocal v_min
        x = lattice(box, h)
        if len(x) < 2:
            return np.empty(0)
        if len(x) > grid.n:
            raise GridTooCoarse(
                f"the box [{box[0]:.6g}, {box[1]:.6g}] needs {len(x)} points at "
                f"spacing {h:.3g}, more than the {grid.n} allowed"
            )
        # a box that has left the starting one may reach deeper
        v_min = min(v_min, float(_potential(v, x).min()))
        w = _sinc_dvr(v, x, v_min + 1e3 * (e_ref - v_min))
        return w[w < threshold][:want] if finite else w[:k_max]

    def grown(box, pivot):
        # the plateau sides, those still open at the threshold, reach
        # BOX_GROWTH times as far past the pivot
        sides = _potential(v, box) - threshold <= 1e-9 * (threshold - v_min)
        if not sides.any():
            sides[:] = True
        return tuple(p + (BOX_GROWTH if side else 1.0) * (edge - p)
                     for edge, p, side in zip(box, pivot, sides))

    def settled(new, old):
        return len(new) == len(old) and bool(np.all(
            np.abs(new - old) <= TARGET * rtol * np.maximum(1.0, np.abs(new))))

    def refine(box, h, levels):
        # the spacing: refine until a solve agrees with the one COARSE_RATIO coarser
        coarse = solve(box, h * COARSE_RATIO)
        while not settled(levels, coarse) and len(lattice(box, h / COARSE_RATIO)) <= grid.n:
            h /= COARSE_RATIO
            coarse, levels = levels, solve(box, h)
        return levels, coarse, h

    box, h = (lo, hi), spacing()
    if not hi - lo <= (grid.n + 1) * h:
        # the first solve would need more points; fail before sampling it
        raise GridTooCoarse(
            f"the starting box [{lo:.6g}, {hi:.6g}] is wider than {grid.n} points "
            f"at spacing {h:.3g}"
        )
    want, shallow = k_max, None
    if finite:
        want, start, end, ahead = _threshold_count(v, *box, threshold, h, grid.n * h)
        if ahead is not None and 0.5 / ahead**2 <= TARGET * rtol * max(1.0, abs(threshold)):
            # the top level lies less than 1/ahead^2 below the threshold,
            # closer than the accuracy asked for: it is placed midway in
            # that gap instead of in a box that reaches past its node
            want, shallow = want - 1, threshold - 0.5 / ahead**2
        elif ahead is not None:
            # a box holds that level once it reaches about half as far again
            # past the node; raise now if that cannot fit
            node = end + math.copysign(ahead, end - start)
            if BOX_GROWTH * abs(node - start) > grid.n * h:
                raise GridTooCoarse(
                    f"a level lies so close to the threshold that its box reaches "
                    f"past x = {node:.6g}, more than {grid.n} points at spacing "
                    f"{h:.3g} from the wall at {start:.6g}"
                )
            box = (min(box[0], node), max(box[1], node))

    def placed(box, top):
        # walls past the turning points of the level top, where each moves
        # it by TARGET * rtol of itself, and the box moved toward them
        shift = TARGET * rtol * max(1.0, abs(top))
        pivot = _turning_points(v, *box, top, h)
        wanted = (_walk(v, pivot[0], -1, top, shift, h, grid.n * h),
                  _walk(v, pivot[1], 1, top, shift, h, grid.n * h))
        return pivot, tuple(_toward(edge, aim, p, h, 0.25 * (box[1] - box[0]))
                            for edge, aim, p in zip(box, wanted, pivot))

    pivot = (centre, centre)
    seed = _wkb_level(v, box, want - 1, threshold, v_min) if want else None
    if seed is not None:
        # the first wall round places the walls of the WKB top level, so the
        # first solve runs on about the box the walls settle on
        top, held = seed
        pivot, box = placed(box, top)
        if not finite and held:
            sample_for(top)
    levels = coarse = np.empty(0)
    stale = True  # levels are not yet those of (box, h)
    for _ in range(MAX_ROUNDS if want else 0):
        if stale:
            levels = solve(box, h)
        stale = True
        if len(levels) < want:
            box = grown(box, pivot)
            continue
        top = float(levels[-1])
        if not finite and not top <= e_ref <= top + 0.21 * (top - v_min):
            sample_for(top)
            continue
        pivot, moved = placed(box, top)
        if moved != box:
            box = moved
            continue
        # a finer spacing that moves the top level, and with it the decay the
        # walls were placed for, or that loses a level, places them again
        levels, coarse, h = refine(box, h, levels)
        if len(levels) == want and settled(levels[-1:], np.array([top])):
            break
        stale = False  # refine ends on the solve of (box, h)
    else:
        if want:
            raise GridTooCoarse(f"the box did not settle within {MAX_ROUNDS} rounds")

    errs = np.full(len(levels), np.inf)
    m = min(len(levels), len(coarse))
    errs[:m] = np.abs(levels[:m] - coarse[:m])
    # the walls were placed to move the top level by at most TARGET * rtol
    # of itself each; a deeper level feels them less
    errs += 2.0 * TARGET * rtol * np.maximum(1.0, np.abs(levels))
    if shallow is not None:
        levels, errs = np.append(levels, shallow), np.append(errs, threshold - shallow)
    if k_max is not None:
        levels, errs = levels[:k_max], errs[:k_max]
    for ei, est in zip(levels, errs):
        if est > rtol * max(1.0, abs(ei)):
            raise GridTooCoarse(
                f"level {ei:.6g} is uncertain by {est:.2e} (tolerance {rtol:.1e}); "
                "allow more points"
            )
    return OracleSpectrum(tuple(map(float, levels)), tuple(map(float, errs)),
                          FdGrid(box[0], box[1], max(len(lattice(box, h)), 9)))


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
    return SpectraReport(analytic, tuple(ov), rel, rel_tol)


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
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
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


def quad_adaptive(f, *edges, tol=DEFAULT_QUAD_TOL, abs_tol=None):
    """Adaptive 10/21-point Gauss-Kronrod quadrature; NoConvergence on failure.

    The range is given by its edges: quad_adaptive(f, lo, hi) starts from
    the one panel [lo, hi], and quad_adaptive(f, lo, x1, ..., hi) from the
    panels between consecutive edges (a starting partition such as
    WkbScan.edges gives, which saves the rounds that bisection would spend
    finding it).  Interior edges need finite ends.

    f takes a 1-D float array of abscissas and returns the integrand values
    with the same shape.  Each round calls it once, with the 21 nodes of
    every subinterval that round bisects (the first round, of every
    starting panel); infinite ends are mapped onto (0, 1].  The rule stops
    when the summed QUADPACK error estimate meets
    max(abs_tol, tol * |result|): tol bounds the relative error, abs_tol
    (defaulting to tol) sets the absolute floor.  Pass a larger abs_tol when
    the integrand's lobes dwarf the cancelled result, where a fixed
    absolute request would exceed what double precision can deliver.
    NoConvergence is raised when meeting the target would take more than
    QUAD_MAX_SUBINTERVALS subintervals plus one per starting panel after the
    first, or when the integrand returns a non-finite value.
    """
    epsabs = tol if abs_tol is None else abs_tol
    lo, *inner, hi = edges
    g, a, b = _finite_range(f, lo, hi)
    if inner and g is not f:
        raise ValueError("interior edges need a finite range")
    lefts, rights = np.array([a, *inner], dtype=float), np.array([*inner, b], dtype=float)
    cap = len(inner) + QUAD_MAX_SUBINTERVALS
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
        if len(vals) + len(split) > cap:
            raise NoConvergence(
                f"adaptive quadrature needs more than {cap} "
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


def _first_above(d, level):
    """The first index where the ascending sums d exceed level (None if
    none does); a nan, which ends the ascent, exceeds nothing."""
    k = int(np.searchsorted(d, level, "right"))
    if k < len(d) and not d[k] > level:
        above = np.flatnonzero(d > level)
        return int(above[0]) if above.size else None
    return k if k < len(d) else None


class WkbScan:
    """The potential v sampled over lo:hi once, for the windows of any
    number of its levels (edges).

    Each box that a level's search reaches (lo:hi itself, and any box it is
    widened to or zoomed into) is sampled once, on 2048 cells, when a level
    first needs it.  The scan keeps the points and v there, each cell's mean
    of v at its ends and its Airy wavenumber |v'|^(1/3) times the cell
    width, and v at the two infinite ends with their ulps.  Per box it also
    keeps what holds at every energy: the running minima of the cell means
    from the left and from the right, in which a level's outermost cells
    below e are found by binary search, and for each point the nearest
    point at or before it where v has reached its value at -inf, and at or
    after it its value at +inf (the plateau indices).  So a level's window
    and panels cost arithmetic in its energy over the window alone.
    """

    def __init__(self, v, lo, hi):
        self.v, self.lo, self.hi = v, lo, hi
        with np.errstate(invalid="ignore"):
            self.ends = _potential(v, np.array([-math.inf, math.inf]))
        self.ulps = np.spacing(np.abs(self.ends))
        self._boxes = {}  # (lo, hi) -> what _sampled keeps of that box

    def _sampled(self, lo, hi):
        """The samples of the box lo:hi, taken on its first use, with what
        edges reads of them at any energy: the running minima of the cell
        means from each side, and each point's nearest plateau point on
        each side."""
        key = (lo, hi)
        if key not in self._boxes:
            x = np.linspace(lo, hi, 2049)  # the phase only places panels: 2048 cells serve
            h = x[1] - x[0]
            vx = _potential(self.v, x)
            with np.errstate(over="ignore", invalid="ignore"):
                # per cell: the mean of v at its ends, and its slope's Airy wavenumber
                mean = 0.5 * (vx[1:] + vx[:-1])
                airy = np.cbrt(np.abs(np.diff(vx)) / h) * h
                # a cell lies below e when its mean does, which a nan never does
                below = np.where(np.isnan(mean), math.inf, mean)
                at_end = np.abs(vx[:, None] - self.ends) <= self.ulps
            index = np.arange(2049)
            self._boxes[key] = (
                x, h, vx, mean, airy, int(np.argmin(vx)),
                # minima from the left, negated so that they ascend; from the right
                -np.minimum.accumulate(below), np.minimum.accumulate(below[::-1])[::-1],
                # the nearest point at or before each one where v has reached its
                # value at -inf (-1 for none), and at or after it, +inf's (2049)
                np.maximum.accumulate(np.where(at_end[:, 0], index, -1)),
                np.minimum.accumulate(np.where(at_end[::-1, 1], index[::-1], 2049))[::-1],
            )
        return self._boxes[key]

    def edges(self, e):
        """The window of the level of energy e in the well of v that lo:hi
        holds, split into panels of equal WKB phase for quad_adaptive to
        start from.

        The window ends, on each side, 20 units of decay (the integral of
        sqrt(v - e) dx) past the outermost turning point, where the density
        has fallen by e^-40; or, on a side where v levels off, at the first
        point where v equals its value at that infinite end to one ulp (a
        float potential can round its plateau a few ulps off the exact one),
        past which the density is one exponential.  It is found on 2048
        cells of lo:hi, widened by twice its width on each side that does
        not reach an edge yet, or toward the lowest point when no point lies
        below e and that point is an end, up to 2^10 times the width of
        lo:hi; a well narrower than a cell is zoomed into once.  On each
        box the turning cells come from two binary searches of the running
        minima, and the decay is summed only out to the nearest plateau
        point past them; the phase is formed over the window alone.  The
        floats are those of a sweep of every cell at each energy.

        A level has a node about every pi of the phase, the integral of
        sqrt(|e - v|) dx, so panels of QUAD_PANEL_PHASE each hold about one
        node of its density.  Near a turning point, where sqrt(|e - v|)
        vanishes, the level varies on the Airy length |v'|^(-1/3) instead,
        so the phase density is the larger of the two wavenumbers.  A deep
        level gets as many panels as that takes.  When no well is found, the
        edges are (lo, hi).
        """
        lo, hi = self.lo, self.hi
        box, zoomed = (lo, hi), False
        reach = 2**10 * (hi - lo)  # the widest range searched before giving up
        while True:
            x, h, vx, mean, airy, lowest, left_min, right_min, left_end, right_end = self._sampled(lo, hi)
            # the outermost cells whose mean lies below e
            first = int(np.searchsorted(left_min, -e, "right"))
            last = int(np.searchsorted(right_min, e)) - 1
            width = hi - lo
            if first > last:
                if zoomed or width > reach:
                    return box
                if 0 < lowest < 2048:
                    lo, hi, zoomed = x[lowest - 1], x[lowest + 1], True
                else:  # the well lies past this end of the range
                    lo, hi = lo - 2 * width * (lowest == 0), hi + 2 * width * (lowest > 0)
                continue
            # the nearest plateau points outward from the turning points: the
            # window stops there at the latest, so the decay is summed up to them
            near = int(left_end[first - 1]) if first else -1
            far = int(right_end[last + 2]) if last < 2047 else 2049
            s, t = max(near, 0), min(far, 2048)
            with np.errstate(over="ignore", invalid="ignore"):
                # each cell's WKB phase, or its decay
                wave = np.sqrt(np.abs(e - mean[s:t])) * h
            decay = (np.cumsum(wave[near + 1 - s:first - s][::-1]),
                     np.cumsum(wave[last + 1 - s:far - 1 - s]))
            hit = [_first_above(d, 20.0) for d in decay]
            a = near if hit[0] is None else first - 1 - hit[0]
            b = far if hit[1] is None else last + 2 + hit[1]
            found = (a >= 0, b <= 2048)
            if all(found) or width > reach:
                break
            lo, hi = lo - 2 * width * (not found[0]), hi + 2 * width * (not found[1])
        a, b = max(a, 0), min(b, 2048)
        phase = np.zeros(b - a + 1)  # at each point of the window, from its left end
        np.cumsum(np.fmax(wave[a - s:b - s], airy[a:b]), out=phase[1:])
        total = float(phase[-1])
        panels = math.ceil(total / QUAD_PANEL_PHASE)
        inner = np.interp(total * np.arange(1, panels) / panels, phase, x[a:b + 1])
        return (float(x[a]), *inner.tolist(), float(x[b]))


def tanh_sinh(g, a, b):
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
    for level in range(1, TANH_SINH_LEVELS + 1):
        h *= 0.5
        j_top = int(t_max / h)
        j_start = -j_top if j_top % 2 else -j_top + 1  # odd multiples only
        add = level_sum(np.arange(j_start, j_top + 1, 2) * h)
        new_total = 0.5 * total + h * add
        if level >= 3 and abs(new_total - total) <= TANH_SINH_TOL * max(1.0, abs(new_total)):
            return new_total
        total = new_total
    raise NoConvergence("tanh-sinh rule did not settle within the level budget")


def inner_product(family, p, q, alpha=None, beta=None, abs_tol=None):
    """Weighted integral of p*q over the family's canonical interval, with
    the weight from Pearson's equation of its canonical equation, evaluated
    by its log_value with each base read as the exact distance to the end
    it vanishes at.

    Next to a finite end, where a negative exponent is singular, the
    double-exponential rule runs on those distances; an infinite
    end uses adaptive quadrature, whose absolute target abs_tol loosens for
    integrals that cancel to a tiny fraction of their lobes.
    """
    rec = family_record(family)
    lo, hi = float(rec.interval.lo), float(rec.interval.hi)
    weight = pearson_weight(*rec.equation(*rec.exact(alpha, beta)), rec.interval)
    pf, qf = p.as_float(), q.as_float()

    def weighted(x, d_lo, d_hi):
        # each base is x - lo or hi - x
        log_w = weight.log_value(x, np.log, lambda c1, c0: d_lo if c1 > 0 else d_hi)
        return np.exp(log_w) * pf(x) * qf(x)

    if math.isfinite(hi):  # a classical interval with a finite hi is (-1, 1)
        return tanh_sinh(weighted, lo, hi)
    head, start = 0.0, lo
    if math.isfinite(lo):
        head, start = tanh_sinh(weighted, lo, lo + 1.0), lo + 1.0
    tail = quad_adaptive(
        lambda x: weighted(x, x - lo, hi - x), start, hi, tol=INNER_PRODUCT_TOL, abs_tol=abs_tol
    )
    return head + tail


def orthogonality_defect(family, m, n, alpha=None, beta=None):
    """|<P_m, P_n>| normalized by the two closed-form norms; zero for an
    exactly orthogonal pair.

    The quadrature tolerance is scaled by the norm product: the integrand's
    lobes are that large, so asking for a fixed absolute accuracy on their
    cancellation would demand more than double precision holds.
    """
    pm = rodrigues_poly(family, m, alpha, beta)
    pn = rodrigues_poly(family, n, alpha, beta)
    scale = math.sqrt(norm_sq(family, m, alpha, beta) * norm_sq(family, n, alpha, beta))
    raw = inner_product(family, pm, pn, alpha, beta, abs_tol=1e-12 * max(1.0, scale))
    return abs(raw) / scale


def norm_defect(family, n, alpha=None, beta=None):
    """Relative gap between the quadrature norm and the closed form."""
    pn = rodrigues_poly(family, n, alpha, beta)
    ref = norm_sq(family, n, alpha, beta)
    raw = inner_product(family, pn, pn, alpha, beta, abs_tol=1e-12 * max(1.0, ref))
    return abs(raw - ref) / ref
