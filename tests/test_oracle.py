import json
import math
import random

import numpy as np
import pytest

from nu_spectral import oracle, potentials
from nu_spectral.cli import main
from nu_spectral.errors import CountMismatch, GridTooCoarse, NoConvergence, NuSpectralError
from nu_spectral.oracle import (
    FdGrid,
    WkbScan,
    _sinc_dvr,
    compare_spectra,
    fd_bound_states,
    quad_adaptive,
    tanh_sinh,
)
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
    rosen_morse2,
    wavefunction_residual,
)
from nu_spectral.scalars import scalar_float


def test_fd_harmonic_levels():
    # -psi'' + x^2 psi = eps psi has eps_n = 2n+1
    spec = fd_bound_states(lambda x: x * x, FdGrid(-10.0, 10.0, 1200), k_max=6, rtol=1e-8)
    assert len(spec.eigenvalues) == len(spec.error_estimates) == 6
    for n, (ev, est) in enumerate(zip(spec.eigenvalues, spec.error_estimates)):
        assert abs(ev - (2 * n + 1)) < 1e-10
        assert est <= 1e-8 * (2 * n + 1)
    # the box and basis the levels come from, inside the allowed cap
    assert spec.grid.n <= 1200
    assert spec.grid.lo < -math.sqrt(11.0) and spec.grid.hi > math.sqrt(11.0)


def test_fd_threshold_filters_continuum():
    # Morse with Lambda = 3.75: levels 3.75^2 - (3.25 - n)^2 for n = 0..3,
    # the top one 0.0625 below the plateau; nothing at or above it is kept
    well = morse(Lambda=3.75)
    spec = fd_bound_states(well.reduced_potential, FdGrid(-2.0, 12.0, 1200),
                           threshold=well.v_minus)
    exact = [3.75**2 - (3.25 - n) ** 2 for n in range(4)]
    assert len(spec.eigenvalues) == 4
    assert all(ev < well.v_minus for ev in spec.eigenvalues)
    for ev, want, est in zip(spec.eigenvalues, exact, spec.error_estimates):
        assert abs(ev - want) <= est < 1e-3 * max(1.0, want)


def test_fd_count_settles_past_a_short_starting_box():
    # the top level sits 0.0029 below v_minus and decays over 19 units: a
    # +-15 box squeezes it above the threshold, so the box must grow until
    # the Sturm count of 4 is reached
    well = rosen_morse2(62, 0.35)
    spec = fd_bound_states(well.reduced_potential, FdGrid(-15.0, 15.0, 1200),
                           threshold=well.v_minus)
    assert len(spec.eigenvalues) == 4
    assert spec.grid.hi > 22.0
    exact_top = well.v_minus - 0.0028638
    assert abs(spec.eigenvalues[-1] - exact_top) <= spec.error_estimates[-1] < 1e-3


def test_fd_grid_too_coarse():
    # the harmonic box for four levels needs more than a dozen points
    with pytest.raises(GridTooCoarse):
        fd_bound_states(lambda x: x * x, FdGrid(-10.0, 10.0, 12), k_max=4)


def test_fd_shallow_level_placed_from_its_sturm_node():
    # rosen_morse2(238, 0.51): the top level is 4.5e-5 below v_minus and
    # decays over 150 units.  Its Sturm node lies about 130 units past the
    # well, which bounds its gap by 1/130^2, inside the accuracy asked for,
    # so no box needs to reach it
    well = rosen_morse2(238, 0.51)
    spec = fd_bound_states(well.reduced_potential, FdGrid(-15.0, 15.0, 1200),
                           threshold=well.v_minus)
    assert len(spec.eigenvalues) == 6
    assert spec.grid.hi < 15.0
    exact_top = well.v_minus - 4.50434e-5
    assert abs(spec.eigenvalues[-1] - exact_top) <= spec.error_estimates[-1] < 1e-4


def _sweep_wells():
    rng = random.Random(2026)
    wells = [(morse(Lambda=rng.randrange(20, 160) / 4), None) for _ in range(6)]
    wells += [(rosen_morse2(rng.randint(20, 250), round(rng.uniform(0.1, 0.6), 2)), None)
              for _ in range(8)]
    wells += [(harmonic(), 20), (harmonic(), 60), (morse(Lambda=3.75), None)]
    # (9, 0.29): its top level, 1.3e-4 below v_minus, first gets walls for its
    # coarse-spacing value 0.0015 below; the refined spacing lifts it out of
    # that box, which must then be placed again to hold it
    wells += [(rosen_morse2(v0, mu), None)
              for v0, mu in ((62, 0.35), (163, 0.18), (2000, 0.2), (9, 0.29))]
    return wells


@pytest.mark.parametrize("rtol", [1e-3, 1e-6])
def test_fd_estimates_bound_the_error(rtol):
    # every level the oracle returns lies within its own error estimate of
    # the exact level; only the tighter tolerance may ask for a larger basis
    for spec, n_max in _sweep_wells():
        exact = [scalar_float(st.eps) for st in bound_spectrum(spec, n_max=n_max)]
        finite = math.isfinite(spec.v_minus)
        try:
            oracle = fd_bound_states(spec.reduced_potential, FdGrid(*spec.fd_box),
                                     threshold=spec.v_minus if finite else math.inf,
                                     k_max=None if finite else len(exact), rtol=rtol)
        except GridTooCoarse:
            assert rtol < 1e-3, spec.name
            continue
        assert len(oracle.eigenvalues) == len(exact), spec.name
        for want, got, est in zip(exact, oracle.eigenvalues, oracle.error_estimates):
            assert abs(got - want) <= est, (spec.name, want, got, est)


def test_fd_tight_tolerance_near_the_threshold():
    # four levels, the top one 0.0029 below v_minus: at rtol 1e-8 its walls
    # fit inside 1200 points
    well = rosen_morse2(62, 0.35)
    spec = fd_bound_states(well.reduced_potential, FdGrid(*well.fd_box),
                           threshold=well.v_minus, rtol=1e-8)
    exact = [scalar_float(st.eps) for st in bound_spectrum(well)]
    assert len(spec.eigenvalues) == len(exact) == 4
    assert spec.grid.n <= 1200
    for want, got, est in zip(exact, spec.eigenvalues, spec.error_estimates):
        assert abs(got - want) <= est <= 1e-8 * max(1.0, abs(want))


def test_fd_level_beyond_any_allowed_box():
    # asked for 1e-8, that level needs a box past its node, beyond 1200 points
    well = rosen_morse2(238, 0.51)
    with pytest.raises(GridTooCoarse, match="close to the threshold"):
        fd_bound_states(well.reduced_potential, FdGrid(-15.0, 15.0, 1200),
                        threshold=well.v_minus, rtol=1e-8)


@pytest.mark.parametrize("offset", [1e17, -1e17])
def test_fd_well_far_from_zero_ends(offset):
    # levels 2 apart on a floor whose floats are 16 apart: the WKB seed's
    # bracket must still grow, and the levels cannot be told from the floor
    with pytest.raises(GridTooCoarse, match="within rounding"):
        fd_bound_states(lambda x: x * x + offset, FdGrid(-10, 10, 1200), k_max=1)


def test_sinc_dvr_converges_exponentially():
    # on a fixed box the error falls by over 100x each time the basis grows 1.5x
    well = morse(Lambda=5)
    cases = (
        (lambda x: x * x, (-8.0, 8.0), [1.0, 3.0, 5.0, 7.0], (16, 24, 36)),
        (well.reduced_potential, (-2.0, 20.0), [4.75, 12.75, 18.75], (40, 60, 90)),
    )
    for v, (lo, hi), exact, sizes in cases:
        errs = []
        for n in sizes:
            x = np.linspace(lo, hi, n + 2)[1:-1]
            levels = _sinc_dvr(v, x, np.inf)[: len(exact)]
            errs.append(np.max(np.abs(levels - exact)))
        assert errs[1] < errs[0] / 100 and errs[2] < errs[1] / 100, errs


def test_fd_requires_kmax_for_infinite_threshold():
    with pytest.raises(ValueError):
        fd_bound_states(lambda x: x * x, FdGrid(-5, 5, 101))


def test_compare_spectra():
    grid = FdGrid(-10.0, 10.0, 2001)
    spec = fd_bound_states(lambda x: x * x, grid, k_max=4)
    report = compare_spectra([1.0, 3.0, 5.0, 7.0], spec, rel_tol=1e-5)
    assert report.ok
    assert max(report.rel_errors) < 1e-6
    with pytest.raises(CountMismatch):
        compare_spectra([1.0, 3.0], spec, rel_tol=1e-5)


def test_quad_adaptive_gaussian():
    val = quad_adaptive(lambda x: np.exp(-x * x), -np.inf, np.inf)
    assert abs(val - math.sqrt(math.pi)) < 1e-12


def test_quad_adaptive_failure():
    # 1/x is not integrable through the origin
    with pytest.raises(NoConvergence):
        quad_adaptive(lambda x: 1.0 / np.where(x != 0, np.abs(x), 1e-16), -1.0, 1.0)


def test_quad_adaptive_non_finite_value():
    with pytest.raises(NoConvergence):
        quad_adaptive(lambda x: np.where(x > 0.7, np.nan, 1.0), 0.0, 1.0)


def test_quad_adaptive_one_call_per_round():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.sin(x) ** 2

    val = quad_adaptive(f, 0.0, 40.0)
    assert abs(val - (20.0 - math.sin(80.0) / 4.0)) < 1e-10
    assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in sizes)


def test_quad_adaptive_starts_from_given_edges():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(x) ** 2

    # panels of width pi resolve sin^2 at once: one round, with every panel
    val = quad_adaptive(f, *np.linspace(0.0, 40.0, 14))
    assert abs(val - (20.0 - math.sin(80.0) / 4.0)) < 1e-12
    assert calls == [13 * 21]
    with pytest.raises(ValueError, match="finite range"):
        quad_adaptive(f, -np.inf, 0.0, np.inf)


def test_wkb_edges_hold_about_one_node_per_panel():
    # v = x^2 at its level n = 20: the density has the 20 zeros of H_20
    n = 20
    edges = WkbScan(lambda x: x * x, -10.0, 10.0).edges(2.0 * n + 1.0)
    assert np.all(np.diff(edges) > 0)
    zeros = np.polynomial.hermite.hermroots([0] * n + [1])
    per_panel = np.histogram(zeros, bins=edges)[0]
    assert per_panel.sum() == n
    assert n < len(edges) - 1 < 2 * n
    assert per_panel.max() <= 2


def test_wkb_edges_stop_20_units_of_decay_out():
    # on a confining side the window ends where the decay integral past the
    # turning point has reached 20, give or take one of the box's 2048 cells
    e, box = 21.0, (-10.0, 10.0)
    lo, *_, hi = WkbScan(lambda x: x * x, *box).edges(e)
    step = (box[1] - box[0]) / 2048
    for edge in (-lo, hi):
        root = math.sqrt(edge * edge - e)
        decay = 0.5 * (edge * root - e * math.log((edge + root) / math.sqrt(e)))
        assert 20.0 <= decay <= 20.0 + 2.0 * step * root


def test_wkb_edges_stop_where_the_potential_reaches_its_plateau():
    # a level 1e-6 below the lower plateau falls by e every 500 units, but past
    # the first point where v has reached its float value at the infinite
    # end the density is one exponential: the window stops there.  This
    # well's float plateau lies two ulps from float(vm), so the comparison
    # with v's own end value matters
    spec = rosen_morse2(4, 0.5)
    v, vm = spec.reduced_potential, float(spec.exact["vm"])
    v_end = float(v(np.array(math.inf)))
    assert v_end != vm
    lo, hi, _ = spec.fd_box
    edges = WkbScan(v, lo, hi).edges(vm - 1e-6)
    assert float(v(np.array(edges[-1]))) == v_end
    assert float(v(np.array(edges[-1] - 0.2))) != v_end
    assert edges[-1] < 25.0


def test_wkb_edges_find_the_well_that_the_box_misses():
    # a well narrower than a cell of the box is zoomed into, and one that
    # lies past an end of the box is reached by widening it
    for v, e, centre, half in ((lambda x: 1e10 * (x - 0.003) ** 2, 1e5, 0.003, 0.00316),
                               (lambda x: (x - 30.0) ** 2, 41.0, 30.0, math.sqrt(41.0))):
        edges = WkbScan(v, -10.0, 10.0).edges(e)
        assert edges[0] < centre - half and centre + half < edges[-1]
        assert edges[-1] - edges[0] < 20.0 * half
        assert len(edges) > 2


def test_wkb_edges_fallbacks():
    # no point of the box below e, and no well to zoom into: the box itself
    assert WkbScan(lambda x: x * x, -3.0, 3.0).edges(-1.0) == (-3.0, 3.0)
    # a deep level gets one panel per pi of phase however many that makes
    # (quad_adaptive's cap grows with them): H_1000 has 1000 nodes
    edges = WkbScan(lambda x: x * x, -50.0, 50.0).edges(2001.0)
    assert len(edges) - 1 >= 1000
    assert all(a < b for a, b in zip(edges, edges[1:]))


def test_wkb_scan_samples_each_box_once():
    # the levels of one well share a scan: each box a level's search reaches
    # (the box itself, a widened one, a zoomed one) is sampled once on its
    # 2049 points, and every level's edges are those of a fresh WkbScan
    for v, box, energies in (
            (lambda x: x * x, (-10.0, 10.0), [1.0, 21.0, 41.0, 341.0, 2001.0, 345.0, -1.0]),
            (lambda x: 1e10 * (x - 0.003) ** 2, (-10.0, 10.0), [1e5, 3e5, 1e5 + 1.0, 2e5, 5e4])):
        boxes = []

        def counting(x, v=v):
            if np.size(x) == 2049:
                boxes.append((float(x[0]), float(x[-1])))
            return v(x)

        scan = WkbScan(counting, *box)
        for e in energies:
            assert scan.edges(e) == WkbScan(v, *box).edges(e), e
        assert len(boxes) == len(set(boxes)) > 1
        assert len(boxes) < len(energies)


@pytest.mark.filterwarnings("error")
def test_huge_starting_box_is_too_coarse():
    # a box far wider than any basis allows fails before it is sampled
    spec = morse(Lambda=5)
    with pytest.raises(GridTooCoarse, match="starting box"):
        fd_bound_states(spec.reduced_potential, FdGrid(-1e300, 1e300, 1200), threshold=25.0)


def test_tanh_sinh_polynomial():
    val = tanh_sinh(lambda x, dlo, dhi: x * x, -1.0, 1.0)
    assert abs(val - 2.0 / 3.0) < 1e-13


def test_tanh_sinh_beta_integrals():
    # int_-1^1 (1-x)^a (1+x)^b dx = 2^(a+b+1) B(a+1, b+1)
    for a, b in [(-0.5, -0.5), (-0.9, 0.3), (0.5, 1.5), (-0.7, -0.2)]:
        val = tanh_sinh(lambda x, dlo, dhi: dhi**a * dlo**b, -1.0, 1.0)
        want = (
            2.0 ** (a + b + 1)
            * math.gamma(a + 1)
            * math.gamma(b + 1)
            / math.gamma(a + b + 2)
        )
        assert abs(val - want) / want < 1e-10


def test_tanh_sinh_against_quad_on_smooth():
    f = lambda x: np.cos(3 * x) * np.exp(x)
    got = tanh_sinh(lambda x, dlo, dhi: f(x), 0.0, 2.0)
    want = quad_adaptive(f, 0.0, 2.0)
    assert abs(got - want) < 1e-11


def test_fd_solves_each_lattice_once(monkeypatch):
    # this well's refinement does not settle at once; the round after it
    # starts from the box and spacing the refinement ended on, and reuses
    # that solve instead of running it again
    lattices = []

    def recording(v, x, cap):
        lattices.append(x)
        return _sinc_dvr(v, x, cap)

    monkeypatch.setattr(oracle, "_sinc_dvr", recording)
    oracle_spectrum(rosen_morse2(9, 0.29))
    assert any(len(x) == 437 for x in lattices)
    assert not any(np.array_equal(a, b) for a, b in zip(lattices, lattices[1:]))


def _edges_by_sweep(scan, e):
    """WkbScan.edges as it was when every energy swept all 2048 cells of
    each box it reached, kept as the reference for the bits of the search
    that reads the running minima and plateau indices instead."""
    lo, hi = scan.lo, scan.hi
    box, ends, ulps, zoomed = (lo, hi), scan.ends, scan.ulps, False
    reach = 2**10 * (hi - lo)
    while True:
        x, h, vx, mean, airy = scan._sampled(lo, hi)[:5]
        with np.errstate(over="ignore", invalid="ignore"):
            gap = e - mean
        wave = np.sqrt(np.abs(gap)) * h
        inside, width = np.flatnonzero(gap > 0), hi - lo
        if not inside.size:
            i = int(np.argmin(vx))
            if zoomed or width > reach:
                return box
            if 0 < i < 2048:
                lo, hi, zoomed = x[i - 1], x[i + 1], True
            else:
                lo, hi = lo - 2 * width * (i == 0), hi + 2 * width * (i > 0)
            continue
        first, last = inside[0], inside[-1]
        stops = [(np.cumsum(wave[:first][::-1]) > 20.0)
                 | (np.abs(vx[:first][::-1] - ends[0]) <= ulps[0]),
                 (np.cumsum(wave[last + 1:]) > 20.0) | (np.abs(vx[last + 2:] - ends[1]) <= ulps[1])]
        found = [stop.any() for stop in stops]
        if all(found) or width > reach:
            break
        lo, hi = lo - 2 * width * (not found[0]), hi + 2 * width * (not found[1])
    a = first - 1 - int(np.argmax(stops[0])) if found[0] else 0
    b = last + 2 + int(np.argmax(stops[1])) if found[1] else 2048
    phase = np.cumsum(np.fmax(wave, airy)[a:b])
    total = float(phase[-1])
    panels = math.ceil(total / oracle.QUAD_PANEL_PHASE)
    inner = np.interp(total * np.arange(1, panels) / panels, np.concatenate(([0.0], phase)), x[a:b + 1])
    return (float(x[a]), *inner.tolist(), float(x[b]))


# the wells of the deep_spectra_rational and deep_spectra_surd benchmark
# workloads at seeds 1-3 but the harmonic ones, whose n_max of 13-60 the
# harmonic ladder below covers
_DEEP_WELLS = (
    [("morse", {"Lambda": lam}) for lam in (36.25, 20.25, 6.75, 36.5, 6.0, 20.5, 20.0)]
    + [("morse", {"De": de}) for de in (201.0, 579.0, 36.0, 204.0, 580.0, 35.0, 203.0)]
    + [("rosen_morse2", {"v0": v0, "mu": mu}) for v0, mu in (
        (25, 0.3), (228, 0.22), (196, 0.44), (121, 0.56), (92, 0.35), (52, 0.11), (167, 0.5),
        (153, 0.24), (185, 0.46), (212, 0.53), (63, 0.12), (25, 0.38), (123, 0.34), (147, 0.21),
        (242, 0.28), (88, 0.59), (212, 0.28), (39, 0.2), (174, 0.55), (137, 0.49), (107, 0.47),
        (231, 0.11), (58, 0.35), (103, 0.36))]
)


def _outcome(f, *args):
    try:
        return f(*args)
    except NuSpectralError as exc:
        return type(exc)


def test_wkb_edges_keep_the_bits_of_the_sweep(monkeypatch):
    # (well, levels whose edges are compared, levels whose normalization is;
    # None for every level).  The deepest wells are compared on a stride, to
    # keep the test within a second or two
    wells = [(WELLS[name](**params), None, None) for name, params in _DEEP_WELLS] + [
        (harmonic(), range(301), [*range(61), *range(75, 301, 25)]),
        (morse(Lambda=10**4), [*range(0, 10**4, 61), 10**4 - 1], range(3)),
        (rosen_morse2(1e6, 0.5), range(0, 361, 4), range(0, 361, 45)),
        (rosen_morse2(238, 0.51), None, None),
        # its well lies past fd_box, which the search widens to reach it
        (rosen_morse2(1e16, 16), None, None),
        # narrower than a cell of fd_box, which the search zooms into
        (morse(Lambda=10**7), range(2), range(2)),
    ]
    runs = []
    for spec, edge_ns, norm_ns in wells:
        count = eigenvalue_count(spec)
        scan = spec.wkb_scan
        for n in range(count) if edge_ns is None else edge_ns:
            e = scalar_float(eigen_eps(spec, n))
            assert scan.edges(e) == _edges_by_sweep(scan, e), (spec.name, spec.physical_params, n)
        states = [bound_state(spec, n) for n in (range(count) if norm_ns is None else norm_ns)]
        runs.append((spec, states, [_outcome(normalization_defect, spec, st) for st in states]))
    narrow = WkbScan(lambda x: 1e10 * (x - 0.003) ** 2, -10.0, 10.0)
    for e in (1e5, 3e5, 1e5 + 1.0, 2e5, 5e4, -1.0):
        assert narrow.edges(e) == _edges_by_sweep(narrow, e), e
    monkeypatch.setattr(WkbScan, "edges", _edges_by_sweep)
    for spec, states, defects in runs:
        assert defects == [_outcome(normalization_defect, spec, st) for st in states], spec.name


def test_deep_wells_sample_without_the_overflow_guard(monkeypatch):
    # Family.growth shows the recurrence's overflow guard idle on every
    # sampler call of the normalization and residual checks on these wells
    # (and harmonic n <= 60, the deepest rational workload well), so each
    # runs the bare recurrence; Hermite n = 400 at u = 40 passes 2^500 and
    # keeps the guard
    calls = {"all": 0, "guarded": 0}

    def counted(key, f):
        def spy(*args):
            calls[key] += 1
            return f(*args)

        return spy

    monkeypatch.setattr(potentials, "_scaled_recurrence",
                        counted("all", potentials._scaled_recurrence))
    monkeypatch.setattr(potentials, "_guarded_recurrence",
                        counted("guarded", potentials._guarded_recurrence))
    checks = 0
    for spec in [WELLS[name](**params) for name, params in _DEEP_WELLS] + [harmonic()]:
        lo, hi, _ = spec.fd_box
        xs = [lo + (hi - lo) * (0.25 + 0.5 * k / 8.0) for k in range(9)]
        for st in bound_spectrum(spec, n_max=60):
            _outcome(normalization_defect, spec, st)
            wavefunction_residual(spec, st.sampler, st.eps, xs)
            checks += 2
    assert checks > 400 and calls["all"] >= checks and calls["guarded"] == 0
    m, e = potentials.recurrence_values("hermite", 400, [40.0])
    assert calls["guarded"] == 1 and e[0] > 0


# (potential, parameters, n_max, _sinc_dvr calls when the first solve ran on
# the starting box, whether the oracle raises GridTooCoarse)
_ORACLE_RUNS = [
    ("morse", {"Lambda": 36.25}, None, 3, False), ("morse", {"Lambda": 20.25}, None, 3, False),
    ("morse", {"Lambda": 6.75}, None, 6, False), ("morse", {"Lambda": 36.5}, None, 3, False),
    ("morse", {"Lambda": 6.0}, None, 4, False), ("morse", {"Lambda": 20.5}, None, 3, False),
    ("morse", {"Lambda": 20.0}, None, 4, False),
    ("morse", {"De": 201.0}, None, 3, False), ("morse", {"De": 579.0}, None, 3, False),
    ("morse", {"De": 36.0}, None, 4, False), ("morse", {"De": 204.0}, None, 3, False),
    ("morse", {"De": 580.0}, None, 3, False), ("morse", {"De": 35.0}, None, 4, False),
    ("morse", {"De": 203.0}, None, 3, False),
    ("harmonic", {}, 40, 4, False), ("harmonic", {}, 60, 4, False), ("harmonic", {}, 14, 4, False),
    ("harmonic", {}, 13, 4, False), ("harmonic", {}, 39, 4, False), ("harmonic", {}, 59, 4, False),
    ("harmonic", {}, 300, 8, False),
    ("rosen_morse2", {"v0": 25, "mu": 0.3}, None, 7, False),
    ("rosen_morse2", {"v0": 228, "mu": 0.22}, None, 4, False),
    ("rosen_morse2", {"v0": 196, "mu": 0.44}, None, 4, False),
    ("rosen_morse2", {"v0": 121, "mu": 0.56}, None, 5, False),
    ("rosen_morse2", {"v0": 92, "mu": 0.35}, None, 4, False),
    ("rosen_morse2", {"v0": 52, "mu": 0.11}, None, 4, False),
    ("rosen_morse2", {"v0": 167, "mu": 0.5}, None, 4, False),
    ("rosen_morse2", {"v0": 153, "mu": 0.24}, None, 5, False),
    ("rosen_morse2", {"v0": 185, "mu": 0.46}, None, 4, False),
    ("rosen_morse2", {"v0": 212, "mu": 0.53}, None, 4, False),
    ("rosen_morse2", {"v0": 63, "mu": 0.12}, None, 4, False),
    ("rosen_morse2", {"v0": 25, "mu": 0.38}, None, 7, False),
    ("rosen_morse2", {"v0": 123, "mu": 0.34}, None, 4, False),
    ("rosen_morse2", {"v0": 147, "mu": 0.21}, None, 4, False),
    ("rosen_morse2", {"v0": 242, "mu": 0.28}, None, 4, False),
    ("rosen_morse2", {"v0": 88, "mu": 0.59}, None, 7, False),
    ("rosen_morse2", {"v0": 212, "mu": 0.28}, None, 4, False),
    ("rosen_morse2", {"v0": 39, "mu": 0.2}, None, 6, False),
    ("rosen_morse2", {"v0": 174, "mu": 0.55}, None, 4, False),
    ("rosen_morse2", {"v0": 137, "mu": 0.49}, None, 4, False),
    ("rosen_morse2", {"v0": 107, "mu": 0.47}, None, 6, False),
    ("rosen_morse2", {"v0": 231, "mu": 0.11}, None, 4, False),
    ("rosen_morse2", {"v0": 58, "mu": 0.35}, None, 6, False),
    ("rosen_morse2", {"v0": 103, "mu": 0.36}, None, 4, False),
    ("rosen_morse2", {"v0": 238, "mu": 0.51}, None, 4, False),
    ("morse", {"Lambda": 10**4}, None, 0, True), ("rosen_morse2", {"v0": 1e6, "mu": 0.5}, None, 0, True),
    ("rosen_morse2", {"v0": 1e16, "mu": 16}, None, 8, True), ("morse", {"Lambda": 10**7}, None, 0, True),
]


def _count_solves(monkeypatch):
    sizes = []

    def recording(v, x, cap):
        sizes.append(len(x))
        return _sinc_dvr(v, x, cap)

    monkeypatch.setattr(oracle, "_sinc_dvr", recording)
    return sizes


@pytest.mark.parametrize("name,params,n_max,calls,raises", _ORACLE_RUNS)
def test_fd_first_solve_is_on_the_settled_box(monkeypatch, name, params, n_max, calls, raises):
    # the first wall round is placed from the WKB top level: the first solve
    # is no larger than the last, no run solves more often than it did from
    # the starting box, and every level stays within its own estimate
    spec = WELLS[name](**params)
    sizes = _count_solves(monkeypatch)
    k_max = None if n_max is None else n_max + 1
    if raises:
        with pytest.raises(GridTooCoarse):
            oracle_spectrum(spec, k_max=k_max)
        assert len(sizes) <= calls
        return
    got = oracle_spectrum(spec, k_max=k_max)
    assert 0 < len(sizes) <= calls
    assert sizes[0] <= got.grid.n
    exact = [scalar_float(st.eps) for st in bound_spectrum(spec, n_max=n_max)]
    assert len(got.eigenvalues) == len(exact)
    for want, level, est in zip(exact, got.eigenvalues, got.error_estimates):
        assert abs(level - want) <= est, (want, level, est)


# verify argvs of the README and the CLI tests, with the _sinc_dvr calls
# of their spectrum check when its first solve ran on the starting box
_VERIFY_SOLVES = [
    (["--potential", "harmonic", "--n-max", "6", "--grid=-10:10:1200"], 5),
    (["--potential", "harmonic"], 5),
    (["--potential", "harmonic", "--n-max", "8"], 4),
    (["--potential", "harmonic", "--n-max", "30"], 3),
    (["--potential", "harmonic", "--n-max", "60"], 4),
    (["--potential", "morse", "--params", "Lambda=5"], 5),
    (["--potential", "morse", "--params", "Lambda=10", "--n-max", "2"], 4),
    (["--potential", "morse", "--params", "Lambda=20.5"], 3),
    (["--potential", "morse", "--params", "Lambda=3.75"], 8),
    (["--potential", "morse", "--params", "Lambda=5.5001"], 3),
    (["--potential", "morse", "--params", "Lambda=5.75"], 6),
    (["--potential", "morse", "--params", "Lambda=6.75"], 6),
    (["--potential", "morse", "--params", "De=579"], 3),
    (["--potential", "morse", "--params", "Lambda=5", "--grid=8:12:1200"], 5),
    (["--potential", "morse", "--params", "Lambda=5", "--grid=-14:-10:1200"], 6),
    (["--potential", "morse", "--params", "Lambda=5", "--grid=-2:12:41"], 0),
    (["--potential", "morse", "--params", "Lambda=5", "--grid=-1e300:1e300:1200"], 0),
    (["--potential", "morse", "--params", "Lambda=1e7", "--n-max", "1"], 0),
    (["--potential", "rosen-morse2", "--params", "v0=62,mu=0.35"], 7),
    (["--potential", "rosen-morse2", "--params", "v0=4,mu=0.5"], 6),
]


def test_verify_first_solve_is_on_the_settled_box(monkeypatch, capsys):
    # only the spectrum check runs the oracle
    monkeypatch.setattr(potentials, "normalization_defect", lambda spec, st: 0.0)
    monkeypatch.setattr(potentials, "wavefunction_residual", lambda *args: 0.0)
    for argv, calls in _VERIFY_SOLVES:
        sizes = _count_solves(monkeypatch)
        main(["verify", *argv])
        spectrum = json.loads(capsys.readouterr().out)["checks"][0]
        assert len(sizes) <= calls, argv
        if "basis" in spectrum:
            assert sizes[0] <= spectrum["basis"], argv
