import math
import random

import numpy as np
import pytest

from nu_spectral import oracle
from nu_spectral.errors import CountMismatch, GridTooCoarse, NoConvergence
from nu_spectral.oracle import (
    FdGrid,
    WkbScan,
    _sinc_dvr,
    compare_spectra,
    fd_bound_states,
    quad_adaptive,
    tanh_sinh,
)
from nu_spectral.potentials import bound_spectrum, harmonic, morse, oracle_spectrum, rosen_morse2
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
