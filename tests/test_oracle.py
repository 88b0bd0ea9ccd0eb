import math

import numpy as np
import pytest

from nu_spectral.errors import CountMismatch, GridTooCoarse, NoConvergence
from nu_spectral.oracle import (
    FdGrid,
    _sinc_dvr,
    compare_spectra,
    fd_bound_states,
    quad_adaptive,
    tanh_sinh,
)
from nu_spectral.potentials import morse, rosen_morse2


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
