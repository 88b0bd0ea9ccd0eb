import math

import numpy as np
import pytest

from nu_spectral.errors import CountMismatch, GridTooCoarse, NoConvergence
from nu_spectral.oracle import (
    FdGrid,
    compare_spectra,
    fd_bound_states,
    fd_convergence_ratio,
    quad_adaptive,
    tanh_sinh,
)


def test_fd_harmonic_levels():
    # -psi'' + x^2 psi = eps psi has eps_n = 2n+1
    grid = FdGrid(-10.0, 10.0, 4001)
    spec = fd_bound_states(lambda x: x * x, grid, k_max=6)
    assert len(spec.eigenvalues) == 6
    for n, ev in enumerate(spec.eigenvalues):
        assert abs(ev - (2 * n + 1)) / (2 * n + 1) < 1e-7
        # raw fine-grid values are only O(h^2) accurate; extrapolation wins
        assert abs(spec.raw_fine[n] - (2 * n + 1)) > abs(ev - (2 * n + 1))


def test_fd_threshold_filters_continuum():
    # smooth Gaussian well with asymptote 50; only energies below the
    # asymptote are genuine bound states
    def v(x):
        return 50.0 * (1.0 - np.exp(-0.5 * x * x))

    grid = FdGrid(-10.0, 10.0, 3201)
    spec = fd_bound_states(v, grid, threshold=50.0)
    assert all(ev < 50.0 for ev in spec.eigenvalues)
    assert 3 <= len(spec.eigenvalues) <= 8


def test_fd_grid_too_coarse():
    grid = FdGrid(-10.0, 10.0, 41)
    with pytest.raises(GridTooCoarse):
        fd_bound_states(lambda x: x * x, grid, k_max=4, rtol=1e-6)


def test_fd_convergence_ratio_is_second_order():
    grid = FdGrid(-10.0, 10.0, 3201)
    ratio = fd_convergence_ratio(lambda x: x * x, grid, state=0)
    assert 3.5 < ratio < 4.5


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
