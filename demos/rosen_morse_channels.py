"""Rosen-Morse II with unequal plateaus: one level, two scattering regimes.

The well at strength 4 and tilt 0.5 binds a single state.  Above the lower
plateau only the right channel is open and exactly one bounded solution
survives; above both plateaus the two channels open and the degeneracy
climbs to two.  The demo samples each solution far out on both sides:
each is bounded there, and a closed channel shows as decay.
"""

from nu_spectral import (
    bound_spectrum,
    compare_spectra,
    oracle_spectrum,
    rosen_morse2,
    scalar_float,
    scattering_states,
)


def sampled_amplitude(sampler, x):
    return abs(sampler(x))


def bound_side(spec):
    states = bound_spectrum(spec)
    oracle = oracle_spectrum(spec)
    report = compare_spectra(
        [scalar_float(states[0].eps)], oracle, rel_tol=1e-4
    )
    print(f"plateaus: v_minus = {spec.v_minus:.4f}, v_plus = {spec.v_plus:.4f}")
    print(
        f"single bound state: eps_0 = {scalar_float(states[0].eps):.10f}"
        f"   oracle rel err = {report.rel_errors[0]:.2e}"
    )
    print()


def channel_report(spec, eps):
    state = scattering_states(spec, eps)
    print(f"eps = {eps}: degeneracy = {state.degeneracy}")
    for i, sol in enumerate(state.solutions, start=1):
        left = sampled_amplitude(sol, -12.0)
        right = sampled_amplitude(sol, 12.0)
        print(f"  solution {i}: |psi(-12)| = {left:10.3e}   |psi(+12)| = {right:10.3e}")


if __name__ == "__main__":
    well = rosen_morse2(4, 0.5)
    bound_side(well)
    channel_report(well, 2.0)
    channel_report(well, 15.0)
