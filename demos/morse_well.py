"""The Morse well at depth parameter 5: five levels, then a continuum.

First the bound side: the well holds exactly five states, each eigenvalue
agrees with the sinc-DVR oracle, and the closed-form normalization
really integrates to one.  Then the scattering side: above the plateau
one channel is open, toward x -> +inf, and exactly one solution is
bounded, e^(-s/2) s^(i kappa) U(i kappa + 1/2 - Lambda, 1 + 2 i kappa, s):
it dies out in the wall and oscillates on the plateau.
"""

from nu_spectral import (
    bound_spectrum,
    compare_spectra,
    morse,
    normalization_defect,
    oracle_spectrum,
    scalar_float,
    scattering_states,
)


def bound_side(spec):
    states = bound_spectrum(spec)
    print(f"bound states: {len(states)}")
    report = compare_spectra(
        [scalar_float(s.eps) for s in states],
        oracle_spectrum(spec),
        rel_tol=1e-4,
    )
    for st, rel in zip(states, report.rel_errors):
        defect = normalization_defect(spec, st)
        print(
            f"  n = {st.n}   eps_n = {st.eps}   oracle rel err = {rel:.2e}"
            f"   |1 - norm| = {defect:.2e}"
        )
    print()


def scattering_side(spec):
    print("energies above the plateau (eps > 25):")
    for eps in (26.0, 30.0, 37.5, 50.0, 61.0):
        state = scattering_states(spec, eps)
        (psi,) = state.solutions
        print(
            f"  eps = {eps:5.1f}   degeneracy = {state.degeneracy}"
            f"   |psi| in the wall (x = -4) = {abs(psi(-4.0)):.2e}"
            f"   on the plateau (x = 5, 10, 20) = "
            + ", ".join(f"{abs(psi(x)):.3f}" for x in (5.0, 10.0, 20.0))
        )
    print("  one open channel: each energy carries exactly one bounded state")


if __name__ == "__main__":
    well = morse(Lambda=5)
    bound_side(well)
    scattering_side(well)
