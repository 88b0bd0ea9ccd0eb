"""The Morse well at depth parameter 5: five levels and then nothing.

First the bound side: the well holds exactly five states, each eigenvalue
agrees with the sinc-DVR oracle, and the closed-form normalization
really integrates to one.  Then the scattering side: above the plateau
both candidate solutions grow at the wall like exp(s/2) with an algebraic
correction, so no energy up there carries a bounded state.
"""

from nu_spectral import (
    bound_spectrum,
    compare_spectra,
    morse,
    morse_envelope_growth,
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
        growth = morse_envelope_growth(spec, eps)
        flags = [
            (sol.bounded_at_minus_inf, sol.bounded_at_plus_inf)
            for sol in state.solutions
        ]
        print(
            f"  eps = {eps:5.1f}   degeneracy = {state.degeneracy}"
            f"   bounded flags = {flags}"
            f"   wall growth vs envelope = {growth[0]:.3f}, {growth[1]:.3f}"
        )
    print("  every candidate blows up toward the wall; no scattering states")


if __name__ == "__main__":
    well = morse(Lambda=5)
    bound_side(well)
    scattering_side(well)
