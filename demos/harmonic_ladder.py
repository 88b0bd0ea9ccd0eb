"""Walk the harmonic well from equation to spectrum.

Shows the substitution branches the reducer finds, the exact odd-integer
ladder of reduced eigenvalues, and a sinc-DVR cross-check.
"""

from fractions import Fraction

from nu_spectral import (
    FdGrid,
    bound_spectrum,
    compare_spectra,
    eigen_eps,
    harmonic,
    oracle_spectrum,
    reduce_ghe,
)


def show_branches(spec):
    eps0 = eigen_eps(spec, 0)
    ghe = spec.ghe
    res = reduce_ghe(ghe, eps0)
    print(f"reduced equation at eps = {eps0}:")
    print(f"  phi = {ghe.phi!r}, psi_tilde = {ghe.psi_tilde!r}")
    print(f"  k0 candidates: {', '.join(str(k) for k in res.k0_values)}")
    for i, br in enumerate(res.branches, start=1):
        tag = "  <- admissible" if br is res.selected else ""
        print(f"  branch {i}: pi = {br.pi!r}, lam = {br.lam}{tag}")
    print()


def show_ladder(spec, n_top=8):
    states = bound_spectrum(spec, n_max=n_top)
    print("exact reduced eigenvalues (all plain rationals):")
    for st in states:
        assert isinstance(st.eps, Fraction)
        print(f"  n = {st.n:2d}   eps_n = {st.eps}   E_n = {st.energy}")
    print()
    return states


def cross_check(spec, states):
    oracle = oracle_spectrum(spec, k_max=6, grid=FdGrid(-10.0, 10.0, 1200))
    report = compare_spectra([s.eps for s in states[:6]], oracle, rel_tol=1e-5)
    box = oracle.grid
    print(f"sinc-DVR oracle from [-10, 10], settled on [{box.lo:.2f}, {box.hi:.2f}], "
          f"{box.n} points:")
    for n, (a, o, r) in enumerate(zip(report.analytic, report.oracle, report.rel_errors)):
        print(f"  n = {n}   exact = {a:.6f}   oracle = {o:.10f}   rel err = {r:.2e}")
    print(f"  all within 1e-5: {report.ok}")


if __name__ == "__main__":
    well = harmonic()
    show_branches(well)
    ladder = show_ladder(well)
    cross_check(well, ladder)
