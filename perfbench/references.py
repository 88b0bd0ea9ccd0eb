"""Independent references, evaluated in mpmath.

Bound-state energies come from each well's closed form, written here from
the physics rather than from the package's own helpers; special-function
values come from mpmath's own implementations at 30 digits.  Nothing here
imports nu_spectral.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mp = mpmath.mp

EXACT_RTOL = mpmath.mpf("1e-25")
HYPER_RTOL = 1e-8


def _mpq(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def exact_to_mp(x):
    """Fraction or SurdSum (anything with ``terms()``) to an mpf."""
    if hasattr(x, "terms"):
        return mp.fsum(_mpq(q) * mp.sqrt(d) for d, q in x.terms().items())
    return _mpq(x)


def closed_form_levels(well):
    """All bound energies eps_n (reduced units) of a well, by closed form.

    harmonic:      2n + 1
    morse:         L^2 - (L - n - 1/2)^2 for L - n - 1/2 > 0, L = Lambda or
                   sqrt(2 De) (a = m = hbar = 1)
    rosen_morse2:  with t = tanh(mu) as the float the package rationalizes,
                   c2 = v0 / (1 - t^2), v1 = c2 t, b_n = sqrt(c2 + 1/4) - n - 1/2
                   eps_n = v0 (1 - t)/(1 + t) - (b_n - v1 / b_n)^2
                   for b_n > 0 and b_n^2 > v1
    """
    with mp.workdps(40):
        if well.kind == "harmonic":
            return [mp.mpf(2 * n + 1) for n in range(well.n_max + 1)]
        if well.kind == "morse":
            if "Lambda" in well.params:
                lam = _mpq(Fraction(well.params["Lambda"]))
            else:
                lam = mp.sqrt(_mpq(Fraction(2 * well.params["De"])))
            levels = []
            n = 0
            while lam - n - mp.mpf(1) / 2 > 0:
                gap = lam - n - mp.mpf(1) / 2
                levels.append(lam * lam - gap * gap)
                n += 1
            return levels
        if well.kind == "rosen_morse2":
            v0 = _mpq(Fraction(well.params["v0"]))
            t = _mpq(Fraction(math.tanh(well.params["mu"])))
            c2 = v0 / (1 - t * t)
            v1 = c2 * t
            vm = v0 * (1 - t) / (1 + t)
            levels = []
            n = 0
            while True:
                b_n = mp.sqrt(c2 + mp.mpf(1) / 4) - n - mp.mpf(1) / 2
                if not (b_n > 0 and b_n * b_n > v1):
                    return levels
                levels.append(vm - (b_n - v1 / b_n) ** 2)
                n += 1
    raise ValueError(well.kind)


def levels_match(exact_levels, reference):
    """Names the first mismatch between exact energies and the closed form,
    or returns None when every level agrees to EXACT_RTOL."""
    if len(exact_levels) != len(reference):
        return f"{len(exact_levels)} levels, closed form has {len(reference)}"
    with mp.workdps(40):
        for n, (got, ref) in enumerate(zip(exact_levels, reference)):
            if abs(exact_to_mp(got) - ref) > EXACT_RTOL * max(1, abs(ref)):
                return f"eps_{n} = {got} differs from closed form {mp.nstr(ref, 20)}"
    return None


_MP_FUNCS = {
    "hyp2f1": lambda a, b, c, z: mp.hyp2f1(a, b, c, z),
    "hyp1f1": lambda a, c, z: mp.hyp1f1(a, c, z),
    "hypU": lambda a, c, z: mp.hyperu(a, c, z),
    "hermite_fn": lambda nu, z: mp.hermite(nu, z),
}


def hyper_reference(case):
    with mp.workdps(30):
        val = _MP_FUNCS[case.fn](*(mp.mpf(x) for x in case.args))
        return complex(val) if isinstance(val, mpmath.mpc) else float(val)


def hyper_rel_error(value, ref):
    return abs(complex(value) - ref) / max(abs(ref), 1e-300)
