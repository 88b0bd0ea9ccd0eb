"""Seeded inputs for every workload.

Every generator takes a ``random.Random`` built from the workload name and
the ``--seed`` argument, so one seed always yields the same inputs.  Draws
are stratified: each range named in the workload description is cut into
fixed strata and the seed picks a point inside each one.  That keeps the
amount of work (and the share of inputs that land in a known-defect region)
close to constant from seed to seed, while the concrete parameters change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WHY = {
    "cli_cold": (
        "each CLI call pays interpreter start plus package import (most of it "
        "scipy), so import and loading changes show here while exact arithmetic "
        "does almost no work"
    ),
    "deep_spectra_rational": (
        "deep wells and high n with rational shape parameters: high-degree "
        "Fraction polynomials (Rodrigues, compose) and float samplers dominate"
    ),
    "deep_spectra_surd": (
        "wells whose shape parameters are surds: surd arithmetic and the "
        "substitution-branch search dominate, apart from the rational group"
    ),
    "special_functions": (
        "every documented route region of hyper, checked against mpmath; route "
        "costs differ about 100x, so a change to one route shows in its region"
    ),
}


# the route regions of hyper, one per-layer metric group each
HYPER_REGIONS = (
    "2f1_direct",
    "2f1_pfaff",
    "2f1_near1",
    "2f1_near1_intgap",
    "1f1_direct",
    "1f1_reflect",
    "u_terminating",
    "u_connection",
    "u_intc",
    "u_asymptotic",
    "hermite_small",
    "hermite_large",
)


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _stratified(rng, lo, hi, k):
    """One uniform draw inside each of k equal strata of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


# -- cli_cold -----------------------------------------------------------------

MORSE_README_GHE = "phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf"


def _num(x):
    return format(x, ".3f")


def _eval_argv(rng, fn):
    u = rng.uniform
    if fn == "2f1":
        pieces = [("a", u(-2, 2)), ("b", u(-2, 2)), ("c", u(0.5, 3)), ("z", u(0.05, 0.9))]
    elif fn == "1f1":
        pieces = [("a", u(-3, 3)), ("c", u(0.5, 4)), ("z", u(-5, 5))]
    elif fn == "u":
        # asymptotic side, where the route is well conditioned
        pieces = [("a", u(0.2, 2.8)), ("c", u(0.3, 2.7)), ("z", u(25, 50))]
    else:
        pieces = [("nu", u(-2, 5)), ("z", u(-2, 2))]
    return ["eval", "--fn", fn] + [f"--{k}={_num(v)}" for k, v in pieces]


def _rm2_params(rng):
    return f"v0={rng.randint(2, 12)},mu={rng.uniform(0.1, 0.6):.2f}"


def cli_inputs(rng, tiny=False):
    """The argv list of one pass: (subcommand, argv) pairs.

    A pass holds 2 eval, 1 reduce, 3 solve and 6 verify calls.  The four
    Morse verify calls take one Lambda from each quarter class
    {0, 1/4, 1/2, 3/4} of frac(Lambda); that fraction sets how far the top
    level sits below the plateau, which is what decides the oracle check.
    """
    fns = rng.sample(["2f1", "1f1", "u", "hermite"], 2)
    n = rng.randint(0, 4)
    ladder = f"{(4 * 25 - (9 - 2 * n) ** 2)}/4"  # eps_n = 25 - (9/2 - n)^2
    solve = [
        ["solve", "--potential", "morse", "--params",
         f"Lambda={rng.randint(3, 7) + rng.randint(0, 3) / 4}", "--with-oracle"],
        ["solve", "--potential", "harmonic", "--n-max", str(rng.randint(1, 8)),
         "--with-oracle"],
        ["solve", "--potential", "rosen-morse2", "--params", _rm2_params(rng),
         "--with-oracle"],
    ]
    quarters = [0.0, 0.25, 0.5, 0.75]
    rng.shuffle(quarters)
    verify = [
        ["verify", "--potential", "morse", "--params", f"Lambda={rng.randint(3, 7) + q}"]
        for q in quarters
    ] + [
        ["verify", "--potential", "harmonic", "--n-max", str(rng.randint(1, 8))],
        ["verify", "--potential", "rosen-morse2", "--params", _rm2_params(rng)],
    ]
    argvs = [_eval_argv(rng, fn) for fn in fns]
    argvs.append(["reduce", MORSE_README_GHE, "--eps", ladder])
    argvs += solve + verify
    if tiny:
        argvs = [argvs[0], argvs[2], argvs[3], argvs[6]]
    rng.shuffle(argvs)
    return [(argv[0], argv) for argv in argvs]


# -- deep spectra -------------------------------------------------------------


@dataclass(frozen=True)
class Well:
    kind: str  # harmonic | morse | rosen_morse2
    params: dict = field(default_factory=dict)
    n_max: int | None = None
    scatter_offset: float = 0.5  # scattering energy sits this far above v_minus

    def label(self):
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        if self.n_max is not None:
            args = f"n_max={self.n_max}" + (f",{args}" if args else "")
        return f"{self.kind}({args})"


def deep_rational_inputs(rng, tiny=False):
    """Harmonic n_max in 10..60 and Morse with quarter-integer Lambda in 5..40.

    One well sits at the low, middle and high end of each range.  The seed
    moves n_max down by up to 1 and picks Lambda's quarter class; the strata
    are narrow because the cost grows steeply with depth, and a wide one would
    let the seed, rather than the code, set the pass time.
    """
    n_tops = (14,) if tiny else (14, 40, 60)
    lam_bases = (6,) if tiny else (6, 20, 36)
    wells = [Well("harmonic", n_max=top - rng.randint(0, 1)) for top in n_tops]
    wells += [
        Well(
            "morse",
            {"Lambda": base + rng.randint(0, 3) / 4},
            scatter_offset=rng.uniform(0.25, 2.0),
        )
        for base in lam_bases
    ]
    rng.shuffle(wells)
    return wells


def deep_surd_inputs(rng, tiny=False):
    """Rosen-Morse II (v0 20..250, mu 0.1..0.6) and Morse given by De with
    Lambda = sqrt(2 De) irrational.

    The Rosen-Morse II wells form a Latin hypercube over (v0, mu): one v0 from
    each v0 stratum, one mu from each mu stratum, paired at random.
    """
    k_rm2 = 1 if tiny else 8
    mus = _stratified(rng, 0.1, 0.6, k_rm2)
    rng.shuffle(mus)
    wells = [
        Well(
            "rosen_morse2",
            {"v0": float(round(v0)), "mu": round(mu, 2)},
            scatter_offset=rng.uniform(0.25, 2.0),
        )
        for v0, mu in zip(_stratified(rng, 20, 250, k_rm2), mus)
    ]
    for lam in (8,) if tiny else (8, 20, 34):
        de = lam * lam // 2 + rng.randint(0, 4)
        while math.isqrt(2 * de) ** 2 == 2 * de:
            de += 1
        wells.append(
            Well("morse", {"De": float(de)}, scatter_offset=rng.uniform(0.25, 2.0))
        )
    rng.shuffle(wells)
    return wells


# -- special functions --------------------------------------------------------


@dataclass(frozen=True)
class HyperCase:
    region: str
    fn: str  # hyp2f1 | hyp1f1 | hypU | hermite_fn
    args: tuple


def _near_int(x, gap):
    return abs(x - round(x)) < gap


def _allowed(lo, hi, gap):
    """[lo, hi) without the points closer than gap to an integer, as intervals."""
    cuts = [lo] + [edge for n in range(math.floor(lo), math.ceil(hi) + 1)
                   for edge in (n - gap, n + gap) if lo < edge < hi] + [hi]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if not _near_int((a + b) / 2, gap)]


def _lhs(rng, lo, hi, k, int_gap=None):
    """A Latin-hypercube column: one draw in each of k strata, in random
    order.  With int_gap the strata cover only the points at least that far
    from every integer."""
    us = _stratified(rng, 0.0, 1.0, k)
    rng.shuffle(us)
    if not int_gap:
        return [lo + (hi - lo) * u for u in us]
    pieces = _allowed(lo, hi, int_gap)
    total = sum(b - a for a, b in pieces)
    out = []
    for u in us:
        left = u * total
        for a, b in pieces:
            if left < b - a:
                break
            left -= b - a
        out.append(a + left)
    return out


def _lhs_choice(rng, options, k):
    xs = [options[i % len(options)] for i in range(k)]
    rng.shuffle(xs)
    return xs


def _region_cases(rng, region, k):
    """k argument tuples inside one route region of hyper.  The argument z
    that selects the route is stratified in order; every other parameter is
    a Latin-hypercube column."""
    col = lambda lo, hi, gap=None: _lhs(rng, lo, hi, k, gap)  # noqa: E731
    if region in ("2f1_direct", "2f1_pfaff"):
        zs = (0.02, 0.99) if region == "2f1_direct" else (-10.0, -0.02)
        fn, cols = "hyp2f1", [col(-3, 3), col(-3, 3), col(0.5, 4, 0.1),
                              _stratified(rng, *zs, k)]
    elif region == "2f1_near1":
        a, b, gap = col(-2, 2), col(-2, 2), col(-1.5, 2.5, 0.15)  # gap = c - a - b
        # keep c off the poles of 2F1 at the nonpositive integers
        a = [x + 0.3 if x + y + g < 0.1 and _near_int(x + y + g, 0.1) else x
             for x, y, g in zip(a, b, gap)]
        c = [x + y + g for x, y, g in zip(a, b, gap)]
        fn, cols = "hyp2f1", [a, b, c, _stratified(rng, 0.9905, 0.9995, k)]
    elif region == "2f1_near1_intgap":
        a, b = col(0.1, 2), col(0.1, 2)
        c = [x + y + m for x, y, m in zip(a, b, _lhs_choice(rng, [1, 2], k))]
        fn, cols = "hyp2f1", [a, b, c, _stratified(rng, 0.9905, 0.999, k)]
    elif region in ("1f1_direct", "1f1_reflect"):
        zs = (-8.0, 15.0) if region == "1f1_direct" else (-40.0, -8.05)
        fn, cols = "hyp1f1", [col(-5, 5), col(0.5, 5, 0.1), _stratified(rng, *zs, k)]
    elif region == "u_terminating":
        fn, cols = "hypU", [_lhs_choice(rng, [-n for n in range(7)], k), col(-2, 3),
                            _stratified(rng, 0.1, 30.0, k)]
    elif region == "u_connection":
        fn, cols = "hypU", [col(0.1, 3, 0.1), col(0.1, 2.9, 0.1),
                            _stratified(rng, 0.5, 19.9, k)]
    elif region == "u_intc":
        fn, cols = "hypU", [col(0.1, 3, 0.1), _lhs_choice(rng, [1, 2, 3], k),
                            _stratified(rng, 0.5, 19.9, k)]
    elif region == "u_asymptotic":
        fn, cols = "hypU", [col(0.1, 3, 0.1), col(0.1, 3), _stratified(rng, 20.0, 60.0, k)]
    elif region == "hermite_small":
        fn, cols = "hermite_fn", [col(-3, 6), _stratified(rng, -2.0, 2.0, k)]
    elif region == "hermite_large":
        mags, signs = _stratified(rng, 2.05, 6.0, k), _lhs_choice(rng, [1, -1], k)
        fn, cols = "hermite_fn", [col(-3, 6), [m * s for m, s in zip(mags, signs)]]
    else:
        raise ValueError(region)
    return [HyperCase(region, fn, tuple(float(x) for x in args)) for args in zip(*cols)]


def special_inputs(rng, tiny=False):
    k = 2 if tiny else 24
    cases = []
    for region in HYPER_REGIONS:
        cases += _region_cases(rng, region, k)
    return cases
