"""Command line front end.

Subcommands:

  reduce  parse a one-line equation description and print every consistent
          substitution branch plus the one selected: the branch whose psi
          decreases with its zero inside the interval, square integrability
          breaking a tie, and the rule that decided
  solve   bound spectrum of a built-in potential, CSV or JSON
  eval    one special-function value with its series diagnostics
  verify  cross-check suite for one potential, JSON report

Exit codes: 0 success, 2 malformed input or usage, 3 domain error raised by
the library, 4 a verification check failed.  Output is byte-identical across
repeated runs with the same flags; floats carry 17 significant digits so
they round-trip losslessly.  The environment variable NU_SPECTRAL_TOL, when
set, replaces every default verification tolerance.

Each subcommand imports the layers it runs when it runs, so eval (hyper)
and reduce (the exact reduction) start without numpy.  Importing this
module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
where the caller has not set them.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import CountMismatch, NuSpectralError, ParseError

# one BLAS thread unless the caller chose otherwise, set before any layer
# loads numpy: the arrays here are small, and on a shared host a second
# thread waits for a busy core (normalization then runs about twice as long)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_DEFAULT_TOLS = {"spectrum_rtol": 1e-4, "normalization": 1e-8, "residual": 1e-6}
# eval's --fn choices: the hyper function each calls, and its flags in call order
_EVAL_FNS = {
    "2f1": ("hyp2f1", ("a", "b", "c", "z")),
    "1f1": ("hyp1f1", ("a", "c", "z")),
    "u": ("hypU", ("a", "c", "z")),
    "hermite": ("hermite_fn", ("nu", "z")),
}


# -- formatting ----------------------------------------------------------------


def _fmt(x):
    return format(float(x), ".17g")


def _exact_str(v):
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _number_str(v):
    if isinstance(v, complex):
        if v.imag == 0.0:
            return _fmt(v.real)
        return f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}j"
    return _fmt(v)


def _poly_str(p):
    return "0" if p.is_zero else repr(p)


def _coeff_list(p):
    return [_exact_str(c) for c in p.coeffs]


def _factor_str(f):
    parts = []
    for base, expo in f.power_terms:
        head = f"({_poly_str(base)})"
        parts.append(head if expo == 1 else f"{head}^({_exact_str(expo)})")
    if not f.exp_poly.is_zero:
        parts.append(f"exp({_poly_str(f.exp_poly)})")
    for root, coeff in f.inv_exp_terms:
        parts.append(f"exp(({_exact_str(coeff)})/(x - ({_exact_str(root)})))")
    return " * ".join(parts) if parts else "1"


# -- flag parsing helpers --------------------------------------------------------


def _potential_from_args(args):
    """(name, params, spec) of the well named by --potential and --params."""
    from .potentials import WELLS

    name = args.potential.replace("-", "_")
    if name not in WELLS:
        choices = ", ".join(key.replace("_", "-") for key in WELLS)
        raise ParseError(f"unknown potential {args.potential!r}; choose from {choices}")
    params = _parse_params(name, WELLS[name], args.params)
    return name, params, WELLS[name](**params)


def _n_max(args):
    """--n-max, a cap on the quantum number, so never negative."""
    if args.n_max is not None and args.n_max < 0:
        raise ParseError(f"--n-max must be at least 0, got {args.n_max}")
    return args.n_max


def _parse_params(potential, constructor, text):
    out = {}
    declared = inspect.signature(constructor).parameters
    allowed = tuple(declared)
    for item in text.split(",") if text else ():
        key, sep, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise ParseError(f"expected key=value in --params, got {item!r}")
        if key not in allowed:
            raise ParseError(
                f"unknown parameter {key!r} for {potential}; allowed: "
                + ", ".join(allowed)
            )
        if key in out:
            raise ParseError(f"duplicate parameter {key!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise ParseError(f"parameter {key} is not a number: {raw!r}") from None
        if not math.isfinite(out[key]):
            raise ParseError(f"parameter {key} must be finite, got {raw!r}")
    missing = [
        key
        for key, param in declared.items()
        if param.default is param.empty and key not in out
    ]
    if missing:
        raise ParseError(
            f"{potential} needs --params with " + ", ".join(missing)
        )
    return out


def _parse_grid(text):
    from .oracle import FdGrid

    pieces = text.split(":")
    if len(pieces) == 3:
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise ParseError(f"--grid wants lo:hi:points, got {text!r}") from None
        try:
            return FdGrid(lo, hi, n)
        except ValueError as exc:
            raise ParseError(f"bad grid: {exc}") from None
    raise ParseError(f"--grid wants lo:hi:points, got {text!r}")


def _tolerances():
    raw = os.environ.get("NU_SPECTRAL_TOL")
    if raw is None:
        return dict(_DEFAULT_TOLS)
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"NU_SPECTRAL_TOL is not a number: {raw!r}") from None
    return {key: tol for key in _DEFAULT_TOLS}


# -- subcommands -----------------------------------------------------------------


def _cmd_reduce(args):
    from .reduction import parse_ghe_text, reduce_ghe

    ghe, needs_eps = parse_ghe_text(args.ghe)
    if needs_eps and args.eps is None:
        raise ParseError("this equation carries an eps placeholder; pass --eps")
    try:
        eps = Fraction(args.eps) if args.eps is not None else Fraction(0)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--eps is not rational: {args.eps!r}") from None
    result = reduce_ghe(ghe, eps)
    lo, hi = _exact_str(ghe.interval.lo), _exact_str(ghe.interval.hi)
    sel_index = None if result.selected is None else result.branches.index(result.selected)
    code = 0 if sel_index is not None else 3

    if args.format == "json":
        doc = {
            "schema_version": 1,
            "eps": _exact_str(eps),
            "interval": [lo, hi],
            "k0_candidates": [_exact_str(k) for k in result.k0_values],
            "branches": [
                {
                    "k0": _exact_str(br.k0),
                    "pi": _coeff_list(br.pi),
                    "psi": _coeff_list(br.psi),
                    "lam": _exact_str(br.lam),
                    "chi": _factor_str(br.chi),
                }
                for br in result.branches
            ],
            "selected": None if sel_index is None else sel_index + 1,
            "selection": result.reason,
        }
        return json.dumps(doc, indent=2) + "\n", code

    lines = [
        f"interval: ({lo}, {hi})",
        f"eps: {_exact_str(eps)}",
        "k0 candidates: " + ", ".join(_exact_str(k) for k in result.k0_values),
        f"branches: {len(result.branches)}",
    ]
    for i, br in enumerate(result.branches, start=1):
        lines.append(f"branch {i}:")
        lines.append(f"  k0  = {_exact_str(br.k0)}")
        lines.append(f"  pi  = {_poly_str(br.pi)}")
        lines.append(f"  psi = {_poly_str(br.psi)}")
        lines.append(f"  lam = {_exact_str(br.lam)}")
        lines.append(f"  chi = {_factor_str(br.chi)}")
    if sel_index is not None:
        lines.append(f"selected: branch {sel_index + 1}")
        lines.append(f"  {result.reason}")
    else:
        lines.append(f"selected: none ({result.reason})")
    return "\n".join(lines) + "\n", code


def _cmd_solve(args):
    from .potentials import bound_spectrum, normalization_defect, oracle_spectrum
    from .scalars import scalar_float

    name, params, spec = _potential_from_args(args)
    n_max = _n_max(args)
    if n_max is None and not math.isfinite(spec.v_minus):
        raise ParseError(f"{name} is confining: pass --n-max to cap the family")
    states = bound_spectrum(spec, n_max=n_max)

    oracle = None
    if args.with_oracle:
        orc = oracle_spectrum(spec, k_max=len(states))
        vals = orc.eigenvalues[: len(states)]
        if len(vals) < len(states):
            raise CountMismatch(
                f"oracle resolves {len(vals)} levels, analytic family has "
                f"{len(states)}"
            )
        oracle = vals

    records = []
    for st in states:
        epsf = scalar_float(st.eps)
        rec = {
            "n": st.n,
            "eps_n": epsf,
            "E_n": st.energy,
            "norm_defect": normalization_defect(spec, st),
        }
        if oracle is not None:
            o = oracle[st.n]
            rec["oracle_eps_n"] = o
            rec["rel_err"] = abs(epsf - o) / max(1.0, abs(epsf))
        records.append(rec)

    if args.samples_dir is not None:
        if args.sample_count < 2:
            raise ParseError("--sample-count must be at least 2")
        outdir = Path(args.samples_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        lo, hi, _ = spec.fd_box
        step = (hi - lo) / (args.sample_count - 1)
        xs = [lo + i * step for i in range(args.sample_count)]
        for st in states:
            lines = [f"x,psi_{st.n}(x)"]
            values = st.sampler(xs)
            lines.extend(f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, values))
            (outdir / f"psi_{st.n}.csv").write_text("\n".join(lines) + "\n")

    if args.format == "json":
        doc = {
            "schema_version": 1,
            "potential": name,
            "params": params,
            "states": records,
        }
        return json.dumps(doc, indent=2) + "\n", 0

    columns = ["n", "eps_n", "E_n", "norm_defect"]
    if oracle is not None:
        columns += ["oracle_eps_n", "rel_err"]
    rows = [",".join(columns)]
    for rec in records:
        rows.append(
            ",".join(
                str(rec[c]) if c == "n" else _fmt(rec[c]) for c in columns
            )
        )
    return "\n".join(rows) + "\n", 0


def _cmd_eval(args):
    # by its module name: `from . import hyper` asks the package's
    # __getattr__ first, which loads every layer, numpy included
    hyper = importlib.import_module(".hyper", __package__)
    name, flags = _EVAL_FNS[args.fn]
    missing = [f for f in flags if getattr(args, f) is None]
    if missing:
        raise ParseError(f"--fn {args.fn} needs " + ", ".join(f"--{f}" for f in missing))
    values = [getattr(args, f) for f in flags]
    for f, v in zip(flags, values):
        if not math.isfinite(v):
            raise ParseError(f"--{f} must be finite, got {v}")
    res = getattr(hyper, name)(*values)
    lines = [
        f"value = {_number_str(res.value)}",
        f"terms_used = {res.terms_used}",
        f"truncation_estimate = {_fmt(res.truncation_estimate)}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args):
    from .oracle import FdGrid, compare_spectra
    from .potentials import (
        bound_spectrum,
        normalization_defect,
        oracle_spectrum,
        wavefunction_residual,
    )
    from .scalars import scalar_float

    name, params, spec = _potential_from_args(args)
    tols = _tolerances()

    n_max = _n_max(args)
    if n_max is None and not math.isfinite(spec.v_minus):
        n_max = 6
    states = bound_spectrum(spec, n_max=n_max)
    analytic = [scalar_float(st.eps) for st in states]

    if args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        lo, hi, pts = spec.fd_box
        grid = FdGrid(lo, hi, pts)

    checks = []

    def check(name, run):
        try:
            checks.append({"name": name, **run()})
        except NuSpectralError as exc:
            checks.append({"name": name, "pass": False, "error": f"{type(exc).__name__}: {exc}"})

    def worst_level(values, key, tol):
        worst = max(range(len(values)), key=values.__getitem__)
        return {"pass": values[worst] <= tol, key: values[worst],
                "worst_n": states[worst].n, "tol": tol}

    def spectrum():
        nonlocal grid
        orc = oracle_spectrum(spec, k_max=len(states), grid=grid)
        grid = orc.grid
        vals = list(orc.eigenvalues)
        if n_max is not None:  # the oracle's levels above the cap are not compared
            vals = vals[: n_max + 1]
        report = compare_spectra(analytic, vals, tols["spectrum_rtol"])
        worst = max(range(len(vals)), key=report.rel_errors.__getitem__)
        return {
            "pass": report.ok,
            "analytic_count": len(analytic),
            "oracle_count": len(vals),
            "max_rel_err": report.rel_errors[worst],
            "worst_n": worst,
            "rel_tol": tols["spectrum_rtol"],
            "box": [grid.lo, grid.hi],
            "basis": grid.n,
            "max_error_estimate": max(orc.error_estimates[: len(vals)]),
        }

    lo, hi, _ = spec.fd_box
    xs = [lo + (hi - lo) * (0.25 + 0.5 * i / 8.0) for i in range(9)]
    check("spectrum_vs_oracle", spectrum)
    check("normalization", lambda: worst_level(
        [normalization_defect(spec, st) for st in states], "max_defect", tols["normalization"]))
    check("ode_residual", lambda: worst_level(
        [wavefunction_residual(spec, st.sampler, st.eps, xs) for st in states],
        "max_residual", tols["residual"]))

    ok = all(c["pass"] for c in checks)
    doc = {
        "schema_version": 1,
        "potential": name,
        "params": params,
        "n_states": len(states),
        "grid": {"lo": grid.lo, "hi": grid.hi, "points": grid.n},
        "tolerances": tols,
        "checks": checks,
        "pass": ok,
    }
    return json.dumps(doc, indent=2) + "\n", 0 if ok else 4


# -- wiring ----------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nu-spectral",
        description=(
            "Reduce generalized hypergeometric equations to hypergeometric "
            "form and solve the built-in spectral problems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a one-line equation description")
    p.add_argument(
        "ghe",
        help="e.g. 'phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=-inf,inf'",
    )
    p.add_argument("--eps", default=None, help="spectral parameter, rational")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="bound spectrum of a built-in potential")
    p.add_argument("--potential", required=True)
    p.add_argument("--params", default="", help="comma list, e.g. m=1,Omega=1")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--with-oracle", action="store_true", dest="with_oracle")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--samples-dir", default=None, dest="samples_dir")
    p.add_argument("--sample-count", type=int, default=201, dest="sample_count")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate one special function")
    p.add_argument("--fn", required=True, choices=tuple(_EVAL_FNS))
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="cross-check suite for one potential")
    p.add_argument("--potential", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument(
        "--grid",
        default=None,
        help=(
            "lo:hi:points for the sinc-DVR oracle: lo:hi is the box it starts "
            "from (it then sizes its own box), points the largest basis it may use"
        ),
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
    except ParseError as exc:
        print(f"nu-spectral: {exc}", file=sys.stderr)
        return 2
    except NuSpectralError as exc:
        print(f"nu-spectral: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"nu-spectral: {exc}", file=sys.stderr)
        return 3
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
