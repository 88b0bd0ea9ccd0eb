"""The benchmark's workloads, their passes and the metrics derived from them.

Each workload is a closed loop with one caller in one thread.  A *pass* runs
every seeded input once; passes repeat until ``--seconds`` have elapsed (with
a minimum count), and every pass must reproduce the outcomes of the first.
An *op* is one timed and checked call: a CLI process, a special-function
call, or for a well its solve (construct, bound_spectrum, scattering), its
spectrum check, and each state's normalization and residual check.  An op's
latency is its median over passes, scaled to the reference host speed
(calibration.py).  Outcomes are checked outside the timed regions.

Result fields:
  correct   false when an exact answer disagrees with its closed form, when
            repeated CLI argv gives different stdout, or when a later pass
            (traced or not) has different outcomes than the first
  attempted / failed
            checked results of one pass, the seed's fixed op set (every pass
            must reproduce them, so the counts do not depend on how many
            passes fit in ``--seconds``); a failed result raised, exited
            non-zero or missed its accuracy target, and each one is named in
            the report with its inputs
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import references
from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# the verify subcommand's default tolerances
SPECTRUM_RTOL = 1e-4
NORMALIZATION_TOL = 1e-8
RESIDUAL_TOL = 1e-6

IMPORT_PROBE = ("import time; t = time.perf_counter(); import nu_spectral; "
                "print(repr(time.perf_counter() - t))")


def metric_units(kind):
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric, in the
    order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def child_env():
    """os.environ (BLAS threads pinned by run.py) with the sources on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(args, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


# -- set-up probes ----------------------------------------------------------------


def import_probes(k, cal):
    """k fresh processes that import the package.  Returns a Pass whose
    ops are the in-process import times, and the whole-process times."""
    p, outer = Pass(), []
    for i in range(k):
        with p.window(cal):
            t0 = time.perf_counter()
            proc = _run_child(["-c", IMPORT_PROBE])
            outer.append(time.perf_counter() - t0)
            if proc.returncode:
                raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
            p.latencies[i, "import"] = float(proc.stdout.strip())
    return p, outer


def interpreter_probe(k):
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        _run_child(["-c", "pass"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scipy_import_share():
    """Cumulative import time of the outermost scipy modules, in seconds,
    from one ``python -X importtime -c 'import nu_spectral'``."""
    proc = _run_child(["-X", "importtime", "-c", "import nu_spectral"])
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum), name.strip()))
    total = 0
    # importtime prints children before their parent, one level deeper
    for i, (depth, cum, name) in enumerate(rows):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not (parent[2] == "scipy" or parent[2].startswith("scipy.")):
            total += cum
    return total / 1e6


# -- pass bookkeeping ---------------------------------------------------------------


@dataclass
class Pass:
    latencies: dict = field(default_factory=dict)  # (input, op) -> raw seconds
    scales: dict = field(default_factory=dict)  # (input, op) -> host-speed scale
    outcomes: list = field(default_factory=list)  # (op id, ok, detail)
    warnings: Counter = field(default_factory=Counter)
    extra: dict = field(default_factory=dict)
    spans: int = 0
    _open: tuple = None  # (first op index, kernel times before, start time)

    @contextmanager
    def window(self, cal):
        """Ops timed inside get the host-speed scale measured around them."""
        self._open = (len(self.latencies), cal.probe(), time.perf_counter())
        yield
        self._close(cal)

    def _close(self, cal):
        start, before, _ = self._open
        after = cal.probe()
        scale = cal.scale(before + after)
        for key in list(self.latencies)[start:]:
            self.scales[key] = scale
        return after

    def split(self, cal, every_s=0.1):
        """Inside a window, once it has run ``every_s``: closes it and opens
        the next, so a long run of ops does not share one scale across a
        host speed change."""
        if time.perf_counter() - self._open[2] >= every_s:
            self._open = (len(self.latencies), self._close(cal), time.perf_counter())

    def scale(self):
        return statistics.median(self.scales.values())

    def check(self, op_id, ok, detail=None):
        self.outcomes.append((op_id, bool(ok), None if ok else detail))

    @property
    def failures(self):
        return [(op, detail) for op, ok, detail in self.outcomes if not ok]


def _error(exc):
    return f"{type(exc).__name__}: {' '.join(str(exc).split())}"


def guarded(call, deliberate, problems, label):
    """Runs ``call()``; returns (its result, None) or (None, the error).  An
    exception of class ``deliberate`` (the package's NuSpectralError) fails
    the op.  Any other exception is a bug in the package: it fails the op
    and is also added to ``problems``, which makes the run incorrect."""
    try:
        return call(), None
    except deliberate as exc:
        return None, _error(exc)
    except Exception as exc:  # a bug in the package: reported, not swallowed
        detail = _error(exc)
        problems.append(f"{label}: unexpected {detail}")
        return None, detail


def run_passes(run_pass, seconds, min_passes):
    """Passes until about ``seconds`` have run: after the minimum count,
    another pass starts only if half a pass still fits before the deadline."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        now = time.perf_counter()
        half_pass = (now - start) / len(passes) / 2
        if len(passes) >= min_passes and now + half_pass >= start + seconds:
            return passes


def op_latencies(passes, scaled=True):
    """Each op's median time over the passes that timed it, scaled to the
    reference host speed unless ``scaled`` is false (see calibration.py)."""
    keys = dict.fromkeys(k for p in passes for k in p.latencies)
    return {k: statistics.median(p.latencies[k] * (p.scales[k] if scaled else 1.0)
                                 for p in passes if k in p.latencies)
            for k in keys}


def input_latencies(ops):
    """Per input (CLI argv, well, argument tuple): the sum of its ops' times."""
    out = {}
    for (key, _), t in ops.items():
        out[key] = out.get(key, 0.0) + t
    return out


def tail(samples):
    """Highest percentile with at least 10 samples beyond it; the maximum when
    there are fewer than 20 samples.  Returns (value, percentile, count)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _cli_failure(out, err):
    """stderr's last line, or the failed checks of a verify report."""
    if err.strip():
        return err.strip().splitlines()[-1]
    try:
        checks = json.loads(out)["checks"]
    except (ValueError, KeyError, TypeError):
        return "no diagnostics"
    return "; ".join(
        " ".join(f"{k}={v}" for k, v in c.items() if k != "pass")
        for c in checks if not c.get("pass")
    )


# -- cli_cold -------------------------------------------------------------------------


class CliCold:
    min_passes = 2  # every argv runs at least twice, for the determinism check
    in_process = False

    def __init__(self, rng, tiny, cal):
        self.cal = cal
        self.argvs = inputs.cli_inputs(rng, tiny)
        self.stdout = {}
        self.exits = {}
        self.problems = []
        self.tracer = None

    def describe_inputs(self):
        return [argv for _, argv in self.argvs]

    def warm_up(self):
        _run_child(["-m", "nu_spectral.cli", *self.argvs[0][1]])  # discarded

    def run_pass(self):
        p = Pass()
        for i, (sub, argv) in enumerate(self.argvs):
            with p.window(self.cal):
                t0 = time.perf_counter_ns()
                try:
                    proc = _run_child(["-m", "nu_spectral.cli", *argv])
                    code, out, err = proc.returncode, proc.stdout, proc.stderr
                except subprocess.TimeoutExpired as exc:
                    code, out, err = None, "", _error(exc)
                t1 = time.perf_counter_ns()
                p.latencies[" ".join(argv), "run"] = (t1 - t0) / 1e9
            if self.tracer is not None:
                self.tracer.request[0] = i
                self.tracer.record(f"cli.{sub}", t0, t1, err=code != 0)
            same = self.stdout.setdefault(i, out) == out and self.exits.setdefault(i, code) == code
            if not same:
                self.problems.append(f"argv {argv}: stdout or exit code differs between runs")
            if "Traceback (most recent call last)" in err:
                self.problems.append(f"argv {argv}: uncaught {_cli_failure(out, err)}")
            detail = None
            if code != 0:
                detail = f"exit {code}: {_cli_failure(out, err)}"
            elif not same:
                detail = "stdout differs from the previous run of the same argv"
            p.check(f"cli {' '.join(argv)}", code == 0 and same, detail)
        return p

    def correctness(self):
        return list(dict.fromkeys(self.problems))

    def layer_metrics(self, untraced, ops):
        out = {}
        for sub in ("eval", "reduce", "solve", "verify"):
            vals = [t for (argv, _), t in ops.items() if argv.split(" ", 1)[0] == sub]
            out[f"cli.{sub}_s"] = statistics.median(vals) if vals else 0.0
        return out


# -- deep spectra -----------------------------------------------------------------------


class DeepSpectra:
    in_process = True
    min_passes = 3

    def __init__(self, name, rng, tiny, cal):
        self.cal = cal
        make = (inputs.deep_rational_inputs if name.endswith("rational")
                else inputs.deep_surd_inputs)
        self.wells = make(rng, tiny)
        self.levels_ref = [references.closed_form_levels(w) for w in self.wells]
        self.problems = []
        self.tracer = None
        from nu_spectral import errors, oracle, potentials
        self.potentials, self.oracle = potentials, oracle
        self.NuSpectralError = errors.NuSpectralError

    def describe_inputs(self):
        return [{"well": w.label(), "scatter_offset": round(w.scatter_offset, 6)}
                for w in self.wells]

    def warm_up(self):
        self.run_pass()

    def _construct(self, well):
        maker = getattr(self.potentials, well.kind)
        return maker(**well.params)

    def run_pass(self):
        p = Pass()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, well in enumerate(self.wells):
                if self.tracer is not None:
                    self.tracer.request[0] = i
                self._well(p, i, well)
        p.warnings.update(w.category.__name__ for w in caught)
        return p

    def _well(self, p, i, well):
        """Solve, then the verify subcommand's check sequence.  Each stage
        runs in its own calibration window, each check is timed on its own
        and gives one outcome.  The ops depend only on the well: one state
        check per closed-form level, and when the solve fails every check
        after it fails too."""
        pot, orc = self.potentials, self.oracle
        clock = time.perf_counter
        label = well.label()
        levels = range(len(self.levels_ref[i]))

        def attempt(call, op):
            return guarded(call, self.NuSpectralError, self.problems, op)

        def solve():
            spec = self._construct(well)
            states = pot.bound_spectrum(spec, n_max=well.n_max)
            if spec.v_minus < float("inf"):
                pot.scattering_states(spec, spec.v_minus + well.scatter_offset)
            return spec, states

        with p.window(self.cal):
            t0 = clock()
            solved, problem = attempt(solve, f"solve {label}")
            p.latencies[label, "solve"] = clock() - t0
        if problem is None:
            spec, states = solved
            problem = references.levels_match([st.eps for st in states], self.levels_ref[i])
            if problem:
                self.problems.append(f"{label}: {problem}")
        p.check(f"solve {label}", problem is None, problem)
        if solved is None:
            skipped = f"not run: the solve failed ({problem})"
            p.check(f"spectrum {label}", False, skipped)
            for kind in ("normalization", "residual"):
                for n in levels:
                    p.check(f"{kind} {label} n={n}", False, skipped)
            return

        lo, hi, pts = spec.fd_box

        def spectrum():
            return orc.compare_spectra(
                [float(st.eps) for st in states],
                self._oracle_values(spec, len(states), orc.FdGrid(lo, hi, pts)),
                SPECTRUM_RTOL,
            )

        with p.window(self.cal):
            t0 = clock()
            report, detail = attempt(spectrum, f"spectrum {label}")
            p.latencies[label, "spectrum"] = clock() - t0
        if report is not None:
            detail = f"max rel err {max(report.rel_errors):.3e} > {SPECTRUM_RTOL}"
        p.check(f"spectrum {label}", report is not None and report.ok, detail)

        xs = [lo + (hi - lo) * (0.25 + 0.5 * k / 8.0) for k in range(9)]
        checks = (
            ("normalization", NORMALIZATION_TOL, "defect",
             lambda st: pot.normalization_defect(spec, st)),
            ("residual", RESIDUAL_TOL, "residual",
             lambda st: pot.wavefunction_residual(spec, st.sampler, st.eps, xs)),
        )
        for kind, tol, what, measure in checks:
            with p.window(self.cal):
                for n in levels:
                    op = f"{kind} {label} n={n}"
                    if n >= len(states):
                        p.check(op, False, "no such state")
                        continue
                    t0 = clock()
                    value, detail = attempt(lambda: measure(states[n]), op)
                    p.latencies[label, f"{kind} {n}"] = clock() - t0
                    if value is not None:
                        detail = f"{what} {value:.3e} > {tol}"
                    p.check(op, value is not None and value <= tol, detail)
                    p.split(self.cal)

    def _oracle_values(self, spec, count, grid):
        vals = list(self.potentials.oracle_spectrum(spec, k_max=count, grid=grid).eigenvalues)
        return vals if spec.v_minus < float("inf") else vals[:count]

    def correctness(self):
        return list(dict.fromkeys(self.problems))

    def layer_metrics(self, untraced, ops):
        solve = sum(t for (_, op), t in ops.items() if op == "solve")
        out = {
            "pipeline.solve_s": solve,
            "pipeline.verify_sweep_s": sum(ops.values()) - solve,
        }
        first = untraced[0]
        for kind in ("spectrum", "normalization", "residual"):
            out[f"checks.{kind}_failed"] = sum(1 for op, _ in first.failures
                                               if op.startswith(kind + " "))
        return out


# -- special functions --------------------------------------------------------------------


class SpecialFunctions:
    in_process = True
    min_passes = 3

    def __init__(self, rng, tiny, cal):
        self.cal = cal
        self.cases = inputs.special_inputs(rng, tiny)
        self.refs = [references.hyper_reference(c) for c in self.cases]
        self.problems = []
        self.tracer = None
        from nu_spectral import errors, hyper
        self.hyper = hyper
        self.NuSpectralError = errors.NuSpectralError

    def describe_inputs(self):
        return [{"region": c.region, "fn": c.fn, "args": c.args} for c in self.cases]

    def warm_up(self):
        self.run_pass()

    def run_pass(self):
        p = Pass()
        funcs = {name: getattr(self.hyper, name)
                 for name in ("hyp2f1", "hyp1f1", "hypU", "hermite_fn")}
        terms = Counter()
        clock = time.perf_counter_ns
        with warnings.catch_warnings(record=True) as caught, p.window(self.cal):
            warnings.simplefilter("always")
            for i, case in enumerate(self.cases):
                if self.tracer is not None:
                    self.tracer.request[0] = i
                fn = funcs[case.fn]
                op = f"{case.region} {case.fn}{case.args}"
                t0 = clock()
                res, err = guarded(lambda: fn(*case.args), self.NuSpectralError,
                                   self.problems, op)
                t1 = clock()
                p.latencies[i, "call"] = (t1 - t0) / 1e9
                if err is not None:
                    p.check(op, False, err)
                    continue
                terms[case.region] += res.terms_used
                rel = references.hyper_rel_error(res.value, self.refs[i])
                ok = rel <= references.HYPER_RTOL
                p.check(op, ok, f"rel err {rel:.3e} vs mpmath {self.refs[i]!r}, "
                                f"got {res.value!r}")
        p.warnings.update(w.category.__name__ for w in caught)
        p.extra.update(terms=terms)
        return p

    def correctness(self):
        return list(dict.fromkeys(self.problems))

    def layer_metrics(self, untraced, ops):
        out = {}
        first = untraced[0]
        per_region = Counter(c.region for c in self.cases)
        for region in inputs.HYPER_REGIONS:
            us = [ops[i, "call"] * 1e6 for i, c in enumerate(self.cases) if c.region == region]
            out[f"hyper.{region}.us"] = statistics.median(us) if us else 0.0
            out[f"hyper.{region}.terms"] = (first.extra["terms"][region] / per_region[region]
                                            if per_region[region] else 0.0)
            out[f"hyper.{region}.failed"] = sum(1 for op, _ in first.failures
                                                if op.split(" ", 1)[0] == region)
        out["hyper.cancellation_warnings"] = first.warnings.get("CancellationWarning", 0)
        return out


# -- traced per-layer metrics ------------------------------------------------------------------


def _span_metrics(summary, pinned, spans):
    def pick(*names):
        return [summary[n] for n in names if n in summary]

    def prefixed(prefix):
        return [rec for n, rec in summary.items() if n.startswith(prefix)]

    def tot(recs, key, scale=1.0):
        return sum(r[key] for r in recs) * scale

    s = 1e-9
    considered = tot(pick("reduction.branch_candidates"), "detail_sum")
    poly = "polynomials.Polynomial."
    surd = "scalars.SurdSum."
    return {
        "potentials.construct_s": tot(pick("potentials.harmonic", "potentials.morse",
                                           "potentials.rosen_morse2"), "incl_ns", s),
        "potentials.bound_spectrum_self_s": tot(pick("potentials.bound_spectrum"), "self_ns", s),
        "potentials.levels": tot(pick("potentials.bound_spectrum"), "detail_sum"),
        "potentials.scattering_s": tot(pick("potentials.scattering_states"), "incl_ns", s),
        "potentials.sampler_calls": tot(pick("potentials.sampler"), "calls"),
        "potentials.sampler_s": tot(pick("potentials.sampler"), "self_ns", s),
        "potentials.normalization_self_s": tot(pick("potentials.normalization_defect"),
                                               "self_ns", s),
        "potentials.residual_self_s": tot(pick("potentials.wavefunction_residual"),
                                          "self_ns", s),
        "reduction.calls": tot(prefixed("reduction."), "entries"),
        "reduction.self_s": tot(prefixed("reduction."), "self_ns", s),
        "reduction.branches_considered": considered,
        "reduction.branch_yield": pinned / considered if considered else 0.0,
        "classical.rodrigues_calls": tot(pick("classical.rodrigues_poly"), "calls"),
        "classical.rodrigues_self_s": tot(pick("classical.rodrigues_poly"), "self_ns", s),
        "classical.max_degree": max([r["detail_max"] for r in pick("classical.rodrigues_poly")],
                                    default=0),
        "classical.classify_s": tot(pick("classical.classify_canonical"), "incl_ns", s),
        "polynomials.mul_calls": tot(pick(poly + "__mul__", poly + "__rmul__"), "calls"),
        "polynomials.add_calls": tot(pick(poly + "__add__", poly + "__radd__",
                                          poly + "__sub__", poly + "__rsub__"), "calls"),
        "polynomials.compose_calls": tot(pick(poly + "compose_affine"), "calls"),
        "polynomials.self_s": tot(prefixed("polynomials."), "self_ns", s),
        "scalars.surd_ops": tot(prefixed(surd), "calls"),
        "scalars.sign_calls": tot(pick("scalars.scalar_sign"), "calls"),
        "scalars.sqrt_calls": tot(pick("scalars.sqrt_scalar"), "calls"),
        "scalars.self_s": tot(prefixed("scalars."), "self_ns", s),
        "oracle.fd_calls": tot(pick("oracle.fd_bound_states"), "calls"),
        "oracle.fd_points": tot(pick("oracle.fd_bound_states"), "detail_sum"),
        "oracle.fd_s": tot(pick("oracle.fd_bound_states"), "self_ns", s),
        "oracle.quad_calls": tot(pick("oracle.quad_adaptive"), "calls"),
        "oracle.quad_s": tot(pick("oracle.quad_adaptive"), "self_ns", s),
        "oracle.quad_failed": tot(pick("oracle.quad_adaptive"), "errors"),
        "oracle.tanh_sinh_calls": tot(pick("oracle.tanh_sinh"), "calls"),
        "oracle.tanh_sinh_s": tot(pick("oracle.tanh_sinh"), "self_ns", s),
        "oracle.tanh_sinh_failed": tot(pick("oracle.tanh_sinh"), "errors"),
        "trace.spans": spans,
    }


# -- running one workload --------------------------------------------------------------


def make_workload(name, seed, tiny, cal):
    rng = inputs.rng_for(name, seed)
    if name == "cli_cold":
        return CliCold(rng, tiny, cal)
    if name in ("deep_spectra_rational", "deep_spectra_surd"):
        return DeepSpectra(name, rng, tiny, cal)
    if name == "special_functions":
        return SpecialFunctions(rng, tiny, cal)
    raise ValueError(f"unknown workload {name!r}")


def _peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def _outcome_key(p):
    return [(op, ok) for op, ok, _ in p.outcomes]


def _traced_passes(wl, seconds):
    """Installs the tracer and runs traced passes; returns the passes, one
    span summary per pass, and the tracer holding the first pass's spans."""
    from tracer import Tracer

    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    wl.tracer = tracer
    summaries, first = [], None

    def traced_pass():
        nonlocal first
        tracer.clear()
        tracer.counters.clear()
        p = wl.run_pass()
        p.spans = len(tracer)
        summaries.append((tracer.summarize(), tracer.counters["pinned"], len(tracer)))
        if first is None:
            first = tuple(col[:] for col in tracer.cols)
        return p

    try:
        passes = run_passes(traced_pass, seconds, 1)
    finally:
        tracer.uninstall()
        wl.tracer = None
    for col, saved in zip(tracer.cols, first):
        del col[:]
        col.extend(saved)
    return passes, summaries, tracer


def _scaled(metrics, units, factor):
    """Times (unit s or us) multiplied by factor; host.kernel_s stays raw."""
    return {k: v * factor if units[k] in ("s", "us") and k != "host.kernel_s" else v
            for k, v in metrics.items()}


def _end_to_end(setup, untraced, peak, scaled=True):
    per_op = list(op_latencies(untraced, scaled).values())
    tail_value, tail_pct, tail_n = tail(per_op)
    first = untraced[0]
    e2e = {
        "setup_s": statistics.median(op_latencies([setup], scaled).values()),
        "pass_s": sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail_value,
        "peak_rss_mb": peak,
        "ops_ok_ratio": 1.0 - len(first.failures) / len(first.outcomes),
    }
    return e2e, tail_pct, tail_n


def run(name, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (result dict for the last line, report dict)."""
    report = {"workload": name, "why": inputs.WHY[name], "seed": seed,
              "seconds": seconds, "trace": trace}
    cal = Calibration()
    setup, outer = import_probes(2 if tiny else 5, cal)
    layer = {}
    if trace:
        layer["cli.interpreter_s"] = interpreter_probe(2 if tiny else 5)
        layer["cli.import_s"] = statistics.median(outer)
        layer["cli.import_scipy_s"] = scipy_import_share()
        layer = _scaled(layer, dict(metric_units("per_layer")), setup.scale())

    sys.path.insert(0, str(SRC))
    wl = make_workload(name, seed, tiny, cal)
    report["inputs"] = wl.describe_inputs()

    wl.warm_up()
    # after one full pass, before the timed passes add the benchmark's own records
    peak = _peak_rss_mb(wl.in_process)
    untraced = run_passes(wl.run_pass, seconds / 2 if trace else seconds,
                          1 if trace else wl.min_passes)
    if not wl.in_process:
        peak = _peak_rss_mb(False)
    traced = []
    if trace:
        traced, summaries, tracer = _traced_passes(wl, seconds / 2)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"{name}-seed{seed}.spans.tsv.gz"
        tracer.write(span_file)
        report["span_file"] = str(span_file.relative_to(ROOT))

    reference = _outcome_key(untraced[0])
    unstable = [i for i, p in enumerate(untraced + traced) if _outcome_key(p) != reference]
    problems = wl.correctness()
    if unstable:
        problems.append(f"passes {unstable} have different outcomes than the first timed pass")

    e2e, tail_pct, tail_n = _end_to_end(setup, untraced, peak)
    first = untraced[0]
    by_input = input_latencies(op_latencies(untraced))
    report.update(
        host_kernel_s=cal.kernel_s(),
        end_to_end=e2e,
        end_to_end_raw=_end_to_end(setup, untraced, peak, scaled=False)[0],
        import_process_s=outer,
        passes_untraced=len(untraced),
        passes_traced=len(traced),
        ops_per_pass=len(first.outcomes),
        failed_per_pass=len(first.failures),
        ops_failed_ratio=len(first.failures) / len(first.outcomes),
        latency_samples=tail_n,
        latency_tail_percentile=tail_pct,
        warnings_per_pass=dict(first.warnings),
        input_latency_s={str(k): v for k, v in by_input.items()} if len(by_input) <= 50
        else None,
        failed_ops=[{"op": op, "reason": why} for op, why in first.failures],
        correctness_problems=problems,
    )

    if trace:
        units = dict(metric_units("per_layer"))
        layer.update(wl.layer_metrics(untraced, op_latencies(untraced)))
        if wl.in_process:
            rows = [_scaled(_span_metrics(*summary), units, p.scale())
                    for summary, p in zip(summaries, traced)]
            for key in rows[0]:
                layer[key] = statistics.median(row[key] for row in rows)
        else:
            layer["trace.spans"] = statistics.median(p.spans for p in traced)
        layer["trace.overhead_s"] = (sum(op_latencies(traced).values())
                                     - sum(op_latencies(untraced).values()))
        layer["host.kernel_s"] = cal.kernel_s()
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in metric_units("end_to_end")}
    result = {"correct": not problems,
              "attempted": len(first.outcomes),
              "failed": len(first.failures),
              "metrics": metrics}
    report["versions"] = _versions()
    return result, report


def _versions():
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    out["commit"] = None  # the benchmark may run from a plain copy of the tree
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            out["commit"] = lines[1]
    except OSError:
        pass
    out["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return out
