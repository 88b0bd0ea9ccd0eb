#!/usr/bin/env python3
"""Seeded benchmark for nu_spectral.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ``src/``;
nothing needs installing).  Workloads: cli_cold, deep_spectra_rational,
deep_spectra_surd, special_functions.  With ``--trace 0`` the last stdout
line is a JSON object carrying the end-to-end metrics; with ``--trace 1``
half the time runs untraced and half traced, and it carries the per-layer
metrics.  The lines before it are the report: inputs, provenance,
correctness problems, every failed op and, for traced runs, the end-to-end
metrics of the untraced half too.  ``--tiny`` shrinks every input set, for
the self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "nu_spectral" / "__init__.py"

# BLAS threads are pinned before numpy can be imported; child processes
# inherit os.environ
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NU_SPECTRAL_TOL", None)

WORKLOADS = ("cli_cold", "deep_spectra_rational", "deep_spectra_surd", "special_functions")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_report(result, report):
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(f"why: {report['why']}")
    print("versions: " + json.dumps(report["versions"], sort_keys=True))
    print("inputs: " + json.dumps(report["inputs"]))
    print(f"passes: {report['passes_untraced']} untraced, {report['passes_traced']} traced; "
          f"{report['ops_per_pass']} checked results per pass, "
          f"{report['failed_per_pass']} failed "
          f"(ops_failed_ratio {report['ops_failed_ratio']:.6g})")
    print(f"latency samples: {report['latency_samples']} ops; tail is "
          f"percentile {report['latency_tail_percentile']:.4g}")
    if report["input_latency_s"]:
        print("per-input time, summed over its ops (s): "
              + json.dumps(report["input_latency_s"]))
    print("warnings per pass: " + json.dumps(report["warnings_per_pass"], sort_keys=True))
    print(f"host: median calibration kernel {report['host_kernel_s'] * 1e3:.4g} ms; times are "
          "scaled to the reference host speed (perfbench/calibration.py)")
    for name, value in report["end_to_end"].items():
        raw = report["end_to_end_raw"][name]
        print(f"end_to_end {name} = {value:.6g} (raw {raw:.6g})")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if "span_file" in report:
        print(f"spans of the first traced pass: {report['span_file']}")
    print(f"correct: {result['correct']}")
    for problem in report["correctness_problems"]:
        print(f"  correctness problem: {problem}")
    print(f"failed ops ({len(report['failed_ops'])} per pass):")
    for entry in report["failed_ops"]:
        print(f"  FAILED {entry['op']}: {entry['reason']}")


def main(argv=None):
    args = _parse(argv)
    if not PACKAGE.is_file():
        print(f"perfbench: no package sources at {PACKAGE.relative_to(HERE.parent)}; "
              "run from the root of a nu_spectral source tree", file=sys.stderr)
        return 2
    import workloads

    result, report = workloads.run(args.workload, args.seed, args.seconds, args.trace,
                                   tiny=args.tiny)
    _print_report(result, report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
