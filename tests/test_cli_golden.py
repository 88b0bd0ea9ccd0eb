"""Golden output of the README commands, and of `solve` on the other two
wells so that every well's normalization is pinned: stdout must stay
byte-identical.  The JSON formats of `reduce` and `solve`, `reduce` at every
level of the README's Morse equation (the benchmark's `reduce` argvs), one
`eval` per special-function route and the non-oracle checks of `verify` are
pinned too.

The expected texts were captured from the command line before the exact
pipeline was restructured; a change that moves any digit of an exact level,
a branch, a series diagnostic or a normalization defect shows up here.  The
oracle columns of `solve --with-oracle` are left out: their last digits come
from LAPACK and may differ between machines.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nu_spectral.cli import main

REDUCE_MORSE = """\
interval: (0, inf)
eps: 19/4
k0 candidates: 1/2, 19/2
branches: 4
branch 1:
  k0  = 1/2
  pi  = -9/2 + (1/2)*x
  psi = -8 + (1)*x
  lam = 1
  chi = ((1)*x)^(-9/2) * exp((1/2)*x)
branch 2:
  k0  = 1/2
  pi  = 9/2 + (-1/2)*x
  psi = 10 + (-1)*x
  lam = 0
  chi = ((1)*x)^(9/2) * exp((-1/2)*x)
branch 3:
  k0  = 19/2
  pi  = 9/2 + (1/2)*x
  psi = 10 + (1)*x
  lam = 10
  chi = ((1)*x)^(9/2) * exp((1/2)*x)
branch 4:
  k0  = 19/2
  pi  = -9/2 + (-1/2)*x
  psi = -8 + (-1)*x
  lam = 9
  chi = ((1)*x)^(-9/2) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 10 lies in (0, inf); unique admissible branch
"""

# the README's equation at every Morse Lambda = 5 level, eps_n = 25 - (9/2 - n)^2:
# the `reduce` argvs of the cli_cold benchmark workload
MORSE_README_GHE = "phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf"
REDUCE_MORSE_LEVELS = {
    "19/4": REDUCE_MORSE,
    "51/4": """\
interval: (0, inf)
eps: 51/4
k0 candidates: 3/2, 17/2
branches: 4
branch 1:
  k0  = 3/2
  pi  = -7/2 + (1/2)*x
  psi = -6 + (1)*x
  lam = 2
  chi = ((1)*x)^(-7/2) * exp((1/2)*x)
branch 2:
  k0  = 3/2
  pi  = 7/2 + (-1/2)*x
  psi = 8 + (-1)*x
  lam = 1
  chi = ((1)*x)^(7/2) * exp((-1/2)*x)
branch 3:
  k0  = 17/2
  pi  = 7/2 + (1/2)*x
  psi = 8 + (1)*x
  lam = 9
  chi = ((1)*x)^(7/2) * exp((1/2)*x)
branch 4:
  k0  = 17/2
  pi  = -7/2 + (-1/2)*x
  psi = -6 + (-1)*x
  lam = 8
  chi = ((1)*x)^(-7/2) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 8 lies in (0, inf); unique admissible branch
""",
    "75/4": """\
interval: (0, inf)
eps: 75/4
k0 candidates: 5/2, 15/2
branches: 4
branch 1:
  k0  = 5/2
  pi  = -5/2 + (1/2)*x
  psi = -4 + (1)*x
  lam = 3
  chi = ((1)*x)^(-5/2) * exp((1/2)*x)
branch 2:
  k0  = 5/2
  pi  = 5/2 + (-1/2)*x
  psi = 6 + (-1)*x
  lam = 2
  chi = ((1)*x)^(5/2) * exp((-1/2)*x)
branch 3:
  k0  = 15/2
  pi  = 5/2 + (1/2)*x
  psi = 6 + (1)*x
  lam = 8
  chi = ((1)*x)^(5/2) * exp((1/2)*x)
branch 4:
  k0  = 15/2
  pi  = -5/2 + (-1/2)*x
  psi = -4 + (-1)*x
  lam = 7
  chi = ((1)*x)^(-5/2) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 6 lies in (0, inf); unique admissible branch
""",
    "91/4": """\
interval: (0, inf)
eps: 91/4
k0 candidates: 7/2, 13/2
branches: 4
branch 1:
  k0  = 7/2
  pi  = -3/2 + (1/2)*x
  psi = -2 + (1)*x
  lam = 4
  chi = ((1)*x)^(-3/2) * exp((1/2)*x)
branch 2:
  k0  = 7/2
  pi  = 3/2 + (-1/2)*x
  psi = 4 + (-1)*x
  lam = 3
  chi = ((1)*x)^(3/2) * exp((-1/2)*x)
branch 3:
  k0  = 13/2
  pi  = 3/2 + (1/2)*x
  psi = 4 + (1)*x
  lam = 7
  chi = ((1)*x)^(3/2) * exp((1/2)*x)
branch 4:
  k0  = 13/2
  pi  = -3/2 + (-1/2)*x
  psi = -2 + (-1)*x
  lam = 6
  chi = ((1)*x)^(-3/2) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 4 lies in (0, inf); unique admissible branch
""",
    "99/4": """\
interval: (0, inf)
eps: 99/4
k0 candidates: 9/2, 11/2
branches: 4
branch 1:
  k0  = 9/2
  pi  = -1/2 + (1/2)*x
  psi = (1)*x
  lam = 5
  chi = ((1)*x)^(-1/2) * exp((1/2)*x)
branch 2:
  k0  = 9/2
  pi  = 1/2 + (-1/2)*x
  psi = 2 + (-1)*x
  lam = 4
  chi = ((1)*x)^(1/2) * exp((-1/2)*x)
branch 3:
  k0  = 11/2
  pi  = 1/2 + (1/2)*x
  psi = 2 + (1)*x
  lam = 6
  chi = ((1)*x)^(1/2) * exp((1/2)*x)
branch 4:
  k0  = 11/2
  pi  = -1/2 + (-1/2)*x
  psi = (-1)*x
  lam = 5
  chi = ((1)*x)^(-1/2) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 2 lies in (0, inf); unique admissible branch
""",
}

# Morse Lambda = 15/4 at level n = 3: the geometric filter keeps branches 2
# and 4, and square integrability breaks the tie
REDUCE_MORSE_TIE = """\
interval: (0, inf)
eps: 14
k0 candidates: 7/2, 4
branches: 4
branch 1:
  k0  = 7/2
  pi  = -1/4 + (1/2)*x
  psi = 1/2 + (1)*x
  lam = 4
  chi = ((1)*x)^(-1/4) * exp((1/2)*x)
branch 2:
  k0  = 7/2
  pi  = 1/4 + (-1/2)*x
  psi = 3/2 + (-1)*x
  lam = 3
  chi = ((1)*x)^(1/4) * exp((-1/2)*x)
branch 3:
  k0  = 4
  pi  = 1/4 + (1/2)*x
  psi = 3/2 + (1)*x
  lam = 9/2
  chi = ((1)*x)^(1/4) * exp((1/2)*x)
branch 4:
  k0  = 4
  pi  = -1/4 + (-1/2)*x
  psi = 1/2 + (-1)*x
  lam = 7/2
  chi = ((1)*x)^(-1/4) * exp((-1/2)*x)
selected: branch 2
  psi slope -1 is negative and its zero 3/2 lies in (0, inf); the only square-integrable one of 2 such branches
"""


EVAL_HERMITE = """\
value = 40.000000000000036
terms_used = 34
truncation_estimate = 3.3236315466189004e-16
"""

SOLVE_MORSE = """\
n,eps_n,E_n,norm_defect
0,4.75,2.375,2.6645352591003757e-15
1,12.75,6.375,8.8817841970012523e-16
2,18.75,9.375,1.3322676295501878e-15
3,22.75,11.375,4.4408920985006262e-16
4,24.75,12.375,1.4432899320127035e-15
"""

SOLVE_HARMONIC = """\
n,eps_n,E_n,norm_defect
0,1,0.5,2.2204460492503131e-16
1,3,1.5,1.1102230246251565e-16
2,5,2.5,8.8817841970012523e-16
3,7,3.5,2.2204460492503131e-16
4,9,4.5,4.4408920985006262e-16
5,11,5.5,1.4432899320127035e-15
6,13,6.5,1.1102230246251565e-15
7,15,7.5,4.4408920985006262e-16
8,17,8.5,2.2204460492503131e-16
"""

SOLVE_ROSEN_MORSE2 = """\
n,eps_n,E_n,norm_defect
0,1.2099285593363514,1.2099285593363514,0
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            [
                "reduce",
                "phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf",
                "--eps",
                "19/4",
            ],
            REDUCE_MORSE,
        ),
        (["eval", "--fn", "hermite", "--nu", "3", "--z", "2"], EVAL_HERMITE),
        (["solve", "--potential", "morse", "--params", "Lambda=5"], SOLVE_MORSE),
        (["solve", "--potential", "harmonic", "--n-max", "8"], SOLVE_HARMONIC),
        (
            ["solve", "--potential", "rosen-morse2", "--params", "v0=4,mu=0.5"],
            SOLVE_ROSEN_MORSE2,
        ),
    ],
    ids=["reduce", "eval", "solve", "solve-harmonic", "solve-rosen-morse2"],
)
def test_readme_command_output_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("eps", [eps for eps in REDUCE_MORSE_LEVELS if eps != "19/4"])
def test_reduce_at_every_morse_level_is_byte_identical(capsys, eps):
    assert main(["reduce", MORSE_README_GHE, "--eps", eps]) == 0
    assert capsys.readouterr().out == REDUCE_MORSE_LEVELS[eps]


def test_reduce_tie_broken_by_integrability(capsys):
    argv = ["reduce", "phi=0,1 psi_tilde=1 phi_tilde=-225/16+eps,15/4,-1/4 interval=0,inf",
            "--eps", "14"]
    assert main(argv) == 0
    assert capsys.readouterr().out == REDUCE_MORSE_TIE


def test_benchmark_reduce_argvs_are_pinned(monkeypatch):
    # perfbench/inputs.py imports only the standard library; its dataclasses
    # look their module up in sys.modules while it loads
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    reduce_argvs = [
        argv
        for seed in range(1, 41)
        for sub, argv in inputs.cli_inputs(inputs.rng_for("cli_cold", seed))
        if sub == "reduce"
    ]
    assert len(reduce_argvs) == 40
    for argv in reduce_argvs:
        assert argv[:3] == ["reduce", MORSE_README_GHE, "--eps"] and len(argv) == 4
        assert argv[3] in REDUCE_MORSE_LEVELS


def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _branch(k0, pi, psi, lam, chi):
    return {"k0": k0, "pi": pi, "psi": psi, "lam": lam, "chi": chi}


REDUCE_MORSE_JSON = _json({
    "schema_version": 1,
    "eps": "19/4",
    "interval": ["0", "inf"],
    "k0_candidates": ["1/2", "19/2"],
    "branches": [
        _branch("1/2", ["-9/2", "1/2"], ["-8", "1"], "1", "((1)*x)^(-9/2) * exp((1/2)*x)"),
        _branch("1/2", ["9/2", "-1/2"], ["10", "-1"], "0", "((1)*x)^(9/2) * exp((-1/2)*x)"),
        _branch("19/2", ["9/2", "1/2"], ["10", "1"], "10", "((1)*x)^(9/2) * exp((1/2)*x)"),
        _branch("19/2", ["-9/2", "-1/2"], ["-8", "-1"], "9", "((1)*x)^(-9/2) * exp((-1/2)*x)"),
    ],
    "selected": 2,
    "selection": "psi slope -1 is negative and its zero 10 lies in (0, inf); unique admissible branch",
})

SOLVE_MORSE_JSON = _json({
    "schema_version": 1,
    "potential": "morse",
    "params": {"Lambda": 5.0},
    "states": [
        {"n": n, "eps_n": eps, "E_n": eps / 2, "norm_defect": defect}
        for n, eps, defect in (
            (0, 4.75, 2.6645352591003757e-15),
            (1, 12.75, 8.881784197001252e-16),
            (2, 18.75, 1.3322676295501878e-15),
            (3, 22.75, 4.440892098500626e-16),
            (4, 24.75, 1.4432899320127035e-15),
        )
    ],
})


def _eval(value, terms, estimate):
    return f"value = {value}\nterms_used = {terms}\ntruncation_estimate = {estimate}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["reduce", "phi=0,1 psi_tilde=1 phi_tilde=-25+eps,5,-1/4 interval=0,inf",
          "--eps", "19/4", "--format", "json"], REDUCE_MORSE_JSON),
        (["solve", "--potential", "morse", "--params", "Lambda=5", "--format", "json"],
         SOLVE_MORSE_JSON),
        (["eval", "--fn", "2f1", "--a", "0.5", "--b", "0.3", "--c", "1.7", "--z", "0.995"],
         _eval("1.1854342965465139", 18, "3.4661949625704922e-14")),
        (["eval", "--fn", "2f1", "--a", "0.5", "--b", "0.5", "--c", "2", "--z", "0.999"],
         _eval("1.2711106707222504", 9, "2.1377107308835605e-14")),
        (["eval", "--fn", "1f1", "--a", "1.5", "--c", "2.5", "--z", "-30"],
         _eval("0.0080901079689772674", 80, "1.1779490850401256e-14")),
        (["eval", "--fn", "u", "--a", "0.7", "--c", "1.3", "--z", "2.5"],
         _eval("0.48393020453370533", 193, "2.2941800578348285e-16")),
        (["eval", "--fn", "hermite", "--nu", "2.5", "--z", "3"],
         _eval("78.965154997089343", 177, "0")),
        (["eval", "--fn", "2f1", "--a", "0.5", "--b", "0.3", "--c", "1.7", "--z", "0.5"],
         _eval("1.0551228148732459", 35, "2.6603359418432167e-14")),
        (["eval", "--fn", "2f1", "--a", "0.7", "--b", "-1.3", "--c", "2.2", "--z", "-3.5"],
         _eval("2.7385850421389999", 128, "2.8334948119770163e-13")),
        (["eval", "--fn", "1f1", "--a", "1.5", "--c", "2.5", "--z", "3"],
         _eval("7.931662465149576", 26, "3.8982245291887897e-16")),
        (["eval", "--fn", "u", "--a", "-3", "--c", "1.5", "--z", "2"],
         _eval("5.375", 4, "0")),
        (["eval", "--fn", "u", "--a", "0.7", "--c", "1.3", "--z", "50"],
         _eval("0.06431880240762132", 13, "7.1845404610922485e-14")),
    ],
    ids=["reduce-json", "solve-json", "2f1-connection-15.8.4", "2f1-log-15.8.10",
         "1f1-reflected", "u-integral", "hermite-u", "2f1-direct", "2f1-pfaff",
         "1f1-direct", "u-terminating", "u-large-z-series"],
)
def test_format_and_route_output_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _checks(max_defect, defect_n, max_residual, residual_n):
    return [
        {"name": "normalization", "pass": True, "max_defect": max_defect,
         "worst_n": defect_n, "tol": 1e-08},
        {"name": "ode_residual", "pass": True, "max_residual": max_residual,
         "worst_n": residual_n, "tol": 1e-06},
    ]


@pytest.mark.parametrize(
    "argv, head, checks",
    [
        (["verify", "--potential", "harmonic", "--n-max", "6"],
         {"potential": "harmonic", "params": {}, "n_states": 7},
         _checks(1.4432899320127035e-15, 5, 8.528368011795351e-10, 6)),
        (["verify", "--potential", "morse", "--params", "Lambda=5"],
         {"potential": "morse", "params": {"Lambda": 5.0}, "n_states": 5},
         _checks(2.6645352591003757e-15, 0, 7.295748102875699e-10, 4)),
    ],
    ids=["harmonic", "morse"],
)
def test_verify_output_but_the_oracle_is_identical(capsys, argv, head, checks):
    # the spectrum check and the grid are the oracle's, whose last digits
    # come from LAPACK; every other field must read the same
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["grid"]
    doc["checks"] = [c for c in doc["checks"] if c["name"] != "spectrum_vs_oracle"]
    tolerances = {"spectrum_rtol": 0.0001, "normalization": 1e-08, "residual": 1e-06}
    assert _json(doc) == _json({"schema_version": 1, **head, "tolerances": tolerances,
                                "checks": checks, "pass": True})
