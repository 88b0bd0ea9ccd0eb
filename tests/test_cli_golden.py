"""Golden output of the README commands, and of `solve` on the other two
wells so that every well's normalization is pinned: stdout must stay
byte-identical.

The expected texts were captured from the command line before the exact
pipeline was restructured; a change that moves any digit of an exact level,
a branch, a series diagnostic or a normalization defect shows up here.  The
oracle columns of `solve --with-oracle` are left out: their last digits come
from LAPACK and may differ between machines.
"""

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
