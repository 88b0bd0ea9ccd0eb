"""Golden output of the README commands: stdout must stay byte-identical.

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
1,12.75,6.375,1.5543122344752192e-15
2,18.75,9.375,9.9920072216264089e-16
3,22.75,11.375,5.5511151231257827e-16
4,24.75,12.375,1.3322676295501878e-15
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
    ],
    ids=["reduce", "eval", "solve"],
)
def test_readme_command_output_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
