"""Command line driver: subcommand behaviour, formats, exit codes."""

import json
import os
import subprocess
import sys

import mpmath
import pytest

from nu_spectral.cli import main

HARMONIC_GHE = "phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=-inf,inf"
MORSE_GHE = "phi=0,1 psi_tilde=1 phi_tilde=eps-25,5,-1/4 interval=0,inf"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_harmonic_two_branches_one_selected(self, capsys):
        code, out, _ = run(capsys, "reduce", HARMONIC_GHE, "--eps", "3")
        assert code == 0
        assert "branches: 2" in out
        assert "selected: branch 2" in out
        assert "unique admissible branch" in out

    def test_morse_four_branches(self, capsys):
        code, out, _ = run(capsys, "reduce", MORSE_GHE, "--eps", "19/4")
        assert code == 0
        assert "branches: 4" in out
        # ground state: the admissible branch carries lam = 0
        assert "lam = 0" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "reduce", HARMONIC_GHE, "--eps", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["branches"]) == 2
        assert doc["selected"] == 2
        assert doc["branches"][1]["lam"] == "2"
        assert doc["branches"][1]["psi"] == ["0", "-2"]

    def test_malformed_text_exits_2_with_position(self, capsys):
        code, _, err = run(
            capsys, "reduce", "phi=1 psi_tilde=0 phi_tilde=ups interval=-1,1"
        )
        assert code == 2
        assert "position" in err

    def test_missing_eps_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "reduce", HARMONIC_GHE)
        assert code == 2
        assert "--eps" in err

    def test_no_real_reduction_is_domain_error(self, capsys):
        code, _, err = run(capsys, "reduce", MORSE_GHE, "--eps", "26")
        assert code == 3
        assert "NoPerfectSquare" in err

    def test_zero_exponent_is_dropped(self, capsys):
        # both branches have pi = +-x/2, which vanishes at phi's root x = 0, so
        # chi carries no x^0 factor
        code, out, _ = run(
            capsys, "reduce", "phi=0,1 psi_tilde=1 phi_tilde=-9+eps,3,-1/4 interval=0,inf",
            "--eps", "9",
        )
        assert code == 0
        chis = [line.strip() for line in out.splitlines() if line.strip().startswith("chi = ")]
        assert chis == ["chi = exp((1/2)*x)", "chi = exp((-1/2)*x)"]

    def test_interval_endpoints_one_apart_at_1e20(self, capsys):
        # the endpoints round to the same float; their order is decided
        # exactly, so the text parses and the reduction runs (the zero of
        # psi lies outside the interval: no admissible branch, exit 3)
        ghe = "phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=100000000000000000000,100000000000000000001"
        code, out, err = run(capsys, "reduce", ghe, "--eps", "1")
        assert code == 3, err
        assert "interval: (100000000000000000000, 100000000000000000001)" in out
        assert "branches: 2" in out
        assert "NoAdmissibleBranch" in out

    def test_interval_endpoints_swapped_at_1e20(self, capsys):
        ghe = "phi=1 psi_tilde=0 phi_tilde=eps,0,-1 interval=100000000000000000001,100000000000000000000"
        code, _, err = run(capsys, "reduce", ghe, "--eps", "1")
        assert code == 2
        assert "out of order" in err


class TestSolve:
    def test_harmonic_first_four(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--potential",
            "harmonic",
            "--params",
            "m=1,Omega=1,hbar=1",
            "--n-max",
            "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,eps_n,E_n,norm_defect"
        eps = [float(row.split(",")[1]) for row in lines[1:]]
        assert eps == [1.0, 3.0, 5.0, 7.0]

    def test_morse_five_rows_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--potential",
            "morse",
            "--params",
            "Lambda=5",
            "--with-oracle",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,eps_n,E_n,norm_defect,oracle_eps_n,rel_err"
        assert len(lines) == 6
        for row in lines[1:]:
            fields = row.split(",")
            assert float(fields[3]) < 1e-10  # norm defect
            assert float(fields[5]) < 1e-4  # oracle agreement

    def test_hyperbolic_single_row(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--potential", "rosen-morse2", "--params", "v0=4,mu=0.5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert abs(float(lines[1].split(",")[1]) - 1.2099285593363514) < 1e-12

    def test_unknown_parameter_rejected(self, capsys):
        code, _, err = run(
            capsys, "solve", "--potential", "harmonic", "--params", "q=3", "--n-max", "1"
        )
        assert code == 2
        assert "unknown parameter" in err

    def test_unknown_potential_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "woods-saxon")
        assert code == 2
        assert err == (
            "nu-spectral: unknown potential 'woods-saxon'; "
            "choose from harmonic, morse, rosen-morse2\n"
        )

    def test_missing_required_parameters_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "rosen-morse2")
        assert code == 2
        assert "needs --params with v0, mu" in err

    def test_partial_required_parameters_name_the_gap(self, capsys):
        code, _, err = run(
            capsys, "solve", "--potential", "rosen-morse2", "--params", "mu=0.5"
        )
        assert code == 2
        assert "needs --params with v0" in err

    def test_empty_spectrum_distinct_exit(self, capsys):
        code, _, err = run(
            capsys, "solve", "--potential", "rosen-morse2", "--params", "v0=0.75,mu=0.5"
        )
        assert code == 3
        assert "EmptySpectrum" in err

    def test_unbounded_family_needs_cap(self, capsys):
        # a confining well without --n-max is a usage error, like a negative one
        code, out, err = run(capsys, "solve", "--potential", "harmonic")
        assert (code, out) == (2, "")
        assert err == "nu-spectral: harmonic is confining: pass --n-max to cap the family\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--potential",
            "morse",
            "--params",
            "Lambda=5",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert [st["n"] for st in doc["states"]] == [0, 1, 2, 3, 4]

    def test_sample_files(self, capsys, tmp_path):
        outdir = tmp_path / "samples"
        code, _, _ = run(
            capsys,
            "solve",
            "--potential",
            "harmonic",
            "--n-max",
            "1",
            "--samples-dir",
            str(outdir),
            "--sample-count",
            "51",
        )
        assert code == 0
        for n in (0, 1):
            lines = (outdir / f"psi_{n}.csv").read_text().strip().splitlines()
            assert lines[0] == f"x,psi_{n}(x)"
            assert len(lines) == 52
            x, val = lines[26].split(",")
            assert float(x) == 0.0
            # parity at the origin: even state finite, odd state node
            assert (abs(float(val)) > 0.5) == (n == 0)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run(
            capsys,
            "solve",
            "--potential",
            "harmonic",
            "--n-max",
            "2",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,eps_n,E_n,norm_defect")

    def test_negative_n_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "solve", "--potential", "harmonic", "--n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "nu-spectral: --n-max must be at least 0, got -1\n"

    @pytest.mark.parametrize(
        "potential,params,want_code",
        [
            ("harmonic", "m=inf", 2),
            ("harmonic", "m=1e200,Omega=1e200", 3),
            ("morse", "Lambda=inf", 2),
            ("morse", "Lambda=1e200", 3),
            ("morse", "Lambda=5,xe=800", 3),
            ("morse", "De=1e308,a=1e-200", 3),
            ("rosen-morse2", "v0=4,mu=40", 3),  # tanh(40) rounds to 1
        ],
    )
    def test_out_of_range_parameters_exit_cleanly(self, capsys, potential, params, want_code):
        # a non-finite number is a usage error; a finite one whose derived
        # scale leaves the float range is a domain error, never a traceback
        code, out, err = run(
            capsys, "solve", "--potential", potential, "--params", params, "--n-max", "2"
        )
        assert (code, out) == (want_code, "")
        assert err.startswith("nu-spectral: ") and err.count("\n") == 1

    def test_deep_morse_norms_stay_finite(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "morse", "--params", "Lambda=100")
        assert code == 0
        assert out.count("\n") == 101

    def test_well_deeper_than_any_fixed_window_is_normalized(self, capsys):
        # at Lambda = 300 the well's minimum, s = 2 Lambda, lies past s = 700,
        # where a fixed wall would cut it; the window comes from the level
        code, out, err = run(
            capsys, "solve", "--potential", "morse", "--params", "Lambda=300", "--n-max", "5"
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert max(float(row.split(",")[3]) for row in rows) <= 1e-11

    def test_top_level_a_float_ulp_below_the_plateau(self, capsys):
        # eps_5 = Lambda^2 - 1e-26 and Lambda^2 round to the same float
        code, out, err = run(
            capsys, "solve", "--potential", "morse", "--params", "Lambda=5.5000000000001"
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == 7

    @pytest.mark.parametrize("lam", ["5.5001", "5.5000000000001"])
    def test_levels_just_below_the_plateau_are_normalized(self, capsys, lam):
        # the top level's decay length is 1e4 and 1e13: its window stops
        # where the closed-form plateau tail is exact
        code, out, err = run(capsys, "solve", "--potential", "morse", "--params", f"Lambda={lam}")
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert max(float(row.split(",")[3]) for row in rows) <= 1e-8

    def test_byte_identical_across_processes(self):
        cmd = [
            sys.executable,
            "-m",
            "nu_spectral.cli",
            "solve",
            "--potential",
            "morse",
            "--params",
            "Lambda=5",
            "--with-oracle",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.count(b"\n") == 6


class TestEval:
    def parse(self, out):
        fields = {}
        for line in out.strip().splitlines():
            key, _, raw = line.partition(" = ")
            fields[key] = raw
        return fields

    def test_hermite_polynomial_case(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "hermite", "--nu", "2", "--z", "3")
        assert code == 0
        fields = self.parse(out)
        assert abs(float(fields["value"]) - 34.0) < 1e-8
        assert int(fields["terms_used"]) > 0
        assert float(fields["truncation_estimate"]) < 1e-10

    def test_gauss_series(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--fn",
            "2f1",
            "--a",
            "1",
            "--b",
            "2",
            "--c",
            "4",
            "--z",
            "0.5",
        )
        assert code == 0
        value = float(self.parse(out)["value"])
        # 2F1(1,2;4;z) = closed form via log: 6((z-2)ln(1-z) - 2z)/... sanity pin
        assert abs(value - 1.3644676665612865) < 1e-12

    @pytest.mark.parametrize("a, b, c, z", [(0.5, 0.5, 1, 0.999), (0.5, 1, -0.5, 0.995)])
    def test_gauss_integer_gap_near_one(self, capsys, a, b, c, z):
        # c - a - b = 0 at z = 0.999: the direct series ran out of terms (exit
        # 3); c - a - b = -2 with c - a = -1: Euler's side terminates
        code, out, _ = run(capsys, "eval", "--fn", "2f1", "--a", str(a), "--b", str(b),
                           "--c", str(c), "--z", str(z))
        assert code == 0
        want = mpmath.hyp2f1(a, b, c, z)
        assert abs(float(self.parse(out)["value"]) - want) < 1e-12 * abs(want)

    def test_gauss_connection_past_the_gamma_range(self, capsys):
        # the connection series at c = 160.5 reaches 1/gamma(171.7), past
        # gamma's float range: it read SeriesOverflow (exit 3)
        code, out, _ = run(capsys, "eval", "--fn", "2f1", "--a", "0.5", "--b", "0.3",
                           "--c", "160.5", "--z", "0.995")
        assert code == 0
        want = mpmath.hyp2f1(0.5, 0.3, 160.5, 0.995)
        assert abs(float(self.parse(out)["value"]) - want) < 1e-13 * abs(want)

    def test_gauss_below_minus_two_to_the_53(self, capsys):
        # z/(z - 1) rounds to 1.0 there; it read "z < 1" (exit 3)
        code, out, _ = run(capsys, "eval", "--fn", "2f1", "--a", "0.5", "--b", "0.3",
                           "--c", "1.7", "--z=-1e17")
        assert code == 0
        want = mpmath.hyp2f1(0.5, 0.3, 1.7, -1e17)
        assert abs(float(self.parse(out)["value"]) - want) < 1e-13 * abs(want)

    def test_kummer_far_left_past_the_gamma_range(self, capsys):
        # gamma(199) leaves the float range; it read SeriesOverflow (exit 3)
        code, out, _ = run(capsys, "eval", "--fn", "1f1", "--a", "1", "--c", "200", "--z", "-1000")
        assert code == 0
        want = mpmath.hyp1f1(1, 200, -1000)
        assert abs(float(self.parse(out)["value"]) - want) < 1e-12 * abs(want)

    def test_terminating_kummer(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "1f1", "--a", "-2", "--c", "1.5", "--z", "1.0"
        )
        assert code == 0
        fields = self.parse(out)
        assert abs(float(fields["value"]) - (-1.0 / 15.0)) < 1e-15
        assert float(fields["truncation_estimate"]) == 0.0

    def test_tricomi_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "u", "--a", "0.5", "--c", "1.5", "--z", "2.0"
        )
        assert code == 0
        value = float(self.parse(out)["value"])
        assert abs(value - 2.0**-0.5) < 1e-12

    def test_tricomi_integer_c_moderate_z(self):
        # the old connection formula printed -0.0013 here with a clean exit
        proc = subprocess.run(
            [sys.executable, "-m", "nu_spectral.cli", "eval", "--fn", "u",
             "--a", "2.59", "--c", "1", "--z", "13.18"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        value = float(self.parse(proc.stdout)["value"])
        want = float(mpmath.hyperu(2.59, 1, 13.18))
        assert abs(value - want) <= 1e-10 * abs(want)

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "2f1", "--a", "1", "--b", "2")
        assert code == 2
        assert "--c" in err and "--z" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--fn", "2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "nan"),
            ("--fn", "1f1", "--a", "1", "--c", "1", "--z", "inf"),
            ("--fn", "hermite", "--nu", "inf", "--z", "1"),
        ],
        ids=["2f1-nan-z", "1f1-inf-z", "hermite-inf-nu"],
    )
    def test_non_finite_argument_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--fn", "2f1", "--a", "1e300", "--b", "1", "--c", "2", "--z", "0.5"),
            ("--fn", "1f1", "--a", "1e300", "--c", "2", "--z", "0.5"),
            # about 6.7e390: 15.8.4's gammas and its direct series both overflow
            ("--fn", "2f1", "--a", "200.5", "--b", "150.3", "--c", "180.3", "--z", "0.995"),
            ("--fn", "u", "--a", "0.5", "--c", "300.5", "--z", "0.5"),
            ("--fn", "u", "--a", "-300.5", "--c", "2.5", "--z", "0.5"),
            ("--fn", "hermite", "--nu", "300.5", "--z", "1.5"),
        ],
        ids=["2f1", "1f1", "2f1-gamma", "u-integrand", "u-recurrence", "hermite-gamma"],
    )
    def test_overflowing_series_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "SeriesOverflow" in err

    def test_hermite_past_the_power_range_is_domain_error(self, capsys):
        # 2^1100 leaves the float range (it raised OverflowError, exit 1);
        # the value, -4.96e1598 by mpmath, does too
        code, out, err = run(capsys, "eval", "--fn", "hermite", "--nu", "1100", "--z", "0.5")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "SeriesOverflow" in err

    def test_overflow_after_lost_inner_digits_says_so(self, capsys):
        # Pfaff's inner series returns 3.09e-3 against the true 6.57e-32, so
        # its product with (1 - z)^52.3 overflows where the value is a float
        # (mpmath: 4.1444821581308e282); the message names the lost digits
        code, out, err = run(capsys, "eval", "--fn", "2f1", "--a", "-52.3", "--b", "1.7",
                             "--c", "60.5", "--z=-1e6")
        assert (code, out) == (3, "")
        assert err == (
            "nu-spectral: SeriesOverflow: 2F1 at z = -1000000.0 leaves the float range, "
            "but its inner series lost its digits (truncation estimate 7.4e+03)\n"
        )

    def test_phi_without_a_real_root_names_the_cause(self, capsys):
        # phi = 1 + x^2 does not vanish on the line, but chi'/chi = pi/phi
        # integrates to an arctan, which no reduction can hold
        code, out, err = run(capsys, "reduce",
                             "phi=1,0,1 psi_tilde=0,2 phi_tilde=eps,0,-1 interval=-inf,inf",
                             "--eps", "1")
        assert (code, out) == (3, "")
        assert err == (
            "nu-spectral: DoubleRootUnsupported: phi has no real root (negative "
            "discriminant): chi would need an arctan factor, which a "
            "FactorizedFunction cannot hold\n"
        )

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("--fn", "u", "--a", "-60", "--c", "3", "--z", "35"), (mpmath.hyperu, -60, 3, 35)),
            (("--fn", "hermite", "--nu", "40", "--z", "3"), (mpmath.hermite, 40, 3)),
        ],
        ids=["u", "hermite"],
    )
    def test_cancelling_u_polynomial_takes_another_route(self, capsys, argv, want):
        # the degree-n polynomial for U(-n, c, z) cancels to a few digits here
        code, out, err = run(capsys, "eval", *argv)
        assert (code, err) == (0, "")
        with mpmath.workdps(40):
            want = want[0](*want[1:])
        assert abs(float(self.parse(out)["value"]) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--fn", "u", "--a", "-400", "--c", "0.5", "--z", "9"),
            ("--fn", "hermite", "--nu", "2000", "--z", "3"),
            ("--fn", "u", "--a", "-62.5", "--c", "1", "--z", "1e5"),
        ],
        ids=["u", "hermite", "u-asymptotic"],
    )
    def test_u_beyond_the_float_range_is_domain_error(self, capsys, argv):
        # the values are 1.4e869, 2.7e3169 and 3.0e312: a term of the
        # polynomial overflows, and the large-z series' power z^-a
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "SeriesOverflow" in err

    def test_kummer_far_left_of_zero(self, capsys):
        # the reflected series overflows past z ~ -709; the large-argument
        # expansion gives the value
        code, out, err = run(
            capsys, "eval", "--fn", "1f1", "--a", "0.5", "--c", "1.5", "--z", "-800"
        )
        assert (code, err) == (0, "")
        want = float(mpmath.hyp1f1(0.5, 1.5, -800))
        assert abs(float(self.parse(out)["value"]) - want) <= 1e-12 * abs(want)

    def test_gamma_just_under_the_float_maximum(self, capsys):
        # the connection formula needs gamma(c) at c ~ 142.3, where the
        # Lanczos power is finite but its product with sqrt(2 pi) is not
        a, b, c, z = 2.504161070955451, -1.7761267237818936, 140.5138185854538, 0.9926304229234711
        code, out, err = run(capsys, "eval", "--fn", "2f1", "--a", repr(a), "--b", repr(b),
                             "--c", repr(c), "--z", repr(z))
        assert (code, err) == (0, "")
        want = float(mpmath.hyp2f1(a, b, c, z))
        assert abs(float(self.parse(out)["value"]) - want) <= 1e-12 * abs(want)

    def test_pole_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--fn", "2f1", "--a", "1", "--b", "2", "--c", "0", "--z", "0.5"
        )
        assert code == 3
        assert "Pole" in err


class TestVerify:
    def test_harmonic_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--potential", "harmonic")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["pass"] is True
        assert [c["pass"] for c in doc["checks"]] == [True, True, True]

    def test_morse_counts_match(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=5"
        )
        assert code == 0
        doc = json.loads(out)
        spectrum = doc["checks"][0]
        assert spectrum["analytic_count"] == 5
        assert spectrum["oracle_count"] == 5

    def test_capped_finite_well_compares_the_lowest_levels(self, capsys):
        # Morse Lambda = 10 holds 10 levels; --n-max 2 compares the lowest 3
        code, out, _ = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=10", "--n-max", "2"
        )
        assert code == 0, out
        spectrum = json.loads(out)["checks"][0]
        assert spectrum["pass"] is True
        assert spectrum["analytic_count"] == spectrum["oracle_count"] == 3
        assert spectrum["max_rel_err"] < 1e-8

    def test_deep_morse_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=20.5"
        )
        assert code == 0, out
        assert json.loads(out)["pass"] is True

    def test_harmonic_n30_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--potential", "harmonic", "--n-max", "30")
        assert code == 0, out
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("--potential", "harmonic", "--n-max", "60"),
            ("--potential", "morse", "--params", "Lambda=3.75"),
            ("--potential", "morse", "--params", "Lambda=6.75"),
            ("--potential", "rosen-morse2", "--params", "v0=62,mu=0.35"),
        ],
        ids=["harmonic-60", "morse-3.75", "morse-6.75", "rosen-morse2-62-0.35"],
    )
    def test_default_box_holds_every_level(self, capsys, argv):
        # a wide harmonic ladder, Morse tops 1/16 below the plateau, and a
        # Rosen-Morse II top 0.0029 below it, all under the default settings
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0, out
        assert json.loads(out)["pass"] is True

    def test_spectrum_check_reports_the_oracle(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=3.75"
        )
        assert code == 0, out
        doc = json.loads(out)
        spectrum = doc["checks"][0]
        assert 0 <= spectrum["worst_n"] < spectrum["analytic_count"] == 4
        assert 0 < spectrum["max_error_estimate"] < 1e-3
        lo, hi = spectrum["box"]
        # the top level decays over 20 units past x = 3, beyond the default -2:12
        assert hi > 12.0
        assert doc["grid"] == {"lo": lo, "hi": hi, "points": spectrum["basis"]}
        assert spectrum["basis"] <= 1200

    @pytest.mark.parametrize(
        "name,params,n_max",
        [("morse", {"Lambda": 5}, None), ("harmonic", {}, 8), ("rosen_morse2", {"v0": 62, "mu": 0.35}, None)],
        ids=["morse-5", "harmonic-8", "rosen-morse2-62-0.35"],
    )
    def test_every_check_names_its_worst_level(self, capsys, name, params, n_max):
        """worst_n of the normalization and residual checks is the argmax of
        the same per-state figures computed in process."""
        argv = ["verify", "--potential", name.replace("_", "-")]
        if params:
            argv += ["--params", ",".join(f"{k}={v}" for k, v in params.items())]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
        checks = {c["name"]: c for c in json.loads(out)["checks"]}

        from nu_spectral.potentials import (
            WELLS,
            bound_spectrum,
            normalization_defect,
            wavefunction_residual,
        )

        spec = WELLS[name](**params)
        states = bound_spectrum(spec, n_max=n_max)
        lo, hi, _ = spec.fd_box
        xs = [lo + (hi - lo) * (0.25 + 0.5 * i / 8.0) for i in range(9)]
        defects = [normalization_defect(spec, st) for st in states]
        residuals = [wavefunction_residual(spec, st.sampler, st.eps, xs) for st in states]
        for check, key, values in (
            ("normalization", "max_defect", defects),
            ("ode_residual", "max_residual", residuals),
        ):
            worst = max(range(len(values)), key=values.__getitem__)
            assert checks[check]["worst_n"] == states[worst].n
            assert checks[check][key] == values[worst] == max(values)
        assert "worst_n" in checks["spectrum_vs_oracle"]

    @pytest.mark.parametrize("grid", ["8:12:1200", "-14:-10:1200"], ids=["plateau", "wall"])
    def test_starting_box_off_the_well(self, capsys, grid):
        # both boxes lie on a slope of the Morse well (minimum at x = 0); the
        # oracle walks down the slope to the well and sizes its box from there
        code, out, _ = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=5", f"--grid={grid}"
        )
        assert code == 0, out
        doc = json.loads(out)
        assert doc["pass"] is True
        lo, hi = doc["checks"][0]["box"]
        assert lo < 0.0 < hi

    def test_coarse_grid_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--potential",
            "morse",
            "--params",
            "Lambda=5",
            "--grid=-2:12:41",
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["pass"] is False
        spectrum = doc["checks"][0]
        assert spectrum["pass"] is False
        assert "GridTooCoarse" in spectrum["error"]

    @pytest.mark.filterwarnings("error")
    def test_huge_starting_grid_reported(self, capsys):
        # no numpy warning on the way: the box is too wide for the basis
        code, out, err = run(
            capsys, "verify", "--potential", "morse", "--params", "Lambda=5",
            "--grid=-1e300:1e300:1200",
        )
        assert (code, err) == (4, "")
        spectrum = json.loads(out)["checks"][0]
        assert spectrum["pass"] is False
        assert spectrum["error"].startswith("GridTooCoarse: the starting box [-1e+300, 1e+300]")
        assert "\n" not in spectrum["error"]

    def test_every_check_reports_a_domain_error(self, capsys, monkeypatch):
        from nu_spectral.errors import NoConvergence

        def fails(*args):
            raise NoConvergence("probe")

        monkeypatch.setattr("nu_spectral.potentials.wavefunction_residual", fails)
        code, out, _ = run(capsys, "verify", "--potential", "harmonic")
        assert code == 4
        checks = json.loads(out)["checks"]
        assert [c["pass"] for c in checks] == [True, True, False]
        assert checks[2] == {"name": "ode_residual", "pass": False, "error": "NoConvergence: probe"}

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NU_SPECTRAL_TOL", "1e-15")
        code, out, _ = run(capsys, "verify", "--potential", "harmonic")
        assert code == 4
        doc = json.loads(out)
        assert doc["tolerances"]["residual"] == 1e-15
        assert doc["pass"] is False

    def test_env_tolerance_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("NU_SPECTRAL_TOL", "tight")
        code, _, err = run(capsys, "verify", "--potential", "harmonic")
        assert code == 2
        assert "NU_SPECTRAL_TOL" in err

    def test_negative_n_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--potential", "harmonic", "--n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "nu-spectral: --n-max must be at least 0, got -1\n"

    @pytest.mark.parametrize("grid", ["-inf:inf:100", "0:inf:100", "-1e308:1e308:100"])
    def test_grid_span_beyond_floats_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--potential", "harmonic", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert err.endswith("bad grid: grid endpoints and their span must be finite floats\n")

    def test_bad_grid_flag_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--potential", "harmonic", "--grid", "0:1"
        )
        assert code == 2
        assert "lo:hi:points" in err


class TestImports:
    def test_scipy_waits_for_the_oracle(self):
        # the sinc-DVR oracle needs numpy alone, so no subcommand loads scipy;
        # eval and reduce run exact or pure-Python layers, so they load no
        # numpy either; only eval evaluates special functions, so only eval
        # loads hyper
        for argv, numpy_loaded in (
            (["eval", "--fn", "hermite", "--nu", "3", "--z", "2"], False),
            (["reduce", HARMONIC_GHE, "--eps", "3"], False),
            (["verify", "--potential", "harmonic"], True),
            (["verify", "--potential", "rosen-morse2", "--params", "v0=4,mu=0.5"], True),
            (["solve", "--potential", "morse", "--params", "Lambda=5", "--with-oracle"], True),
        ):
            probe = (
                "import sys, nu_spectral; "
                "before = 'scipy' in sys.modules or 'numpy' in sys.modules; "
                "from nu_spectral.cli import main; "
                f"code = main({argv!r}); "
                "print(code, before, 'scipy' in sys.modules, 'numpy' in sys.modules, "
                "'nu_spectral.hyper' in sys.modules)"
            )
            proc = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, check=True, text=True
            )
            hyper_loaded = argv[0] == "eval"
            assert proc.stdout.splitlines()[-1] == (
                f"0 False False {numpy_loaded} {hyper_loaded}"
            ), argv


    def test_blas_threads_are_pinned_before_numpy_loads(self):
        # importing the CLI sets one BLAS thread where the caller set none,
        # before numpy (and its BLAS) reads the variables; a caller's own
        # setting is left alone
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        probe = (
            "import os, sys, nu_spectral.cli; "
            f"print('numpy' in sys.modules, [os.environ.get(n) for n in {names!r}])"
        )
        clean = {k: v for k, v in os.environ.items() if k not in names}
        for preset, want in (({}, "['1', '1', '1']"), ({"OMP_NUM_THREADS": "2"}, "['1', '2', '1']")):
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                                  text=True, env={**clean, **preset})
            assert proc.stdout.splitlines()[-1] == f"False {want}", preset

class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--potential", "harmonic", "--frobnicate"])
        assert exc.value.code == 2
