"""End-to-end tests of the command-line interface.

Most cases call cli.main in process and capture stdout; subprocess cases
exercise the module entry point for real and check which modules each
subcommand loads.
"""

import ast
import collections
import importlib
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import freeconv
from freeconv import catalog, cli, idclass, ncpart, transforms

SEMI = json.dumps({"type": "law", "name": "semicircle", "params": [0, 1]})
WPLUS = json.dumps({"type": "law", "name": "semicircle", "params": [2, 1]})
MP1 = json.dumps({"type": "law", "name": "marchenko_pastur", "params": [1]})
MP2 = json.dumps({"type": "law", "name": "marchenko_pastur", "params": [2]})
QC = json.dumps({"type": "law", "name": "quarter_circle", "params": [1]})
CHI1 = json.dumps({"type": "law", "name": "chi_squared_1"})
BERN = json.dumps({"type": "atomic", "atoms": [[-1, "1/2"], [1, "1/2"]]})
ATOMS13 = json.dumps({"type": "atomic", "atoms": [[1, "1/2"], [3, "1/2"]]})


def run_cli(capsys, *args):
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measure-spec files


class TestSpecIO:
    def test_atomic_fraction_round_trip(self):
        obj = {"type": "atomic", "atoms": [["-1/2", "1/3"], [2, "2/3"]]}
        mu = cli.parse_measure_spec_obj(obj)
        assert mu.atoms == ((Fraction(-1, 2), Fraction(1, 3)), (2, Fraction(2, 3)))
        assert cli.serialize_measure_spec(mu) == obj

    def test_law_round_trip(self):
        obj = {
            "type": "law",
            "name": "semicircle",
            "params": ["1/2", "3/2"],
            "scale": 2,
            "offset": "-1/3",
        }
        mu = cli.parse_measure_spec_obj(obj)
        assert mu.law == "semicircle"
        assert mu.params == (Fraction(1, 2), Fraction(3, 2))
        assert cli.serialize_measure_spec(mu) == obj

    def test_grid_round_trip(self):
        xs = [0.0, 0.5, 1.0, 1.5, 2.0]
        dens = [0.5, 0.5, 0.5, 0.5, 0.5]
        obj = {"type": "grid", "xs": xs, "densities": dens, "atoms": []}
        mu = cli.parse_measure_spec_obj(obj)
        assert cli.serialize_measure_spec(mu) == obj

    def test_squared_grid_round_trip(self):
        # push_square admits its grid at mass tolerance 1e-2 (this one is off
        # by 5.6e-16); the tolerance is no field, so the copy read back at
        # the default 1e-6 is the same spec
        mu = catalog.push_square(catalog.MeasureSpec.grid([-1, 0, 1], [0, 1, 0]))
        back = cli.parse_measure_spec_obj(cli.serialize_measure_spec(mu))
        assert back == mu and hash(back) == hash(mu)

    def test_sequence_round_trips(self):
        for kind in ("moments", "free_cumulants"):
            obj = {"type": kind, "values": [0, 1, 0, 2]}
            mu = cli.parse_measure_spec_obj(obj)
            assert cli.serialize_measure_spec(mu) == obj

    def test_bad_normalization_rejected(self):
        obj = {"type": "atomic", "atoms": [[1, 0.5], [2, 0.4]]}
        with pytest.raises(cli.SpecError, match="weights sum to 0.9"):
            cli.parse_measure_spec_obj(obj)

    def test_tiny_normalization_slack_rescaled(self):
        obj = {"type": "atomic", "atoms": [[1, 0.5], [2, 0.5000000004]]}
        mu = cli.parse_measure_spec_obj(obj)
        assert math.isclose(sum(w for _, w in mu.atoms), 1.0, rel_tol=0, abs_tol=1e-15)

    def test_exact_weights_kept_exact(self):
        obj = {"type": "atomic", "atoms": [[1, "1/3"], [2, "2/3"]]}
        mu = cli.parse_measure_spec_obj(obj)
        assert mu.atoms == ((1, Fraction(1, 3)), (2, Fraction(2, 3)))

    def test_field_errors(self):
        with pytest.raises(cli.SpecError, match="type"):
            cli.parse_measure_spec_obj({"type": "laws"})
        with pytest.raises(cli.SpecError, match="atoms"):
            cli.parse_measure_spec_obj({"type": "atomic", "atoms": [[1]]})
        with pytest.raises(cli.SpecError, match="finite"):
            cli.parse_measure_spec_obj(
                {"type": "moments", "values": [float("nan")]}
            )
        with pytest.raises(cli.SpecError, match="boolean"):
            cli.parse_measure_spec_obj({"type": "moments", "values": [True]})
        with pytest.raises(cli.SpecError, match="p/q"):
            cli.parse_measure_spec_obj({"type": "moments", "values": ["0.5"]})

    def test_inline_and_missing_file(self, tmp_path):
        mu = cli.parse_measure_spec(SEMI)
        assert mu.law == "semicircle"
        with pytest.raises(cli.SpecError, match="cannot read"):
            cli.parse_measure_spec(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(cli.SpecError, match="invalid JSON"):
            cli.parse_measure_spec(str(bad))


class TestTripletIO:
    def test_round_trip_with_grid(self):
        obj = {
            "eta": "1/2",
            "a": 0,
            "levy": {
                "atoms": [[0.5, 0.3], [2.0, 0.7]],
                "grid": {"xs": [1.0, 2.0, 3.0], "densities": [0.1, 0.2, 0.1]},
            },
        }
        t = cli.parse_triplet(json.dumps(obj))
        assert t.eta == Fraction(1, 2)
        assert t.levy.atoms == ((0.5, 0.3), (2.0, 0.7))
        assert cli.serialize_triplet(t) == obj

    def test_validation(self):
        with pytest.raises(cli.SpecError, match="eta"):
            cli.parse_triplet(json.dumps({"a": 0, "levy": None}))
        with pytest.raises(cli.SpecError):
            cli.parse_triplet(json.dumps({"eta": 0, "a": -1, "levy": None}))
        with pytest.raises(cli.SpecError, match="charge 0"):
            cli.parse_triplet(
                json.dumps({"eta": 0, "a": 0, "levy": {"atoms": [[0, 1]]}})
            )


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert "subcommand" in out

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "bogus")
        assert code == 2

    def test_invalid_spec_is_2(self, capsys):
        bad = json.dumps({"type": "atomic", "atoms": [[1, 0.4]]})
        code, _, err = run_cli(capsys, "moments", bad, "--order", "2")
        assert code == 2
        assert "weights sum" in err

    def test_computation_error_is_1(self, capsys):
        # the series route of a product with a zero first moment; the
        # message names the flag that picks the other route
        code, out, err = run_cli(capsys, "convolve", "--op", "mult", "--method", "series",
                                 "--a", SEMI, "--b", MP1, "--order", "4")
        assert (code, out) == (1, "")
        assert err == "error: S-transform route needs nonzero first moments; use --method dp\n"

    def test_free_power_below_one_needs_fid(self, capsys):
        code, out, err = run_cli(capsys, "power", SEMI, "--t", "1/2", "--order", "4")
        assert (code, out) == (2, "")
        assert err.startswith("error: --t: the free power needs t >= 1, got 1/2")
        assert "pass --fid" in err

    def test_odd_commutator_order_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_measure_spec", None)  # fails if a spec is read
        code, out, err = run_cli(capsys, "commutator", "--a", SEMI, "--b", SEMI, "--order", "7")
        assert (code, out) == (2, "")
        assert err == "error: --order: the commutator needs an even order, got 7\n"

    def test_density_of_sequence_spec_is_1(self, capsys):
        seq = json.dumps({"type": "moments", "values": [0, 1]})
        code, _, err = run_cli(capsys, "density", seq)
        assert code == 1
        assert "density" in err


class TestNonFiniteOutput:
    # moments this large overflow the cumulant recursion to -inf and nan
    HUGE = json.dumps({"type": "moments", "values": [1e200, 1e200, 1e200]})

    @pytest.mark.parametrize("out", ["table", "csv", "json"])
    def test_overflowed_cumulants_are_an_error(self, capsys, out):
        code, stdout, err = run_cli(
            capsys, "cumulants", self.HUGE, "--order", "3", "--out", out
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and "inf" in err

    def test_overflowed_convolution_json_is_an_error(self, capsys):
        code, stdout, err = run_cli(
            capsys, "convolve", "--op", "add", "--a", self.HUGE, "--b", self.HUGE,
            "--order", "3",
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: free_cumulants spec has a non-finite value")

    @pytest.mark.parametrize(
        "argv,where",
        [
            (["power", SEMI, "--t", "nan"], "--t"),
            (["power", SEMI, "--t", "1e400"], "--t"),
            (["law", "semicircle", "--params", "nan,1"], "params"),
            (["law", "semicircle", "--params", "0,1", "--scale", "inf"], "scale"),
            (["law", "semicircle", "--params", "0,1", "--offset", "nan"], "offset"),
            (["density", SEMI, "--grid=0:inf:5"], "grid needs"),
            (["density", SEMI, "--grid=-1e308:1e308:5"], "grid needs"),
        ],
    )
    def test_non_finite_typed_number_is_a_usage_error(self, capsys, argv, where):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {where}")
        assert caught == []

    @pytest.mark.parametrize(
        "argv,where,text",
        [
            (["power", SEMI, "--t", "1/0"], "--t", "1/0"),
            (["power", SEMI, "--t", "3/0", "--conv", "boolean"], "--t", "3/0"),
            (["law", "semicircle", "--params", "0,1/0"], "params", "1/0"),
            (["moments", json.dumps({"type": "atomic", "atoms": [[0, "1/0"], [1, 1]]})],
             "atoms[0][1]", "1/0"),
            (["moments", json.dumps({"type": "law", "name": "semicircle", "params": [0, "1/0"]})],
             "params[1]", "1/0"),
            (["check", "--regular", json.dumps({"eta": "1/0", "a": 0})], "eta", "1/0"),
        ],
        ids=["power", "boolean_power", "law_params", "atom_weight", "spec_params", "triplet"],
    )
    def test_zero_denominator_is_a_usage_error(self, capsys, argv, where, text):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err == f"error: {where}: fraction {text!r} has a zero denominator\n"

    @pytest.mark.parametrize("field", ["xs", "densities"])
    def test_grid_entry_past_the_float_range_is_a_usage_error(self, capsys, field):
        grid = {"type": "grid", "xs": [0, 1], "densities": [1, 1]}
        grid[field] = [0.5, f"{10**400}/1"]
        code, stdout, err = run_cli(capsys, "moments", json.dumps(grid), "--order", "2")
        assert (code, stdout) == (2, "")
        assert err == "error: grid abscissas and densities must be finite\n"

    @pytest.mark.parametrize("command", ["moments", "cumulants"])
    @pytest.mark.parametrize("out", ["table", "csv"])
    def test_exact_value_past_the_float_range_prints_nothing(self, capsys, command, out):
        # the second value, 10^400, is the first a float cannot hold
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0, 1],
                           "scale": f"{10**200}/1"})
        code, stdout, err = run_cli(capsys, command, spec, "--order", "4", "--out", out)
        assert (code, stdout) == (1, "")
        assert err.startswith("error:") and "--out json" in err
        code, stdout, _ = run_cli(capsys, command, spec, "--order", "4", "--out", "json")
        assert code == 0
        assert json.loads(stdout)["values"][:2] == [0, 10**400]

    def test_scan_of_a_variance_past_the_float_range_names_it(self, capsys):
        # the semicircle's R-transform at scale 10^200 has the variance 10^400
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0, 1],
                           "scale": f"{10**200}/1"})
        code, stdout, err = run_cli(capsys, "scan", spec, "--t", "1")
        assert (code, stdout) == (1, "")
        assert err == "error: variance must be finite and in the float range\n"

    def test_scan_of_a_cumulant_past_the_float_range_names_it(self, capsys):
        # an atom at 10^200 gives free cumulants past 10^400 from order 2 on
        spec = json.dumps({"type": "atomic", "atoms": [[f"{10**200}/1", "1/2"], [0, "1/2"]]})
        code, stdout, err = run_cli(capsys, "scan", spec, "--t", "1")
        assert (code, stdout) == (1, "")
        assert err == "error: free cumulant 2 must be finite and in the float range\n"

    def test_non_finite_default_grid_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.GRID_ENV, "0:inf:5")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, "density", SEMI)
        assert (code, stdout, caught) == (2, "", [])
        assert "with finite ends" in err

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_non_finite_density_is_refused(self, capsys, out):
        with pytest.raises(ValueError, match="non-finite"):
            cli._emit_density([0.0, 1.0], [0.5, math.nan], [], out)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("at", ["inf,1", "nan,1", "0,-inf", "0,nan"])
    def test_non_finite_transform_point_is_a_usage_error(self, capsys, at):
        code, stdout, err = run_cli(capsys, "transform", SEMI, "--which", "F", "--at", at)
        assert code == 2
        assert stdout == ""
        assert "--at must be finite" in err

    def test_non_finite_transform_value_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(transforms, "cauchy", lambda mu, z: complex(math.nan, 1.0))
        code, stdout, err = run_cli(capsys, "transform", SEMI, "--which", "F", "--at", "0.5,1")
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_moment_overflow_names_the_scale(self, capsys):
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0, 1],
                           "scale": 1e100})
        code, stdout, err = run_cli(capsys, "moments", spec, "--order", "4")
        assert (code, stdout) == (1, "")
        assert err.startswith("error: moments of the law spec's pushforward overflow")
        assert "scale 1e+100" in err

    def test_overflowed_power_is_refused_before_json(self, capsys):
        code, stdout, err = run_cli(
            capsys, "power", SEMI, "--t", "1e308", "--conv", "boolean", "--order", "4"
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: moments spec has a non-finite value")

    @pytest.mark.parametrize("times", ["nan", "0.5,inf", "0.5,-inf"])
    def test_non_finite_scan_time_is_a_usage_error(self, capsys, monkeypatch, times):
        monkeypatch.setattr(idclass, "positivity_scan", None)
        code, stdout, err = run_cli(capsys, "scan", WPLUS, "--t", times)
        assert code == 2
        assert stdout == ""
        assert "times must be finite" in err

    @pytest.mark.parametrize("times", ["0", "-1,2", "-1:1:0.5", "0:1:0.5"])
    def test_non_positive_scan_time_is_a_usage_error(self, capsys, monkeypatch, times):
        monkeypatch.setattr(idclass, "positivity_scan", None)
        code, stdout, err = run_cli(capsys, "scan", WPLUS, f"--t={times}")
        assert code == 2
        assert stdout == ""
        assert "scan times must be positive" in err

    def scan_returning(self, monkeypatch, *points):
        result = idclass.ScanResult(points, 1e-3)
        monkeypatch.setattr(idclass, "positivity_scan", lambda *a, **k: result)

    @pytest.mark.parametrize(
        "point",
        [
            idclass.ScanPoint(0.5, math.nan, (), True),
            idclass.ScanPoint(0.5, -math.inf, (), True),
            idclass.ScanPoint(0.5, 0.25, (0.0, math.inf), True),
            idclass.ScanPoint(0.5, None, (math.nan,), False),
        ],
    )
    @pytest.mark.parametrize("out", ["table", "json"])
    def test_non_finite_scan_output_is_refused(self, capsys, monkeypatch, point, out):
        self.scan_returning(monkeypatch, idclass.ScanPoint(0.25, 0.1, (), True), point)
        code, stdout, err = run_cli(capsys, "scan", WPLUS, "--t", "0.25,0.5", "--out", out)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:")

    def test_missing_scan_edge_prints_empty(self, capsys, monkeypatch):
        self.scan_returning(monkeypatch, idclass.ScanPoint(0.5, None, (), False))
        code, stdout, _ = run_cli(capsys, "scan", WPLUS, "--t", "0.5")
        assert code == 0
        assert stdout.splitlines()[1] == "0.5,,,False"


# ---------------------------------------------------------------------------
# subcommands


class TestLaw:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "law")
        assert code == 0
        for name in (
            "semicircle",
            "marchenko_pastur",
            "quarter_circle",
            "symmetric_bernoulli",
            "symmetric_beta",
            "beta_1a",
            "chi_squared_1",
            "commutator_ww",
        ):
            assert name in out

    def test_listing_names_the_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "law")
        assert code == 0
        assert out.splitlines() == [
            "beta_1a  params: a",
            "chi_squared_1  params: (none)",
            "commutator_ww  params: (none)",
            "marchenko_pastur  params: rate",
            "quarter_circle  params: sigma",
            "semicircle  params: mean,variance",
            "symmetric_bernoulli  params: (none)",
            "symmetric_beta  params: (none)",
        ]

    def test_emit_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "law", "semicircle", "--params", "1/2,3/2", "--scale", "2"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "type": "law",
            "name": "semicircle",
            "params": ["1/2", "3/2"],
            "scale": 2,
            "offset": 0,
        }

    def test_bad_params_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "law", "semicircle", "--params", "1")
        assert code == 2
        assert "semicircle" in err


class TestMomentsAndCumulants:
    def test_semicircle_moments_table(self, capsys):
        code, out, _ = run_cli(capsys, "moments", SEMI, "--order", "6")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert [r[1] for r in rows] == ["0", "1", "0", "2", "0", "5"]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "moments", MP1, "--order", "3", "--out", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == ["1,1", "2,2", "3,5"]

    def test_free_cumulants_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "cumulants", MP2, "--order", "4", "--out", "json"
        )
        assert code == 0
        assert json.loads(out) == {"kind": "free_cumulant", "values": [2, 2, 2, 2]}

    def test_boolean_cumulants(self, capsys):
        code, out, _ = run_cli(
            capsys, "cumulants", SEMI, "--order", "4", "--kind", "boolean",
            "--out", "json",
        )
        assert code == 0
        assert json.loads(out)["values"] == [0, 1, 0, 1]

    def test_float_semicircle_free_cumulants_vanish_beyond_two(self, capsys):
        # read from the R-transform record; the inversion of the float
        # moments printed -8.9e-16 ... 4.5e-14 at orders 5-8
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0.3, 1.7]})
        code, out, _ = run_cli(capsys, "cumulants", spec, "--order", "8", "--kind", "free")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert [r[1] for r in rows] == ["0.3", "1.7"] + ["0"] * 6
        code, out, _ = run_cli(capsys, "cumulants", spec, "--order", "8", "--out", "json")
        assert json.loads(out)["values"] == [0.3, 1.7] + [0.0] * 6

    def test_semicircle_with_an_int_mean_has_float_moments(self, capsys):
        # the table is the NC recursion of the record's float cumulants, as
        # free_cumulants_of reads them; the int mean once made m_1 an exact 0
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0, 1.5]})
        for command, want in (("moments", [0.0, 1.5, 0.0, 4.5]), ("cumulants", [0.0, 1.5, 0.0, 0.0])):
            code, out, _ = run_cli(capsys, command, spec, "--order", "4", "--out", "json")
            assert code == 0
            values = json.loads(out)["values"]
            assert values == want and [type(v) for v in values] == [float] * 4
        table = catalog.catalog_moments("semicircle", (0, 1.5), 6).values
        assert [type(v) for v in table] == [float] * 6
        assert [v.hex() for v in table] == [v.hex() for v in (0.0, 1.5, 0.0, 4.5, 0.0, 16.875)]

    def test_float_semicircle_commutator_matches_the_exact_route(self, capsys):
        def commutator(a, b):
            specs = [json.dumps({"type": "law", "name": "semicircle", "params": p})
                     for p in (a, b)]
            code, out, _ = run_cli(capsys, "commutator", "--a", specs[0], "--b", specs[1],
                                   "--order", "16", "--out", "json")
            assert code == 0
            return json.loads(out)["values"]

        got = commutator([0.3, 1.7], [-1.2, 0.6])
        want = commutator(["3/10", "17/10"], ["-6/5", "3/5"])
        assert not any(isinstance(v, float) for v in want)  # exact values
        want = [Fraction(v) for v in want]
        for g, w in zip(got, want):
            assert abs(Fraction(g) - w) <= Fraction(1e-9) * abs(w)

    def test_law_cumulants_past_the_conversion_cap_exit_2(self, capsys):
        spec = json.dumps({"type": "law", "name": "semicircle", "params": [0.3, 1.7]})
        code, _, err = run_cli(capsys, "cumulants", spec, "--order", "21")
        assert code == 2
        assert "free_cumulants_from_moments capped at order 20, got 21" in err


class TestConvolve:
    def test_free_add_semicircles(self, capsys):
        code, out, _ = run_cli(
            capsys, "convolve", "--op", "add", "--a", SEMI, "--b", SEMI,
            "--order", "6",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "free_cumulants"
        assert obj["values"] == [0, 2, 0, 0, 0, 0]

    def test_boolean_add(self, capsys):
        code, out, _ = run_cli(
            capsys, "convolve", "--op", "boolean", "--a", SEMI, "--b", SEMI,
            "--order", "4",
        )
        assert code == 0
        assert json.loads(out)["type"] == "moments"

    def test_mult(self, capsys):
        code, out, _ = run_cli(
            capsys, "convolve", "--op", "mult", "--a", MP1, "--b", MP2,
            "--order", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "moments"
        assert obj["values"][0] == 2

    def test_density_needs_add(self, capsys):
        code, _, err = run_cli(
            capsys, "convolve", "--op", "mult", "--a", MP1, "--b", MP2,
            "--density", "--grid", "0:1:5",
        )
        assert code == 2
        assert "add" in err

    @pytest.mark.parametrize("flag", ["--out=csv", "--grid=-1:1:5"])
    def test_density_flags_need_density(self, capsys, monkeypatch, flag):
        # without --density both flags were ignored: the spec printed, exit 0
        monkeypatch.setattr(cli, "parse_measure_spec", None)  # fails if a spec is read
        code, out, err = run_cli(
            capsys, "convolve", "--op", "add", "--a", SEMI, "--b", SEMI, "--order", "4", flag,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {flag.split('=')[0]} takes effect only with --density\n"

    def test_density_needs_grid(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.GRID_ENV, raising=False)
        code, _, err = run_cli(
            capsys, "convolve", "--op", "add", "--a", SEMI, "--b", SEMI,
            "--density",
        )
        assert code == 2
        assert cli.GRID_ENV in err

    def test_density_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "convolve", "--op", "add", "--a", SEMI, "--b", SEMI,
            "--density", "--grid=-3.2:3.2:161",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,density"
        mid = dict(
            (float(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]
        )
        # the free sum of two standard semicircles is semicircle(0, 2)
        assert math.isclose(mid[0.0], math.sqrt(8) / (4 * math.pi), abs_tol=1e-3)


class TestPower:
    def test_fraction_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "power", MP1, "--t", "3/2", "--order", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["values"] == ["3/2", "3/2", "3/2", "3/2"]

    def test_fid_small_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", SEMI, "--t", "1/4", "--order", "4", "--fid"
        )
        assert code == 0
        assert json.loads(out)["values"] == [0, "1/4", 0, 0]

    def test_boolean_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", SEMI, "--t", "2", "--order", "4", "--conv", "boolean"
        )
        assert code == 0
        assert json.loads(out)["type"] == "moments"


class TestDensity:
    def test_csv_header_and_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "density", SEMI, "--grid=-2:2:5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,density"
        vals = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert math.isclose(vals[0.0], 1 / math.pi, rel_tol=1e-12)
        assert vals[2.0] == 0.0

    def test_env_default_grid(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.GRID_ENV, "-2:2:5")
        code, out, _ = run_cli(capsys, "density", SEMI)
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.GRID_ENV, "-2:2:5")
        code, out, _ = run_cli(capsys, "density", SEMI, "--grid=-1:1:3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_default_window_from_support(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.GRID_ENV, raising=False)
        code, out, _ = run_cli(capsys, "density", QC)
        assert code == 0
        xs = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
        assert xs[0] == 0.0 and xs[-1] == 2.0

    def test_default_window_of_a_reflected_law(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.GRID_ENV, raising=False)
        spec = json.dumps({"type": "law", "name": "quarter_circle", "params": [1],
                           "scale": -2, "offset": 1})
        code, out, _ = run_cli(capsys, "density", spec)
        assert code == 0
        rows = [[float(v) for v in l.split(",")] for l in out.splitlines()[1:]]
        assert len(rows) == 401
        assert rows[0][0] == -3.0 and rows[-1][0] == 1.0
        assert rows[200] == [-1.0, pytest.approx(math.sqrt(3) / (2 * math.pi))]

    def test_unbounded_law_needs_a_grid(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.GRID_ENV, raising=False)
        chi = json.dumps({"type": "law", "name": "chi_squared_1", "scale": -1})
        code, out, err = run_cli(capsys, "density", chi)
        assert code == 2
        assert out == ""
        assert "no bounded default window" in err

    def test_grid_spec_passthrough(self, capsys):
        spec = json.dumps(
            {
                "type": "grid",
                "xs": [0.0, 1.0, 2.0],
                "densities": [0.5, 0.5, 0.5],
                "atoms": [],
            }
        )
        code, out, _ = run_cli(capsys, "density", spec)
        assert code == 0
        assert out.splitlines()[1] == "0,0.5"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", SEMI, "--grid=-2:2:3", "--out", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"xs", "density", "atoms"}


class TestCommutatorSquareFactor:
    def test_commutator_cumulants(self, capsys):
        code, out, _ = run_cli(
            capsys, "commutator", "--a", SEMI, "--b", SEMI, "--order", "6"
        )
        assert code == 0
        assert json.loads(out)["values"] == [0, 2, 0, 2, 0, 2]

    def test_square_of_semicircle_is_mp(self, capsys):
        code, out, _ = run_cli(capsys, "square", SEMI)
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "law" and obj["name"] == "marchenko_pastur"

    def test_factor_main3(self, capsys):
        code, out, _ = run_cli(capsys, "factor-main3", SEMI, "--order", "8")
        assert code == 0
        assert json.loads(out)["values"] == [1, 0, 0, 0]

    def test_factor_main3_needs_symmetry(self, capsys):
        code, _, err = run_cli(capsys, "factor-main3", MP1, "--order", "8")
        assert code == 1
        assert "odd" in err or "symmetric" in err


class TestCheck:
    def test_kurtosis_fail_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kurtosis", QC)
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "fail"
        assert math.isclose(obj["statistic"], -0.0233443, abs_tol=1e-6)

    def test_kurtosis_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kurtosis", SEMI)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_kurtosis_reads_four_moments(self, capsys):
        spec = lambda n: json.dumps({"type": "moments", "values": [1, 2, 5, 14, 42, 132][:n]})
        assert run_cli(capsys, "check", "--kurtosis", spec(4)) == run_cli(
            capsys, "check", "--kurtosis", spec(6))
        code, _, err = run_cli(capsys, "check", "--kurtosis", spec(4), "--order", "4")
        assert code == 2 and "--order" in err

    def test_kurtosis_degenerate(self, capsys):
        point = json.dumps({"type": "atomic", "atoms": [[2, 1]]})
        code, out, _ = run_cli(capsys, "check", "--kurtosis", point)
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "degenerate" and obj["statistic"] is None

    def test_regular_rejects_semicircular_part(self, capsys, tmp_path):
        path = tmp_path / "wplus.json"
        path.write_text(json.dumps({"eta": 1, "a": 1, "levy": None}))
        code, out, _ = run_cli(capsys, "check", "--regular", str(path))
        assert code == 1
        obj = json.loads(out)
        assert obj["representable"] is False
        assert "semicircular" in obj["reason"]

    def test_regular_accepts_compound_poisson(self, capsys, tmp_path):
        path = tmp_path / "cfp.json"
        path.write_text(
            json.dumps(
                {
                    "eta": 0.5,
                    "a": 0,
                    "levy": {"atoms": [[0.5, 0.3], [2, 0.7]], "grid": None},
                }
            )
        )
        code, out, _ = run_cli(capsys, "check", "--regular", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["representable"] and obj["free_regular"]

    def test_regular_negative_drift(self, capsys):
        spec = json.dumps(
            {"eta": -5, "a": 0, "levy": {"atoms": [[1, 1]], "grid": None}}
        )
        code, out, _ = run_cli(capsys, "check", "--regular", spec)
        assert code == 1
        obj = json.loads(out)
        assert obj["representable"] and not obj["free_regular"]

    @pytest.mark.parametrize("grid", [
        {"xs": [1, 10**400], "densities": [1, 1]},
        {"xs": [1, 2], "densities": [10**400, 1]},
    ])
    def test_regular_refuses_grid_entries_past_the_float_range(self, capsys, grid):
        spec = json.dumps({"eta": 0, "a": 0, "levy": {"grid": grid}})
        code, out, err = run_cli(capsys, "check", "--regular", spec)
        assert code == 2 and out == ""
        assert "finite" in err


class TestScan:
    def test_wplus_edges(self, capsys):
        code, out, _ = run_cli(capsys, "scan", WPLUS, "--t", "0.25,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,left_edge,atoms,converged"
        assert lines[-1] == "regular evidence: no"
        for line in lines[1:-1]:
            t, edge = (float(v) for v in line.split(",")[:2])
            assert abs(edge - (2 * t - 2 * math.sqrt(t))) < 1e-3

    def test_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "scan", WPLUS, "--t", "0.5:1:0.25")
        assert code == 0
        ts = [float(l.split(",")[0]) for l in out.splitlines()[1:-1]]
        assert ts == [0.5, 0.75, 1.0]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", WPLUS, "--t", "0.5", "--out", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["regular_evidence"] is False
        assert len(obj["points"]) == 1

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scan", WPLUS, "--t", "1:0:0.5")
        assert code == 2

    def scan_rows(self, capsys, spec, times, *flags):
        code, out, _ = run_cli(capsys, "scan", json.dumps(spec), "--t", times, *flags)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        return [(float(t), float(edge), atoms, conv == "True") for t, edge, atoms, conv in rows]

    @pytest.mark.parametrize(
        "spec, edge",
        [
            # MP(1.7)^{boxplus t} is MP(1.7 t): an atom at 0 below rate 1
            ({"type": "law", "name": "marchenko_pastur", "params": [1.7]},
             lambda t: (1 - math.sqrt(1.7 * t)) ** 2 if 1.7 * t >= 1 else 0.0),
            ({"type": "law", "name": "semicircle", "params": [0.5, 1.3]},
             lambda t: 0.5 * t - 2 * math.sqrt(1.3 * t)),
        ],
        ids=["marchenko_pastur", "semicircle"],
    )
    def test_law_edges_from_the_law_r_transform(self, capsys, spec, edge):
        rows = self.scan_rows(capsys, spec, "0.5,1,2")
        assert [t for t, *_ in rows] == [0.5, 1.0, 2.0]
        for t, left, atoms, converged in rows:
            assert converged
            assert abs(left - edge(t)) < 1e-3
            assert atoms == ("0" if spec["name"] == "marchenko_pastur" and t == 0.5 else "")

    def test_commutator_edge(self, capsys):
        ((_, left, atoms, _),) = self.scan_rows(capsys, {"type": "law", "name": "commutator_ww"}, "1")
        assert abs(left + math.sqrt((11 + 5 * math.sqrt(5)) / 2)) < 1e-3
        assert atoms == ""

    @pytest.mark.parametrize(
        "spec, times, atoms",
        [
            # an atom of mass 0.1 at 0, and a narrow density without one
            ({"type": "law", "name": "marchenko_pastur", "params": [1]}, "0.9", "0"),
            ({"type": "law", "name": "semicircle", "params": [0, "1/100000"]}, "1", ""),
        ],
        ids=["mp1_t09", "narrow_semicircle"],
    )
    def test_atoms_by_rule(self, capsys, spec, times, atoms):
        ((_, left, printed, _),) = self.scan_rows(capsys, spec, times)
        assert printed == atoms
        if atoms:
            assert left == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "atomic", "atoms": [[1, "1/2"], [3, "1/2"]]},
            {"type": "law", "name": "chi_squared_1"},
            {"type": "law", "name": "beta_1a", "params": ["7/10"]},
            {"type": "grid", "xs": [0, 0.25, 0.5, 0.75, 1], "densities": [1, 1, 1, 1, 1],
             "atoms": []},
        ],
        ids=["two_atoms", "chi_squared_1", "beta_1a", "grid"],
    )
    def test_refuses_specs_it_cannot_model(self, capsys, spec):
        code, out, err = run_cli(capsys, "scan", json.dumps(spec), "--t", "1")
        assert (code, out) == (1, "")
        assert "R-transform" in err or "match neither" in err

    def test_triangle_grid_is_not_read_as_a_point_mass(self, capsys):
        # the trapezoid rule on the nodes gave the triangle the moments of
        # the point mass at 1, and scan printed edges and atoms for it
        spec = {"type": "grid", "xs": [0, 1, 2], "densities": [0, 1, 0]}
        mu = cli.parse_measure_spec_obj(spec)
        assert freeconv.moments_of(mu, 4).values == pytest.approx(
            [1, 7 / 6, 3 / 2, 31 / 15], rel=1e-15)
        code, out, _ = run_cli(capsys, "scan", json.dumps(spec), "--t", "0.5,2")
        assert (code, out) == (1, "")


class TestSizeLimits:
    ORDER_CASES = {
        "moments": ["moments", SEMI],
        "cumulants": ["cumulants", SEMI],
        "convolve": ["convolve", "--op", "add", "--a", SEMI, "--b", SEMI],
        "power": ["power", SEMI, "--t", "2"],
        "commutator": ["commutator", "--a", SEMI, "--b", SEMI],
        "square": ["square", SEMI],
        "factor-main3": ["factor-main3", SEMI],
        "scan": ["scan", WPLUS, "--t", "0.5"],
    }

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scan ran on a rejected size")

        monkeypatch.setattr(idclass, "positivity_scan", refuse)

    @pytest.mark.parametrize("sub", sorted(ORDER_CASES))
    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_order_below_one_is_usage_error(self, capsys, sub, order):
        code, out, err = run_cli(capsys, *self.ORDER_CASES[sub], "--order", order)
        assert code == 2
        assert out == ""
        assert "--order: must be at least 1" in err

    @pytest.mark.parametrize("sub", sorted(ORDER_CASES))
    def test_order_above_largest_kernel_cap_is_usage_error(self, capsys, monkeypatch, sub):
        monkeypatch.setattr(cli, "parse_measure_spec", None)  # fails if a spec is read
        order = str(cli.ORDER_CAP + 1)
        code, out, err = run_cli(capsys, *self.ORDER_CASES[sub], "--order", order)
        assert code == 2
        assert out == ""
        assert f"--order: must be at most {cli.ORDER_CAP}, got {order}" in err

    @pytest.mark.parametrize("args,cap", [
        (["cumulants", SEMI, "--order", "30"], "free_cumulants_from_moments capped at order 20"),
        (["convolve", "--op", "mult", "--a", MP1, "--b", MP1, "--order", "20"],
         "free_mult_moments capped at order 16"),
        (["square", CHI1, "--order", "40"], "moments_of capped at order 64"),
        (["power", BERN, "--t", "2", "--order", "30"], "capped at order 20"),
        (["commutator", "--a", BERN, "--b", BERN, "--order", "30"],
         "capped at order 20"),
        (["factor-main3", BERN, "--order", "30"], "capped at order 20"),
        (["scan", BERN, "--t", "0.5", "--order", "30"], "capped at order 20"),
    ], ids=["cumulants", "convolve-mult", "square", "power", "commutator",
            "factor-main3", "scan"])
    def test_order_above_a_kernel_cap_is_usage_error(self, capsys, args, cap):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert cap in err

    def test_order_at_cap_accepted(self, capsys):
        atom = json.dumps({"type": "atomic", "atoms": [[2, 1]]})
        code, out, _ = run_cli(capsys, "moments", atom, "--order", str(cli.ORDER_CAP))
        assert code == 0
        assert len(out.splitlines()) == cli.ORDER_CAP == 64

    @pytest.mark.parametrize("flag", ["--edge-tol"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1", "x"])
    def test_scan_threshold_and_edge_tol_must_be_finite_positive(
        self, capsys, no_scan, flag, value
    ):
        code, out, err = run_cli(capsys, "scan", WPLUS, "--t", "0.5", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert f"{flag}: must be a finite positive number, got {value!r}" in err

    def test_order_one_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "moments", SEMI, "--order", "1", "--out", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["1,0"]

    @pytest.mark.parametrize("args", [
        *(f"--threshold={v}" for v in ("inf", "-inf", "nan", "0", "-1", "x", "1e-6")),
        *(f"--grid-points={n}" for n in ("1", "0", str(cli.SIZE_CAP + 1), "51", "601")),
    ])
    def test_removed_scan_flags_are_unrecognized(self, capsys, no_scan, args):
        # the scan's edges are critical values: no grid, no density threshold
        code, out, err = run_cli(capsys, "scan", WPLUS, "--t", "0.5", args)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {args}" in err

    def test_grid_n_above_cap(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before the size check")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(
            capsys, "density", SEMI, f"--grid=-2:2:{cli.SIZE_CAP + 1}"
        )
        assert code == 2
        assert out == ""
        assert "grid needs lo < hi and 2 <= n <=" in err

    def test_time_range_above_cap(self, capsys, no_scan):
        # 0:N:1 has N + 1 values; the cap is checked before any is built
        code, out, err = run_cli(
            capsys, "scan", WPLUS, "--t", f"0.5:{cli.SIZE_CAP + 0.5}:1"
        )
        assert code == 2
        assert out == ""
        assert f"time range gives over {cli.SIZE_CAP} values" in err

    @pytest.mark.parametrize("count", [0, cli.SIZE_CAP + 1])
    def test_time_list_size(self, capsys, no_scan, count):
        # an empty list would report vacuous regularity evidence
        times = ",".join(["1"] * count) or ","
        code, out, err = run_cli(capsys, "scan", WPLUS, "--t", times)
        assert code == 2
        assert out == ""
        assert f"scan needs 1 to {cli.SIZE_CAP} times, got {count}" in err

    def test_time_count_at_cap_accepted(self):
        assert len(cli._parse_times(f"1:{cli.SIZE_CAP}:1")) == cli.SIZE_CAP

    def test_unbounded_time_range(self, capsys, no_scan):
        code, _, err = run_cli(capsys, "scan", WPLUS, "--t", "1:inf:1")
        assert code == 2
        assert "time range gives over" in err

    _LONG, _PAIRS = [0.5] * (cli.SIZE_CAP + 1), [[0, 0]] * (cli.SIZE_CAP + 1)

    @pytest.mark.parametrize("spec, field", [
        ({"type": "grid", "xs": _LONG, "densities": [1, 1]}, "xs"),
        ({"type": "grid", "xs": [0, 1], "densities": _LONG}, "densities"),
        ({"type": "grid", "xs": [0, 1], "densities": [1, 1], "atoms": _PAIRS}, "atoms"),
        ({"type": "atomic", "atoms": _PAIRS}, "atoms"),
    ], ids=["xs", "densities", "grid_atoms", "atomic_atoms"])
    def test_spec_list_above_cap(self, capsys, monkeypatch, spec, field):
        # a spec list longer than SIZE_CAP is refused before the spec is built
        def refuse(*args, **kwargs):
            raise AssertionError("spec built from a list above the cap")

        monkeypatch.setattr(cli.MeasureSpec, "grid", refuse)
        monkeypatch.setattr(cli.MeasureSpec, "atomic", refuse)
        code, out, err = run_cli(capsys, "moments", json.dumps(spec), "--order", "2")
        assert code == 2
        assert out == ""
        assert f"{field}: at most {cli.SIZE_CAP} entries, got {cli.SIZE_CAP + 1}" in err


# the 12 check lines of `verify --suite identities --seed 1418`: name,
# anchor, deviation, tolerance and status of each identity
_IDENTITIES_1418 = [
    "w2_equals_m                push_square(w) = m                                 dev=0.000e+00  tol=1.0e-12  pass",
    "square_product             (mu x nu)^2 = mu x mu x nu^2                       dev=0.000e+00  tol=1.0e-12  pass",
    "commutator_mm_cfp          m [] m = cfp(2, m x b)                             dev=0.000e+00  tol=1.0e-12  pass",
    "commutator_square_route    (mu^2 x b)^{+2} = mu [] mu                         dev=0.000e+00  tol=1.0e-12  pass",
    "commutator_odd_invariance  commutator ignores odd cumulants                   dev=0.000e+00  tol=1.0e-12  pass",
    "dilation_mult_power        D_{t^{s-1}}((mu^{xs})^{+t}) = (mu^{+t})^{xs}       dev=0.000e+00  tol=1.0e-09  pass",
    "boolean_free_power         lift((mu^{+(1-t)})^{u t/(1-t)}) = mu^{u t}         dev=0.000e+00  tol=1.0e-10  pass",
    "s_product_rule             S_{mu x nu} = S_mu S_nu                            dev=0.000e+00  tol=1.0e-09  pass",
    "cumulant_inversion_routes  series inversion = NC recursion                    dev=3.775e-14  tol=1.0e-10  pass",
    "conversion_round_trips     moments <-> cumulants round trips                  dev=0.000e+00  tol=1.0e-12  pass",
    "triplet_round_trip         regular form <-> triplet drift                     dev=0.000e+00  tol=1.0e-12  pass",
    "main3_factorization        kappa_n(sigma) = kappa_{2n}(mu), mu^2 = m x sigma  dev=0.000e+00  tol=1.0e-12  pass",
]


# the 8 check lines of `verify --suite regularity --seed 1418`; every
# deviation is taken from a closed form or an exact verdict
_REGULARITY_1418 = [
    "quarter_circle_kurtosis   kurtosis statistic of the quarter circle        dev=8.902e-09  tol=1.0e-06  pass",
    "wplus_regular_form        to_regular_form refuses a > 0                   dev=0.000e+00  tol=0.0e+00  pass",
    "cfp_regular_form          compound Poisson jumps give drift 0 on (0, oo)  dev=0.000e+00  tol=0.0e+00  pass",
    "wplus_scan_edges          left edge of (w+)^{+t} = 2t - 2 sqrt(t)         dev=2.220e-16  tol=1.0e-03  pass",
    "scan_edge_routes          critical-value scan edge = closed-form edge     dev=1.110e-16  tol=1.0e-04  pass",
    "origin_divergence_m       int dm/x diverges at 0                          dev=0.000e+00  tol=0.0e+00  pass",
    "meixner_support_rule      meixner levy fits (0, oo) iff a >= 2 sqrt(b)    dev=0.000e+00  tol=0.0e+00  pass",
    "voiculescu_pair_boundary  phi(-0) = 0 for m, -inf for w                   dev=0.000e+00  tol=0.0e+00  pass",
]


def _finite_devs(out):
    """Every dev= field of a verify report is a finite number or the token."""
    devs = [f[4:] for line in out.splitlines()[1:-1] for f in line.split() if f.startswith("dev=")]
    return all(d == "non-finite" or math.isfinite(float(d)) for d in devs) and devs


class TestVerify:
    def test_identities_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--suite", "identities")
        code2, out2, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "w2_equals_m" in out1
        assert "seed=1418" in out1.splitlines()[0]

    def test_identities_report_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--seed", "1418")
        assert code == 0
        assert out.splitlines()[1:-1] == _IDENTITIES_1418

    def test_regularity_report_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "regularity", "--seed", "1418")
        assert code == 0
        assert out.splitlines()[1:-1] == _REGULARITY_1418

    def test_regularity_with_jobs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "regularity", "--jobs", "2"
        )
        assert code == 0
        assert "quarter_circle_kurtosis" in out
        assert out.rstrip().endswith("8/8 checks passed")

    def test_seed_flag_in_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "regularity", "--seed", "7"
        )
        assert code == 0
        assert "seed=7" in out.splitlines()[0]

    def test_readme_claims_map_names_every_check(self):
        # the map's table and the sentence after it name checks that exist,
        # and every registered check is placed in it
        import re

        from freeconv import verify

        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### What the checks cover")[1].split("\n## ")[0]
        rows = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")]
        rest = section.split("The other checks")[1]
        named = {n for text in rows + [rest] for n in re.findall(r"`([a-z0-9_]+)`", text)}
        assert named == {c.name for c in verify.CHECKS}

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("edge", [None, math.nan])
    def test_scan_without_an_edge_fails_the_check(self, capsys, monkeypatch, edge):
        # a scan point with no left edge, or a NaN one, is an infinite
        # deviation, not a crash or a pass
        from freeconv import verify

        point = idclass.ScanPoint(0.5, edge, (), True)
        monkeypatch.setattr(
            idclass, "positivity_scan",
            lambda *a, **k: idclass.ScanResult((point,), 1e-3),
        )
        assert verify._wplus_scan_edges(None, 1) == math.inf
        assert verify._scan_edge_routes(None, 1) == math.inf
        code, out, _ = run_cli(capsys, "verify", "--suite", "regularity")
        assert code == 1
        for name in ("wplus_scan_edges", "scan_edge_routes"):
            line = next(l for l in out.splitlines() if l.startswith(name))
            assert "dev=non-finite" in line and line.endswith("FAIL")
        assert _finite_devs(out)

    def test_w2_check_fails_on_a_corrupted_m_table(self, capsys, monkeypatch):
        # push_square(W) is the catalog's m spec itself, so comparing its
        # table with m's read dev 0 whatever that table held
        import dataclasses

        from freeconv import verify

        # the m table is the NC recursion of m's R-transform record: a jump
        # of mass 3 rate in place of rate
        law = catalog.LAWS["marchenko_pastur"]
        tripled = dataclasses.replace(law, r_transform=lambda p: (0, 0, ((1, 3 * p[0]),)))
        monkeypatch.setitem(catalog.LAWS, "marchenko_pastur", tripled)
        assert verify._w2_equals_m(None, 1) > 1
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert next(l for l in out.splitlines() if l.startswith("w2_equals_m")).endswith("FAIL")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_deviation_prints_a_token(self, capsys, monkeypatch, value):
        import dataclasses

        from freeconv import verify

        monkeypatch.setattr(verify, "CHECKS", tuple(
            dataclasses.replace(c, fn=lambda rng, jobs: value)
            if c.name == "quarter_circle_kurtosis" else c
            for c in verify.CHECKS
        ))
        code, out, _ = run_cli(capsys, "verify", "--suite", "regularity")
        assert code == 1
        line = next(l for l in out.splitlines() if l.startswith("quarter_circle_kurtosis"))
        assert "dev=non-finite" in line and line.endswith("FAIL")
        assert _finite_devs(out)
        assert out.rstrip().endswith("7/8 checks passed")


class TestNc:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "nc", "--count", "5")
        assert code == 0
        assert out.strip() == "42"

    def test_list_matches_count(self, capsys):
        code, out, _ = run_cli(capsys, "nc", "--count", "4", "--list")
        assert code == 0
        assert len(out.splitlines()) == 14

    @pytest.mark.parametrize("count", ["-3", str(cli.NC_COUNT_CAP + 1), "9000"])
    def test_count_out_of_range_is_usage_error(self, capsys, monkeypatch, count):
        monkeypatch.setattr(ncpart, "catalan", None)  # fails if computed
        code, out, err = run_cli(capsys, "nc", "--count", count)
        assert code == 2
        assert out == ""
        assert f"--count: must be between 0 and {cli.NC_COUNT_CAP}" in err

    def test_count_at_cap_prints(self, capsys):
        code, out, _ = run_cli(capsys, "nc", "--count", str(cli.NC_COUNT_CAP))
        assert code == 0
        assert int(out) == ncpart.catalan(cli.NC_COUNT_CAP)

    def test_count_zero(self, capsys):
        assert run_cli(capsys, "nc", "--count", "0")[:2] == (0, "1\n")

    def test_list_above_enumeration_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(ncpart, "enumerate_nc", None)  # fails if enumerated
        count = str(ncpart.ENUMERATION_CAP + 1)
        code, out, err = run_cli(capsys, "nc", "--count", count, "--list")
        assert code == 2
        assert out == ""
        assert f"--list enumerates NC(N) for N <= {ncpart.ENUMERATION_CAP}" in err


class TestTransform:
    def test_cauchy_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "transform", SEMI, "--which", "G", "--at", "0,1")
        assert code == 0
        re, im = (float(v) for v in out.strip().split(","))
        g = (1j - 1j * math.sqrt(5)) / 2
        assert abs(complex(re, im) - g) < 1e-9

    def test_f_and_k_are_consistent(self, capsys):
        z = complex(0.4, 0.8)
        _, out_g, _ = run_cli(capsys, "transform", MP1, "--which", "G", "--at", "0.4,0.8")
        _, out_f, _ = run_cli(capsys, "transform", MP1, "--which", "F", "--at", "0.4,0.8")
        _, out_k, _ = run_cli(capsys, "transform", MP1, "--which", "K", "--at", "0.4,0.8")
        g = complex(*(float(v) for v in out_g.strip().split(",")))
        f = complex(*(float(v) for v in out_f.strip().split(",")))
        k = complex(*(float(v) for v in out_k.strip().split(",")))
        assert abs(f - 1 / g) < 1e-9
        assert abs(k - (z - f)) < 1e-9

    def test_s_transform_real_point(self, capsys):
        code, out, _ = run_cli(capsys, "transform", MP2, "--which", "S", "--at", "0.3,0")
        assert code == 0
        re, im = (float(v) for v in out.strip().split(","))
        assert abs(re - 1 / 2.3) < 1e-9 and abs(im) < 1e-12

    @pytest.mark.parametrize("at, z", [("-1,0", "(-1+0j)")])
    def test_s_transform_refusals_name_the_point(self, capsys, at, z):
        # the seed divides by 1 + z
        code, out, err = run_cli(capsys, "transform", MP1, "--which", "S", f"--at={at}")
        assert (code, out) == (1, "")
        assert err.startswith("error: S-transform inversion ")
        assert f"z = {z}" in err

    @pytest.mark.parametrize("at", ["1,0", "0,1", "0,-1"])
    def test_s_transform_at_zeros_of_the_seed_series(self, capsys, at):
        # MP(1)'s 16-term series 1 - z + z^2 - ... - z^15 vanishes at 1 and
        # +-i; the seed comes from the sum one order lower, S = 1/(1 + z)
        code, out, _ = run_cli(capsys, "transform", MP1, "--which", "S", f"--at={at}")
        assert code == 0
        z = complex(*(float(v) for v in at.split(",")))
        got = complex(*(float(v) for v in out.split(",")))
        assert abs(got - 1 / (1 + z)) <= 1e-12 * abs(1 / (1 + z))

    @pytest.mark.parametrize("at, want", [
        ("1e-300,0", "1,0"), ("-1e-300,0", "1,0"), ("0,1e-300", "1,-1e-300"),
    ])
    def test_s_transform_near_zero_is_the_series_value(self, capsys, at, want):
        # u^2 underflows, so Newton on Psi takes no step: MP(1)'s
        # S(z) = 1/(1 + z) is read off its series
        code, out, _ = run_cli(capsys, "transform", MP1, "--which", "S", f"--at={at}")
        assert code == 0
        assert out == want + "\n"

    @pytest.mark.parametrize("k", range(7, 14))
    def test_s_transform_near_minus_one_is_refused_or_exact(self, capsys, k):
        # MP(1)'s S(z) = 1/(1 + z) = -10^k i at z = -1 + 10^-k i; Newton's
        # residual 1e-12 left 72.6 - 10000116.4i at k = 7, with exit 0
        z = complex(-1, 10.0**-k)
        code, out, err = run_cli(capsys, "transform", MP1, "--which", "S", f"--at=-1,1e-{k}")
        if code == 0:
            got = complex(*(float(v) for v in out.split(",")))
            assert abs(got - 1 / (1 + z)) <= 1e-11 * abs(1 / (1 + z))
        else:
            assert (code, out) == (1, "")
            assert f"z = {z}" in err

    @pytest.mark.parametrize("spec, at", [
        (MP1, "-1,1e-300"), (WPLUS, "-1,1e-300"), (ATOMS13, "-1,1e-300"), (ATOMS13, "2,0"),
    ], ids=["mp1", "wplus", "atoms", "atoms_at_2"])
    def test_s_transform_overflow_is_refused_by_name(self, capsys, spec, at):
        # the seed u is near 1e300 here, and u**2 raised Python's bare
        # "complex exponentiation"; u * u printed values, MP(1)'s 16,-1.36e-298
        code, out, err = run_cli(capsys, "transform", spec, "--which", "S", f"--at={at}")
        assert (code, out) == (1, "")
        assert err.startswith("error: S-transform inversion overflows or divides by zero at z = ")

    def test_real_axis_rejected_for_g(self, capsys):
        code, _, err = run_cli(capsys, "transform", SEMI, "--which", "G", "--at", "1,0")
        assert code == 2
        assert "real axis" in err

    def test_law_without_density(self, capsys):
        spec = json.dumps({"type": "law", "name": "symmetric_bernoulli"})
        code, out, _ = run_cli(capsys, "transform", spec, "--which", "G", "--at", "0.3,1")
        assert code == 0
        g = 0.5 / (0.3 + 1j - 1) + 0.5 / (0.3 + 1j + 1)
        assert out.strip() == f"{g.real:.12g},{g.imag:.12g}"

    @pytest.mark.parametrize("spec,want", [
        # mpmath at 0.5 + 1e-6i: the exact value sits 1.9e-6 from -pi rho(0.5),
        # the O(y) gap of the Poisson smoothing at this height
        (QC, complex(-0.38529226513858985, -1.9364897302762019)),
        (json.dumps({"type": "law", "name": "chi_squared_1"}),
         complex(0.84887069642132020, -1.3803887203493600)),
        (SEMI, complex(0.24999987090055512, -0.968245336551992)),
        (MP1, complex(0.49999848814210796, -1.3228756555301355)),
        (json.dumps({"type": "law", "name": "symmetric_bernoulli"}),
         complex(-0.6666666666628148, -2.222222222214123e-06)),
        (json.dumps({"type": "law", "name": "symmetric_beta"}),
         complex(0.749999244070017, -0.6614384944317344)),
        (json.dumps({"type": "law", "name": "beta_1a", "params": [0.3]}),
         complex(1.3740459229585227, -2.696720963440207)),
        (json.dumps({"type": "law", "name": "commutator_ww"}),
         complex(0.3294830687401563, -0.8022542433159884)),
    ])
    def test_closed_form_near_the_axis(self, capsys, spec, want):
        code, out, _ = run_cli(capsys, "transform", spec, "--which", "G", "--at", "0.5,1e-6")
        assert code == 0
        got = complex(*(float(v) for v in out.strip().split(",")))
        assert abs(got - want) < 1e-9
        if spec == QC:
            assert abs(got.imag + math.sqrt(4 - 0.25)) < 1e-5   # -pi rho(0.5)

    def test_grid_cauchy_far_out(self, capsys):
        # far from the grid, a^2 + y^2 would overflow without the kernel's
        # power-of-two scale, and G would print as 0
        grid = json.dumps({"type": "grid", "xs": [0, 1, 2], "densities": [0, 1, 0]})
        code, out, _ = run_cli(capsys, "transform", grid, "--which", "G", "--at=1e200,1")
        assert code == 0
        assert out == "1e-200,0\n"

    def test_format_is_two_floats(self, capsys):
        _, out, _ = run_cli(capsys, "transform", SEMI, "--which", "G", "--at", "0,2")
        parts = out.strip().split(",")
        assert len(parts) == 2
        for p in parts:
            float(p)
            mantissa = p.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 12


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "freeconv.cli", "nc", "--count", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "14"


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where quadrature runs, not at CLI start-up
    code = "import sys, freeconv.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# lazy imports

_ATOMS = json.dumps({"type": "atomic", "atoms": [[1, "1/3"], [2, "2/3"]]})
_SEQUENCE_MODULES = ["catalog", "cli", "ncpart"]
_CONV_MODULES = ["catalog", "cli", "conv", "ncpart"]
_SERIES_MODULES = ["catalog", "cli", "conv", "ncpart", "transforms"]
_IDCLASS_MODULES = ["catalog", "cli", "idclass", "ncpart", "transforms"]
_TRIPLET = json.dumps({"eta": "1/2", "a": 0, "levy": {"atoms": [["1/2", "3/10"], [2, "7/10"]]}})

_SEQUENCE_CASES = {
    "nc": (["nc", "--count", "5"], _SEQUENCE_MODULES),
    "law": (["law", "semicircle", "--params=0,1"], _SEQUENCE_MODULES),
    "moments": (["moments", SEMI, "--order", "8"], _SEQUENCE_MODULES),
    "cumulants-free": (["cumulants", _ATOMS, "--kind", "free"], _SEQUENCE_MODULES),
    "cumulants-boolean": (["cumulants", _ATOMS, "--kind", "boolean"], _SEQUENCE_MODULES),
    "convolve-add": (["convolve", "--op", "add", "--a", SEMI, "--b", SEMI], _CONV_MODULES),
    "convolve-mult": (["convolve", "--op", "mult", "--a", _ATOMS, "--b", _ATOMS],
                      _SERIES_MODULES),
    "convolve-boolean": (["convolve", "--op", "boolean", "--a", _ATOMS, "--b", SEMI],
                         _CONV_MODULES),
    "power-free": (["power", _ATOMS, "--t", "3/2"], _CONV_MODULES),
    "power-boolean": (["power", _ATOMS, "--t", "3/2", "--conv", "boolean"], _CONV_MODULES),
    "commutator": (["commutator", "--a", SEMI, "--b", SEMI], _CONV_MODULES),
    "square": (["square", _ATOMS], _SEQUENCE_MODULES),
    "factor-main3": (["factor-main3", SEMI, "--order", "8"], _IDCLASS_MODULES),
    "check-kurtosis": (["check", "--kurtosis", SEMI], _IDCLASS_MODULES),
    "check-regular": (["check", "--regular", _TRIPLET], _IDCLASS_MODULES),
}


@pytest.mark.parametrize("case", sorted(_SEQUENCE_CASES))
def test_sequence_subcommands_leave_numpy_unloaded(case):
    # moment-sequence subcommands import only the modules they use
    argv, modules = _SEQUENCE_CASES[case]
    code = (
        "import contextlib, io, json, sys\n"
        "from freeconv import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "loaded = sorted(m[9:] for m in sys.modules if m.startswith('freeconv.'))\n"
        "print(json.dumps([code, 'numpy' in sys.modules, loaded]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, False, modules]


def _loaded_after(code):
    """Run code in a fresh interpreter; return its stdout lines, whether it
    left numpy loaded, and the scipy modules it left loaded."""
    code += (
        "\nimport sys\n"
        "print(json.dumps(['numpy' in sys.modules,"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    result = subprocess.run([sys.executable, "-c", "import json\n" + code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    *out, loaded = result.stdout.splitlines()
    return out, json.loads(loaded)


_VERIFY = (
    "import contextlib, io\n"
    "from freeconv import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main({argv!r})\n"
    "print(code)\n"
)


def test_verify_identities_leaves_numpy_unloaded():
    # only the density checks use numpy
    out, (numpy, scipy) = _loaded_after(_VERIFY.format(argv=["verify", "--suite", "identities"]))
    assert out == ["0"] and not numpy and scipy == []


def test_verify_loads_no_scipy():
    # every suite: the free Meixner integrals and every Cauchy transform are
    # closed forms in numpy, so nothing a check runs imports scipy
    out, (numpy, scipy) = _loaded_after(_VERIFY.format(argv=["verify", "--seed", "1418"]))
    assert out == ["0"] and numpy and scipy == []


def test_levy_meixner_loads_no_scipy():
    out, (numpy, scipy) = _loaded_after(
        "from freeconv import idclass\nprint(idclass.levy_meixner(2, 1, 1).regular)"
    )
    assert out == ["True"] and not numpy and scipy == []


# scipy is a test dependency only: tests/oracles.py integrates with scipy.integrate


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_REPO / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
    assert any(re.match(r"scipy\b", d) for d in project["optional-dependencies"]["test"])


def test_package_modules_import_no_scipy():
    imported = []
    for path in sorted((_REPO / "src" / "freeconv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert ("catalog.py", "numpy") in imported
    assert [(name, m) for name, m in imported if m.split(".")[0] == "scipy"] == []


def test_chi_squared_1_cauchy_loads_no_scipy():
    out, (numpy, scipy) = _loaded_after(
        "from freeconv import catalog, transforms\n"
        "print(transforms.cauchy(catalog.MeasureSpec.from_law('chi_squared_1'), 50 + 1e-3j))"
    )
    assert len(out) == 1 and numpy and scipy == []


_PUBLIC = {
    "catalog": ["LAWS", "MeasureSpec", "boolean_cumulants_of", "catalog_density",
                "catalog_moments", "free_cumulants_of", "moments_of", "push_square",
                "reflect"],
    "conv": ["boolean_add", "boolean_power", "commutator", "free_add", "free_add_density",
             "free_mult", "free_power", "free_power_fid", "support_edge"],
    "idclass": ["FreeTriplet", "LevyMeasure", "RegularForm", "RModel", "from_regular_form",
                "kurtosis_check", "main3_factor", "positivity_scan", "to_regular_form"],
    "ncpart": ["SeqN", "SetPartition", "catalan"],
    "transforms": ["cauchy", "s_series", "stieltjes_invert"],
    "verify": ["run_verify"],
}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from freeconv import *", namespace)
    del namespace["__builtins__"]
    names = [name for names in _PUBLIC.values() for name in names]
    assert len(names) == 34
    assert sorted(namespace) == sorted(names + ["__version__"])
    assert namespace["__version__"] == freeconv.__version__
    for module, names in _PUBLIC.items():
        mod = importlib.import_module(f"freeconv.{module}")
        assert getattr(freeconv, module) is mod
        for name in names:
            assert namespace[name] is getattr(mod, name), name
    assert set(names) <= set(dir(freeconv))
    with pytest.raises(AttributeError, match="no_such_name"):
        freeconv.no_such_name


_REPO = pathlib.Path(__file__).resolve().parent.parent


def _named(node):
    # the attributes a top-level statement names, and the names it loads;
    # inside a definition, not the names that it binds itself as a parameter,
    # an assignment or a loop target
    subs = list(ast.walk(node))
    bound = set()
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        bound = {sub.arg for sub in subs if isinstance(sub, ast.arg)}
        bound |= {sub.id for sub in subs
                  if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}
    return ({sub.attr for sub in subs if isinstance(sub, ast.Attribute)}
            | {sub.id for sub in subs if isinstance(sub, ast.Name) and sub.id not in bound})


def test_every_public_definition_has_a_caller():
    # a public top-level function or class of the package is exported, or
    # named by the package, a script or the benchmark outside its own body
    defined, named = set(), set()
    for folder in ("src/freeconv", "scripts", "perfbench"):
        for path in sorted((_REPO / folder).glob("*.py")):
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                own = None
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    own = node.name
                    if folder == "src/freeconv" and not own.startswith("_"):
                        defined.add(own)
                named.update(_named(node) - {own})
    exported = {name for names in freeconv._EXPORTS.values() for name in names}
    assert sorted(defined - named - exported) == []


def test_every_public_member_has_a_caller():
    # a public method or property of a class in the package is named by the
    # package, a script or the benchmark outside its own body; names are
    # matched, not classes, so a name that two classes share counts for both
    uses, own, members = collections.Counter(), collections.Counter(), {}
    for folder in ("src/freeconv", "scripts", "perfbench"):
        for path in sorted((_REPO / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            uses.update(_loaded(tree))
            for cls in ast.walk(tree):
                if folder != "src/freeconv" or not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        members[f"{path.stem}.{cls.name}.{node.name}"] = node.name
                        own[node.name] += _loaded(node).count(node.name)
    assert sorted(key for key, name in members.items() if uses[name] == own[name]) == []


def test_every_oracle_has_a_caller():
    # every top-level name of tests/oracles.py is reached from a test module:
    # named there, or loaded by the definition of a name that is reached;
    # a private one is also used inside oracles.py, not only by tests
    tests = _REPO / "tests"
    uses = {}  # each name oracles.py defines -> the names its statement loads
    for node in ast.parse((tests / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            uses[node.name] = set(_loaded(node)) - {node.name}
        elif isinstance(node, ast.Assign):
            uses.update((target.id, set(_loaded(node))) for target in node.targets)
    named = set()
    for path in sorted(tests.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        named.update(_loaded(tree))
        named.update(alias.name for sub in ast.walk(tree)
                     if isinstance(sub, ast.ImportFrom) and sub.module == "oracles"
                     for alias in sub.names)
    reached, todo = set(), sorted(named & uses.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(uses[name] & uses.keys())
    inside = set().union(*uses.values())
    assert len(uses) > 20
    assert sorted(uses.keys() - reached) == []
    assert sorted(name for name in uses if name.startswith("_") and name not in inside) == []


def _loaded(node):
    # each attribute access and each loaded name under node, with repeats
    return ([sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]
            + [sub.id for sub in ast.walk(node)
               if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)])
