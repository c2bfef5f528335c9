import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
from corpora.spec import negations
from corpora.study_table import FLAGS
from qcdiv import checks, cli
from qcdiv.bregman import qcvx_bregman
from qcdiv.core import ExtReal, build_generator
from qcdiv.jensen import qcvx_jensen

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qcdiv", *args],
        capture_output=True,
        env=env,
        **kwargs,
    )


class TestEval:
    def test_qcvx_bregman_log_forward_byte_exact(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "2")
        assert r.returncode == 0
        assert r.stdout == b"0.5\n"

    def test_qcvx_bregman_log_reverse_byte_exact(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--theta", "2", "--theta-prime", "1")
        assert r.returncode == 0
        assert r.stdout == b"inf\n"

    def test_qcvx_jensen_cubic_byte_exact(self):
        r = run_cli("eval", "--div", "qcvx-jensen", "--gen", '{"name":"cubic"}',
                    "--theta", "-1", "--theta-prime", "0", "--alpha", "0.5")
        assert r.returncode == 0
        assert r.stdout == b"0.125\n"

    def test_json_format_round_trips(self):
        r = run_cli("eval", "--div", "qcvx-jensen", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "7", "--alpha", "0.25",
                    "--format", "json")
        payload = json.loads(r.stdout)
        expected = qcvx_jensen(build_generator("log"), 1, 7, 0.25)
        assert payload["value"] == expected  # 17 digits round-trip exactly

    def test_json_infinity_is_a_string(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--theta", "2", "--theta-prime", "1", "--format", "json")
        assert json.loads(r.stdout) == {"value": "inf"}

    def test_csv_format_matches_library_exactly(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name":"sqrt"}',
                    "--theta", "1.3", "--theta-prime", "3.7", "--format", "csv")
        lines = r.stdout.decode().splitlines()
        assert lines[0] == "value"
        assert float(lines[1]) == float(qcvx_bregman(build_generator("sqrt"), 1.3, 3.7))

    def test_deterministic_output(self):
        args = ("eval", "--div", "ext-jensen", "--gen", '{"name":"log"}',
                "--theta", "1.1", "--theta-prime", "2.9", "--alpha", "0.625")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_gen_file(self, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text('{"name": "quadratic"}')
        r = run_cli("eval", "--div", "bregman", "--gen-file", str(spec),
                    "--theta", "3", "--theta-prime", "1")
        assert r.returncode == 0
        assert r.stdout == b"4\n"

    # A --gen-file holds exactly what --gen takes: the same text, the same run.
    @pytest.mark.parametrize("text", ["log", '"log"', '["log"]', '{"name": "log",}',
                                      '{"name": "log"}', negations(5000)],
                             ids=["name", "JSON string", "JSON list", "trailing comma",
                                  "JSON object", "5000 levels"])
    def test_gen_and_gen_file_agree(self, text, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text(text, encoding="utf-8")
        points = ["--theta", "1", "--theta-prime", "2"]
        runs = [pins.run_cli(["eval", "--div", "qcvx-bregman", *gen, *points])
                for gen in ([f"--gen={text}"], ["--gen-file", str(spec)])]
        by_text, by_file = ({k: run[k] for k in ("exit", "stdout", "stderr")} for run in runs)
        assert by_text == by_file

    def test_expfam_entropy_is_unary(self):
        r = run_cli("eval", "--div", "expfam-entropy",
                    "--gen", '{"affine":{"a":0.5,"b":0,"inner":{"name":"quadratic"}}}',
                    "--theta", "2")
        assert r.returncode == 0
        assert r.stdout == b"-2\n"

    def test_kl_divergences_need_no_generator(self):
        r = run_cli("eval", "--div", "kl-nested-uniform", "--theta", "1", "--theta-prime", "2")
        assert r.stdout == b"1\n"
        r = run_cli("eval", "--div", "kl-power-nested", "--exponent", "2",
                    "--theta", "1", "--theta-prime", "1.5")
        assert r.stdout == b"1\n"

    def test_mn_jensen_mean_flags(self):
        r = run_cli("eval", "--div", "mn-jensen", "--gen", '{"name":"quadratic"}',
                    "--theta", "0", "--theta-prime", "2", "--alpha", "0.5",
                    "--mean-m", "arithmetic", "--mean-n", "max")
        assert r.stdout == b"3\n"  # equals the qcvx Jensen divergence

    def test_alpha_help_gives_each_divergence_its_range(self):
        # The help gives [0,1] to the divergences it names after it, (0,1) to the rest.
        text = pins.run_cli(["eval", "--help"])["stdout"]
        weights = " ".join(text.split("[0,1] for", 1)[1].split("--delta", 1)[0].split())
        for name, div in cli.DIVERGENCES.items():
            if "--alpha" not in div.flags:
                continue
            rest = [a for f in div.flags if f != "--alpha" for a in (f, FLAGS[f])]
            codes = {pins.run_cli(["eval", "--div", name, "--gen", "sqrt", "--theta", "1",
                                   "--theta-prime", "2", "--alpha", a, *rest])["exit"]
                     for a in ("0", "1")}
            assert codes == ({0} if name in weights.split(" and ") else {2}), name

    def test_missing_required_flag_exits_2(self):
        r = run_cli("eval", "--div", "qcvx-jensen", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "2")
        assert r.returncode == 2
        assert b"--alpha" in r.stderr

    def test_unknown_divergence_exits_2(self):
        r = run_cli("eval", "--div", "nosuch", "--theta", "1", "--theta-prime", "2")
        assert r.returncode == 2

    def test_out_of_domain_exits_2(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--theta", "-1", "--theta-prime", "2")
        assert r.returncode == 2
        assert b"error" in r.stderr

    def test_bad_generator_json_exits_2(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", '{"name": }',
                    "--theta", "1", "--theta-prime", "2")
        assert r.returncode == 2

    @pytest.mark.parametrize("b", ["null", "[1]"])
    def test_a_spec_number_that_is_not_a_number_exits_2(self, b):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen",
                    f'{{"affine": {{"a": 1, "b": {b}, "inner": "log"}}}}',
                    "--theta", "1", "--theta-prime", "2")
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr.startswith(b"qcdiv: error: affine b must be a finite number, got ")

    def test_a_dim_past_the_maximum_exits_2(self):
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen",
                    '{"name": "neg-gauss", "dim": 10001}', "--theta", "1", "--theta-prime", "2")
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr == b"qcdiv: error: neg-gauss dim must be at most 10000, got 10001\n"

    def test_a_gen_file_nested_past_the_decoder_exits_2(self, tmp_path):
        spec = tmp_path / "deep.json"
        spec.write_text('{"negate": ' * 5000 + '"log"' + "}" * 5000)
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen-file", str(spec),
                    "--theta", "1", "--theta-prime", "2")
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr == b"qcdiv: error: generator spec nests deeper than 32 levels\n"


class TestLimitStudyCommand:
    def test_log_converges_exit_zero(self):
        r = run_cli("limit-study", "--study", "scaled-jensen", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "2", "--k-max", "20")
        assert r.returncode == 0
        lines = r.stdout.decode().splitlines()
        assert lines[0] == "k,param,value,error"
        assert len(lines) == 1 + (20 - 4 + 1)
        assert float(lines[-1].split(",")[3]) <= 1e-4

    def test_infinite_branch_detected_exit_zero(self):
        r = run_cli("limit-study", "--study", "scaled-jensen", "--gen", '{"name":"linear"}',
                    "--theta", "2", "--theta-prime", "1", "--k-max", "24")
        assert r.returncode == 0
        rows = r.stdout.decode().splitlines()[1:]
        assert all(row.split(",")[3] == "inf" for row in rows)  # error column shows divergence
        values = [float(row.split(",")[2]) for row in rows]
        assert values == sorted(values) and values[-1] > 1e6

    def test_unconverged_exit_one(self):
        r = run_cli("limit-study", "--study", "scaled-jensen", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "2", "--k-max", "8")
        assert r.returncode == 1

    def test_k_max_out_of_range_exits_2(self):
        r = run_cli("limit-study", "--study", "scaled-jensen", "--gen", '{"name":"log"}',
                    "--theta", "1", "--theta-prime", "2", "--k-max", "100")
        assert r.returncode == 2

    def test_deterministic(self):
        args = ("limit-study", "--study", "r-power-bregman", "--gen", '{"name":"quadratic"}',
                "--theta", "1", "--theta-prime", "2", "--k-max", "12")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestCheckCommand:
    def test_small_suite_passes(self):
        r = run_cli("check", "--suite", "means", "--samples", "300", "--seed", "5")
        assert r.returncode == 0
        assert b"0 failures" in r.stdout

    def test_unknown_suite_exits_2(self):
        r = run_cli("check", "--suite", "nosuch")
        assert r.returncode == 2

    def test_a_failing_suite_exits_1_with_at_most_five_witnesses(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "_qcvx_bregman", lambda *args: ExtReal(-1.0))
        code = cli.main(["check", "--suite", "first-order", "--samples", "3"])
        head, *witnesses = capsys.readouterr().out.splitlines()
        assert code == 1
        assert head == "suite first-order: 27 checks, 27 failures -> FAIL"
        assert 1 <= len(witnesses) <= 5
        assert all(w.startswith("  witness: first-order: ") for w in witnesses)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(suite=st.sampled_from(sorted(checks.SUITES)), samples=st.integers(-2, 12),
       seed=st.integers(-2**31, 2**31))
def test_check_prints_the_suite_report_or_exits_2(suite, samples, seed):
    run = pins.run_cli(["check", "--suite", suite, "--samples", str(samples), "--seed", str(seed)])
    if samples < 1:
        assert (run["exit"], run["stdout"]) == (2, "")
        assert run["stderr"] == "qcdiv: error: samples must be >= 1\n"
        return
    result = checks.run_suite(suite, samples, seed)
    assert run["stdout"] == "".join(line + "\n" for line in result.report_lines())
    assert (run["exit"], run["stderr"]) == (0 if result.passed else 1, "")


class TestTableCommand:
    def test_grid_values(self):
        r = run_cli("table", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--grid-min", "1", "--grid-max", "2", "--grid-step", "0.5")
        assert r.returncode == 0
        lines = r.stdout.decode().splitlines()
        assert lines[0] == "theta,theta_prime,value"
        assert len(lines) == 1 + 9
        grid = {tuple(row.split(",")[:2]): row.split(",")[2] for row in lines[1:]}
        assert grid[("1", "1")] == "0"
        assert grid[("1.5", "1.5")] == "0"
        assert grid[("2", "2")] == "0"
        assert grid[("2", "1")] == "inf"
        assert grid[("1", "2")] == "0.5"

    def test_zero_step_exits_2(self):
        r = run_cli("table", "--div", "qcvx-bregman", "--gen", '{"name":"log"}',
                    "--grid-min", "1", "--grid-max", "2", "--grid-step", "0")
        assert r.returncode == 2

    def test_grid_is_capped(self):
        # 1e300 points per axis: the cap must act before any row is built.
        r = run_cli("table", "--div", "qcvx-bregman", "--gen", "quadratic",
                    "--grid-min", "0", "--grid-max", "1", "--grid-step", "1e-300")
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr == b"qcdiv: error: the grid has more than 1001 points per axis\n"

    def test_error_at_a_grid_point_writes_nothing_to_stdout(self):
        r = run_cli("table", "--div", "power-bregman", "--gen", "log", "--delta1", "2",
                    "--delta2", "3", "--grid-min", "0.5", "--grid-max", "1.5",
                    "--grid-step", "0.25")
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr == b"qcdiv: error: power_mean_bregman: F(q) = 0\n"

    def test_multidimensional_generator_exits_2(self):
        r = run_cli("table", "--div", "qcvx-bregman",
                    "--gen", '{"name":"log-norm-sq","dim":2}',
                    "--grid-min", "1", "--grid-max", "2", "--grid-step", "0.5")
        assert r.returncode == 2


class TestArithmeticErrors:
    """Arithmetic errors from the library exit 2 like any other bad input."""

    def test_overflow_and_zero_division_exit_2(self):
        for gen, delta2, theta in (("quadratic", "2000", "10"), ("log", "2", "3")):
            r = run_cli("eval", "--div", "power-bregman", "--gen", gen, "--delta1", "1",
                        "--delta2", delta2, "--theta", theta, "--theta-prime", "1")
            assert r.returncode == 2
            assert r.stdout == b""
            assert r.stderr.startswith(b"qcdiv: error: ")
            assert b"Traceback" not in r.stderr

    def test_range_errors_exit_2_with_their_message(self):
        r = run_cli("eval", "--div", "power-bregman", "--gen", "quadratic", "--delta1", "1",
                    "--delta2", "2000", "--theta", "10", "--theta-prime", "1")
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr == b"qcdiv: error: power_mean_bregman value leaves the floats: inf\n"
        r = run_cli("eval", "--div", "qcvx-bregman", "--gen", "linear",
                    "--theta=-1.7976931348623157e308", "--theta-prime=1.7976931348623157e308")
        assert (r.returncode, r.stdout) == (2, b"")
        assert r.stderr == b"qcdiv: error: the linear term leaves the floats: -inf\n"

    def test_overflowing_power_with_a_finite_value_exits_0(self):
        r = run_cli("eval", "--div", "power-bregman", "--gen", "quadratic", "--delta1", "1",
                    "--delta2", "40", "--theta", "1e5", "--theta-prime", "31622.776601683792")
        assert (r.returncode, r.stdout) == (0, b"2.5e+47\n")

    def test_underflowing_denominator_with_a_finite_value_exits_0(self):
        r = run_cli("eval", "--div", "power-bregman", "--gen", "quadratic", "--delta1", "1",
                    "--delta2", "3", "--theta", "1e-25", "--theta-prime", "1e-100",
                    "--format", "csv")
        assert (r.returncode, r.stdout) == (0, b"value\n3.3333333333331489e+249\n")

    @pytest.mark.parametrize("r", ["1e300", "1e308"])
    def test_r_power_bregman_past_the_power_overflow_exits_0(self, r, capsys):
        # At --r 1e308 both powers overflow; the log term was inf - inf = NaN.
        code = cli.main(["eval", "--div", "r-power-bregman", "--gen", "quadratic", "--r", r,
                         "--theta", "20", "--theta-prime", "30"])
        assert (code, capsys.readouterr()) == (0, ("600\n", ""))


class TestNegativeValues:
    """A negative value after a flag reads as its value, as in the --flag=value form."""

    CASES = [
        ("eval", "--div", "qcvx-bregman", "--gen", "quadratic", "--theta", "-1e-5",
         "--theta-prime", "1"),
        ("eval", "--div", "qcvx-bregman", "--gen", '{"name": "neg-gauss", "dim": 2}',
         "--theta", "-1,2", "--theta-prime", "0.5,0.5"),
        ("eval", "--div", "power-jensen", "--gen", "sqrt", "--delta", "-1e-3", "--alpha", "0.5",
         "--theta", "1", "--theta-prime", "2"),
        ("table", "--div", "bregman", "--gen", "quadratic", "--grid-min", "-1e-3",
         "--grid-max", "1", "--grid-step", "0.5"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[argv.index("--gen") - 1])
    def test_space_form_prints_the_equals_form(self, argv, capsys):
        i = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[1:2] in "0123456789.")
        joined = list(argv[:i - 1]) + [f"{argv[i - 1]}={argv[i]}"] + list(argv[i + 1:])
        assert cli.main(joined) == 0
        expected = capsys.readouterr().out
        assert expected
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == expected

    def test_a_missing_value_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["eval", "--div", "qcvx-jensen", "--gen", "log", "--theta", "--alpha",
                      "0.5", "--theta-prime", "2"])
        assert info.value.code == 2
        assert "argument --theta: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", "1,", ","])
def test_an_empty_coordinate_exits_2(value):
    r = run_cli("eval", "--div", "qcvx-bregman", "--gen", "log", f"--theta={value}",
                "--theta-prime", "2")
    assert (r.returncode, r.stdout) == (2, b"")
    message = f"qcdiv: error: --theta expects comma-separated reals, got {value!r}\n"
    assert r.stderr == message.encode()
