"""CLI tests: output formats, determinism, and exit codes."""

import csv
import io
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import GATE_ROWS
from revlogic import machine
from revlogic.cli import main
from revlogic.derivation import Connective
from revlogic.library import GateId


#: Exit code and exact stdout of the table-printing verbs, one case per
#: invocation. simulate (a numpy stream) and energy (libm float digits) are
#: checked numerically instead.
STDOUT_CASES = json.loads(Path(__file__).with_name("cli_stdout.json").read_text("utf-8"))


@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("case", STDOUT_CASES, ids=[c["args"] for c in STDOUT_CASES])
def test_stdout_is_byte_identical_to_the_pinned_output(runner, case):
    result = runner.invoke(main, case["args"].split())
    assert result.exit_code == case["exit_code"]
    assert result.stdout_bytes == case["stdout"].encode("utf-8")


class TestGates:
    def test_show_cl_table_and_json(self, runner):
        result = runner.invoke(main, ["gates", "show", "cl"])
        assert result.exit_code == 0
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["width"] == 3
        assert payload["table"] == [out for _, out in GATE_ROWS["cl"]]
        assert " 0  1  0   ->  0   1   1" in result.output

    def test_show_json_only(self, runner):
        result = runner.invoke(main, ["gates", "show", "toffoli", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["table"] == [out for _, out in GATE_ROWS["toffoli"]]

    def test_list(self, runner):
        result = runner.invoke(main, ["gates", "list"])
        assert result.exit_code == 0
        for name in ("cl", "toffoli", "x", "i", "cnot"):
            assert name in result.output

    def test_unknown_gate_is_usage_error(self, runner):
        result = runner.invoke(main, ["gates", "show", "fredkin"])
        assert result.exit_code == 2


class TestDerive:
    def test_summary_sets(self, runner):
        result = runner.invoke(main, ["derive", "cl", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert {"XOR", "OR", "NOR", "NOT", "FANOUT"} <= set(payload["names"])

    def test_plain_listing(self, runner):
        result = runner.invoke(main, ["derive", "toffoli"])
        assert result.exit_code == 0
        assert "x3=0" in result.output and "AND" in result.output

    @pytest.mark.parametrize("gate_id", ["cnot", "not"])
    def test_gate_not_three_lines_wide_is_derived(self, runner, gate_id):
        args, expected = {
            "cnot": (["derive", "cnot"], (
                "derived connectives of cnot:\n"
                "  fix (none)       line 2  ->  XOR\n"
                "  fix x1=0         line 2  ->  ID\n"
                "  fix x1=1         line 2  ->  NOT\n"
                "  fix x2=0         line 2  ->  FANOUT\n"
                "  fix x2=1         line 2  ->  NOT\n"
                "summary: FANOUT, ID, NOT, XOR\n")),
            "not": (["derive", "not", "--json"], json.dumps({
                "gate": "not",
                "entries": [{"fixing": "(none)", "line": 1, "connective": "NOT",
                             "essential": [1]}],
                "names": ["NOT"],
            }) + "\n"),
        }[gate_id]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout == expected


class TestSimulate:
    def test_csv_histogram_counts(self, runner):
        result = runner.invoke(main, ["simulate", "--input", "11", "--n", "2000",
                                      "--seed", "5"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        assert sum(int(r["count"]) for r in rows) == 2000
        assert all(float(r["bin_low"]) >= 0 for r in rows)

    def test_deterministic_given_seed(self, runner):
        args = ["simulate", "--input", "01", "--n", "500", "--seed", "9"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_seed_from_environment(self, runner):
        args = ["simulate", "--input", "01", "--n", "300"]
        via_env = runner.invoke(main, args, env={"REVLOGIC_SEED": "77"})
        via_flag = runner.invoke(main, args + ["--seed", "77"])
        assert via_env.stdout == via_flag.stdout

    def test_json_mode_summary(self, runner):
        result = runner.invoke(main, ["simulate", "--input", "00", "--n", "1",
                                      "--seed", "3", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 1
        assert payload["symbol"] == "*"
        assert len(payload["histogram"]) == 1
        assert payload["histogram"][0]["count"] == 1

    def test_zero_trials_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--input", "00", "--n", "0"])
        assert result.exit_code == 2

    # one past device.MAX_TRIALS, and a count that would need TiB of samples
    @pytest.mark.parametrize("trials", ["10000001", "1000000000000"])
    def test_too_many_trials_is_usage_error(self, runner, trials):
        result = runner.invoke(main, ["simulate", "--input", "11", "--n", trials])
        assert result.exit_code == 2
        assert "trials must be 1..10000000" in result.output
        assert "Traceback" not in result.output

    # 1e308: alpha2 + 6 sigma overflows, so samples could be inf; 1e300 samples are
    # finite but span far more bins than device.MAX_BINS
    @pytest.mark.parametrize("sigma,cause", [("1e308", "sigma"), ("1e300", "bin width")])
    def test_huge_sigma_is_usage_error_naming_its_cause(self, runner, sigma, cause):
        result = runner.invoke(main, ["simulate", "--input", "11", "--n", "10", "--sigma", sigma])
        assert result.exit_code == 2
        assert cause in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("option", ["--sigma", "--alpha2"])
    def test_non_finite_config_is_usage_error(self, runner, option):
        result = runner.invoke(main, ["simulate", "--input", "11", "--n", "10", option, "nan"])
        assert result.exit_code == 2
        assert "finite" in result.output

    # 5e-324 is subnormal: every sample divided by it overflows to inf
    @pytest.mark.parametrize("width", ["1e-12", "5e-324", "nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_bad_bin_width_is_usage_error(self, runner, width, as_json):
        result = runner.invoke(main, ["simulate", "--input", "11", "--n", "10",
                                      "--bin-width", width] + as_json)
        assert result.exit_code == 2
        assert "bin width" in result.output

    # every sample is the float 1.64, and 82 * 0.02 = 1.6400000000000001 lies above
    # it: edges starting there once dropped all 1000 samples and still exited 0
    @pytest.mark.parametrize("as_json", [False, True])
    def test_samples_on_a_bin_edge_are_all_counted(self, runner, as_json):
        args = ["simulate", "--input", "11", "--n", "1000", "--alpha2", "1.64",
                "--sigma", "1e-17", "--seed", "0"]
        result = runner.invoke(main, args + ["--json"] * as_json)
        assert result.exit_code == 0
        if as_json:
            assert json.loads(result.stdout)["n"] == 1000
        else:
            assert sum(int(r["count"]) for r in csv.DictReader(io.StringIO(result.stdout))) == 1000


class TestMachine:
    def test_single_norm_pass(self, runner):
        result = runner.invoke(main, ["machine", "--norm", "u1"])
        assert result.exit_code == 0
        assert "PASS" in result.output and "OR" in result.output

    def test_u4_without_flag_takes_the_distinguishable_default(self, runner):
        # machine_table owns the u4 config default, as it does for `machine --all`
        result = runner.invoke(main, ["machine", "--norm", "u4"])
        flagged = runner.invoke(main, ["machine", "--norm", "u4", "--distinguishable"])
        assert result.exit_code == 0
        assert result.output == flagged.output

    def test_u4_with_flag_passes(self, runner):
        result = runner.invoke(main, ["machine", "--norm", "u4", "--distinguishable"])
        assert result.exit_code == 0
        assert "IMPLIES_AB" in result.output

    def test_all_norms(self, runner):
        result = runner.invoke(main, ["machine", "--all", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload) == 8
        assert all(entry["passed"] for entry in payload)

    def test_norm_and_all_conflict(self, runner):
        result = runner.invoke(main, ["machine", "--norm", "u1", "--all"])
        assert result.exit_code == 2

    def test_requires_a_selection(self, runner):
        result = runner.invoke(main, ["machine"])
        assert result.exit_code == 2

    def test_all_runs_each_normalization_once(self, runner, monkeypatch):
        # the text view renders the table its verdict was checked against
        real_machine_table, built = machine.machine_table, []

        def counting_machine_table(*args, **kwargs):
            built.append(args)
            return real_machine_table(*args, **kwargs)

        monkeypatch.setattr(machine, "machine_table", counting_machine_table)
        result = runner.invoke(main, ["machine", "--all"])
        assert result.exit_code == 0
        assert len(built) == 8


class TestEnergy:
    def test_projected_or_report(self, runner):
        result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", "x3=0",
                                      "--project", "3", "--temp", "300"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["erased_bits"] == pytest.approx(1.1887218755408671, abs=1e-9)
        assert payload["min_energy_joules"] == pytest.approx(3.412794e-21, abs=1e-25)

    def test_full_gate_erases_nothing(self, runner):
        result = runner.invoke(main, ["energy", "--gate", "toffoli"])
        payload = json.loads(result.output)
        assert abs(payload["erased_bits"]) <= 1e-12
        assert "min_energy_joules" not in payload

    def test_bad_fix_syntax(self, runner):
        # the grammar is x<line>=<bit> in ASCII digits, nothing int() would also take
        for text in ("three=0", "3=1", "xX3=1", "x3=-0", "x3=+1", "x3=0 ", "x3=\u0660", "x3=2"):
            result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", text])
            assert result.exit_code == 2, text
            assert f"--fix wants x<line>=<bit>, got {text!r}" in result.output, text

    def test_line_fixed_twice(self, runner):
        result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", "x3=0", "--fix", "X3=1"])
        assert result.exit_code == 2
        assert "line 3 fixed twice" in result.output

    def test_bad_fix_line(self, runner):
        result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", "x9=0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-inf", "0", "-1"])
    def test_non_finite_temp_is_usage_error(self, runner, temperature):
        result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", "x3=0",
                                      "--project", "3", "--temp", temperature])
        assert result.exit_code == 2
        assert "NaN" not in result.output and "Infinity" not in result.output

    def test_point_mass_output_prints_positive_zero(self, runner):
        result = runner.invoke(main, ["energy", "--gate", "cl", "--fix", "x1=0", "--project", "1"])
        assert result.exit_code == 0
        assert '"output_entropy_bits": 0.0,' in result.stdout
        assert "-0.0" not in result.stdout
        assert json.loads(result.stdout)["erased_bits"] == 2.0

    def test_readme_example_matches_the_cli(self, runner):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        command, shown = re.search(r"^\$ revlogic (energy .*)\n([^`]*)```", readme, re.M).groups()
        result = runner.invoke(main, command.split())
        assert result.exit_code == 0
        printed = {key: json.dumps(value) for key, value in json.loads(result.output).items()}
        pairs = re.findall(r'"(\w+)": ([^,}]+)', shown)
        assert [key for key, _ in pairs] == list(printed)
        for key, text in pairs:
            # "1.137598...e-23" stands for any value that starts and ends that way
            head, dots, tail = text.partition("...")
            assert (printed[key].startswith(head) and printed[key].endswith(tail)
                    if dots else printed[key] == text), (key, text, printed[key])


class TestVerifyAll:
    def test_all_pass_with_zero_exit(self, runner):
        result = runner.invoke(main, ["verify-all"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert len(lines) >= 8
        assert all(line.startswith("PASS") for line in lines)

    def test_json_mode(self, runner):
        result = runner.invoke(main, ["verify-all", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert all(entry["passed"] for entry in payload)
        assert len(payload) == 12

    def test_renders_the_catalogue(self, runner):
        result = runner.invoke(main, ["verify-all"])
        assert result.output.splitlines() == [f"PASS  {r.label}" for r in machine.verify_all()]

    def test_failing_check_is_reported_and_exits_one(self, runner, monkeypatch):
        monkeypatch.setitem(machine.DERIVED_SETS, GateId.X, frozenset({Connective.AND}))
        label = "derived-set x includes {AND}"
        result = runner.invoke(main, ["verify-all"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[lines.index(f"FAIL  {label}") + 1] == '      missing: ["AND"]'
        result = runner.invoke(main, ["verify-all", "--json"])
        assert result.exit_code == 1
        assert {"check": label, "passed": False} in json.loads(result.output)

    def test_failing_conclusion_shows_its_evidence(self, runner, monkeypatch):
        monkeypatch.setitem(machine.CONCLUSIONS, machine.NormalizationId.U1,
                            (GateId.TOFFOLI, {3: 0}, Connective.AND))
        label = "conclusion u1     -> toffoli x3=0 -> AND"
        result = runner.invoke(main, ["verify-all"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        at = lines.index(f"FAIL  {label}")
        assert lines[at + 1:at + 7] == [
            '      normalization: "u1"',
            '      gate: "toffoli"',
            '      fixing: "x3=0"',
            '      connective: "OR"',
            '      expected: "AND"',
            '      rows: [["000", "000"], ["010", "011"], ["100", "101"], ["110", "111"]]',
        ]
        assert lines[at + 7].startswith("PASS  ")
        result = runner.invoke(main, ["verify-all", "--json"])
        assert result.exit_code == 1
        assert json.loads(result.output)[0] == {"check": label, "passed": False}


#: Option values at the edge of every parser: non-finite and extreme floats, a
#: signed zero, an int past 64 bits, fixings off both ends of a 3-line gate, the
#: empty string, and every gate id.
EDGE_VALUES = ["nan", "inf", "-0", "1e308", "5e-324", "1234567890123456789012",
               "x0=0", "x4=1", ""] + [gate_id.value for gate_id in GateId]


def option(name, valid=st.nothing()):
    """``name`` with an edge value or a valid one, or left out."""
    values = st.sampled_from(EDGE_VALUES) | valid
    return st.just([]) | values.map(lambda value: [name, value])


def flag(name):
    return st.sampled_from([[], [name]])


def command(*words, parts=()):
    return st.tuples(*parts).map(lambda drawn: [*words, *(arg for part in drawn for arg in part)])


ordinary = st.sampled_from(["0.1", "1", "30"])
gate_arg = st.sampled_from(EDGE_VALUES).map(lambda value: [value])
#: every verb with each of its options drawn; --n stays at most 10**4 unless rejected
FUZZED_VERBS = {
    "gates list": command("gates", "list"),
    "gates show": command("gates", "show", parts=(gate_arg, flag("--json"))),
    "derive": command("derive", parts=(gate_arg, flag("--json"))),
    "simulate": command("simulate", parts=(
        option("--input", st.sampled_from(["00", "01", "10", "11"])),
        option("--n", st.integers(1, 10**4).map(str)),
        option("--seed", st.integers(0, 99).map(str)),
        option("--sigma", ordinary), option("--bin-width", ordinary),
        option("--alpha-hat1", ordinary), option("--alpha-tilde1", ordinary),
        option("--alpha2", ordinary), flag("--distinguishable"), flag("--json"))),
    "machine": command("machine", parts=(
        option("--norm", st.sampled_from([norm.value for norm in machine.NormalizationId])),
        flag("--all"), flag("--distinguishable"), flag("--json"))),
    "energy": command("energy", parts=(
        option("--gate"), option("--project", st.sampled_from(["1", "2", "3"])),
        option("--fix", st.sampled_from(["x1=0", "x3=1"])),
        option("--fix", st.sampled_from(["x2=0", "x3=0"])),
        option("--temp", ordinary))),
    "verify-all": command("verify-all", parts=(flag("--json"),)),
}


@pytest.mark.parametrize("verb", FUZZED_VERBS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_options_exit_cleanly(verb, data):
    args = data.draw(FUZZED_VERBS[verb], label="args")
    result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 0:
        for bad in ("NaN", "Infinity", "-0.0"):
            assert bad not in result.stdout
