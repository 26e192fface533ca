"""Each verb writes its whole output at once; here it is checked against the
same output written one ``click.echo`` per line, for the cases the pinned
stdout of ``cli_stdout.json`` does not reach: failing verdicts, every single
normalization, gates that are not three lines wide and both streams of
``simulate``."""

import csv
import io
import json

import click
import pytest
from click.testing import CliRunner

from revlogic import device, machine
from revlogic.cli import main
from revlogic.derivation import Connective, derived_connectives
from revlogic.device import DeviceConfig, ProbeState, run_histogram
from revlogic.library import GateId, build


def format_rows(rows, width):
    """The table layout, bit by bit."""
    head_in = " ".join(f"x{j}" for j in range(1, width + 1))
    head_out = " ".join(f"x{j}'" for j in range(1, width + 1))
    lines = [f" {head_in}  ->  {head_out}"]
    for win, wout in rows:
        cin = "  ".join(str(b) for b in win.bits)
        cout = "   ".join(str(b) for b in wout.bits)
        lines.append(f" {cin}   ->  {cout}")
    return "\n".join(lines)


@click.group()
def reference():
    """The verbs' output, written line by line."""


@reference.command()
@click.argument("gate_id")
@click.option("--json", "as_json", is_flag=True)
def derive(gate_id, as_json):
    gate = build(gate_id)
    result = derived_connectives(gate)
    if as_json:
        click.echo(json.dumps({
            "gate": gate.name,
            "entries": [{"fixing": e.fixing.label(), "line": e.line,
                         "connective": e.connective.value, "essential": list(e.essential)}
                        for e in result.entries],
            "names": sorted(name.value for name in result.names),
        }))
        return
    click.echo(f"derived connectives of {gate.name}:")
    for entry in result.entries:
        click.echo(f"  fix {entry.fixing.label():12s} line {entry.line}  ->  "
                   f"{entry.connective.value}")
    click.echo("summary: " + ", ".join(sorted(name.value for name in result.names)))


@reference.command()
@click.option("--input", "probe_bits")
@click.option("--n", "trials", type=int)
@click.option("--seed", type=int)
@click.option("--distinguishable", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def simulate(probe_bits, trials, seed, distinguishable, as_json):
    ps = ProbeState.from_bits(probe_bits)
    hist = run_histogram(ps, trials, DeviceConfig(distinguishable=distinguishable), seed=seed)
    summary = {"input": probe_bits, "symbol": device.encode_symbolic(ps), "n": hist.n,
               "seed": seed, "mean": hist.mean, "stddev": hist.stddev,
               "mode_bin": list(hist.mode_bin), "bin_width": device.DEFAULT_BIN_WIDTH}
    if as_json:
        summary["histogram"] = [
            {"bin_low": hist.bin_edges[i], "bin_high": hist.bin_edges[i + 1], "count": c}
            for i, c in enumerate(hist.counts)]
        click.echo(json.dumps(summary, allow_nan=False))
        return
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["bin_low", "bin_high", "count"])
    for i, count in enumerate(hist.counts):
        writer.writerow([f"{hist.bin_edges[i]:.6g}", f"{hist.bin_edges[i + 1]:.6g}", count])
    click.echo(out.getvalue(), nl=False)
    click.echo(json.dumps(summary, allow_nan=False), err=True)


@reference.command("machine")
@click.option("--norm", "norm_name")
@click.option("--all", "run_all", is_flag=True)
@click.option("--distinguishable", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def machine_cmd(ctx, norm_name, run_all, distinguishable, as_json):
    cfg = DeviceConfig(distinguishable=True) if distinguishable else None
    norms = list(machine.NormalizationId) if run_all else [machine.NormalizationId(norm_name)]
    tables = [machine.machine_table(n, cfg) for n in norms]
    records = [machine.verify_conclusion(table) for table in tables]
    if as_json:
        click.echo(json.dumps([{**r.detail, "passed": r.passed} for r in records]))
    else:
        for norm, table, r in zip(norms, tables, records):
            click.echo(f"normalization {norm.value} (ancilla line x{table.ancilla_line}, inputs "
                       + ", ".join(f"x{j}" for j in table.free_lines) + ")")
            click.echo(format_rows(table.rows, 3))
            click.echo(f"connective: {table.connective.value}")
            click.echo(f"{'PASS' if r.passed else 'FAIL'}: matches {r.detail['gate']} with "
                       f"{r.detail['fixing']} -> {r.detail['expected']}")
            click.echo("")
    if not all(r.passed for r in records):
        ctx.exit(1)


@reference.command("verify-all")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def verify_all(ctx, as_json):
    records = machine.verify_all()
    if as_json:
        click.echo(json.dumps([{"check": r.label, "passed": r.passed} for r in records]))
    else:
        for r in records:
            click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.label}")
            if not r.passed:
                for key, value in r.detail.items():
                    click.echo(f"      {key}: {json.dumps(value)}")
    if not all(r.passed for r in records):
        ctx.exit(1)


def assert_same_output(args, exit_code=0):
    """stdout, stderr, their interleaving and the exit code, byte for byte."""
    result, expected = CliRunner().invoke(main, args), CliRunner().invoke(reference, args)
    assert expected.exception is None or isinstance(expected.exception, SystemExit), expected
    assert (result.exit_code, expected.exit_code) == (exit_code, exit_code)
    assert result.stdout_bytes == expected.stdout_bytes
    assert result.stderr_bytes == expected.stderr_bytes
    assert result.output_bytes == expected.output_bytes
    return result


@pytest.fixture
def failing_records(monkeypatch):
    """A conclusion and a derived set that cannot hold: u1 does not give AND."""
    monkeypatch.setitem(machine.CONCLUSIONS, machine.NormalizationId.U1,
                        (GateId.TOFFOLI, {3: 0}, Connective.AND))
    monkeypatch.setitem(machine.DERIVED_SETS, GateId.X, frozenset({Connective.AND}))


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("verb", [["verify-all"], ["machine", "--all"]], ids=" ".join)
def test_failing_records_render_as_line_by_line(failing_records, verb, as_json):
    result = assert_same_output(verb + as_json, exit_code=1)
    if not as_json:
        assert "FAIL" in result.stdout
    if verb == ["verify-all"] and not as_json:
        assert '      missing: ["AND"]' in result.stdout.splitlines()


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("verb", [["verify-all"], ["machine", "--all"]], ids=" ".join)
def test_passing_records_render_as_line_by_line(verb, as_json):
    assert_same_output(verb + as_json)


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("flag", [[], ["--distinguishable"]], ids=["default", "distinguishable"])
@pytest.mark.parametrize("norm", [n.value for n in machine.NormalizationId])
def test_every_single_normalization_renders_as_line_by_line(norm, flag, as_json):
    assert_same_output(["machine", "--norm", norm] + flag + as_json)


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("gate_id", ["cnot", "not", "cl"])
def test_derive_renders_as_line_by_line(gate_id, as_json):
    assert_same_output(["derive", gate_id] + as_json)


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["csv", "json"])
@pytest.mark.parametrize("probe_bits,seed", [("00", 0), ("01", 7), ("10", 11), ("11", 123456)])
def test_simulate_streams_render_as_line_by_line(probe_bits, seed, as_json):
    args = ["simulate", "--input", probe_bits, "--n", "2000", "--seed", str(seed)]
    for flag in ([], ["--distinguishable"]):
        result = assert_same_output(args + flag + as_json)
        assert bool(result.stderr_bytes) is not bool(as_json)  # the summary goes to stderr
