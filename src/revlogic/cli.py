"""Command-line front end: tables, histograms, and verification reports.

Data goes to stdout, diagnostics to stderr. Every verb grows machine-readable
output with --json. Exit codes: 0 on success and all-PASS verification, 1 on
any FAIL verdict, 2 on usage errors.
"""
from __future__ import annotations

import csv
import io
import json
import re

import click

from . import device, library, machine
from .derivation import Fixing, derived_connectives
from .device import DeviceConfig, ProbeState, run_histogram
from .energy import Distribution, NonphysicalTemperature, info_loss, transfer_table
from .library import build

SEED_ENVVAR = "REVLOGIC_SEED"


def _gate(gate_id: str):
    try:
        return build(gate_id)
    except library.UnknownId as exc:
        raise click.UsageError(str(exc)) from None


def _format_rows(rows, width: int) -> str:
    head_in = " ".join(f"x{j}" for j in range(1, width + 1))
    head_out = " ".join(f"x{j}'" for j in range(1, width + 1))
    return "\n".join([f" {head_in}  ->  {head_out}"] + [
        f" {'  '.join(str(win))}   ->  {'   '.join(str(wout))}" for win, wout in rows])


@click.group()
def main() -> None:
    """Reversible-logic workbench: gates, connective derivation, the
    probe-cantilever device simulator, and Landauer accounting."""


@main.group()
def gates() -> None:
    """Inspect the built-in gates."""


@gates.command("list")
def gates_list() -> None:
    click.echo("\n".join(f"{gate_id.value:10s} width {build(gate_id).width}"
                          for gate_id in library.all_gate_ids()))


@gates.command("show")
@click.argument("gate_id")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON gate form.")
def gates_show(gate_id: str, as_json: bool) -> None:
    """Print a gate's table and its JSON serialization."""
    gate = _gate(gate_id)
    if as_json:
        click.echo(json.dumps(gate.to_json(), indent=2))
        return
    rows = zip(gate.words(), gate.table)
    click.echo(f"gate {gate.name} ({gate.width} lines)\n{_format_rows(rows, gate.width)}\n"
               f"{gate.dumps()}")


@main.command()
@click.argument("gate_id")
@click.option("--json", "as_json", is_flag=True)
def derive(gate_id: str, as_json: bool) -> None:
    """Connectives realizable from GATE_ID by fixing ancilla lines."""
    gate = _gate(gate_id)
    result = derived_connectives(gate)
    if as_json:
        click.echo(json.dumps({
            "gate": gate.name,
            "entries": [
                {
                    "fixing": entry.fixing.label(),
                    "line": entry.line,
                    "connective": entry.connective.value,
                    "essential": list(entry.essential),
                }
                for entry in result.entries
            ],
            "names": sorted(name.value for name in result.names),
        }))
        return
    click.echo(f"derived connectives of {gate.name}:\n" + "".join(
        f"  fix {entry.fixing.label():12s} line {entry.line}  ->  {entry.connective.value}\n"
        for entry in result.entries) + "summary: "
        + ", ".join(sorted(name.value for name in result.names)))


@main.command()
@click.option("--input", "probe_bits", required=True,
              type=click.Choice(["00", "01", "10", "11"]),
              help="Probe pair as bits: 0 = off, 1 = on; position 0 is probe 1.")
@click.option("--n", "trials", default=10_000, show_default=True)
@click.option("--seed", envvar=SEED_ENVVAR, default=0, show_default=True,
              help=f"RNG seed (env {SEED_ENVVAR}).")
@click.option("--sigma", type=float, default=DeviceConfig.sigma, help="Gaussian noise width.")
@click.option("--bin-width", type=float, default=device.DEFAULT_BIN_WIDTH, show_default=True)
@click.option("--distinguishable", is_flag=True,
              help="Resolve the two one-probe rest angles.")
@click.option("--alpha-hat1", type=float, default=DeviceConfig.alpha_hat1)
@click.option("--alpha-tilde1", type=float, default=DeviceConfig.alpha_tilde1)
@click.option("--alpha2", type=float, default=DeviceConfig.alpha2)
@click.option("--json", "as_json", is_flag=True,
              help="One JSON document instead of CSV + summary on stderr.")
def simulate(probe_bits, trials, seed, sigma, bin_width, distinguishable,
             alpha_hat1, alpha_tilde1, alpha2, as_json) -> None:
    """Seeded Monte Carlo histogram of device output angles."""
    ps = ProbeState.from_bits(probe_bits)
    try:
        cfg = DeviceConfig(alpha_hat1=alpha_hat1, alpha_tilde1=alpha_tilde1, alpha2=alpha2,
                           sigma=sigma, distinguishable=distinguishable)
        hist = run_histogram(ps, trials, cfg, seed=seed, bin_width=bin_width)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    summary = {
        "input": probe_bits,
        "symbol": device.encode_symbolic(ps),
        "n": hist.n,
        "seed": seed,
        "mean": hist.mean,
        "stddev": hist.stddev,
        "mode_bin": list(hist.mode_bin),
        "bin_width": bin_width,
    }
    if as_json:
        summary["histogram"] = [
            {"bin_low": hist.bin_edges[i], "bin_high": hist.bin_edges[i + 1], "count": c}
            for i, c in enumerate(hist.counts)
        ]
        click.echo(json.dumps(summary, allow_nan=False))
        return
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["bin_low", "bin_high", "count"])
    for i, count in enumerate(hist.counts):
        writer.writerow([f"{hist.bin_edges[i]:.6g}", f"{hist.bin_edges[i + 1]:.6g}", count])
    click.echo(out.getvalue(), nl=False)
    click.echo(json.dumps(summary, allow_nan=False), err=True)


@main.command("machine")
@click.option("--norm", "norm_name",
              type=click.Choice([n.value for n in machine.NormalizationId]))
@click.option("--all", "run_all", is_flag=True, help="Check every normalization.")
@click.option("--distinguishable", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def machine_cmd(ctx, norm_name, run_all, distinguishable, as_json) -> None:
    """Run the normalization machine and verify it against its gate."""
    if run_all == (norm_name is not None):
        raise click.UsageError("give exactly one of --norm or --all")
    # with no explicit config, machine_table picks the right default per id
    cfg = DeviceConfig(distinguishable=True) if distinguishable else None
    norms = list(machine.NormalizationId) if run_all else [machine.NormalizationId(norm_name)]
    tables = [machine.machine_table(n, cfg) for n in norms]
    records = [machine.verify_conclusion(table) for table in tables]
    if as_json:
        click.echo(json.dumps([{**r.detail, "passed": r.passed} for r in records]))
    else:  # each normalization's block ends in an empty line
        click.echo("".join(
            f"normalization {norm.value} (ancilla line x{table.ancilla_line}, inputs "
            + ", ".join(f"x{j}" for j in table.free_lines) + ")\n"
            f"{_format_rows(table.rows, 3)}\nconnective: {table.connective.value}\n"
            f"{'PASS' if r.passed else 'FAIL'}: matches {r.detail['gate']} with "
            f"{r.detail['fixing']} -> {r.detail['expected']}\n\n"
            for norm, table, r in zip(norms, tables, records)), nl=False)
    if not all(r.passed for r in records):
        ctx.exit(1)


def _parse_fix(fix_texts: tuple[str, ...]) -> dict[int, int]:
    assignments: dict[int, int] = {}
    for text in fix_texts:
        match = re.fullmatch(r"[xX](\d+)=([01])", text, re.ASCII)
        if match is None:
            raise click.UsageError(f"--fix wants x<line>=<bit>, got {text!r}")
        line, bit = map(int, match.groups())
        if line in assignments:
            raise click.UsageError(f"line {line} fixed twice")
        assignments[line] = bit
    return assignments


@main.command("energy")
@click.option("--gate", "gate_id", required=True)
@click.option("--project", "project_line", type=int, default=None,
              help="Keep only this output line (drops the garbage).")
@click.option("--fix", "fixes", multiple=True, help="Ancilla fixing, e.g. x3=0.")
@click.option("--temp", "temperature", type=float, default=None, help="Kelvin.")
def energy_cmd(gate_id, project_line, fixes, temperature) -> None:
    """Erased bits and Landauer cost of a (possibly projected) gate table."""
    gate = _gate(gate_id)
    assignments = _parse_fix(fixes)
    try:
        fixing = Fixing.of(gate.width, assignments) if assignments else None
        table = transfer_table(gate, fixing, project_line)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    dist = Distribution.uniform(table.keys())
    report = info_loss(table, dist)
    payload = {"gate": gate.name, "fixing": fixing.label() if fixing else None,
               "project_line": project_line}
    try:
        payload.update(report.to_json(temperature))
    except NonphysicalTemperature as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(json.dumps(payload, allow_nan=False))


@main.command("verify-all")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def verify_all(ctx, as_json) -> None:
    """Re-derive every conclusion: one PASS/FAIL line each."""
    records = machine.verify_all()
    if as_json:
        click.echo(json.dumps([{"check": r.label, "passed": r.passed} for r in records]))
    else:
        lines = []
        for r in records:
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.label}")
            if not r.passed:
                lines += [f"      {key}: {json.dumps(value)}" for key, value in r.detail.items()]
        click.echo("\n".join(lines))
    if not all(r.passed for r in records):
        ctx.exit(1)


if __name__ == "__main__":
    main()
