"""Import layering: the pure-Python layers load neither numpy nor click, the
machine returns its verdicts as data, leaving their rendering to the CLI, and
numpy loads only when the device samples."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: One invocation of every verb but simulate, and simulate itself.
COLD_VERBS = [
    ["gates", "list"], ["gates", "show", "cl", "--json"], ["derive", "cl"],
    ["machine", "--all"], ["machine", "--norm", "u4", "--distinguishable"],
    ["energy", "--gate", "cl", "--fix", "x3=0", "--project", "3", "--temp", "300"],
    ["verify-all", "--json"],
]
SIMULATE = ["simulate", "--input", "11", "--n", "100", "--seed", "3"]


def run_probe(probe: str) -> list[str]:
    """Run ``probe`` in a fresh interpreter with ``src`` on the path; its stdout, split."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


def numpy_after_verb(args: list[str]) -> str:
    """A probe that runs the CLI on ``args`` in-process, then prints its exit code and
    whether numpy was loaded."""
    return (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "from revlogic.cli import main\n"
        f"result = CliRunner().invoke(main, {args!r})\n"
        "print(result.exit_code, 'numpy' in sys.modules)\n"
    )


def test_pure_layers_import_without_numpy_or_click():
    probe = (
        "import sys\n"
        "import revlogic.core, revlogic.library, revlogic.derivation, revlogic.energy\n"
        "print(sorted(m for m in ('numpy', 'click') if m in sys.modules))\n"
        "import revlogic.machine\n"
        "print('click' in sys.modules)\n"
    )
    assert run_probe(probe) == ["[]", "False"]


def test_device_machine_and_cli_import_without_numpy():
    probe = (
        "import sys\n"
        "import revlogic.device, revlogic.machine, revlogic.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_probe(probe) == ["False"]


@pytest.mark.parametrize("args", COLD_VERBS, ids=" ".join)
def test_verbs_other_than_simulate_never_load_numpy(args):
    assert run_probe(numpy_after_verb(args)) == ["0", "False"]


def test_simulate_loads_numpy():
    assert run_probe(numpy_after_verb(SIMULATE)) == ["0", "True"]


def test_a_refused_run_histogram_call_leaves_numpy_unloaded():
    probe = (
        "import sys\n"
        "from revlogic.device import DD, run_histogram\n"
        "for args, kwargs in [(('DD', 10), {}), ((DD, 1.5), {}), ((DD, 0), {}),\n"
        "                     ((DD, 10), {'seed': True}), ((DD, 10), {'bin_width': 0}),\n"
        "                     ((DD, 10), {'bin_width': 'x'}),\n"
        "                     ((DD, 10), {'bin_width': 10**400}),\n"
        "                     ((DD, 10), {'bin_width': 10**5000}),\n"
        "                     ((DD, 10), {'cfg': 'x'})]:\n"
        "    try:\n"
        "        run_histogram(*args, **kwargs)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_probe(probe) == ["refused"] * 9 + ["False"]
