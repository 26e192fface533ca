"""Import layering: the pure-Python layers load neither numpy nor click."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_pure_layers_import_without_numpy_or_click():
    probe = (
        "import sys\n"
        "import revlogic.core, revlogic.library, revlogic.derivation, revlogic.energy\n"
        "print(sorted(m for m in ('numpy', 'click') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
