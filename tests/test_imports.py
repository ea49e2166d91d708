"""What importing the package loads: scipy.sparse (the kernel CSR) is the
only scipy subpackage it needs, so a fresh process must not pay for the
others."""

import os
import subprocess
import sys
from pathlib import Path

import blowup_lab

_HEAVY = ("scipy.interpolate", "scipy.linalg", "scipy.optimize", "scipy.special")


def test_package_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(blowup_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import blowup_lab.experiments, blowup_lab.cli\n"
        f"print(' '.join(m for m in {_HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
