"""What importing the package, and a run, loads: no scipy module at all,
so a fresh process pays for none.  The kernel is a numpy band; only a
perturbed `homogeneous_oracle`, which no experiment kind calls, imports
`scipy.integrate` when it runs.  And what each module imports: every name
is used or exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blowup_lab

_HEAVY = ("scipy.interpolate", "scipy.linalg", "scipy.optimize", "scipy.special")

# a 5-step trajectory of the perturbed model (every perturbation switched on)
_PERTURBED_RUN = """\
[model]
p = 2.0
alpha = 1.0
alpha_bar = 1.0
mu = 1.0
mu_bar = 1.0
mu0 = 1.0

[trajectory]
s0 = 20.0
s_end = 20.05
ds = 0.01

[experiment]
kind = trajectory
"""


def _loaded_scipy(code: str) -> list[str]:
    """The scipy modules in sys.modules after `code` runs in a fresh
    interpreter."""
    src = str(Path(blowup_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code += (
        "\nprint(' '.join(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()[-1].split() if out.stdout.strip() else []


def _loaded_heavy(code: str) -> list[str]:
    """The _HEAVY subpackages among them."""
    return [m for m in _loaded_scipy(code) if m in _HEAVY]


def test_package_import_loads_no_scipy():
    assert _loaded_scipy("import blowup_lab.experiments, blowup_lab.cli") == []


def test_trajectory_run_loads_no_scipy(tmp_path):
    # the run builds and applies a kernel
    ini = tmp_path / "perturbed.ini"
    ini.write_text(_PERTURBED_RUN)
    code = (
        "from blowup_lab import cli\n"
        f"rc = cli.main(['run', {str(ini)!r}, '--out', {str(tmp_path / 'res')!r}])\n"
        "assert rc == 0, rc\n"
    )
    assert _loaded_scipy(code) == []
    assert (tmp_path / "res" / "MANIFEST.txt").exists()


def test_package_import_loads_no_heavy_scipy_subpackage():
    assert _loaded_heavy("import blowup_lab.experiments, blowup_lab.cli") == []


def test_trajectory_run_loads_no_heavy_scipy_subpackage(tmp_path):
    ini = tmp_path / "perturbed.ini"
    ini.write_text(_PERTURBED_RUN)
    code = (
        "from blowup_lab import cli\n"
        f"rc = cli.main(['run', {str(ini)!r}, '--out', {str(tmp_path / 'res')!r}])\n"
        "assert rc == 0, rc\n"
    )
    assert _loaded_heavy(code) == []
    assert (tmp_path / "res" / "MANIFEST.txt").exists()


# names a module imports only so that perfbench/tracing.py can wrap them
# there; each goes once the tracer no longer needs it
_KEPT_FOR_TRACING = {
    "shooting": {"run_trajectory"},
    "solver": {"check_membership", "kernel_matrix", "nonlinear_B", "potential_V", "remainder_R"},
}


def _unused_imports(source: str) -> set[str]:
    """The names a module imports (not from __future__) that it neither
    reads nor lists in its __all__."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read - exported


def test_every_imported_name_is_used_or_exported():
    modules = sorted(Path(blowup_lab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unused = {
        path.stem: _unused_imports(path.read_text(encoding="utf-8")) for path in modules
    }
    assert {m: names for m, names in unused.items() if names} == _KEPT_FOR_TRACING
