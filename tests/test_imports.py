"""What importing the package, and a run, loads: no scipy module at all,
so a fresh process pays for none.  The kernel is a numpy band; only a
perturbed `homogeneous_oracle`, which no experiment kind calls, imports
`scipy.integrate` when it runs.  And what each module imports: every name
is used or exported; what each function declares: every parameter is read,
and every default is one some caller overrides."""

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


# knobs the scan below lets stand, each with why it stays
_KNOBS_KEPT = {
    # never read; perfbench/workloads.py passes it positionally
    "trapset.reduction_witness.trap",
    # the console script calls main() with no argument
    "cli.main.argv",
    # run_trajectories fills each in turn, and test fakes build partial records
    *(
        f"solver.TrajectoryRecord.{name}"
        for name in (
            "s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup", "gradq_sup", "N_sup",
            "margins", "exit",
        )
    ),
    # None marks an exit through a component that is not a mode
    *(f"trapset.ExitInfo.{name}" for name in ("mode", "omega", "dqm_ds", "transverse")),
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _signatures(tree: ast.Module, module: str):
    """(name, callee, positional names after self, defaulted names, def) of
    every function, method and dataclass of a module; a class's __init__
    and fields are passed by calls of the class."""
    out = []

    def visit(node, prefix: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                callee = cls if child.name == "__init__" else child.name
                out.append((name, callee, positional, defaulted, child))
                visit(child, name, None)
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [
                        st for st in child.body
                        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                    ]
                    positional = [st.target.id for st in fields]
                    defaulted = [st.target.id for st in fields if st.value is not None]
                    out.append((name, child.name, positional, defaulted, None))
                visit(child, name, child.name)

    visit(tree, module, None)
    return out


def _unread_parameters(func: ast.FunctionDef) -> list[str]:
    """Parameters the body never reads; self, cls and _ are exempt."""
    args = func.args
    declared = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    declared += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {n.id for st in func.body for n in ast.walk(st) if isinstance(n, ast.Name)}
    return [p for p in declared if p not in read and p not in ("self", "cls", "_")]


def _passes(call: ast.Call, positional: list[str], param: str) -> bool:
    """Whether a call passes param: by keyword, by position, or through a
    * or ** argument, which counts as passing everything."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return param in positional and positional.index(param) < len(call.args)


def _idle_knobs(modules: dict[str, str], callers: list[str]) -> set[str]:
    """The unread parameters, and the defaulted parameters and dataclass
    fields that no call in the callers' sources passes; calls match by the
    bare name called."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    idle = set()
    for module, source in modules.items():
        for name, callee, positional, defaulted, func in _signatures(ast.parse(source), module):
            if func is not None:
                idle.update(f"{name}.{p}" for p in _unread_parameters(func))
            idle.update(
                f"{name}.{p}"
                for p in defaulted
                if not any(_passes(c, positional, p) for c in calls.get(callee, ()))
            )
    return idle


def test_idle_knob_scan_flags_unread_and_never_passed_parameters():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2):\n    return a + c\n"
        "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
        "    def g(self, t=1e-9):\n        return t\n"
        "f(1, c=3)\nD(1).g()\n"
    )
    assert _idle_knobs({"m": source}, [source]) == {"m.f.b", "m.D.y", "m.D.g.t"}
    assert _idle_knobs({"m": source}, [source, "f(0, *x)\nD(**y)\nd.g(2)\n"]) == {"m.f.b"}


def test_every_parameter_is_read_and_every_default_overridden():
    # tests do not count as callers: a default only a test overrides is a
    # setting no run uses
    package = Path(blowup_lab.__file__).parent
    modules = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    callers = list(modules.values()) + [
        path.read_text(encoding="utf-8") for path in sorted(perfbench.glob("*.py"))
    ]
    assert len(callers) > len(modules)
    assert _idle_knobs(modules, callers) == _KNOBS_KEPT
