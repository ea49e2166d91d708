"""What importing the package, and a run, loads: no scipy module at all,
so a fresh process pays for none.  The kernel is a numpy band; only a
perturbed `homogeneous_oracle`, which no experiment kind calls, imports
`scipy.integrate` when it runs.  And what each module imports: every name
is used or exported; what each function declares: every parameter is read,
every default is one some caller overrides, and some call leaves it out;
and every local a function assigns is read."""

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
    "shooting": {"check_membership", "run_trajectory"},
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
    # never read; perfbench/workloads.py and the shoot's witness pass it
    # positionally
    "trapset.reduction_witness.trap",
    # the console script calls main() with no argument
    "cli.main.argv",
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


def _passes(call: ast.Call, positional: list[str], param: str, starred: bool = True) -> bool:
    """Whether a call passes param: by keyword, by position, or through a
    * or ** argument, which counts as passing everything, or as passing
    nothing when starred is False."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return starred
    if any(k.arg == param for k in call.keywords):
        return True
    return param in positional and positional.index(param) < len(call.args)


def _calls(callers: list[str]) -> dict[str, list[ast.Call]]:
    """The calls in the callers' sources, by the bare name called."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _idle_knobs(modules: dict[str, str], callers: list[str]) -> set[str]:
    """The unread parameters, and the defaulted parameters and dataclass
    fields that no call in the callers' sources passes; calls match by the
    bare name called."""
    calls = _calls(callers)
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


def _unread_defaults(modules: dict[str, str], callers: list[str]) -> set[str]:
    """The defaulted parameters and dataclass fields that every call in the
    callers' sources passes, so that no run reads the default.  A * or **
    call may leave the parameter out, so here it passes nothing; a callee
    that no call reaches is left to `_idle_knobs`."""
    calls = _calls(callers)
    unread = set()
    for module, source in modules.items():
        for name, callee, positional, defaulted, _ in _signatures(ast.parse(source), module):
            found = calls.get(callee, ())
            unread.update(
                f"{name}.{p}"
                for p in defaulted
                if found and all(_passes(c, positional, p, starred=False) for c in found)
            )
    return unread


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


def test_unread_default_scan_flags_defaults_every_call_passes():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2):\n    return a + b + c\n"
        "def g(x=0):\n    return x\n"
        "def h(z=3):\n    return z\n"
        "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
        "f(1, 2, c=3)\nf(0, b=5, c=1)\ng(1)\ng(*x)\nD(1, 2)\n"
    )
    assert _unread_defaults({"m": source}, [source]) == {"m.f.b", "m.f.c", "m.D.y"}
    assert _unread_defaults({"m": source}, [source, "f(0, c=1)\nD(**y)\n"]) == {"m.f.c"}


def _program() -> tuple[dict[str, str], list[str]]:
    """The package's modules by name, and the sources of every program
    call: the package and perfbench.  Tests do not count as callers: a
    default only a test overrides, or only a test leaves out, is a setting
    no run uses."""
    package = Path(blowup_lab.__file__).parent
    modules = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    callers = list(modules.values()) + [
        path.read_text(encoding="utf-8") for path in sorted(perfbench.glob("*.py"))
    ]
    assert len(callers) > len(modules)
    return modules, callers


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(blowup_lab.__file__).parent.glob("*.py"))
    }


def _names(node) -> set[str]:
    """The names and attribute names read anywhere in node."""
    return {
        getattr(n, "id", getattr(n, "attr", None))
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_only_semigroup_names_its_kernel_cache():
    # the cache is semigroup's: no other module reads, fills or evicts it
    found = {name for name, tree in _package_trees().items() if "_MATRIX_CACHE" in _names(tree)}
    assert found == {"semigroup.py"}


def _is_number(node) -> bool:
    try:
        return isinstance(ast.literal_eval(node), (int, float))
    except ValueError:
        return False


def test_only_trapset_tests_margins_against_a_number():
    # trapset.inside is the one rule of membership: elsewhere a margin is
    # stored, reduced or passed on, but never compared with a number
    found = set()
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any("margins" in _names(x) for x in sides) and any(map(_is_number, sides)):
                    found.add(name)
    assert found == {"trapset.py"}


def test_runners_take_what_validation_built():
    # config.validate_config builds the run's objects and grid once, and
    # the runners take that run
    source = (Path(blowup_lab.__file__).parent / "experiments.py").read_text(encoding="utf-8")
    built = {"make_params", "TrapParams", "SolverConfig", "InitialDataParams", "PhysicalConfig"}
    assert set(_calls([source])).isdisjoint(built | {"make_grid", "run_grid"})


def test_acceptance_reads_its_figures_from_reports():
    # the acceptance file builds runs as the command line does and reads
    # their reports; only the homogeneous oracle, which no kind runs, is
    # called directly
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    names = {
        f"{node.module}.{a.name}" if isinstance(node, ast.ImportFrom) else a.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    package = [name.split(".")[1:] for name in names if name.split(".")[0] == "blowup_lab"]
    allowed = (["config"], ["experiments"], ["cli"])
    assert package and all(
        name[:1] in allowed or name == ["physical", "homogeneous_oracle"] for name in package
    )


def test_every_parameter_is_read_and_every_default_overridden():
    assert _idle_knobs(*_program()) == _KNOBS_KEPT


# defaults that every program call passes, each with why it stays
_DEFAULTS_KEPT = {
    # tests call shoot without a rectangle
    "shooting.shoot.rect0",
    # physical.py stays byte for byte until ROADMAP item 11 reworks it
    "physical.BlowupEstimate.snapshots",
    "physical.BlowupEstimate.blew_up",
    "physical.homogeneous_oracle.c",
}


def test_every_default_is_left_out_by_some_call():
    assert _unread_defaults(*_program()) == _DEFAULTS_KEPT


def _unused_locals(module: str, source: str) -> set[str]:
    """The names a function assigns and never reads, nested functions
    included: a name a nested function reads counts as read, as do the
    target of `x += ...` and a nonlocal or global name; _ is exempt."""
    unused = set()

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                unused.update(f"{name}.{n}" for n in _unread_stores(child))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, name)

    visit(ast.parse(source), module)
    return unused


def _unread_stores(func) -> set[str]:
    """The names func stores outside its nested functions, less those it
    reads anywhere."""
    stored, read = set(), set()

    def own(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                stored.add(child.id)
            elif not isinstance(child, (ast.FunctionDef, ast.Lambda)):
                own(child)

    own(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            read.update(node.names)
    return stored - read - {"_"}


def test_unused_local_scan_flags_names_assigned_and_never_read():
    source = (
        "def f(a):\n"
        "    x, y = a\n    n = 0\n    n += 1\n    _ = 2\n"
        "    def g():\n        nonlocal t\n        t = 1\n        u = x\n"
        "    t = 0\n    for i, v in a:\n        pass\n"
        "    return g\n"
        "class C:\n    def h(self):\n        w = 1\n        return [k for k in ()]\n"
    )
    assert _unused_locals("m", source) == {"m.f.y", "m.f.g.u", "m.f.i", "m.f.v", "m.C.h.w"}


def test_every_assigned_local_is_read():
    modules = sorted(Path(blowup_lab.__file__).parent.glob("*.py"))
    found = set()
    for path in modules:
        found |= _unused_locals(path.stem, path.read_text(encoding="utf-8"))
    assert found == set()
