"""The benchmark's view of the package: what perfbench/ imports, wraps and
constructs must keep existing.

perfbench/tracing.py replaces module attributes by name, and
perfbench/workloads.py calls the public API; a rename or a deleted
keyword there would only show when the benchmark runs.  Both files are
loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from blowup_lab.grids import default_y_max, make_grid
from blowup_lab.semigroup import kernel_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_workload_constructs(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert set(workloads.WORKLOADS) == {"shoot-pure", "witness-pert", "physical"}
    for name, cls in workloads.WORKLOADS.items():
        work = cls(0)
        for method in ("setup", "run", "check"):
            assert callable(getattr(work, method, None)), f"{name}.{method}"


def test_physical_workload_configs_build(monkeypatch):
    # the physical set-up only builds PhysicalConfig objects, so it is cheap
    work = _load("workloads", monkeypatch).Physical(0)
    work.setup()
    assert work.run_cfg.n_x == 3201 and work.probe_cfg.n_x == 1601


def test_operator_size_reads_the_band_kernel(monkeypatch):
    # the traced cache_mb and apply figures read nnz and data of the kernel
    tracing = _load("tracing", monkeypatch)
    grid = make_grid(default_y_max(4.0, 50.0), 0.05)
    assert grid.n == 2465
    kernel = kernel_matrix(0.02, grid)
    entries, nbytes = tracing.operator_size(kernel)
    assert (entries, nbytes) == (kernel.nnz, kernel.data.nbytes)
    assert entries > 0 and nbytes > 0
    assert nbytes <= 2.5 * 2**20  # 1.71 MiB measured
