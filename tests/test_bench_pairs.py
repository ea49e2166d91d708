"""The pair summary of tools/bench_pairs.py on fixed numbers; no worker is
spawned.  The tool is loaded by path, as it is not part of the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _report(wall, seed=0, outputs="x", failed=()):
    return {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 40.0, "seed": seed,
            "outputs": {"o": outputs}, "failed": list(failed)}


def test_quartiles_are_the_inclusive_ones(bench_pairs):
    five = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert five == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_summary_of_a_clear_gain(bench_pairs):
    parent = [_report(w, seed=i % 5) for i, w in enumerate([1.0, 1.1, 1.2, 1.3, 1.4])]
    change = [_report(w, seed=i % 5) for i, w in enumerate([0.8, 0.9, 0.95, 1.0, 1.5])]
    out = bench_pairs.summarize(parent, change)
    wall = out["wall_s"]
    assert out["pairs"] == 5
    assert wall["parent"] == {"q1": 1.1, "median": 1.2, "q3": 1.3}
    assert wall["change"] == {"q1": 0.9, "median": 0.95, "q3": 1.0}
    assert wall["change_better_pairs"] == "4/5"
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert wall["median_gap"] == pytest.approx(0.25)
    # 4 wins of 5 is below 9 in 10, so the gain is not met despite the gap
    assert wall["gain_met"] is False
    assert out["setup_s"]["change_better_pairs"] == "0/5"
    assert out["outputs_identical"] is True
    assert out["failed_ops"] == {"parent": 0, "change": 0}


def test_summary_needs_a_gap_beyond_the_parent_spread(bench_pairs):
    parent = [_report(w) for w in [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
    change = [_report(w - 0.1) for w in [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
    wall = bench_pairs.summarize(parent, change)["wall_s"]
    assert wall["change_better_pairs"] == "10/10"
    assert wall["median_gap"] == pytest.approx(0.1) and wall["parent_iqr"] == pytest.approx(0.75)
    assert wall["gain_met"] is False
    faster = [_report(0.5) for _ in range(10)]
    assert bench_pairs.summarize(parent, faster)["wall_s"]["gain_met"] is True


def test_summary_flags_differing_outputs_and_failures(bench_pairs):
    parent = [_report(1.0, outputs="a"), _report(1.0, outputs="b")]
    change = [_report(0.9, outputs="a"), _report(0.9, outputs="c", failed=["op"])]
    out = bench_pairs.summarize(parent, change)
    assert out["outputs_identical"] is False
    assert out["failed_ops"] == {"parent": 0, "change": 1}
    with pytest.raises(ValueError, match="two pairs"):
        bench_pairs.summarize(parent[:1], change[:1])
