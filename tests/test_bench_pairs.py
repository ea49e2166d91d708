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


def _report(wall, seed=0, outputs="x", failed=(), attempted=20):
    return {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 40.0, "seed": seed,
            "outputs": {"o": outputs}, "attempted": attempted, "failed": list(failed)}


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
    assert out["ops"] == {
        side: {"attempted": 100, "failed": 0, "ok_share": 1.0} for side in ("parent", "change")
    }


def test_summary_needs_a_gap_beyond_the_parent_spread(bench_pairs):
    parent = [_report(w) for w in [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
    change = [_report(w - 0.1) for w in [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
    wall = bench_pairs.summarize(parent, change)["wall_s"]
    assert wall["change_better_pairs"] == "10/10"
    assert wall["median_gap"] == pytest.approx(0.1) and wall["parent_iqr"] == pytest.approx(0.75)
    assert wall["gain_met"] is False
    faster = [_report(0.5) for _ in range(10)]
    assert bench_pairs.summarize(parent, faster)["wall_s"]["gain_met"] is True


def test_summary_flags_a_clear_regression(bench_pairs):
    walls = [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1]
    parent = [_report(w) for w in walls]
    slower = [_report(w + 0.5) for w in walls]
    wall = bench_pairs.summarize(parent, slower)["wall_s"]
    assert wall["change_worse_pairs"] == "10/10" and wall["change_better_pairs"] == "0/10"
    assert wall["median_gap"] == pytest.approx(-0.5) and wall["parent_iqr"] == pytest.approx(0.175)
    assert wall["worse_met"] is True and wall["gain_met"] is False
    # a gain is no regression, and ties count for neither side
    assert bench_pairs.summarize(slower, parent)["wall_s"]["worse_met"] is False
    same = bench_pairs.summarize(parent, parent)["wall_s"]
    assert same["change_worse_pairs"] == "0/10" and same["worse_met"] is False
    # 8 losses in 10 fall short of 9 in 10, however wide the gap
    mixed = bench_pairs.summarize(parent, slower[:8] + [_report(0.5)] * 2)["wall_s"]
    assert mixed["change_worse_pairs"] == "8/10" and mixed["worse_met"] is False
    # and 10 losses in 10 inside the parent's spread are no regression either
    barely = [_report(w + 0.01) for w in walls]
    assert bench_pairs.summarize(parent, barely)["wall_s"]["worse_met"] is False


def test_summary_flags_differing_outputs_and_failures(bench_pairs):
    parent = [_report(1.0, outputs="a"), _report(1.0, outputs="b")]
    change = [_report(0.9, outputs="a"), _report(0.9, outputs="c", failed=["op"])]
    out = bench_pairs.summarize(parent, change)
    assert out["outputs_identical"] is False
    assert out["ops"]["parent"] == {"attempted": 40, "failed": 0, "ok_share": 1.0}
    assert out["ops"]["change"] == {"attempted": 40, "failed": 1, "ok_share": 39 / 40}
    # the share pools the runs of a side, as perfbench/run.py pools its
    # repetitions: a failure in a longer run weighs less
    longer = [_report(0.9, attempted=10), _report(0.9, attempted=30, failed=["a", "b", "c"])]
    assert bench_pairs.summarize(parent, longer)["ops"]["change"]["ok_share"] == 37 / 40
    with pytest.raises(ValueError, match="two pairs"):
        bench_pairs.summarize(parent[:1], change[:1])
