"""Self-test of the benchmark on a tiny workload.

    python3 -m pytest bench/test_bench.py

It checks the benchmark, not the package: every metric is printed by
name with its unit, a wrong reference objective is caught by the gate,
spans nest, call counts repeat, and a checkout without the package is
refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Request, Workload, datacenter_base, random_base  # noqa: E402

# A few dozen leaves: every request kind and layer in about a second.
TINY = Workload(
    models={
        "random": random_base(40, max_capacity=2),
        "racks": datacenter_base((3, 4), jitter=0.25),
    },
    requests=(
        Request("random", rho=3),
        Request("random", sizes=(3, 2)),
        Request("racks", rho=5),
    ),
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    return tmp_path


def run_tiny(capsys, out: Path, trace: int, seed: int = 3) -> tuple[dict, dict]:
    code = run.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    results = json.loads((out / f"results-tiny-seed{seed}-trace{trace}.json").read_text())
    return json.loads(last), results


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace, section):
    result, results = run_tiny(capsys, tiny, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 9
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert results["failed_frac"] == {"value": 0.0, "unit": "1"}
    assert results["context"]["models"]["random"]["leaves"] == 40


def test_gate_flags_a_wrong_reference(tiny, capsys, monkeypatch):
    honest = workloads.compute_reference

    def wrong(model, request):
        value = honest(model, request)
        value[-1] += 1
        return value

    monkeypatch.setattr(workloads, "compute_reference", wrong)
    result, results = run_tiny(capsys, tiny, 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert all("differs from the reference" in f for f in results["failures"])


def test_traced_runs_nest_and_repeat_their_counts(tiny, capsys):
    first = run_tiny(capsys, tiny, 1)
    second = run_tiny(capsys, tiny, 1)
    for result, results in (first, second):
        assert results["span_violations"] == 0
        assert result["metrics"]["single.label_children_calls"]["value"] > 0
        assert result["metrics"]["multi.phi_pairs"]["value"] > 0
    for name, metric in first[0]["metrics"].items():
        if metric["unit"] == "count":
            assert second[0]["metrics"][name] == metric, name


def test_refuses_a_checkout_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "multi", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_a_sample_is_scaled_by_its_nearest_calibrations(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "REFERENCE_S", 0.01)
    speed = hostspeed.HostSpeed()
    # Calibrations of 0.01 s every second, and of 0.02 s from t = 20.
    for t in range(40):
        speed.add([float(t), 0.01 if t < 20 else 0.02])
    assert speed.scaled(5.5, 0.4) == pytest.approx(0.4)
    # Twice as slow a host: the same wall time is half the work.
    assert speed.scaled(30.5, 0.4) == pytest.approx(0.2)
    # Before the first calibration, the first ones count.
    assert speed.scaled(-3.0, 1.0) == pytest.approx(1.0)
