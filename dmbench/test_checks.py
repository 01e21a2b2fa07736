"""Tests of the benchmark's checks and tracing, with a negative control.

Run from the root of a dmspec checkout:  python3 -m pytest dmbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
from dmspec import cli  # noqa: E402
from dmspec.dynamics import PeriodicOrbit, enumerate_orbits  # noqa: E402

BERNOULLI = {"type": "step", "breaks": [0.0, 0.5], "values": [5.0, 0.0]}


def run_cli(tmp_path, subcommand, max_period=4):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BERNOULLI, "command": {"max_period": max_period}}))
    out = tmp_path / f"{subcommand}.json"
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_hausdorff_is_exact():
    assert checks.hausdorff([(0.0, 1.0)], [(0.0, 0.25), (0.75, 1.0)]) == 0.25
    assert checks.hausdorff([(3.0, 7.0)], checks.BERNOULLI_UNION) == 5.0
    assert checks.hausdorff(checks.BERNOULLI_UNION, checks.BERNOULLI_UNION) == 0.0


def test_floquet_bands_of_constant_potential():
    for p in (1, 2, 3, 7):
        bands = checks.floquet_bands([5.0] * p, 1e-9)
        assert len(bands) == 1
        assert abs(bands[0][0] - 3.0) < 1e-12 and abs(bands[0][1] - 7.0) < 1e-12


def test_orbit_count_matches_enumeration():
    orbits = enumerate_orbits(10)
    for p in range(1, 11):
        assert checks.orbit_count(p) == sum(1 for o in orbits if o.period == p)


def test_bernoulli_bands_pass(tmp_path):
    errors, faults = checks.check_bernoulli_bands(run_cli(tmp_path, "bands"))
    assert errors == [] and faults == []


def test_union_without_left_limit_band_fails_closed_form(tmp_path, monkeypatch):
    # negative control: without the left-limit potential f(0-) = 0 the union
    # loses the band [-2, 2] near its lower edge, which the closed form sees
    assert checks.check_bernoulli_union([[3.0, 7.0]])
    original = PeriodicOrbit.sided_potentials
    monkeypatch.setattr(PeriodicOrbit, "sided_potentials",
                        lambda self, f: original(self, f)[:1])
    payload = run_cli(tmp_path, "bands")
    assert not any(o["point"].endswith("-") for o in payload["orbits"])
    errors, _ = checks.check_bernoulli_bands(payload)
    assert any("[-2,2] u [3,7]" in e for e in errors)


def test_spans_cover_the_command(tmp_path):
    tracer = spans.Tracer()
    main = cli.main
    tracer.install()
    try:
        run_cli(tmp_path, "spectrum", max_period=5)
    finally:
        tracer.uninstall()
    assert cli.main is main
    table = tracer.take()
    assert [n for n, p in zip(table["name"], table["parent"]) if p < 0] == ["cli.main"]
    m = spans.round_metrics(table)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["sampling.potentials.s"]
    assert abs(self_total - m["trace.top_spans_s"]) < 1e-9
    assert m["spectrum.union_spectrum.calls"] == 1
    assert m["dynamics.orbits"] == len(enumerate_orbits(5))
    assert m["spectrum.potential_bands.calls"] == len(enumerate_orbits(5)) + 1
    assert m["spectrum.trace_over_cycle.calls"] > m["spectrum.potential_bands.calls"]
    assert all(spans.unit_of(k) for k in m)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "dmbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "dmbench/run.py", "--workload", "labels", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""
