"""CLI subcommands: outputs, formats, determinism, figures, exit codes."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import sampling
from dmspec.cli import _fmt, _json, _load_config, main
from dmspec.verify import VERIFY_DEFAULTS, Params


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BERNOULLI_CFG = {"type": "step", "breaks": [0.0, 0.5], "values": [5.0, 0.0],
                 "command": {"max_period": 4}}
COSINE_CFG = {"type": "trigpoly", "const": 0.0, "cos": [1.0], "sin": [],
              "command": {"max_period": 4}}


class TestBands:
    def test_json_structure(self, tmp_path):
        cfg = write_config(tmp_path, BERNOULLI_CFG)
        code, out = run_cli(["bands", "--config", cfg, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["merged"]["max_period_used"] == 4
        assert payload["orbits"][0]["period"] == 1
        assert payload["orbits"][0]["bands"][0] == pytest.approx([3.0, 7.0], abs=1e-8)

    def test_csv_matches_json_values(self, tmp_path):
        cfg = write_config(tmp_path, BERNOULLI_CFG)
        _, json_out = run_cli(["bands", "--config", cfg, "--format", "json"])
        _, csv_out = run_cli(["bands", "--config", cfg, "--format", "csv"])
        payload = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_orbit_bands = [
            (o["period"], tuple(b)) for o in payload["orbits"] for b in o["bands"]
        ]
        csv_orbit_bands = [
            (int(r["period"]), (float(r["lo"]), float(r["hi"])))
            for r in rows if r["source"] == "orbit"
        ]
        assert csv_orbit_bands == json_orbit_bands

    def test_left_limit_orbit_follows_its_circle_orbit(self, tmp_path):
        cfg = write_config(tmp_path, BERNOULLI_CFG)
        _, out = run_cli(["bands", "--config", cfg, "--format", "json"])
        orbits = json.loads(out)["orbits"]
        assert [o["point"] for o in orbits[:3]] == ["0/1", "0/1-", "1/3"]
        assert orbits[1]["period"] == 1
        [band] = orbits[1]["bands"]
        assert band == pytest.approx([-2.0, 2.0], abs=1e-8)

    def test_merged_equals_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, BERNOULLI_CFG)
        _, bands_out = run_cli(["bands", "--config", cfg, "--format", "json"])
        _, spectrum_out = run_cli(["spectrum", "--config", cfg, "--format", "json"])
        merged = json.loads(bands_out)["merged"]
        spectrum = json.loads(spectrum_out)
        assert merged["bands"] == spectrum["bands"]
        assert merged["max_period_used"] == spectrum["max_period_used"]

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, COSINE_CFG)
        _, a = run_cli(["bands", "--config", cfg])
        _, b = run_cli(["bands", "--config", cfg])
        assert a == b

    def test_svg_emitted(self, tmp_path):
        cfg = write_config(tmp_path, COSINE_CFG)
        plot = tmp_path / "bands.svg"
        code, _ = run_cli(["bands", "--config", cfg, "--plot", str(plot)])
        assert code == 0
        root = ET.parse(plot).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 5


class TestSpectrumAndGaps:
    def test_spectrum_round_trip(self, tmp_path):
        from dmspec import bernoulli, union_spectrum

        cfg = write_config(tmp_path, BERNOULLI_CFG)
        code, out = run_cli(["spectrum", "--config", cfg, "--format", "json"])
        assert code == 0
        direct = union_spectrum(bernoulli(5.0), 4)
        assert json.loads(out)["bands"] == [[b.lo, b.hi] for b in direct.bands]

    def test_gaps_report(self, tmp_path):
        cfg = write_config(tmp_path, BERNOULLI_CFG)
        code, out = run_cli(["gaps", "--config", cfg, "--format", "json"])
        assert code == 0
        gaps = json.loads(out)["gaps"]
        assert any(g["lo"] < 2.5 < g["hi"] for g in gaps)

    def test_default_config_is_free(self):
        code, out = run_cli(["spectrum", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bands"][0] == pytest.approx([-2.0, 2.0], abs=1e-8)


class TestIds:
    def test_table_and_plot(self, tmp_path):
        cfg = write_config(tmp_path, {
            "type": "trigpoly", "const": 0.0, "cos": [], "sin": [],
            "command": {"max_period": 2, "N": 64, "M": 4, "grid_points": 101},
        })
        out_path = tmp_path / "ids.csv"
        plot = tmp_path / "ids.svg"
        code, _ = run_cli(["ids", "--config", cfg, "--format", "csv",
                           "--out", str(out_path), "--plot", str(plot)])
        assert code == 0
        with out_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        ks = [float(r["k"]) for r in rows]
        assert ks == sorted(ks)
        assert ks[0] == 0.0 and ks[-1] == 1.0
        assert ET.parse(plot).getroot().tag.endswith("svg")

    def test_csv_json_values_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "type": "trigpoly", "const": 0.0, "cos": [1.0], "sin": [],
            "command": {"max_period": 2, "N": 64, "M": 4, "grid_points": 51},
        })
        _, json_out = run_cli(["ids", "--config", cfg, "--format", "json"])
        _, csv_out = run_cli(["ids", "--config", cfg, "--format", "csv"])
        payload = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        # 17 significant digits round-trip doubles exactly
        assert [float(r["E"]) for r in rows] == payload["energies"]
        assert [float(r["k"]) for r in rows] == payload["k"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {
            "type": "trigpoly", "const": 0.0, "cos": [1.0], "sin": [],
            "command": {"max_period": 2, "N": 64, "M": 4, "grid_points": 51,
                        "seed": 1},
        })
        _, a = run_cli(["ids", "--config", cfg])
        _, b = run_cli(["ids", "--config", cfg, "--seed", "2"])
        assert json.loads(a)["seed"] == 1
        assert json.loads(b)["seed"] == 2


class TestRotation:
    def test_free_default_config(self):
        code, out = run_cli(["rotation", "--energies", "3.0,-3.0", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rotation"]
        assert rows[0]["verdict"] == "integer" and rows[0]["integer"] == 0
        assert rows[1]["verdict"] == "integer" and rows[1]["integer"] == 1

    def test_payload_carries_the_evidence(self):
        argv = ["rotation", "--energies", "3.0", "--format", "json"]
        code, out = run_cli(argv)
        assert code == 0
        [row] = json.loads(out)["rotation"]
        assert row["winding_method"] == "closed_form"
        assert row["winding_oracle_dev"] < 1e-12 and row["max_reanchor_residual"] < 1e-12
        assert row["growth_rate"] == pytest.approx(0.9624, abs=0.01)  # log((3 + 5^0.5) / 2)
        assert run_cli(argv)[1] == out

    def test_inside_spectrum_flagged(self):
        code, out = run_cli(["rotation", "--energies", "0.0", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rotation"][0]["verdict"] == "not_hyperbolic"

    def test_many_energies_equal_single_energy_runs(self):
        # one call serves every energy; the in-band one still gets its own row
        energies = ["0.0", "3.0", "-3.0"]
        runs = {fmt: [run_cli(["rotation", "--energies", E, "--format", fmt]) for E in
                      [",".join(energies), *energies]] for fmt in ("json", "csv")}
        assert {code for fmt in runs for code, _ in runs[fmt]} == {0}
        [together, *alone] = [json.loads(out)["rotation"] for _, out in runs["json"]]
        assert together[0] == {"E": 0.0, "verdict": "not_hyperbolic"}
        assert together == [row for rows in alone for row in rows]
        [together, *alone] = [out.splitlines() for _, out in runs["csv"]]
        assert together[1] == "0,,,not_hyperbolic,"
        assert together == alone[0][:1] + [lines[1] for lines in alone]

    def test_requires_energies(self):
        code, _ = run_cli(["rotation"])
        assert code == 2

    @pytest.mark.parametrize("const, energy", [(1e200, "3.0"), (0.0, "1e200")],
                             ids=["const-1e200", "energy-1e200"])
    def test_winding_oracle_out_of_budget_gets_an_error_row(self, tmp_path, const, energy):
        # the substep oracle would need far more than ORACLE_ENTRIES substeps
        cfg = write_config(tmp_path, {"type": "trigpoly", "const": const})
        code, out = run_cli(["rotation", "--config", cfg, "--energies", energy, "--format", "json"])
        assert code == 0
        [row] = json.loads(out)["rotation"]
        assert row["E"] == float(energy) and row["verdict"] == "error"
        assert set(row) == {"E", "verdict", "error"} and "max|E - v| = 1e+200" in row["error"]
        code, out = run_cli(["rotation", "--config", cfg, "--energies", energy, "--format", "csv"])
        assert code == 0 and out.splitlines()[1] == f"{_fmt(float(energy))},,,error,"

    def test_one_energy_past_the_oracle_budget_leaves_the_others(self):
        # 3.0 alone and 3.0 next to 1e200 give the same row
        code, out = run_cli(["rotation", "--energies", "3.0,1e200", "--format", "json"])
        assert code == 0
        together = json.loads(out)["rotation"]
        assert together[0] == json.loads(run_cli(["rotation", "--energies", "3.0",
                                                  "--format", "json"])[1])["rotation"][0]
        assert together[1]["verdict"] == "error"


class TestVerify:
    def test_small_scale_free_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "type": "trigpoly", "const": 0.0, "cos": [], "sin": [],
            "command": {"max_period": 4, "N": 64, "M": 8, "grid_points": 201,
                        "steps": 300, "omega_samples": 4},
        })
        code, out = run_cli(["verify", "--config", cfg, "--format", "json"])
        payload = json.loads(out)
        assert payload["all_passed"], [c for c in payload["checks"] if not c["passed"]]
        assert code == 0

    def test_gapless_step_function_fails_disconnection(self, tmp_path):
        # a constant step function is flagged discontinuous but has no gap,
        # so the disconnection branch reports failure
        cfg = write_config(tmp_path, {
            "type": "step", "breaks": [0.0], "values": [0.0],
            "command": {"max_period": 3, "N": 64, "M": 8, "grid_points": 101,
                        "steps": 200, "omega_samples": 4},
        })
        code, out = run_cli(["verify", "--config", cfg, "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert "disconnection_and_gap_label" in failed

    def test_strong_coupling_passes(self, tmp_path):
        # 6 cos at period 8: orbit 1/17 has the band [-6.1378, -6.1331],
        # narrower than a scan of the discriminant resolves
        cfg = write_config(tmp_path, {
            "type": "trigpoly", "const": 0.0, "cos": [6.0], "sin": [],
            "command": {"max_period": 8, "N": 64, "M": 8, "grid_points": 201,
                        "steps": 300, "omega_samples": 4},
        })
        code, out = run_cli(["verify", "--config", cfg, "--format", "json"])
        payload = json.loads(out)
        assert payload["all_passed"], [c for c in payload["checks"] if not c["passed"]]
        assert code == 0

    @pytest.mark.parametrize("name, checks", [
        ("free", 8), ("cosine-half", 8), ("bernoulli-five", 6),
    ])
    def test_shipped_configs_pass(self, name, checks):
        code, out = run_cli(["verify", "--config", str(CONFIGS / f"{name}.json"),
                             "--seed", "0", "--format", "json"])
        payload = json.loads(out)
        assert [c["passed"] for c in payload["checks"]] == [True] * checks, payload["checks"]
        assert payload["all_passed"] and code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: JSON scalars, numpy floats and lists of floats, where _json takes one join
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.floats().map(np.float64), st.text(), st.lists(st.floats()))
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)), max_leaves=20)


class TestJsonWriter:
    # _emit writes the bytes of json.dumps(indent=2, sort_keys=True) without
    # its pure-Python encoder
    @given(payload=_PAYLOADS)
    @settings(max_examples=150, deadline=None)
    def test_equals_json_dumps(self, payload):
        assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [
        [0.5, -0.0, 5e-324, math.inf, -math.inf, math.nan, np.float64(0.1)],
        {"\u00e9\n": ["\u2603", (), {}, [[]]], "": (1.5, True, None, 2 ** 70)},
        np.float64(-1e-310), "\ud800",
    ])
    def test_edge_values(self, payload):
        assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [np.int64(1), [1.0, np.int64(1)], {"a": {1, 2}},
                                         np.bool_(True), [object()]])
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload)
        with pytest.raises(TypeError):
            _json(payload)

    @pytest.mark.parametrize("config", ["free", "cosine-half", "bernoulli-five"])
    @pytest.mark.parametrize("command", ["bands", "spectrum", "gaps", "ids", "rotation"])
    def test_every_subcommand_writes_json_dumps_bytes(self, command, config):
        # verify's payload is checked in TestVerify.test_shipped_configs_pass
        config = str(CONFIGS / f"{config}.json")
        code, out = run_cli([command, "--config", config, "--format", "json"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestErrors:
    def test_missing_config_file(self):
        code, _ = run_cli(["bands", "--config", "/nonexistent/zzz.json"])
        assert code == 2

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run_cli(["bands", "--config", str(path)])
        assert code == 2

    def test_unknown_sampling_type(self, tmp_path):
        cfg = write_config(tmp_path, {"type": "mystery"})
        code, _ = run_cli(["bands", "--config", cfg])
        assert code == 2

    @pytest.mark.parametrize("command", ["bands", "spectrum"])
    def test_period_over_table_capacity(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {**BERNOULLI_CFG, "command": {"max_period": 62}})
        code, _ = run_cli([command, "--config", cfg])
        assert code == 2
        assert "max period is 61" in capsys.readouterr().err


class TestConfigSchema:
    KEYS = "max_period N M grid_points steps omega_samples energies seed".split()
    #: keys of earlier versions, now constants of the library, with their values
    REMOVED = {"tol": 1e-10, "coarse_tol": 0.02, "depth": 60,
               "shrink_periods": [4, 6, 8, 10, 12], "integrality_tol": 0.01}

    def test_fields_are_the_config_keys(self):
        assert sorted(Params.__dataclass_fields__) == sorted(self.KEYS)
        assert Params().max_period == 6 and VERIFY_DEFAULTS.max_period == 10

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_parse(self, path):
        f, params = _load_config(argparse.Namespace(config=str(path), seed=None))
        assert params.max_period == 10 and params.energies

    def test_readme_example_parses(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
        [example] = [json.loads(b) for b in blocks if '"command"' in b]
        args = argparse.Namespace(config=write_config(tmp_path, example), seed=None)
        f, params = _load_config(args)
        assert f == sampling.cosine(0.5)
        assert params.seed == 7 and params.energies == (3.5, -3.0)

    def test_readme_lists_the_config_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default |")[1].split("\n\n")[0]
        keys = [row.split("`")[1] for row in table.splitlines() if row.startswith("| `")]
        assert keys == list(Params.__dataclass_fields__)

    def test_values_are_typed(self):
        params = Params().updated({"N": 64, "energies": [1, 2.5]})
        assert params.N == 64 and isinstance(params.N, int)
        assert params.energies == (1.0, 2.5) and all(isinstance(E, float) for E in params.energies)

    @pytest.mark.parametrize("command", ["bands", "verify"])
    def test_unknown_key_lists_valid_keys(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {**COSINE_CFG, "command": {"max_perod": 40}})
        code, out = run_cli([command, "--config", cfg])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "max_perod" in err
        assert all(key in err for key in self.KEYS)

    @pytest.mark.parametrize("command", ["bands", "verify"])
    @pytest.mark.parametrize("key, value", REMOVED.items())
    def test_removed_key_is_unknown(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, {**COSINE_CFG, "command": {key: value}})
        code, out = run_cli([command, "--config", cfg])
        assert code == 2 and out == ""
        assert f"unknown command key(s) {key};" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("N", "abc"), ("max_period", 6.5), ("seed", True), ("energies", 3.5), ("seed", -1),
        ("energies", [3.5, float("inf")]),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**COSINE_CFG, "command": {key: value}})
        code, _ = run_cli(["ids", "--config", cfg])
        assert code == 2
        assert f"command.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("N", 8), ("M", 0), ("grid_points", 0), ("steps", 0), ("omega_samples", 0),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, key, value):
        # rejected with the config, before any band is computed
        cfg = write_config(tmp_path, {**COSINE_CFG, "command": {key: value}})
        code, out = run_cli(["verify", "--config", cfg])
        assert code == 2 and out == ""
        assert f"command.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"type": "trigpoly", "cos": [float("nan")]},
        {"type": "trigpoly", "cos": ["1"]},
        {"type": "trigpoly", "coss": [1.0]},
        {"type": "step", "breaks": [0.0, 0.5], "values": [5.0, float("inf")]},
    ])
    def test_bad_sampling_spec_exits_2(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path, {**spec, "command": {"max_period": 2}})
        code, _ = run_cli(["spectrum", "--config", cfg])
        assert code == 2
        assert "dmspec: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["ids"], ["rotation", "--energies", "3.0"], ["verify"]],
                             ids=lambda argv: argv[0])
    def test_negative_seed_flag_exits_2(self, capsys, argv):
        code, out = run_cli([*argv, "--seed", "-1"])
        assert code == 2 and out == ""
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_substeps_key_is_gone(self, tmp_path, capsys):
        # the winding increments have a closed form; only its oracle has substeps
        cfg = write_config(tmp_path, {**COSINE_CFG, "command": {"substeps": 64}})
        code, _ = run_cli(["rotation", "--config", cfg, "--energies", "3.5"])
        assert code == 2
        assert "unknown command key(s) substeps" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ids", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("energies", ["a,b", "nan", "3.5,inf", ""])
    def test_bad_energies_flag(self, capsys, energies):
        with pytest.raises(SystemExit) as exc:
            run_cli(["rotation", "--energies", energies])
        assert exc.value.code == 2
        assert "--energies" in capsys.readouterr().err
