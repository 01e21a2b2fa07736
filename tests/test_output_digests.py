"""Every CLI output of the shipped configs, pinned by its SHA-256.

Runs the six subcommands in both formats on each file of configs/ at
--seed 3, with --plot where a subcommand takes it, bands and verify on the
step of LEFT_LIMITS and bands on each config of DEEP_BANDS, and compares
the digest of stdout and of the figure, the exit code and stderr with
tests/output_digests.json.  A change that alters output bytes on purpose
regenerates the table with

    PYTHONPATH=src python tests/test_output_digests.py

The last digit of an eigenvalue may differ between LAPACK builds, so the
table records the numpy version and the LAPACK library it was made with.
Where either differs, the test checks only that two runs give the same
bytes, and is reported as skipped with the reason that the pinned
comparison did not run.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from dmspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TABLE = Path(__file__).resolve().parent / "output_digests.json"
SEED = "3"
COMMANDS = ("bands", "spectrum", "gaps", "ids", "rotation", "verify")
PLOTTED = ("bands", "spectrum", "ids")
#: a step with the left-limit rows 0/1- and 1/3- and no gap, so that verify
#: fails its disconnection check; configs/ holds only configs that pass
LEFT_LIMITS = {"type": "step", "breaks": [0.0, 1 / 3, 0.5], "values": [1.0, -1.0, 2.0],
               "command": {"max_period": 9}}
#: bands at max_period 14, whose periods 13 and 14 span several spectrum.EIGEN_BLOCK
#: blocks of rows: the Bernoulli step and a TrigPoly with a sine term
DEEP_BANDS = {
    "bernoulli-five-p14": {"type": "step", "breaks": [0.0, 0.5], "values": [5.0, 0.0],
                           "command": {"max_period": 14}},
    "trigpoly-sine-p14": {"type": "trigpoly", "const": 0.3, "cos": [1.0, 0.5], "sin": [0.7],
                          "command": {"max_period": 14}},
}


def build() -> dict:
    """The numpy version and the LAPACK library numpy was built against."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        name = f"{lapack['name']} {lapack.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        name = "unknown"
    return {"numpy": np.__version__, "lapack": name}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs() -> dict:
    """{"<command> <config> <format>": {"code", "stdout", "stderr"[, "plot"]}} of every run."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        left = Path(tmp) / "step-left-limits.json"
        left.write_text(json.dumps(LEFT_LIMITS), encoding="utf-8")
        runs = [(config, COMMANDS) for config in sorted(CONFIGS.glob("*.json"))]
        runs.append((left, ("bands", "verify")))
        for name, obj in DEEP_BANDS.items():
            deep = Path(tmp) / f"{name}.json"
            deep.write_text(json.dumps(obj), encoding="utf-8")
            runs.append((deep, ("bands",)))
        for config, commands in runs:
            for command in commands:
                for fmt in ("json", "csv"):
                    argv = [command, "--config", str(config), "--seed", SEED, "--format", fmt]
                    plot = Path(tmp) / "figure.svg"
                    if command in PLOTTED:
                        argv += ["--plot", str(plot)]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        code = main(argv)
                    run = {"code": code, "stdout": _sha(stdout.getvalue().encode()),
                           "stderr": stderr.getvalue()}
                    if command in PLOTTED:
                        run["plot"] = _sha(plot.read_bytes())
                        plot.unlink()
                    out[f"{command} {config.stem} {fmt}"] = run
    return out


def test_outputs_match_the_pinned_digests():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outputs()
    assert sorted(got) == sorted(table["outputs"]), "the runs differ from the table's"
    if {key: table[key] for key in ("numpy", "lapack")} != build():
        assert outputs() == got, "two runs gave different bytes"
        pytest.skip(f"pinned comparison did not run: the table was made with numpy "
                    f"{table['numpy']} and {table['lapack']}, this is {build()}; "
                    f"two runs gave the same bytes")
    changed = [key for key in got if got[key] != table["outputs"][key]]
    assert not changed, f"outputs differ from {TABLE.name}: {changed}"


if __name__ == "__main__":
    TABLE.write_text(json.dumps({**build(), "seed": int(SEED), "outputs": outputs()},
                                indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {TABLE}\n")
