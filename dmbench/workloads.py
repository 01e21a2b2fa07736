"""The benchmark's workloads: the configs each one writes and the commands it runs.

Every config is a copy of a file in configs/ (the sampling function and its
"command" object), with only the keys named in OVERRIDES changed.  The copies
live here so that the benchmark's inputs stay fixed when the shipped configs
change.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# configs/{free,cosine-half,bernoulli-five}.json as shipped with dmspec 0.1.0
SHIPPED = {
    "free": {
        "type": "trigpoly", "const": 0.0, "cos": [], "sin": [],
        "command": {"max_period": 10, "N": 512, "M": 64, "grid_points": 2001,
                    "steps": 2000, "omega_samples": 32, "energies": [3.0, -3.0],
                    "seed": 0},
    },
    "cosine-half": {
        "type": "trigpoly", "const": 0.0, "cos": [1.0], "sin": [],
        "command": {"max_period": 10, "N": 512, "M": 64, "grid_points": 2001,
                    "steps": 2000, "omega_samples": 32, "energies": [3.5, -3.0],
                    "seed": 0},
    },
    "bernoulli-five": {
        "type": "step", "breaks": [0.0, 0.5], "values": [5.0, 0.0],
        "command": {"max_period": 10, "N": 512, "M": 64, "grid_points": 2001,
                    "steps": 2000, "omega_samples": 32, "energies": [2.5],
                    "seed": 0},
    },
}

#: period of the spectrum-deep unions
DEEP_PERIOD = 12
#: truncation size of the labels workload's IDS
LABELS_N = 4096
#: energies of the labels workload's rotation numbers, outside the spectrum
#: and, for bernoulli-five, in the middle of its gap (2, 3)
LABELS_ENERGIES = {"cosine-half": [3.5, -3.0], "bernoulli-five": [2.5, -2.5, 7.5]}


@dataclass(frozen=True)
class Command:
    """One call of dmspec.cli.main: a subcommand on one config."""

    subcommand: str
    config: str
    plot: bool = False

    @property
    def name(self) -> str:
        return f"{self.subcommand}-{self.config}"

    def argv(self, config_dir: Path, out_dir: Path, seed: int) -> list[str]:
        argv = [self.subcommand, "--config", str(config_dir / f"{self.config}.json"),
                "--seed", str(seed), "--out", str(out_dir / f"{self.name}.json")]
        if self.plot:
            argv += ["--plot", str(out_dir / f"{self.name}.svg")]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # config name -> keys of its "command" object that differ from SHIPPED
    overrides: dict = field(default_factory=dict)

    def configs(self) -> dict[str, dict]:
        out = {}
        for cmd in self.commands:
            cfg = json.loads(json.dumps(SHIPPED[cmd.config]))
            cfg["command"].update(self.overrides.get(cmd.config, {}))
            out[cmd.config] = cfg
        return out

    def write_configs(self, config_dir: Path) -> list[Path]:
        config_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, cfg in self.configs().items():
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            paths.append(path)
        return paths


WORKLOADS = {
    w.name: w
    for w in (
        # the full check battery, 17 unions from scratch per continuous config
        Workload("verify", (Command("verify", "free"),
                            Command("verify", "cosine-half"),
                            Command("verify", "bernoulli-five"))),
        # one deep union per config: band edges, orbits, merging, large output
        Workload("spectrum-deep",
                 (Command("spectrum", "cosine-half"),
                  Command("bands", "bernoulli-five", plot=True)),
                 overrides={"cosine-half": {"max_period": DEEP_PERIOD},
                            "bernoulli-five": {"max_period": DEEP_PERIOD}}),
        # Sturm counts and stable-direction/winding kernels; spectrum only for the hull
        Workload("labels",
                 (Command("ids", "cosine-half"),
                  Command("ids", "bernoulli-five"),
                  Command("rotation", "cosine-half"),
                  Command("rotation", "bernoulli-five")),
                 overrides={c: {"max_period": 6, "N": LABELS_N, "energies": e}
                            for c, e in LABELS_ENERGIES.items()}),
    )
}


def set_up(config_paths) -> tuple[object, float]:
    """Import dmspec and load the configs; returns dmspec.cli and the seconds taken.

    dmspec must be importable (its src directory on sys.path).
    """
    t0 = time.perf_counter()
    import dmspec.cli
    import dmspec.sampling

    for path in config_paths:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        obj.pop("command")
        dmspec.sampling.from_json(obj)
    return dmspec.cli, time.perf_counter() - t0
