"""The dmspec benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a dmspec checkout:

    python3 dmbench/run.py --workload {verify,spectrum-deep,labels} \
        --seed N --seconds S --trace {0,1}

The process imports dmspec from ./src and calls dmspec.cli.main in-process,
one round of the workload's commands after another, for about S seconds
and at least MIN_ROUNDS rounds.  The seed reaches dmspec only as --seed.
With --trace 0 it prints wall_s, setup_s and peak_rss_mb; with --trace 1 it
then runs MIN_ROUNDS more rounds with every traced function wrapped and
prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Outputs, the
result and the spans go to dmbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, median_metrics, round_metrics, unit_of
from workloads import WORKLOADS, set_up

HERE = Path(__file__).resolve().parent
#: rounds per pass at the least, so two runs of every command can be compared
MIN_ROUNDS = 2
#: fresh processes timing the set-up, besides the run's own
SETUP_PROBES = 10
#: the program runs on one thread; numpy's BLAS is held to one as well
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def run_rounds(cli, workload, config_dir, out, tag, seed, seconds, tracer=None):
    """Rounds of the workload's commands; each round writes to out/<tag><i>/.

    After MIN_ROUNDS, another round starts only if, at the pace of the last
    one, it ends nearer to `seconds` than stopping now would.
    """
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start + rounds[-1]["wall"] / 2 < seconds):
        rdir = out / f"{tag}{len(rounds)}"
        rdir.mkdir()
        argvs = [c.argv(config_dir, rdir, seed) for c in workload.commands]
        codes, times = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        for argv in argvs:
            ta = time.perf_counter()
            try:
                codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                codes.append(None)
            times.append(time.perf_counter() - ta)
        t1, c1 = time.perf_counter(), time.process_time()
        spans = tracer.take() if tracer is not None else None
        rounds.append({"dir": rdir, "codes": codes, "times": times, "wall": t1 - t0,
                       "cpu": c1 - c0, "spans": spans})
    return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = Path.cwd() / "src"
    if not (src / "dmspec" / "__init__.py").is_file():
        print("dmbench: no dmspec package under ./src; run from the root of a dmspec "
              "checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    out = HERE / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    config_dir = out / "configs"
    config_paths = workload.write_configs(config_dir)

    cli, own_setup = set_up(config_paths)
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"dmbench: dmspec imported from {cli.__file__}, not ./src", file=sys.stderr)
        return 2
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(src)] + [str(p) for p in config_paths]
    setups = [own_setup]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        setups.append(float(done.stdout.split()[-1]))

    import checks  # numpy comes in here, after the set-up was timed

    rounds = run_rounds(cli, workload, config_dir, out, "r", args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the mean round: the host's speed drifts over minutes, so the whole
    # measured time steadies wall_s more than the middle one of a few rounds
    wall = statistics.fmean(r["wall"] for r in rounds)

    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(cli, workload, config_dir, out, "t", args.seed, 0.0, tracer)
        finally:
            tracer.uninstall()

    all_rounds = rounds + traced
    clean = [r["dir"] for r in all_rounds if all(c == 0 for c in r["codes"])]
    errors, faults = ["no round ran without a failed command"], {}
    if clean:
        errors, faults = checks.check_outputs(workload.name, clean[0])
        for other in clean[1:]:
            errors += checks.check_identical(clean[0], other)
    for command, messages in faults.items():
        for m in messages:
            print(f"dmbench: {command} failed: {m}", file=sys.stderr)
    for e in errors:
        print(f"dmbench: check failed: {e}", file=sys.stderr)
    names = [c.name for c in workload.commands]
    attempted = sum(len(r["codes"]) for r in all_rounds)
    failed = sum(1 for r in all_rounds for name, code in zip(names, r["codes"])
                 if code != 0 or name in faults)

    if args.trace:
        layer = median_metrics([round_metrics(r["spans"]) for r in traced])
        traced_wall = statistics.fmean(r["wall"] for r in traced)
        layer["process.cpu_s"] = statistics.fmean(r["cpu"] for r in rounds)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - wall
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(layer.items())}
        with gzip.open(out / "trace.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([r["spans"] for r in traced], fh)
    else:
        metrics = {"wall_s": metric(wall, "s"),
                   "setup_s": metric(statistics.median(setups), "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}

    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (out / "result.json").write_text(json.dumps(
        {**result, "round_wall_s": [r["wall"] for r in rounds],
         "round_command_s": [r["times"] for r in rounds],
         "round_cpu_s": [r["cpu"] for r in rounds], "setup_samples_s": setups},
        indent=1) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
