"""Command-line front end.

Subcommands: bands, spectrum, gaps, ids, rotation, verify.  A JSON config
supplies the sampling function (sampling-module schema) plus a "command"
object whose keys are the fields of verify.Params; flags override seed,
energies, output format and paths.
Outputs are deterministic for a fixed config: CSV (RFC 4180) or JSON, plus
optional SVG figures.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ids, sampling, schwartzman, spectrum, svgplot, verify
from .errors import DmspecError, NotHyperbolic


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _load_config(args, defaults: verify.Params = verify.Params()):
    """The sampling function and the parameters of args.config, with --seed and --energies."""
    f, params = sampling.TrigPoly(), defaults
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
                raise DmspecError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(obj, dict):
            raise DmspecError("config must be a JSON object")
        params = defaults.updated(obj.pop("command", {}))
        f = sampling.from_json(obj)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    if getattr(args, "energies", None) is not None:
        params = replace(params, energies=args.energies)
    return f, params


def _energy_list(text: str) -> tuple[float, ...]:
    """The --energies value: comma-separated finite numbers."""
    try:
        energies = tuple(float(x) for x in text.split(","))
    except ValueError:
        energies = (math.nan,)
    if not all(map(math.isfinite, energies)):
        raise argparse.ArgumentTypeError(f"want comma-separated finite numbers, got {text!r}")
    return energies


def _emit(args, payload, rows, header):
    """Write either the JSON payload or CSV rows to --out or stdout, as they are made.

    payload is a dict, or an iterable of the pieces of the JSON text.
    """
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            fh.writelines([json.dumps(payload, indent=2, sort_keys=True)]
                          if isinstance(payload, dict) else payload)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def _row_blocks(per_period):
    """(period, labels, lo, hi, counts) of each block of at most EIGEN_BLOCK rows of each
    PeriodBands, in order: the block's bands by _row_bands."""
    for pb in per_period:
        for start in range(0, len(pb.labels), spectrum.EIGEN_BLOCK):
            stop = start + spectrum.EIGEN_BLOCK
            yield (pb.period, pb.labels[start:stop],
                   *spectrum._row_bands(pb.edges[start:stop], spectrum.TOL))


@functools.cache
def _orbit_template(count: int) -> str:
    """The % template of one row of the "orbits" list with `count` bands, at its indent."""
    i1, i2, i3, i4 = ("\n" + "  " * k for k in range(2, 6))
    band = i3 + "[" + i4 + "%s," + i4 + "%s" + i3 + "]"
    return (i1 + "{" + i2 + '"bands": [' + ",".join([band] * count) + i2 + "],"
            + i2 + '"period": %s,' + i2 + '"point": %s' + i1 + "}")


def _orbits_json(per_period):
    """The pieces of the "orbits" list in the bands document, at its indent: json.dumps of
    [{"bands": [[lo, hi], ...], "period": p, "point": label}, ...] over every row.

    Written straight from the edge tables, one block of _row_blocks at a
    time: one float.__repr__ of each distinct edge of the block fills the %
    templates of its rows, whose pieces are constant strings, where
    json.dumps would go token by token.  Edges are told apart by their
    bits, so -0.0 and 0.0 stay apart.
    """
    sep = "["
    for period, labels, lo, hi, counts in _row_blocks(per_period):
        edges = np.stack([lo, hi], axis=1).ravel()
        write = float.__repr__ if np.isfinite(edges).all() else json.dumps  # NaN, Infinity
        bits, inverse = np.unique(edges.view(np.int64), return_inverse=True)
        distinct = list(map(write, bits.view(np.float64).tolist()))
        text = np.array(distinct, dtype=object)[inverse].tolist()
        period, values, start = int.__repr__(period), [], 0
        counts = counts.tolist()
        for label, count in zip(labels, counts):
            values += text[start:start + 2 * count]
            values += (period, encode_basestring_ascii(label))
            start += 2 * count
        yield sep + ",".join(map(_orbit_template, counts)) % tuple(values)
        sep = ","
    yield "\n  ]"


def _orbit_rows(per_period):
    """The CSV rows of every row's bands, in label order: orbit, period, label, index, lo, hi."""
    for period, labels, lo, hi, counts in _row_blocks(per_period):
        lo, hi = map(_fmt, lo.tolist()), map(_fmt, hi.tolist())
        for label, count in zip(labels, counts.tolist()):
            for j in range(count):
                yield ["orbit", period, label, j, next(lo), next(hi)]


def cmd_bands(args) -> int:
    f, params = _load_config(args)
    # a left-limit potential follows its orbit under the label "<point>-"
    per_period = spectrum.bands_by_period(f, params.max_period)
    merged = spectrum.merge_bands(per_period, spectrum.TOL)

    def document():  # run by _emit under --format json only
        head = json.dumps({"merged": merged.to_json()}, indent=2, sort_keys=True)
        yield head[:-2] + ',\n  "orbits": '
        yield from _orbits_json(per_period)
        yield "\n}"

    rows = itertools.chain(_orbit_rows(per_period),
                           (["merged", params.max_period, "", i, _fmt(a), _fmt(b)]
                            for i, (a, b) in enumerate(zip(merged.lo.tolist(), merged.hi.tolist()))))
    _emit(args, document(), rows, ["source", "period", "point", "band_index", "lo", "hi"])
    if args.plot:
        rows_by_period = {pb.period: spectrum._merged(pb.edges[:, 0::2].ravel(),
                                                      pb.edges[:, 1::2].ravel(), spectrum.TOL)
                          for pb in per_period}
        svgplot.band_diagram(rows_by_period, merged, args.plot)
    return 0


def cmd_spectrum(args) -> int:
    f, params = _load_config(args)
    s = spectrum.union_spectrum(f, params.max_period)
    rows = [[i, _fmt(a), _fmt(b)] for i, (a, b) in enumerate(zip(s.lo.tolist(), s.hi.tolist()))]
    payload = s.to_json()
    payload["hull"] = list(s.hull)
    payload["gaps"] = [list(g) for g in s.gaps]
    _emit(args, payload, rows, ["band_index", "lo", "hi"])
    if args.plot:
        svgplot.band_diagram({}, s, args.plot)
    return 0


def cmd_gaps(args) -> int:
    f, params = _load_config(args)
    s = spectrum.union_spectrum(f, params.max_period)
    report = spectrum.gap_report(s, include_below_resolution=True)
    rows = []
    gaps_json = []
    for (lo, hi), width in report:
        below = width < s.resolution
        rows.append([_fmt(lo), _fmt(hi), _fmt(width), str(below).lower()])
        gaps_json.append({"lo": lo, "hi": hi, "length": width, "below_resolution": below})
    payload = {"gaps": gaps_json, "resolution": s.resolution,
               "max_period_used": s.max_period_used}
    _emit(args, payload, rows, ["lo", "hi", "length", "below_resolution"])
    return 0


def cmd_ids(args) -> int:
    f, params = _load_config(args)
    s = spectrum.union_spectrum(f, params.max_period)
    grid = ids.default_energy_grid(s.hull, params.grid_points)
    table = ids.ids_estimate(f, grid, truncation_size=params.N, sample_count=params.M,
                             seed=params.seed)
    rows = [[_fmt(e), _fmt(k)] for e, k in zip(table.energies, table.k_values)]
    payload = table.to_json()
    payload["tolerance"] = table.tolerance
    _emit(args, payload, rows, ["E", "k"])
    if args.plot:
        svgplot.ids_staircase(table, s, args.plot)
    return 0


def cmd_rotation(args) -> int:
    f, params = _load_config(args)
    if not params.energies:
        raise DmspecError("rotation requires energies (config command.energies or --energies)")
    rows = []
    payload = []
    ests = schwartzman.rotation_number(f, params.energies, omega_samples=params.omega_samples,
                                       steps=params.steps, seed=params.seed)
    for E, est in zip(params.energies, ests):
        if isinstance(est, NotHyperbolic):
            rows.append([_fmt(E), "", "", "not_hyperbolic", ""])
            payload.append({"E": E, "verdict": "not_hyperbolic"})
            continue
        if isinstance(est, DmspecError):  # this energy's estimate failed; the rest stand
            rows.append([_fmt(E), "", "", "error", ""])
            payload.append({"E": E, "verdict": "error", "error": str(est)})
            continue
        verdict = schwartzman.integrality_check(est)
        rows.append([
            _fmt(E), _fmt(est.value), _fmt(est.stderr),
            verdict.verdict.value,
            "" if verdict.integer is None else str(verdict.integer),
        ])
        payload.append({
            "E": E, "value": est.value, "stderr": est.stderr,
            "steps": est.steps_used, "omega_samples": est.omega_samples,
            "verdict": verdict.verdict.value, "integer": verdict.integer,
            **est.diagnostics,
        })
    _emit(args, {"rotation": payload}, rows,
          ["E", "value", "stderr", "verdict", "integer"])
    return 0


def cmd_verify(args) -> int:
    f, params = _load_config(args, verify.VERIFY_DEFAULTS)
    report = verify.run_verification(f, params)
    rows = [[c["name"], str(c["passed"]).lower(), c["detail"]] for c in report["checks"]]
    _emit(args, report, rows, ["check", "passed", "detail"])
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; each parse_args makes a new namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config (sampling schema + 'command' object)")
    common.add_argument("--seed", type=int, default=None, help="64-bit seed (overrides config)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    plot = argparse.ArgumentParser(add_help=False)
    plot.add_argument("--plot", help="write an SVG figure to this path")
    parser = argparse.ArgumentParser(
        prog="dmspec",
        description="Spectra, density of states, and rotation numbers for "
                    "Schrodinger operators driven by the doubling map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bands", parents=[common, plot],
                   help="per-orbit band spectra and their union").set_defaults(fn=cmd_bands)
    sub.add_parser("spectrum", parents=[common, plot],
                   help="merged band union").set_defaults(fn=cmd_spectrum)
    sub.add_parser("gaps", parents=[common],
                   help="interior gaps of the band union").set_defaults(fn=cmd_gaps)
    sub.add_parser("ids", parents=[common, plot],
                   help="integrated density of states table").set_defaults(fn=cmd_ids)
    rot = sub.add_parser("rotation", parents=[common],
                         help="rotation numbers with integrality verdicts")
    rot.add_argument("--energies", type=_energy_list,
                     help="comma-separated energies (overrides config)")
    rot.set_defaults(fn=cmd_rotation)
    sub.add_parser("verify", parents=[common],
                   help="run the verification suite").set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DmspecError, OSError) as exc:
        print(f"dmspec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
