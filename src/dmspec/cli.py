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
import csv
import io
import json
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

from . import ids, sampling, schwartzman, spectrum, svgplot, verify
from .errors import DmspecError, NotHyperbolic


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _load_config(args, defaults: verify.Params = verify.Params()):
    """The sampling function and the parameters of args.config, with --seed and --energies."""
    f, params = sampling.TrigPoly(), defaults
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
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


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, built by joins.

    With an indent, json.dumps runs its pure-Python encoder one token at a
    time.  Here a list of floats is one join over float.__repr__, as json
    writes a float (np.float64 included), and only a list holding anything
    else, or a NaN or an infinity, goes item by item.  Strings and keys go
    through json's own encode_basestring_ascii, so a key that is not a str
    raises TypeError, as any other type does; tuples are written as lists.
    pad is the newline and indent of the enclosing level.
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item is not a float
            text = "n"
        if "n" in text:  # "nan", "inf", or an item that is not a float
            text = ("," + inner).join([_json(x, inner) for x in obj])
        return "[" + inner + text + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _json(value, inner)
             for key, value in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload_json, rows, header):
    """Write either the JSON payload or CSV rows, to --out or stdout."""
    if args.format == "json":
        text = _json(payload_json) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_bands(args) -> int:
    f, params = _load_config(args)
    max_period, tol = params.max_period, spectrum.TOL
    # a left-limit potential follows its orbit under the label "<point>-"
    per_period = spectrum.bands_by_period(f, max_period)
    merged = spectrum.merge_bands(per_period, tol)
    orbits = [(pb.period, label, lo, hi) for pb in per_period
              for label, (lo, hi) in zip(pb.labels, pb.band_edges(tol))]
    payload, rows = None, []  # only the requested format is built
    if args.format == "json":
        payload = {"orbits": [{"period": p, "point": label, "bands": [list(b) for b in zip(lo, hi)]}
                              for p, label, lo, hi in orbits],
                   "merged": merged.to_json()}
    else:
        rows = [["orbit", p, label, j, _fmt(a), _fmt(b)]
                for p, label, lo, hi in orbits for j, (a, b) in enumerate(zip(lo, hi))]
        rows += [["merged", max_period, "", i, _fmt(b.lo), _fmt(b.hi)]
                 for i, b in enumerate(merged.bands)]
    _emit(args, payload, rows, ["source", "period", "point", "band_index", "lo", "hi"])
    if args.plot:
        per_period_merged = {pb.period: spectrum.merge_bands([pb], tol).bands for pb in per_period}
        svgplot.band_diagram(per_period_merged, merged, args.plot)
    return 0


def cmd_spectrum(args) -> int:
    f, params = _load_config(args)
    s = spectrum.union_spectrum(f, params.max_period)
    rows = [[i, _fmt(b.lo), _fmt(b.hi)] for i, b in enumerate(s.bands)]
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
        svgplot.ids_staircase(table, s.bands, args.plot)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config (sampling schema + 'command' object)")
    common.add_argument("--seed", type=int, default=None, help="64-bit seed (overrides config)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--plot", help="write an SVG figure to this path")
    parser = argparse.ArgumentParser(
        prog="dmspec",
        description="Spectra, density of states, and rotation numbers for "
                    "Schrodinger operators driven by the doubling map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bands", parents=[common],
                   help="per-orbit band spectra and their union").set_defaults(fn=cmd_bands)
    sub.add_parser("spectrum", parents=[common],
                   help="merged band union").set_defaults(fn=cmd_spectrum)
    sub.add_parser("gaps", parents=[common],
                   help="interior gaps of the band union").set_defaults(fn=cmd_gaps)
    sub.add_parser("ids", parents=[common],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DmspecError, OSError, json.JSONDecodeError) as exc:
        print(f"dmspec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
