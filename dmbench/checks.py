"""Output checks of the benchmark's workloads.

Each check compares dmspec's output with a result the benchmark computes on
its own (closed forms, dense Floquet eigenvalues, exact orbit arithmetic) or
with a property the method must have; none compares with stored output.
Every check returns a list of failure messages, empty when it passes; the
band check of `dmspec bands` also returns the known program fault it sees.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

#: band-edge agreement of dmspec with the dense Floquet eigenvalues
EDGE_TOL = 1e-6
#: Hausdorff bound of the Bernoulli union against its closed form
CLOSED_FORM_TOL = 1e-6
#: closed form of the band union of 5 * chi_[0,1/2) at every period
BERNOULLI_UNION = [(-2.0, 2.0), (3.0, 7.0)]
#: rotation number against 1 - k(E)
ROTATION_TOL = 0.03
#: checks per verify report
VERIFY_CHECK_COUNTS = {"free": 8, "cosine-half": 8, "bernoulli-five": 6}


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- intervals

def merge_intervals(intervals, gap: float) -> list[tuple[float, float]]:
    """Union of closed intervals, joining neighbours at most `gap` apart."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if out and lo - out[-1][1] <= gap:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _distance(x: float, union) -> float:
    return min(max(lo - x, x - hi, 0.0) for lo, hi in union)


def _sup_distance(a, b) -> float:
    # on each interval of a, the distance to b is piecewise linear, so its
    # maximum sits at an end or at the midpoint of a gap of b
    bb = merge_intervals(b, 0.0)
    mids = [0.5 * (p[1] + q[0]) for p, q in zip(bb, bb[1:])]
    worst = 0.0
    for lo, hi in a:
        for x in [lo, hi] + [m for m in mids if lo < m < hi]:
            worst = max(worst, _distance(x, bb))
    return worst


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite unions of closed intervals."""
    return max(_sup_distance(a, b), _sup_distance(b, a))


# ------------------------------------------------------------ Floquet bands

def floquet_bands(pots, merge_gap: float) -> list[tuple[float, float]]:
    """Bands of the p-periodic operator with one period `pots`, from dense eigenvalues.

    The edges are the eigenvalues of the p x p matrices with boundary phase
    +1 (periodic) and -1 (antiperiodic); band k runs from the 2k-th to the
    (2k+1)-th of the sorted edges.  The phase is added to the corner entries,
    which for p = 1 and p = 2 coincide with the diagonal and hopping entries.
    """
    p = len(pots)
    edges = []
    for phase in (1.0, -1.0):
        h = np.diag(np.asarray(pots, dtype=float))
        i = np.arange(p - 1)
        h[i, i + 1] += 1.0
        h[i + 1, i] += 1.0
        h[p - 1, 0] += phase
        h[0, p - 1] += phase
        edges.append(np.linalg.eigvalsh(h))
    e = np.sort(np.concatenate(edges))
    return merge_intervals([(float(e[2 * k]), float(e[2 * k + 1])) for k in range(p)], merge_gap)


def bernoulli_potential(label: str, period: int, height: float = 5.0) -> list[float]:
    """The potential of `dmspec bands` entry `label` for height * chi_[0,1/2).

    "k/d" is the orbit of k/d sampled right-continuously; "k/d-" is its left
    limit, the value on the interval that ends at each point.  The orbit is
    iterated exactly and must have minimal period `period`.
    """
    left = label.endswith("-")
    x = Fraction(label.rstrip("-"))
    points = [x * 2 ** j % 1 for j in range(period)]
    if x * 2 ** period % 1 != x or len(set(points)) != period:
        raise ValueError(f"{label} is not a point of minimal period {period}")
    if left:
        return [height if 0 < q <= Fraction(1, 2) else 0.0 for q in points]
    return [height if q < Fraction(1, 2) else 0.0 for q in points]


def orbit_count(p: int) -> int:
    """Number of doubling-map orbits of minimal period p.

    They are the binary Lyndon words of length p, except the word 1 at p = 1,
    whose point 0.111... is the fixed point 0 again.
    """
    def mobius(n):
        out, q = 1, 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if n > 1 else out

    lyndon = sum(mobius(d) * 2 ** (p // d) for d in range(1, p + 1) if p % d == 0) // p
    return lyndon - (p == 1)


# --------------------------------------------------------------- workloads

def check_verify(out_dir: Path) -> list[str]:
    errors = []
    for config, count in VERIFY_CHECK_COUNTS.items():
        report = _load(out_dir / f"verify-{config}.json")
        checks = report["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        if len(checks) != count or failed or not report["all_passed"]:
            errors.append(f"verify {config}: {len(checks)} checks (want {count}), "
                          f"failed {failed}")
    return errors


def check_cosine_union(payload: dict) -> list[str]:
    """One band, holding the period-1 and period-2 bands, inside [-3, 3]."""
    bands = payload["bands"]
    if len(bands) != 1:
        return [f"cosine-half union has {len(bands)} bands, the theorem says 1"]
    lo, hi = bands[0]
    slack = 1e-9
    errors = []
    for need_lo, need_hi, what in ((-1.0, 3.0, "fixed-point"), (-2.5, 1.5, "period-2")):
        if lo > need_lo + slack or hi < need_hi - slack:
            errors.append(f"cosine-half band [{lo}, {hi}] misses the {what} band "
                          f"[{need_lo}, {need_hi}]")
    if lo < -3.0 - slack or hi > 3.0 + slack:
        errors.append(f"cosine-half band [{lo}, {hi}] leaves [-3, 3]")
    return errors


def check_bernoulli_union(merged_bands) -> list[str]:
    d = hausdorff([tuple(b) for b in merged_bands], BERNOULLI_UNION)
    if not d <= CLOSED_FORM_TOL:
        return [f"bernoulli-five union {merged_bands} is {d:.3g} from "
                f"[-2,2] u [3,7] (bound {CLOSED_FORM_TOL})"]
    return []


def check_bernoulli_bands(payload: dict) -> tuple[list[str], list[str]]:
    """Orbit list, per-orbit bands, merged entry and closed form of `bands`.

    Returns (errors, faults).  A fault is a listed potential whose bands
    differ from the dense Floquet eigenvalues.  It marks the command as
    failed rather than the run as incorrect: the scan of
    spectrum.potential_bands misses narrow bands and gaps of some orbits of
    period 9 and above, the same orbits on every run and for every seed.
    """
    orbits = payload["orbits"]
    merged = payload["merged"]
    errors = []
    period = merged["max_period_used"]
    circle = [o for o in orbits if not o["point"].endswith("-")]
    for p in range(1, period + 1):
        n = sum(1 for o in circle if o["period"] == p)
        if n != orbit_count(p):
            errors.append(f"{n} orbits of period {p}, want {orbit_count(p)}")
    merge_gap = 10.0 * merged["tol"]
    off = []
    for o in orbits:
        try:
            pots = bernoulli_potential(o["point"], o["period"])
        except ValueError as exc:
            errors.append(str(exc))
            continue
        d = hausdorff([tuple(b) for b in o["bands"]], floquet_bands(pots, merge_gap))
        if not d <= EDGE_TOL:
            off.append((d, o["point"], o["period"]))
    faults = []
    if off:
        d, point, p = max(off)
        periods = sorted({q for _, _, q in off})
        faults.append(f"{len(off)} of {len(orbits)} potentials (periods {periods}) have "
                      f"bands more than {EDGE_TOL} from the dense eigenvalues, "
                      f"worst {d:.3g} at {point} (period {p})")
    listed_all = [tuple(b) for o in orbits for b in o["bands"]]
    if merge_intervals(listed_all, merge_gap) != [tuple(b) for b in merged["bands"]]:
        errors.append("merged entry is not the merge of the listed bands")
    return errors + check_bernoulli_union(merged["bands"]), faults


def check_svg(path: Path) -> list[str]:
    import xml.etree.ElementTree as ET

    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: {exc}"]
    if not root.tag.endswith("svg") or len(root) < 2:
        return [f"{path.name}: not a drawn SVG"]
    return []


def check_spectrum_deep(out_dir: Path) -> tuple[list[str], dict[str, list[str]]]:
    errors = check_cosine_union(_load(out_dir / "spectrum-cosine-half.json"))
    more, faults = check_bernoulli_bands(_load(out_dir / "bands-bernoulli-five.json"))
    errors += more + check_svg(out_dir / "bands-bernoulli-five.svg")
    return errors, ({"bands-bernoulli-five": faults} if faults else {})


def ids_tolerance(table: dict) -> float:
    """Monte Carlo plus boundary error scale of k: 3/sqrt(M N) + 2/N."""
    return 3.0 / math.sqrt(table["M"] * table["N"]) + 2.0 / table["N"]


def check_ids(config: str, table: dict) -> list[str]:
    e = np.asarray(table["energies"])
    k = np.asarray(table["k"])
    errors = []
    if len(e) < 2 or np.any(np.diff(e) <= 0):
        errors.append(f"ids {config}: energy grid too short or unsorted")
    if np.any(np.diff(k) < 0):
        errors.append(f"ids {config}: k decreases")
    if k[0] != 0.0 or k[-1] != 1.0:
        errors.append(f"ids {config}: k runs from {k[0]} to {k[-1]}, not 0 to 1")
    return errors


def k_at(table: dict, E: float) -> float:
    e = np.asarray(table["energies"])
    return float(table["k"][int(np.argmin(np.abs(e - E)))])


def check_labels(out_dir: Path) -> list[str]:
    errors = []
    for config in ("cosine-half", "bernoulli-five"):
        table = _load(out_dir / f"ids-{config}.json")
        errors += check_ids(config, table)
        for r in _load(out_dir / f"rotation-{config}.json")["rotation"]:
            E, k = r["E"], k_at(table, r["E"])
            if "value" not in r or abs(r["value"] - (1.0 - k)) >= ROTATION_TOL:
                errors.append(f"rotation {config} E={E}: {r.get('value')} vs 1-k = {1 - k}")
            if config == "cosine-half" and not (
                    k in (0.0, 1.0) and r["verdict"] == "integer" and r["integer"] == 1 - k):
                errors.append(f"rotation cosine-half E={E}: verdict {r['verdict']} "
                              f"{r.get('integer')} where k = {k}")
        if config == "bernoulli-five":
            e = np.asarray(table["energies"])
            inside = (e > BERNOULLI_UNION[0][1]) & (e < BERNOULLI_UNION[1][0])
            label = float(np.mean(np.asarray(table["k"])[inside]))
            if abs(label - 0.5) > 3.0 * ids_tolerance(table):
                errors.append(f"bernoulli-five gap label {label} is not 1/2 "
                              f"within 3 x {ids_tolerance(table):.3g}")
    return errors


def check_outputs(workload: str, out_dir: Path) -> tuple[list[str], dict[str, list[str]]]:
    """All output checks of one round of `workload`: (errors, faults by command)."""
    if workload == "verify":
        return check_verify(out_dir), {}
    if workload == "spectrum-deep":
        return check_spectrum_deep(out_dir)
    return check_labels(out_dir), {}


def check_identical(first: Path, other: Path) -> list[str]:
    """Every output file of round `other` is byte-identical to that of `first`."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in other.iterdir()):
        return [f"{other.name}: files {names} differ from {first.name}"]
    return [f"{other.name}/{n} differs from {first.name}/{n}"
            for n in names if (first / n).read_bytes() != (other / n).read_bytes()]
