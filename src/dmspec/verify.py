"""End-to-end verification checks shared by the CLI and the acceptance suite.

Every check returns a dict with name, passed, and detail, and is independent
of the code path it validates: eigenvalue band edges are checked against a
bisection of the Floquet discriminant, Sturm counts against a dense solver,
winding rates against density-of-states complements.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import cocycle, ids, schwartzman, spectrum
from .dynamics import BackwardDigits, check_period, enumerate_orbits
from .errors import DmspecError, InvalidParameter, RootBracketingFailure
from .sampling import SamplingFunction, _number, _numbers, forward_orbit


@dataclass(frozen=True)
class Params:
    """The "command" object of a config, one field per key, read by every subcommand.

    The defaults are those of bands, spectrum, gaps, ids and rotation; verify
    starts from VERIFY_DEFAULTS.  Ranges are checked where the values are used.
    """

    max_period: int = 6
    tol: float = 1e-10  # band edge and merge tolerance
    coarse_tol: float = 0.02  # merge tolerance of the disconnection check
    N: int = 512  # IDS truncation size
    M: int = 64  # IDS sample count
    grid_points: int = 2001
    steps: int = 2000
    omega_samples: int = 32
    substeps: int = 64
    depth: int = 60
    oracle_max_period: int = 8
    shrink_periods: tuple[int, ...] = (4, 6, 8, 10, 12)
    energies: tuple[float, ...] = ()
    integrality_tol: float = 0.01
    seed: int = 0

    def updated(self, command) -> "Params":
        """These parameters with the keys of a config's "command" object replaced.

        An unknown key, a value of the wrong type and a non-finite number
        raise InvalidParameter naming the key.
        """
        if not isinstance(command, dict):
            raise InvalidParameter("'command' must be a JSON object")
        kinds = {f.name: f.type for f in fields(self)}
        unknown = sorted(set(command) - set(kinds))
        if unknown:
            raise InvalidParameter(f"unknown command key(s) {', '.join(unknown)}; "
                                   f"valid keys: {', '.join(kinds)}")
        values = {}
        for key, value in command.items():
            kind = kinds[key]  # a string: "int", "float", "tuple[int, ...]", ...
            elem = int if "int" in kind else float
            parse = _numbers if kind.startswith("tuple") else _number
            values[key] = parse(f"command.{key}", value, elem)
        return replace(self, **values)


#: verify's parameters without a config: a deeper max_period than the rest
VERIFY_DEFAULTS = Params(max_period=10)


def _bisect_boundary(disc, inner, outer, tol):
    """Move each (inside, outside) bracket onto the |disc| = 2 boundary."""
    inner = np.asarray(inner, dtype=float).copy()
    outer = np.asarray(outer, dtype=float).copy()
    while np.max(np.abs(outer - inner), initial=0.0) > tol:
        mid = 0.5 * (inner + outer)
        is_in = np.abs(disc(mid)) <= 2.0
        inner = np.where(is_in, mid, inner)
        outer = np.where(is_in, outer, mid)
    return 0.5 * (inner + outer)


def _interior_seed(disc, a, b, fa):
    """A point with |disc| <= 2 inside (a, b), given a sign change of disc.

    Bisection on the sign must pass through the band around the zero; the
    band can be far narrower than the scan spacing, which is exactly the
    case this rescues.
    """
    lo, hi, flo = a, b, fa
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(disc(np.array([mid]))[0])
        if abs(fm) <= 2.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            return None
    return None


def _bands_from_disc(disc, degree, scan_lo, scan_hi, tol):
    """Bands of {|disc| <= 2} inside [scan_lo, scan_hi] for a degree-p discriminant."""
    K = max(64 * degree, 64)
    j = np.arange(K)
    nodes = 0.5 * (scan_lo + scan_hi) + 0.5 * (scan_hi - scan_lo) * np.cos(np.pi * j / (K - 1))
    nodes = nodes[::-1]  # ascending
    vals = disc(nodes)
    inside = np.abs(vals) <= 2.0

    inner_pts, outer_pts = [], []
    # crossings of the |disc| = 2 boundary between adjacent nodes
    flip = inside[:-1] != inside[1:]
    for i in np.nonzero(flip)[0]:
        if inside[i]:
            inner_pts.append(nodes[i])
            outer_pts.append(nodes[i + 1])
        else:
            inner_pts.append(nodes[i + 1])
            outer_pts.append(nodes[i])
    # narrow bands hiding between two outside nodes reveal a sign change of disc
    hidden = (~inside[:-1]) & (~inside[1:]) & ((vals[:-1] < 0.0) != (vals[1:] < 0.0))
    for i in np.nonzero(hidden)[0]:
        seed = _interior_seed(disc, nodes[i], nodes[i + 1], vals[i])
        if seed is None:
            continue
        inner_pts.extend([seed, seed])
        outer_pts.extend([nodes[i], nodes[i + 1]])

    if not inner_pts:
        raise RootBracketingFailure(
            f"scan grid of {K} Chebyshev nodes on [{scan_lo}, {scan_hi}] found no "
            f"band of the degree-{degree} discriminant"
        )
    edges = np.sort(_bisect_boundary(disc, inner_pts, outer_pts, tol))

    # classify the intervals between consecutive edges; midpoints alone are
    # unreliable when tol exceeds a band's width, so the known interior
    # points (inside nodes and rescue seeds) also witness their intervals
    pts = np.concatenate([[scan_lo], edges, [scan_hi]])
    mids = 0.5 * (pts[:-1] + pts[1:])
    mid_inside = np.abs(disc(mids)) <= 2.0
    witness_idx = np.searchsorted(pts, np.sort(inner_pts)) - 1
    mid_inside[witness_idx[(witness_idx >= 0) & (witness_idx < len(mids))]] = True
    bands = []
    for i in np.nonzero(mid_inside)[0]:
        lo, hi = float(pts[i]), float(pts[i + 1])
        if bands and lo - bands[-1][1] <= spectrum.MERGE_FACTOR * tol:
            bands[-1][1] = hi
        else:
            bands.append([lo, hi])
    if not bands or len(bands) > degree:
        raise RootBracketingFailure(
            f"scan grid of {K} Chebyshev nodes on [{scan_lo}, {scan_hi}] isolated "
            f"{len(bands)} bands for a degree-{degree} discriminant"
        )
    return [spectrum.Band(lo, hi) for lo, hi in bands]


def discriminant_bands(pots, bound: float, tol: float = 1e-10) -> list[spectrum.Band]:
    """Bands of {|disc| <= 2} for one period pots with |pots| <= bound.

    The oracle of the eigenvalue engine: a Chebyshev scan of the Floquet
    discriminant with a sign-change rescue for narrow bands, then bracketed
    bisection of each edge to absolute tolerance tol.  It can miss bands
    narrower than its rescue resolves, at periods of 9 and more.
    """
    scan_lo, scan_hi = -2.0 - bound - 0.5, 2.0 + bound + 0.5
    disc = lambda E: cocycle.trace_over_cycle(pots, E)
    return _bands_from_disc(disc, len(pots), scan_lo, scan_hi, tol)


def dense_eigen_count(values, E: float) -> int:
    """Eigenvalues <= E of the tridiagonal truncation, by full diagonalization."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    H = np.diag(values)
    if n > 1:
        H += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return int(np.count_nonzero(np.linalg.eigvalsh(H) <= E))


def hausdorff_to_intervals(bands, targets) -> float:
    """Hausdorff distance between a band union and a union of closed intervals."""
    pts = []
    for lo, hi in targets:
        pts.append(np.linspace(lo, hi, max(int((hi - lo) * 2000), 2)))
    target_pts = np.concatenate(pts)
    band_arr = np.array([[b.lo, b.hi] for b in bands])

    def dist_to_bands(x):
        inside = (band_arr[:, 0][None, :] <= x[:, None]) & (x[:, None] <= band_arr[:, 1][None, :])
        d = np.minimum(np.abs(x[:, None] - band_arr[:, 0][None, :]),
                       np.abs(x[:, None] - band_arr[:, 1][None, :]))
        d[inside] = 0.0
        return d.min(axis=1)

    def dist_to_targets(x):
        t = np.asarray(targets)
        inside = (t[:, 0][None, :] <= x[:, None]) & (x[:, None] <= t[:, 1][None, :])
        d = np.minimum(np.abs(x[:, None] - t[:, 0][None, :]),
                       np.abs(x[:, None] - t[:, 1][None, :]))
        d[inside] = 0.0
        return d.min(axis=1)

    band_pts = np.concatenate([np.linspace(b.lo, b.hi, max(int(b.width * 2000), 2)) for b in bands])
    return float(max(dist_to_bands(target_pts).max(), dist_to_targets(band_pts).max()))


def covers_interval(s: spectrum.SpectrumApprox, lo: float, hi: float, tol: float) -> bool:
    """Every point of [lo, hi] lies within tol of the band union."""
    if lo < s.hull[0] - tol or hi > s.hull[1] + tol:
        return False
    for g0, g1 in s.gaps:
        a, b = max(g0, lo), min(g1, hi)
        if b - a > 2.0 * tol:
            return False
    return True


def _check(name: str, fn) -> dict:
    try:
        passed, detail = fn()
    except DmspecError as exc:
        return {"name": name, "passed": False, "detail": f"error: {exc}"}
    return {"name": name, "passed": bool(passed), "detail": detail}


def check_sturm_counts(seed: int = 0, cases: int = 20, max_size: int = 64) -> dict:
    def run():
        rng = np.random.default_rng(seed)
        for _ in range(cases):
            n = int(rng.integers(4, max_size + 1))
            values = rng.uniform(-3.0, 3.0, size=n)
            E = float(rng.uniform(-5.0, 5.0))
            a = ids.eigen_count(values, E)
            b = dense_eigen_count(values, E)
            if a != b:
                return False, f"Sturm {a} != dense {b} at N={n}, E={E:.4f}"
        return True, f"{cases} cases, N <= {max_size}, exact agreement"

    return _check("sturm_vs_dense", run)


def check_band_edge_oracle(f: SamplingFunction, max_period: int = 8,
                           tol: float = 1e-6, band_tol: float = 1e-10) -> dict:
    # the eigenvalue engine against the discriminant bisection on every
    # sided potential, taken per orbit from PeriodicOrbit.sided_potentials;
    # the discriminant at every engine edge; and the period-1 union against
    # its closed form from f(0) and f(0-), which sees a dropped left limit
    def run():
        bound = f.sup_bound()
        oracle = [(o.period, label, pots) for o in enumerate_orbits(max_period)
                  for label, pots in o.sided_potentials(f)]
        engine = [(pb.period, label, pb.bands(i))
                  for pb in spectrum.bands_by_period(f, max_period, tol=band_tol)
                  for i, label in enumerate(pb.labels)]
        if [x[:2] for x in engine] != [x[:2] for x in oracle]:
            differ = sorted({x[1] for x in oracle} ^ {x[1] for x in engine})
            return False, f"engine and orbit potentials differ: {differ[:5]}"
        worst = residual = 0.0
        for (_, label, pots), (_, _, primary) in zip(oracle, engine):
            ref = discriminant_bands(pots, bound, tol=band_tol)
            if len(primary) != len(ref):
                return False, f"orbit {label}: {len(primary)} bands vs oracle {len(ref)}"
            for bp, bo in zip(primary, ref):
                worst = max(worst, abs(bp.lo - bo.lo), abs(bp.hi - bo.hi))
            edges = [x for b in primary for x in (b.lo, b.hi)]
            disc = cocycle.trace_over_cycle(pots, edges)
            residual = max(residual, float(np.max(np.abs(np.abs(disc) - 2.0))))
        closed = _period_one_closed_form(f)
        union = [(b.lo, b.hi) for b in spectrum.union_spectrum(f, 1, tol=band_tol).bands]
        if len(union) != len(closed):
            return False, f"period-1 union {union} vs closed form {closed}"
        closed_dev = max(abs(a - b) for u, c in zip(union, closed) for a, b in zip(u, c))
        left_count = sum(label.endswith("-") for _, label, _ in oracle)
        detail = (f"max edge deviation {worst:.2e}, max ||disc| - 2| {residual:.2e} "
                  f"over periods <= {max_period}")
        if left_count:
            detail += f", incl. {left_count} left-limit potential(s)"
        detail += f"; period-1 union vs closed form {closed_dev:.2e}"
        return max(worst, residual, closed_dev) < tol, detail

    return _check("band_edges_vs_eigen_oracle", run)


def _period_one_closed_form(f: SamplingFunction) -> list[tuple[float, float]]:
    """The period-1 band union [f(0) - 2, f(0) + 2] u [f(0-) - 2, f(0-) + 2]."""
    v0, v1 = sorted((float(f(0.0)), float(f.left_limit(0.0))))
    if v1 - v0 <= 4.0:
        return [(v0 - 2.0, v1 + 2.0)]
    return [(v0 - 2.0, v0 + 2.0), (v1 - 2.0, v1 + 2.0)]


def check_determinants(f: SamplingFunction, hull, seed: int = 0) -> dict:
    # the det of an n-step product carries a float error of order
    # |P|^2 * n * eps, so each trial grows n only while the entries stay
    # within the scale where 1e-9 * n is resolvable at all
    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        energies = [float(rng.uniform(hull[0], hull[1])) for _ in range(24)]
        energies += [hull[0] - 0.5, hull[1] + 0.5]
        for E in energies:
            omega = float(rng.random())
            pots = np.atleast_1d(f(forward_orbit(omega, 64)))
            P = np.eye(2)
            n = 0
            for v in pots:
                P = cocycle.step_matrix(E, v) @ P
                n += 1
                if np.abs(P).max() > 3e3:
                    break
            worst = max(worst, abs(float(np.linalg.det(P)) - 1.0) / n)
        return worst < 1e-9, f"max |det - 1|/n = {worst:.2e} over 26 products"

    return _check("unimodularity", run)


def check_invariance(f: SamplingFunction, hull, seed: int = 0, depth: int = 60) -> dict:
    def run():
        worst = 0.0
        for E in (hull[0] - 0.5, hull[1] + 0.5, hull[1] + 1.5):
            rep = cocycle.dichotomy_test(f, E, sample_count=100, depth=depth, seed=seed)
            if not rep.is_hyperbolic:
                return False, f"E={E} not detected hyperbolic: {rep.diagnostics}"
            worst = max(worst, rep.diagnostics["max_invariance_residual"])
        return worst < 1e-6, f"max invariance residual {worst:.2e}"

    return _check("stable_section_invariance", run)


def check_digit_independence(f: SamplingFunction, hull, depth: int = 60) -> dict:
    def run():
        E = hull[1] + 0.5
        d1 = BackwardDigits(digits=[0, 1] * 40)
        d2 = BackwardDigits(seed=99)
        r1, _ = cocycle.most_contracted_direction(f, E, 0.372, depth, digits=d1)
        r2, _ = cocycle.most_contracted_direction(f, E, 0.372, depth, digits=d2)
        same = r1.angle == r2.angle
        return same, f"angles {r1.angle!r} vs {r2.angle!r}"

    return _check("backward_digit_independence", run)


def _union(per_period, period: int, tol: float) -> spectrum.SpectrumApprox:
    """union_spectrum(f, period, tol) from bands_by_period(f, P, tol') with P >= period, tol' <= tol."""
    check_period(period)
    return spectrum.SpectrumApprox(spectrum.merge_bands(per_period[:period], tol),
                                   max_period_used=period, tol=tol)


def check_containment(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        center = float(f(0.0))
        lo, hi = center - 2.0, center + 2.0
        for period in range(1, params.max_period + 1):
            s = _union(per_period, period, params.tol)
            if not covers_interval(s, lo, hi, 1e-6):
                return False, f"union at max_period={period} misses [{lo}, {hi}]"
        return True, f"[{lo:.3f}, {hi:.3f}] covered at every max_period 1..{params.max_period}"

    return _check("fixed_point_containment", run)


def check_gap_shrinkage(per_period, params: Params) -> dict:
    def run():
        maxgaps = []
        for period in params.shrink_periods:
            report = spectrum.gap_report(_union(per_period, period, params.tol))
            maxgaps.append(report[0][1] if report else 0.0)
        seq = ", ".join(f"{g:.3g}" for g in maxgaps)
        nonincreasing = all(b <= a + 1e-12 for a, b in zip(maxgaps, maxgaps[1:]))
        resolution = spectrum.RESOLUTION_FACTOR * params.tol
        halved = maxgaps[-1] <= 0.5 * maxgaps[0] or maxgaps[0] < resolution
        return nonincreasing and halved, f"max interior gaps over periods {params.shrink_periods}: {seq}"

    return _check("gap_shrinkage", run)


def check_gap_labelling(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        s = _union(per_period, params.max_period, params.tol)
        grid = ids.default_energy_grid(s.hull, params.grid_points)
        table = ids.ids_estimate(f, grid, params.N, params.M, seed=params.seed)
        details = []
        ok = True
        for E, expected in ((s.hull[0] - 0.5, 1), (s.hull[1] + 0.5, 0)):
            est = schwartzman.rotation_number(
                f, E, omega_samples=params.omega_samples, steps=params.steps,
                substeps=params.substeps, seed=params.seed, depth=params.depth)
            k = table.value_at(E)
            verdict = schwartzman.integrality_check(est)
            match = abs(est.value - (1.0 - k)) < 0.03
            integer_ok = (verdict.verdict is schwartzman.Verdict.INTEGER
                          and verdict.integer == expected)
            ok = ok and match and integer_ok
            details.append(
                f"E={E:.3f}: rot={est.value:.5f}, 1-k={1.0 - k:.5f}, "
                f"verdict={verdict.verdict.value}({verdict.integer})"
            )
        return ok, "; ".join(details)

    return _check("gap_labelling_integrality", run)


def check_disconnection(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        coarse = _union(per_period, params.max_period, params.coarse_tol)
        # gaps surviving the coarse merge are genuine at that scale; the
        # below-resolution filter of gap_report is meant for fine tolerances
        if len(coarse.bands) < 2:
            return False, f"no interior gap found at max_period={params.max_period}"
        g0, g1 = max(coarse.gaps, key=lambda g: g[1] - g[0])
        width = g1 - g0
        pad = 0.05 * width
        gap = (g0 + pad, g1 - pad)
        grid = ids.default_energy_grid(coarse.hull, params.grid_points)
        table = ids.ids_estimate(f, grid, params.N, params.M, seed=params.seed)
        label = ids.gap_label(table, gap)
        mid = 0.5 * (gap[0] + gap[1])
        est = schwartzman.rotation_number(
            f, mid, omega_samples=params.omega_samples, steps=params.steps,
            substeps=params.substeps, seed=params.seed, depth=params.depth)
        verdict = schwartzman.integrality_check(est)
        consistent = abs(est.value - (1.0 - label)) < 0.03
        passed = len(coarse.bands) >= 2 and consistent
        return passed, (
            f"{len(coarse.bands)} bands, top gap ({g0:.3f}, {g1:.3f}), "
            f"label {label:.4f}, rotation {est.value:.4f} -> {verdict.verdict.value}"
        )

    return _check("disconnection_and_gap_label", run)


def run_verification(f: SamplingFunction, params: Params = VERIFY_DEFAULTS) -> dict:
    """The full check battery for one sampling function.

    The bands of every period are found once, at params.tol, and every union
    below merges a prefix of them.  check_band_edge_oracle finds its own,
    since the engine is what it checks.
    """
    periods = params.max_period
    if f.continuous:
        periods = max((periods, *params.shrink_periods))
    per_period = spectrum.bands_by_period(f, periods, params.tol)
    hull = _union(per_period, min(params.max_period, 8), params.tol).hull
    checks = [
        check_sturm_counts(seed=params.seed),
        check_band_edge_oracle(f, max_period=params.oracle_max_period, band_tol=params.tol),
        check_determinants(f, hull, seed=params.seed),
        check_invariance(f, hull, seed=params.seed, depth=params.depth),
        check_digit_independence(f, hull, depth=params.depth),
    ]
    if f.continuous:
        checks.append(check_containment(f, per_period, params))
        checks.append(check_gap_shrinkage(per_period, params))
        checks.append(check_gap_labelling(f, per_period, params))
    else:
        checks.append(check_disconnection(f, per_period, params))
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
