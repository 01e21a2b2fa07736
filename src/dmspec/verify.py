"""End-to-end verification checks shared by the CLI and the acceptance suite.

Every check returns a dict with name, passed, and detail, and is independent
of the code path it validates: eigenvalue band edges are certified on
orbit potentials built from Lyndon words, not from the engine's orbit
table, by the discriminant of spectrum._discriminant and the
interlacing Dirichlet eigenvalues, Sturm counts are checked against a dense
solver, winding rates against density-of-states complements, the stable
direction at a point against the steps from both of its preimages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cocycle, ids, schwartzman, spectrum
from .dynamics import BackwardDigits, CirclePoint, extend_backward
from .errors import DmspecError, InvalidParameter, NotHyperbolic
from .sampling import SamplingFunction, _float_orbits, _number, _numbers


#: the least value of each integer key of Params, the library's own ranges
_LEAST = {"N": 16, "M": 1, "grid_points": 2, "steps": 1, "omega_samples": 1, "seed": 0}
#: the bound on a certified band edge's error, in energy units
EDGE_TOL = 1e-6
#: the merge tolerance of the disconnection check
COARSE_TOL = 0.02
#: the periods of the gap-shrinkage check
SHRINK_PERIODS = (4, 6, 8, 10, 12)


@dataclass(frozen=True)
class Params:
    """The "command" object of a config, one field per key, read by every subcommand.

    The defaults are those of bands, spectrum, gaps, ids and rotation; verify
    starts from VERIFY_DEFAULTS.  Ranges are checked on construction, before
    any work, except max_period's, which dynamics.check_period owns.
    """

    max_period: int = 6
    N: int = 512  # IDS truncation size
    M: int = 64  # IDS sample count
    grid_points: int = 2001
    steps: int = 2000
    omega_samples: int = 32
    energies: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for key, least in _LEAST.items():
            value = getattr(self, key)
            if value < least:
                where = "command.seed or --seed" if key == "seed" else f"command.{key}"
                raise InvalidParameter(f"{key} must be >= {least}, got {value} ({where})")

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


def dense_eigen_count(values, E: float) -> int:
    """Eigenvalues <= E of the tridiagonal truncation, by full diagonalization."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    H = np.diag(values)
    if n > 1:
        H += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return int(np.count_nonzero(np.linalg.eigvalsh(H) <= E))


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


def check_sturm_counts(seed: int = 0) -> dict:
    # one Sturm pass over all 20 cases, each a column padded with +inf
    # sites, whose pivots stay +inf (or NaN) and add no count
    def run():
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(20):
            n = int(rng.integers(4, 65))
            cases.append((rng.uniform(-3.0, 3.0, size=n), float(rng.uniform(-5.0, 5.0))))
        columns = np.full((64, len(cases)), np.inf)
        for j, (values, _) in enumerate(cases):
            columns[:len(values), j] = values
        with np.errstate(invalid="ignore"):
            counts = ids._sturm_counts(columns, np.array([E for _, E in cases])).tolist()
        for (values, E), a in zip(cases, counts):
            b = dense_eigen_count(values, E)
            if a != b:
                return False, f"Sturm {a} != dense {b} at N={len(values)}, E={E:.4f}"
        return True, "20 cases, N <= 64, exact agreement"

    return _check("sturm_vs_dense", run)


def _certify(labels, pots: np.ndarray, edges: np.ndarray):
    """The first fault of the edges (n, 2p) of the potentials (n, p) or None, and the worst edge error.

    Band k is (edges[2k], edges[2k+1]), and the edges ascend.  The true edges
    are the roots of disc = +-2, signed +, -, -, +, +, ... from the top down.
    An edge's error, in energy units, is its Newton step |disc - want| /
    |disc'| to a root of its sign, so a wrong sign shows as about half its
    band's width.  Across a gap narrower than MERGE_FACTOR * spectrum.TOL, merged
    in every output, disc - want has a double root where disc' vanishes, so
    the error is the second-order step sqrt(2 |disc - want| / |disc''|).  The
    p - 1 Dirichlet eigenvalues of sites 1 .. p-1 lie one in each closed gap
    (Teschl, Jacobi Operators and Completely Integrable Nonlinear Lattices,
    AMS 2000, ch. 7), so k of them lie below the midpoint of band k.  The +2
    and the -2 edges are the periodic and the antiperiodic eigenvalues, each
    set summing to the trace sum(v) (+-2 at p = 1); a repeated edge hiding a
    gap misses it.
    """
    p = pots.shape[1]
    want = np.where((np.arange(2 * p)[::-1] + 1) // 2 % 2 == 0, 2.0, -2.0)
    disc, slope, curvature = spectrum._discriminant(pots, edges, 2)
    mids = 0.5 * (edges[:, 0::2] + edges[:, 1::2])
    below = ids._sturm_counts(pots[:, 1:].T[:, :, None], mids)
    merged = np.zeros(edges.shape, dtype=bool)
    merged[:, 1:-1:2] = merged[:, 2::2] = (
        edges[:, 2::2] - edges[:, 1:-1:2] <= spectrum.MERGE_FACTOR * spectrum.TOL)
    miss = np.abs(disc - want)
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.where(merged, np.sqrt(2.0 * miss / np.abs(curvature)), miss / np.abs(slope))
    sums = np.stack([edges[:, want > 0].sum(axis=1), edges[:, want < 0].sum(axis=1)], axis=1)
    trace = pots.sum(axis=1, keepdims=True) + (np.array([2.0, -2.0]) if p == 1 else 0.0)
    faults = (
        (np.diff(edges, axis=1) < 0.0, lambda i, j: f"edges {j} and {j + 1} out of order"),
        (below != np.arange(p), lambda i, k: (
            f"{below[i, k]} Dirichlet eigenvalues below the midpoint of band {k}, want {k}")),
        (~(error < EDGE_TOL), lambda i, j: (
            f"disc {disc[i, j]:.9g} at edge {j}, want {want[j]:+.0f}: off by {error[i, j]:.2e}")),
        (~(np.abs(sums - trace) < p * EDGE_TOL), lambda i, j: (
            f"the {'+-'[j]}2 edges sum to {sums[i, j]:.9g}, want the trace {trace[i, j]:.9g}")),
    )
    worst = float(error.max())
    for bad, why in faults:
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            return f"orbit {labels[rows[0]]}: {why(rows[0], np.argmax(bad[rows[0]]))}", worst
    return None, worst


def _lyndon_minima(max_period: int) -> list[list[int]]:
    """The orbit minima of every period 1 .. max_period, each period's ascending.

    The numerators k * 2^j mod (2^p - 1) of the orbit of k / (2^p - 1) are
    the p-bit rotations of k, so the orbit minima of minimal period p are
    the binary Lyndon words of length p.  Duval's algorithm lists every
    Lyndon word of length <= max_period in lexicographic order, here on the
    word held as an m-bit integer v.  The word 1 is left out: it is the
    point 1 = 0.
    """
    n = max_period
    minima = [[] for _ in range(n)]
    v, m = 0, 1
    while m:
        minima[m - 1].append(v)
        # the word repeated to length n, then its trailing 1s dropped and its
        # last 0 made a 1
        reps = -(-n // m)
        v = v * ((1 << m * reps) - 1) // ((1 << m) - 1) >> (m * reps - n)
        ones = (~v & (v + 1)).bit_length() - 1
        v, m = (v >> ones) + 1, n - ones
    minima[0] = [0]
    return minima


def _oracle_potentials(f: SamplingFunction, max_period: int) -> list[tuple[list[str], np.ndarray]]:
    """Labels and rows of every sided potential of each period 1 .. max_period.

    The orbits are the bit rotations of the Lyndon minima, and f,
    f.breakpoint_mask and f.left_limit are called on a whole period's points
    at once.  An orbit through a breakpoint whose left-limit values differ
    is followed by them under "<label>-", as in PeriodicOrbit.sided_potentials.
    """
    out = []
    for p, minima in enumerate(_lyndon_minima(max_period), 1):
        d = 2 ** p - 1
        table = np.empty((len(minima), p), dtype=np.int64)
        table[:, 0] = minima
        for j in range(1, p):
            table[:, j] = (table[:, j - 1] << 1 | table[:, j - 1] >> (p - 1)) & d
        points = table / d
        rows = np.asarray(f(points), dtype=float)
        sided = f.breakpoint_mask(points).any(axis=1)
        left = np.asarray(f.left_limit(points), dtype=float) if sided.any() else rows
        sided &= (left != rows).any(axis=1)
        labels = []
        for k, has_left in zip(minima, sided.tolist()):
            g = math.gcd(k, d)
            labels.append(f"{k // g}/{d // g}")
            if has_left:
                labels.append(labels[-1] + "-")
        at = np.flatnonzero(sided)
        out.append((labels, np.insert(rows, at + 1, left[at], axis=0)))
    return out


def check_band_edge_oracle(f: SamplingFunction, per_period) -> dict:
    # the unmerged edges of per_period (bands_by_period of periods 1 .. P),
    # the very edges the unions merge, certified on the potentials of
    # _oracle_potentials, which takes the orbits from Lyndon words and not
    # from the engine's orbit table, and the period-1 union against its
    # closed form from f(0) and f(0-), which sees a left limit dropped by both
    def run():
        max_period = per_period[-1].period
        oracle = _oracle_potentials(f, max_period)
        engine_labels = [(pb.period, label) for pb in per_period for label in pb.labels]
        oracle_labels = [(p, label) for p, (labels, _) in enumerate(oracle, 1) for label in labels]
        if engine_labels != oracle_labels:
            differ = sorted({x[1] for x in oracle_labels} ^ {x[1] for x in engine_labels})
            return False, f"engine and orbit potentials differ: {differ[:5]}"
        worst = 0.0
        for pb, (_, pots) in zip(per_period, oracle):
            fault, error = _certify(pb.labels, pots, pb.edges)
            if fault:
                return False, fault
            worst = max(worst, error)
        closed = _period_one_closed_form(f)
        union = [(b.lo, b.hi) for b in spectrum.merge_bands(per_period[:1], spectrum.TOL).bands]
        if len(union) != len(closed):
            return False, f"period-1 union {union} vs closed form {closed}"
        closed_dev = max(abs(a - b) for u, c in zip(union, closed) for a, b in zip(u, c))
        left_count = sum(label.endswith("-") for _, label in oracle_labels)
        detail = (f"{len(oracle_labels)} potentials of periods <= {max_period}: Dirichlet interlacing, "
                  f"disc signs and trace sums hold, max edge error {worst:.2e} "
                  f"(||disc| - 2| / |disc'|; sqrt(2 ||disc| - 2| / |disc''|) at merged gaps)")
        if left_count:
            detail += f", incl. {left_count} left-limit potential(s)"
        detail += f"; period-1 union vs closed form {closed_dev:.2e}"
        return closed_dev < EDGE_TOL, detail

    return _check("band_edges_vs_eigen_oracle", run)


def _period_one_closed_form(f: SamplingFunction) -> list[tuple[float, float]]:
    """The period-1 band union [f(0) - 2, f(0) + 2] u [f(0-) - 2, f(0-) + 2]."""
    v0, v1 = sorted((float(f(0.0)), float(f.left_limit(0.0))))
    if v1 - v0 <= 4.0:
        return [(v0 - 2.0, v1 + 2.0)]
    return [(v0 - 2.0, v0 + 2.0), (v1 - 2.0, v1 + 2.0)]


def check_determinants(f: SamplingFunction, hull, seed: int = 0) -> dict:
    # the det of an n-step product carries a float error of order
    # |P|^2 * n * eps, so each trial stops before the step whose entries
    # would pass 3e3, past which 1e-9 * n is not resolvable; all trials
    # step together, each product held once its trial has stopped
    def run():
        rng = np.random.default_rng(seed)
        energies = [float(rng.uniform(hull[0], hull[1])) for _ in range(24)]
        energies = np.array(energies + [hull[0] - 0.5, hull[1] + 0.5])
        pots = f(_float_orbits(rng.random(len(energies)), 64))
        P = cocycle.step_matrix(energies, pots[:, 0])
        n = np.ones(len(energies), dtype=np.int64)
        going = np.ones(len(energies), dtype=bool)
        for v in pots[:, 1:].T:
            Q = cocycle.step_matrix(energies, v) @ P
            going &= ~(np.abs(Q).max(axis=(1, 2)) > 3e3)  # a NaN product goes on
            if not going.any():
                break
            P = np.where(going[:, None, None], Q, P)
            n += going
        worst = max([0.0, *(np.abs(np.linalg.det(P) - 1.0) / n).tolist()])
        return worst < 1e-9, f"max |det - 1|/n = {worst:.2e} over 26 products with entries <= 3e3"

    return _check("unimodularity", run)


def check_invariance(f: SamplingFunction, hull, seed: int = 0) -> dict:
    def run():
        worst = 0.0
        energies = (hull[0] - 0.5, hull[1] + 0.5, hull[1] + 1.5)
        reports = cocycle.dichotomy_test(f, energies, sample_count=100, seed=seed)
        for E, rep in zip(energies, reports):
            if not rep.is_hyperbolic:
                return False, f"E={E} not detected hyperbolic: {rep.diagnostics}"
            worst = max(worst, rep.diagnostics["max_invariance_residual"])
        return worst < 1e-6, f"max invariance residual {worst:.2e}"

    return _check("stable_section_invariance", run)


def check_digit_independence(f: SamplingFunction, hull) -> dict:
    # the stable section depends on omega alone, so whichever backward digit
    # picks the preimage pre of w, the step A(pre) = step_matrix(E, f(pre))
    # carries the stable direction at pre onto the one at w; the directions
    # at w and both preimages come from one _stable_core pass
    def run():
        E = hull[1] + 0.5
        w = CirclePoint(372, 1000)
        pres = [extend_backward(w, BackwardDigits([digit]), 1) for digit in (0, 1)]
        angles, _ = cocycle._stable_angles(f, E, [w, *pres], cocycle.DEPTH)
        target, *stables = (cocycle.Direction(a) for a in angles.tolist())
        worst = 0.0
        for pre, stable in zip(pres, stables):
            image = cocycle.step_matrix(E, f(float(pre))) @ stable.vector()
            worst = max(worst, cocycle.Direction.from_vector(*image).distance(target))
        return worst < cocycle.INVARIANCE_TOL, (
            f"max distance of A(pre) L(pre) to L(w) over both preimages of w = 0.372: {worst:.2e}")

    return _check("backward_digit_independence", run)


def check_containment(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        center = float(f(0.0))
        lo, hi = center - 2.0, center + 2.0
        for period in range(1, params.max_period + 1):
            s = spectrum.merge_bands(per_period[:period], spectrum.TOL)
            if not covers_interval(s, lo, hi, 1e-6):
                return False, f"union at max_period={period} misses [{lo}, {hi}]"
        return True, f"[{lo:.3f}, {hi:.3f}] covered at every max_period 1..{params.max_period}"

    return _check("fixed_point_containment", run)


def check_gap_shrinkage(per_period) -> dict:
    def run():
        maxgaps = []
        for period in SHRINK_PERIODS:
            report = spectrum.gap_report(spectrum.merge_bands(per_period[:period], spectrum.TOL))
            maxgaps.append(report[0][1] if report else 0.0)
        seq = ", ".join(f"{g:.3g}" for g in maxgaps)
        nonincreasing = all(b <= a + 1e-12 for a, b in zip(maxgaps, maxgaps[1:]))
        resolution = spectrum.RESOLUTION_FACTOR * spectrum.TOL
        halved = maxgaps[-1] <= 0.5 * maxgaps[0] or maxgaps[0] < resolution
        return nonincreasing and halved, f"max interior gaps over periods {SHRINK_PERIODS}: {seq}"

    return _check("gap_shrinkage", run)


def _rotations(f: SamplingFunction, energies, params: Params):
    """rotation_number at each of the energies, with its failed evidence ("" if none): a
    stable section off by INVARIANCE_TOL or a closed-form winding off its substep
    oracle by 1e-9.  The first energy that fails the pretest or its estimate raises its error."""
    ests = schwartzman.rotation_number(f, energies, omega_samples=params.omega_samples,
                                       steps=params.steps, seed=params.seed)
    bounds = {"max_reanchor_residual": cocycle.INVARIANCE_TOL, "winding_oracle_dev": 1e-9}
    out = []
    for E, est in zip(energies, ests):
        if isinstance(est, DmspecError):
            raise est
        out.append((est, "".join(f", {key} {est.diagnostics[key]:.2e} at E={E:.3f}"
                                 for key, bound in bounds.items() if not est.diagnostics[key] < bound)))
    return out


def check_gap_labelling(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        s = spectrum.merge_bands(per_period[:params.max_period], spectrum.TOL)
        grid = ids.default_energy_grid(s.hull, params.grid_points)
        targets = ((s.hull[0] - 0.5, 1), (s.hull[1] + 0.5, 0))
        # k is read at the grid point nearest to each target only
        near = [int(np.argmin(np.abs(grid - E))) for E, _ in targets]
        table = ids.ids_estimate(f, grid[near], params.N, params.M, seed=params.seed)
        rotations = _rotations(f, [E for E, _ in targets], params)
        details = []
        ok = True
        for (E, expected), (est, fault) in zip(targets, rotations):
            k = table.value_at(E)
            verdict = schwartzman.integrality_check(est)
            match = abs(est.value - (1.0 - k)) < 0.03
            integer_ok = (verdict.verdict is schwartzman.Verdict.INTEGER
                          and verdict.integer == expected)
            ok = ok and match and integer_ok and not fault
            details.append(
                f"E={E:.3f}: rot={est.value:.5f}, 1-k={1.0 - k:.5f}, "
                f"verdict={verdict.verdict.value}({verdict.integer}){fault}"
            )
        return ok, "; ".join(details)

    return _check("gap_labelling_integrality", run)


def check_disconnection(f: SamplingFunction, per_period, params: Params) -> dict:
    def run():
        coarse = spectrum.merge_bands(per_period[:params.max_period], COARSE_TOL)
        # gaps surviving the coarse merge are genuine at that scale; the
        # below-resolution filter of gap_report is meant for fine tolerances
        if len(coarse.bands) < 2:
            return False, f"no interior gap found at max_period={params.max_period}"
        g0, g1 = max(coarse.gaps, key=lambda g: g[1] - g[0])
        width = g1 - g0
        pad = 0.05 * width
        gap = (g0 + pad, g1 - pad)
        grid = ids.default_energy_grid(coarse.hull, params.grid_points)
        inside = grid[(grid > gap[0]) & (grid < gap[1])]  # the points gap_label reads
        label = ids.gap_label(ids.ids_estimate(f, inside, params.N, params.M, seed=params.seed), gap)
        [(est, fault)] = _rotations(f, [0.5 * (gap[0] + gap[1])], params)
        verdict = schwartzman.integrality_check(est)
        consistent = abs(est.value - (1.0 - label)) < 0.03
        return consistent and not fault, (
            f"{len(coarse.bands)} bands, top gap ({g0:.3f}, {g1:.3f}), "
            f"label {label:.4f}, rotation {est.value:.4f} -> {verdict.verdict.value}{fault}"
        )

    return _check("disconnection_and_gap_label", run)


def run_verification(f: SamplingFunction, params: Params = VERIFY_DEFAULTS) -> dict:
    """The full check battery for one sampling function.

    The unmerged edges of every period are found once, and every union
    below merges a prefix of them at its own tolerance.
    check_band_edge_oracle certifies those same edges, for every period up
    to params.max_period, on its own potentials, whose orbits it takes from
    binary Lyndon words, not from the engine's orbit table.
    """
    periods = max(params.max_period, *SHRINK_PERIODS) if f.continuous else params.max_period
    per_period = spectrum.bands_by_period(f, periods)
    hull = spectrum.merge_bands(per_period[:min(params.max_period, 8)], spectrum.TOL).hull
    checks = [
        check_sturm_counts(seed=params.seed),
        check_band_edge_oracle(f, per_period[:params.max_period]),
        check_determinants(f, hull, seed=params.seed),
        check_invariance(f, hull, seed=params.seed),
        check_digit_independence(f, hull),
    ]
    if f.continuous:
        checks.append(check_containment(f, per_period, params))
        checks.append(check_gap_shrinkage(per_period))
        checks.append(check_gap_labelling(f, per_period, params))
    else:
        checks.append(check_disconnection(f, per_period, params))
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
