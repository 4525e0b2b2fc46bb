"""Desk-scale verification harness for the quantitative lattice estimates.

Every suite runs a parameter sweep, keeps the per-point values exact, and
reduces them to pass/fail assertions.  Two kinds of assertions appear:

* certified  — exact rational comparisons against explicit constants
  (e.g. the lattice lower bound with C = n^{3/2}/(2r));
* stability  — for estimates whose constants are non-constructive (they
  exist by compactness arguments, with no usable explicit form), boundedness
  is operationalized as a two-halves test:
  the sup over the upper half of the k-range must not exceed twice the sup
  over the lower half.

Failed assertions carry the exact witness datum, and every sweep is
reproducible from its (seed, grid) alone.  The only floating-point output is
the rate fit (log-log least squares), which is marked approximate.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Optional, Sequence

from .geometry import (
    ConcavePL,
    AffineFunctional,
    ConvexBody,
    apex_cone,
    chebyshev_ball,
    coordinate_slice,
    first_coordinate_transform,
    _hull_rows,
    hull,
    integrate_transform,
    json_int,
    max_transform,
    minkowski_cube,
    rat,
    rat_str,
    scale_translate,
    slice_cone,
    superlevel,
    volume,
)
from .lattice import analytic_count_constant, concave_sum, count
from .series import (
    CanonicalCurveModel,
    GENUS3_CANONICAL_PATTERNS,
    GradedSeriesModel,
    PLANE_QUARTIC_GAP_SEQUENCES,
    gap_sequences_of_genus,
    genus3_canonical_model,
    p1xp1_model,
    plane_quartic_model,
    CurveDivisorModel,
)
from .thresholds import (
    INFINITE,
    S0_and_sigma,
    S_km,
    S_tau,
    ValuationModel,
    delta_km_restricted,
    delta_tau_restricted,
)

NEG_INF = float("-inf")

# levels each half of a sweep needs before the two-halves proxy is applied
MIN_HALF_LEVELS = 4


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Assertion(tuple):
    """One checked claim of a report: the tuple (name, passed, witness)."""

    __slots__ = ()
    name = property(itemgetter(0))
    passed = property(itemgetter(1))
    witness = property(itemgetter(2))

    def __new__(cls, name: str, passed: bool, witness: Optional[dict]) -> "Assertion":
        return tuple.__new__(cls, (name, passed, witness))


class SweepReport:
    """A verify suite's result: its grid, rows, fitted constants, assertions
    and rate fit, filled in as the suite runs."""

    __slots__ = ("name", "grid", "rows", "fitted", "assertions", "exponent", "residual")

    def __init__(self, name: str, grid: dict):
        self.name, self.grid = name, grid
        self.rows, self.fitted, self.assertions = [], {}, []
        self.exponent = self.residual = None  # floats once a rate is fitted

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, ok: bool, witness: Optional[dict] = None) -> None:
        self.assertions.append(Assertion(name, bool(ok), None if ok else witness))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "grid": _jsonify(self.grid),
            "rows": _jsonify(self.rows),
            "fitted_constants": _jsonify(self.fitted),
            "assertions": [
                {"assertion": a.name, "passed": a.passed, "witness": _jsonify(a.witness)}
                for a in self.assertions
            ],
            "exponent_approx": self.exponent,
            "residual_approx": self.residual,
            "passed": self.passed,
        }

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        if not self.rows:
            return [], []
        header = list(self.rows[0])
        out = []
        for r in self.rows:
            out.append([_csv_cell(r.get(h)) for h in header])
        return header, out


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    return obj


def _csv_cell(x) -> str:
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _two_halves(report: SweepReport, name: str, ks: Sequence[int],
                vals: Sequence[Fraction], bound: str = "upper") -> None:
    """Boundedness proxy: sup over the upper half of k <= 2 * sup over lower.

    With bound="lower" the mirror check bounds the values away from zero:
    inf over the upper half >= (inf over the lower half) / 2.

    A half with fewer than MIN_HALF_LEVELS levels makes the factor-2 proxy
    meaningless (one or two early levels set the whole bound), so the check is
    then recorded as passed with the level counts as its witness.
    """
    if not ks:
        report.check(name, False, {"reason": "empty sweep"})
        return
    mid = (min(ks) + max(ks)) / 2
    lower = [v for k, v in zip(ks, vals) if k <= mid]
    upper = [v for k, v in zip(ks, vals) if k > mid]
    if min(len(lower), len(upper)) < MIN_HALF_LEVELS:
        report.assertions.append(Assertion(name, True, {
            "reason": f"fewer than {MIN_HALF_LEVELS} levels in a half",
            "lower_levels": len(lower), "upper_levels": len(upper)}))
        return
    if bound == "lower":
        lo, hi = min(lower), min(upper)
        report.check(name, hi >= lo / 2, {"lower_half_min": lo, "upper_half_min": hi})
    else:
        lo, hi = max(lower), max(upper)
        report.check(name, hi <= 2 * lo, {"lower_half_sup": lo, "upper_half_sup": hi})


# ---------------------------------------------------------------------------
# rate fitting (the single documented float computation)
# ---------------------------------------------------------------------------

class RateFit(tuple):
    __slots__ = ()
    exponent = property(itemgetter(0))
    residual = property(itemgetter(1))


def rate_fit(samples: Sequence[tuple[int, Fraction]], limit) -> RateFit:
    """Least-squares slope of log|value - limit| against log k.

    Exact inputs, approximate output. Samples exactly at the limit are
    excluded; if fewer than 3 remain the sequence is treated as converged
    and the -inf sentinel is returned.
    """
    if len(samples) < 4:
        raise ValueError("rate_fit needs at least 4 samples")
    limit = rat(limit)
    pts = [(k, abs(v - limit)) for k, v in samples if v != limit]
    if len(pts) < 3:
        return RateFit((NEG_INF, 0.0))
    xs = [math.log(k) for k, _ in pts]
    ys = [math.log(float(e)) for _, e in pts]
    # ordinary least squares in the fsum steps of statistics.linear_regression
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    slope = (math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / math.fsum((x - xbar) * (x - xbar) for x in xs))
    intercept = ybar - slope * xbar
    resid = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return RateFit((slope, resid))


def _fit_rate(report: SweepReport, samples: Sequence[tuple[int, Fraction]], limit) -> None:
    """Record the rate fit of samples towards limit on report, given 4 or more."""
    if len(samples) >= 4:
        report.exponent, report.residual = rate_fit(samples, limit)


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def sub_body_sampler(K: ConvexBody, min_volume, seed: int,
                     points: int = 6) -> Callable[[int], list[ConvexBody]]:
    """Deterministic sampler of convex sub-bodies P of K with |P| >= min_volume.

    Candidates are the grid points lo + (r / 32)(hi - lo) of K's bounding
    box, r uniform in 0..32 per axis.  With K's integer vertex form (D, Z)
    each is an integer numerator vector over 32 D, tested against K's
    halfspaces in ints, one at a time until one fails.  The accepted rows go
    to the integer hull (``geometry._hull_rows``) as they are, and each
    sampled body keeps its vertices in integers until its ``vertices`` is
    read: the volume floor, ``count`` and ``concave_sum`` build no Fraction
    vertex.

    Each call ``sample(n)`` draws afresh from ``random.Random(seed)``, with
    a budget of 200 n tries.  A try makes the same rng calls whatever n is,
    so ``sample(n)`` is the first n bodies of one fixed sequence.
    """
    min_volume = rat(min_volume)
    denom = 32
    D, Z = K.int_form()
    # each axis as (lo denom, hi - lo) for its numerators lo, hi over D
    axes = [(min(col) * denom, max(col) - min(col)) for col in zip(*Z)]
    den = D * denom
    # a.x <= p/q at x = num/den  <=>  q (a.num) <= p den
    constraints = [(h.normal, h.offset.denominator, h.offset.numerator * den)
                   for h in K.halfspaces]

    def sample(count_bodies: int) -> list[ConvexBody]:
        randrange = random.Random(seed).randrange
        drawn: list[ConvexBody] = []
        tries = 0
        while len(drawn) < count_bodies:
            if tries >= 200 * count_bodies:
                raise RuntimeError("sampler failed to reach the volume floor")
            tries += 1
            rows = []
            while len(rows) < points:
                num = tuple([base + randrange(0, denom + 1) * step for base, step in axes])
                for a, q, pd in constraints:
                    if q * sum(map(mul, a, num)) > pd:
                        break
                else:
                    rows.append(num)
            body = _hull_rows(den, sorted(set(rows)), K.dim)
            if body.is_full_dim() and volume(body) >= min_volume:
                drawn.append(body)
        return drawn

    return sample


# The body, volume floor and sizes of the sampled suites (ehrhart, lowerbound
# and concave), which read prefixes of one seeded sequence of sub-bodies.
UNIT_SQUARE = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
SUITE_FLOOR = Fraction(1, 10)
EHRHART_BODIES = 200
CONCAVE_PAIRS = 50


def suite_sampler(seed: int) -> Callable[[int], list[ConvexBody]]:
    """The sampled suites' ``sub_body_sampler``: every suite with this seed
    reads a prefix of its one sequence."""
    return sub_body_sampler(UNIT_SQUARE, SUITE_FLOOR, seed)


def concave_sampler(P: ConvexBody, rng: random.Random) -> ConcavePL:
    """Random nonnegative concave PL function on P: 1-3 pieces with gradients
    in [-2, 2]^n over 8, constants lifted so min = 0..1."""
    n = P.dim
    denom = 8
    grads = [tuple(rng.randrange(-2 * denom, 2 * denom + 1) for _ in range(n))
             for _ in range(rng.randrange(1, 4))]
    # grad . v = (r . z) / (denom D) for numerators r over denom and z over D
    D, Z = P.int_form()
    lift = Fraction(-min(sum(map(mul, r, z)) for r in grads for z in Z), denom * D)
    lift += Fraction(rng.randrange(0, denom + 1), denom)
    pieces = [AffineFunctional(tuple(Fraction(c, denom) for c in r), lift) for r in grads]
    return ConcavePL.make(pieces, P)


# ---------------------------------------------------------------------------
# uniform Ehrhart stability
# ---------------------------------------------------------------------------

def verify_uniform_ehrhart(k_range: Sequence[int], seed: int) -> SweepReport:
    """Max of |discrepancy| / k^{n-1} over the first EHRHART_BODIES bodies of
    ``suite_sampler(seed)``, with the two-halves stability assertion standing
    in for the uniform bound."""
    ks = sorted(k_range)
    report = SweepReport(
        "uniform_ehrhart",
        {"nu": SUITE_FLOOR, "k_range": [ks[0], ks[-1]], "N": EHRHART_BODIES, "seed": seed},
    )
    bodies = suite_sampler(seed)(EHRHART_BODIES)
    n = UNIT_SQUARE.dim
    vols = [volume(P) for P in bodies]
    vals = []
    for k in ks:
        # |discrepancy| = |count q - p k^n| / q for volume p / q: the largest
        # by cross-multiplication, then one Fraction
        kn = k ** n
        top, den = 0, 1
        for P, vol in zip(bodies, vols):
            a = abs(count(P, k) * vol.denominator - vol.numerator * kn)
            if a * den > top * vol.denominator:
                top, den = a, vol.denominator
        w = Fraction(top, den)
        m_k = w / Fraction(k) ** (n - 1)
        vals.append(m_k)
        report.rows.append({"k": k, "max_abs_discrepancy": w, "normalized": m_k})
    report.fitted["sup_normalized_discrepancy"] = max(vals)
    _two_halves(report, "normalized discrepancy is stable across k-halves", ks, vals)
    return report


# ---------------------------------------------------------------------------
# explicit lower-bound constant
# ---------------------------------------------------------------------------

def verify_lower_bound_constant(P: ConvexBody, k_range: Sequence[int]) -> SweepReport:
    """count(P,k) >= (1 - C/k) |P| k^n with C = n^{3/2}/(2 r): exact, certified."""
    n = P.dim
    vol = volume(P)
    if vol == 0:
        raise ValueError("needs a positive-volume body")
    _, r_lb = chebyshev_ball(P)
    c_const = analytic_count_constant(P)
    report = SweepReport(
        "lower_bound_constant",
        {"k_range": [min(k_range), max(k_range)], "radius_lb": r_lb, "C": c_const},
    )
    report.fitted["C"] = c_const
    failures = 0
    for k in sorted(k_range):
        if k <= c_const:
            continue
        bound = (1 - c_const / k) * vol * Fraction(k) ** n
        actual = count(P, k)
        ok = actual >= bound
        failures += not ok
        report.rows.append({"k": k, "count": actual, "bound": bound, "ok": ok})
        if not ok:
            report.check("lattice lower bound", False,
                         {"k": k, "count": actual, "bound": bound})
    report.check(
        "count >= (1 - C/k)|P|k^n for every k > C",
        failures == 0,
        {"failures": failures},
    )
    return report


# ---------------------------------------------------------------------------
# concave sum upper bound
# ---------------------------------------------------------------------------

def verify_concave_sum_bound(k_range: Sequence[int], seed: int) -> SweepReport:
    """(sum_k G - integral G) * k / sup G stays bounded over CONCAVE_PAIRS
    random (P, G): P from ``suite_sampler(seed)``, G from ``concave_sampler``."""
    ks = sorted(k_range)
    report = SweepReport(
        "concave_sum_bound",
        {"k_range": [ks[0], ks[-1]], "N": CONCAVE_PAIRS, "seed": seed, "min_volume": SUITE_FLOOR},
    )
    bodies = suite_sampler(seed)(CONCAVE_PAIRS)
    rng = random.Random(seed + 1)
    pairs = [(P, concave_sampler(P, rng)) for P in bodies]
    # sup G and the integral of G do not depend on k
    pairs = [(P, g, max_transform(P, g), integrate_transform(P, g)) for P, g in pairs]
    vals = []
    for k in ks:
        # (S - I) k / sup G = (s i' - i s') k p' / (s' i' p) for S = s / s',
        # I = i / i' and sup G = p / p' > 0: the largest by
        # cross-multiplication, from 0, then one Fraction
        top, den = 0, 1
        for P, g, sup_g, integral in pairs:
            if sup_g == 0:
                continue
            S = concave_sum(P, g, k)
            a = ((S.numerator * integral.denominator - integral.numerator * S.denominator)
                 * k * sup_g.denominator)
            d = S.denominator * integral.denominator * sup_g.numerator
            if a * den > top * d:
                top, den = a, d
        worst = Fraction(top, den)
        vals.append(worst)
        report.rows.append({"k": k, "worst_normalized_excess": worst})
    report.fitted["sup_normalized_excess"] = max(vals)
    _two_halves(report, "concave-sum excess is stable across k-halves", ks, vals)
    return report


# ---------------------------------------------------------------------------
# cone counts
# ---------------------------------------------------------------------------

def verify_cone_counts(B: ConvexBody, a, b, V: Sequence, k_range: Sequence[int]) -> SweepReport:
    """Lattice counts of shrinking cone superlevels against certified bounds.

    For the apex cone at V and l_k = max(1, floor(k/2)): for t = b - (l_k/k)(b-a),
    the superlevel at t is a k/l_k-scaled translate of the cone, so its Z^n/k
    count equals the Z^n/l_k count of a shifted cone (asserted exactly), which
    the explicit-constant lattice bound certifies from below. The cube-enlarged
    cone is the ambient that contains every shifted copy. The slice cone
    between heights a and 3/4 checks the k^iota * l^{n-iota} scaling via
    two-halves stability of the fitted ratio.
    """
    a, b = rat(a), rat(b)
    V = tuple(rat(c) for c in V)
    cone = apex_cone(B, a, b, V)
    g = first_coordinate_transform(cone)
    vol = volume(cone)
    n = B.dim
    c_const = analytic_count_constant(cone)
    ambient = minkowski_cube(cone, Fraction(1, 2))
    report = SweepReport(
        "cone_counts",
        {"a": a, "b": b, "V": list(V), "k_range": [min(k_range), max(k_range)],
         "C": c_const, "ambient_volume": volume(ambient)},
    )
    report.fitted["C_cone"] = c_const
    exact_fail = bound_fail = 0
    for k in sorted(k_range):
        if k < 1:
            continue
        ell = max(1, k // 2)
        t = b - Fraction(ell, k) * (b - a)
        cut = superlevel(cone, g, t)
        cnt = count(cut, k)
        # t < b, as l_k >= 1 and a < b (``apex_cone``)
        shift = tuple((t - a) / (b - t) * c for c in V)
        translated = count(scale_translate(cone, 1, shift), ell)
        if translated != cnt:
            exact_fail += 1
            report.check("superlevel count equals translated-cone count", False,
                         {"k": k, "l": ell, "count": cnt, "translated": translated})
        if ell > c_const:
            bound = (1 - c_const / ell) * vol * Fraction(ell) ** n
            if cnt < bound:
                bound_fail += 1
                report.check("certified cone count lower bound", False,
                             {"k": k, "l": ell, "count": cnt, "bound": bound})
        report.rows.append({"k": k, "l": ell, "t": t, "count": cnt})
    report.check("translation identity holds at every grid point", exact_fail == 0,
                 {"failures": exact_fail})
    report.check("certified lower bound holds whenever l > C", bound_fail == 0,
                 {"failures": bound_fail})

    sb = Fraction(3, 4)
    scone = slice_cone(B, a, sb)
    iota = _slice_dimension(B, sb)
    gs = first_coordinate_transform(scone)
    ks, ratios = [], []
    for k in sorted(k_range):
        if k < 1:
            continue
        ell = max(1, k // 2)
        t = sb - Fraction(ell, k) * (sb - a)
        cnt = count(superlevel(scone, gs, t), k)
        denom = Fraction(k) ** iota * Fraction(ell) ** (n - iota)
        ks.append(k)
        ratios.append(Fraction(cnt) / denom)
        report.rows.append({"k": k, "l": ell, "slice_count": cnt,
                            "slice_ratio": Fraction(cnt) / denom})
    if ratios:
        report.fitted["slice_C2_lower"] = min(ratios)
        _two_halves(report, "slice-cone count scales like k^iota l^(n-iota)",
                    ks, ratios, bound="lower")
    return report


def _slice_dimension(B: ConvexBody, b: Fraction) -> int:
    face = coordinate_slice(B, b)
    if face.is_empty:
        raise ValueError(f"slice at {b} is empty")
    return face.affine_rank()


# ---------------------------------------------------------------------------
# blow-up estimate for the quantum maximum
# ---------------------------------------------------------------------------

def verify_maxp1(model: GradedSeriesModel, k_range: range, iota: int) -> SweepReport:
    """Gap of the quantum maximum against the plus-body lattice count.

    Checks 0 <= max_ambient p1 - max_{Delta_k} p1, that the plus-body count is
    positive whenever the gap is, and fits the smallest C with
    (gap * k)^n <= C^n * plus_count across the sweep (reported, with
    two-halves stability as the boundedness proxy). For iota < n the
    improved exponent n - iota is fitted as well.
    """
    n = model.ambient.dim
    report = SweepReport(
        "maxp1", {"k_range": [min(k_range), max(k_range)], "iota": iota}
    )
    ks_pos, cn_vals, cn_improved = [], [], []
    neg = degenerate = 0
    for k in model.levels_in(k_range):
        top_amb, top_disc, gap = model.max_gap_stat(k)
        if gap < 0:
            neg += 1
            report.check("gap nonnegative", False, {"k": k, "gap": gap})
        plus = _plus_body_count(model, k, top_disc)
        if gap > 0 and plus == 0:
            degenerate += 1
            report.check("plus-body count positive when gap > 0", False, {"k": k})
        if gap > 0 and plus > 0:
            ks_pos.append(k)
            cn_vals.append((gap * k) ** n / plus)
            if iota < n:
                # improved blow-up rate: gap <= C k^{-1/(n-iota)}
                cn_improved.append(gap ** (n - iota) * k)
        report.rows.append({"k": k, "max_ambient": top_amb, "max_quantum": top_disc,
                            "gap": gap, "plus_count": plus})
    report.check("gap nonnegative at every level", neg == 0, {"failures": neg})
    report.check("plus-body count positive whenever gap > 0", degenerate == 0,
                 {"failures": degenerate})
    if cn_vals:
        report.fitted["C_pow_n"] = max(cn_vals)
        _two_halves(report, "fitted C^n is stable across k-halves", ks_pos, cn_vals)
    if cn_improved:
        report.fitted["C_improved_pow"] = max(cn_improved)
        _two_halves(report, "improved-rate constant is stable across k-halves",
                    ks_pos, cn_improved)
    _fit_rate(report, [(r["k"], r["gap"]) for r in report.rows], 0)
    return report


def _plus_body_count(model: GradedSeriesModel, k: int, quantum_max: Fraction) -> int:
    """# of idealized lattice points strictly above the quantum maximum: a
    suffix sum of the level's column counts (``GradedSeriesModel._columns``),
    over the columns z1 > k * quantum_max, the top column of Delta_k."""
    top = k * quantum_max
    return sum(n for z, n in model._columns(k).items() if z > top)


# ---------------------------------------------------------------------------
# S_{k,m} two-sided convergence
# ---------------------------------------------------------------------------

def make_m_rule(name: str, tau=None, const: int = 1):
    """Symbolic m_k policies: fraction of d_k, constants, or near-full families."""
    tau = rat(tau) if tau is not None else None
    if name == "one":
        return lambda d, k: 1
    if name == "dk":
        return lambda d, k: d
    if name == "ceil_tau":
        if tau is None:
            raise ValueError("ceil_tau rule needs tau")
        return lambda d, k: min(d, max(1, math.ceil(tau * d)))
    if name == "dk_minus_sqrt":
        return lambda d, k: max(1, d - math.isqrt(d))
    if name == "constant":
        return lambda d, k: min(d, max(1, const))
    raise ValueError(f"unknown m-rule {name!r}")


def sweep_from_json(data: dict):
    """Parse a sweep spec {"tau": "p/q", "m_rule": name, "k_range": [k0, k1]}
    into (tau, m_rule callable, k range)."""
    if not isinstance(data, dict):
        raise ValueError("a sweep spec must be a JSON object")
    tau = rat(data.get("tau", "1"))
    if not 0 <= tau <= 1:
        raise ValueError(f"sweep tau {rat_str(tau)} is outside [0, 1]")
    rule = make_m_rule(data.get("m_rule", "ceil_tau"), tau=tau,
                       const=json_int(data.get("const", 1), "sweep const"))
    k0, k1 = (json_int(x, "sweep k_range entry") for x in data.get("k_range", [1, 20]))
    if not 1 <= k0 <= k1:
        raise ValueError(f"bad k_range [{k0}, {k1}]")
    return tau, rule, range(k0, k1 + 1)


def _S_km_sweep(model: GradedSeriesModel, v: ValuationModel, m_rules: Sequence,
                k_range: range) -> list[list[tuple[int, int, int, Fraction]]]:
    """Per m_k rule, the (k, d_k, m_k, S_{k,m_k}) of each level in k_range.

    The sweep is k-outer, so each level is scored once for all the rules.
    """
    values = [[] for _ in m_rules]
    for k in model.levels_in(k_range):
        d = model.d_k(k)
        for m_rule, vals in zip(m_rules, values):
            m = m_rule(d, k)
            vals.append((k, d, m, S_km(model, v, k, m)))
    return values


def verify_S_two_sided_sweeps(model: GradedSeriesModel, v: ValuationModel,
                              sweeps: Sequence[tuple], k_range: range) -> list[SweepReport]:
    """One report per (tau, m_rule) of sweeps, in that order: the upper bound
    S_{k,m_k} <= (1+C/k) max{tau d_k/m_k, 1} S_tau and the matching lower
    bound ((1-C/k) min-scaling for tau > 0, the k^{-1/n} envelope at
    tau = 0), with the minimal validating C fitted per side."""
    taus = [rat(tau) for tau, _ in sweeps]
    n = model.ambient.dim
    values = _S_km_sweep(model, v, [m_rule for _, m_rule in sweeps], k_range)
    reports = []
    for tau, vals in zip(taus, values):
        s_tau = S_tau(model, v, tau)
        report = SweepReport(
            "S_two_sided",
            {"tau": tau, "k_range": [min(k_range), max(k_range)], "S_tau": s_tau},
        )
        ks, samples = [], []
        c_upper = Fraction(0)
        c_lower = Fraction(0)
        for k, d, m, s_km in vals:
            ks.append(k)
            samples.append((k, s_km))
            if s_tau > 0:
                scale_up = max(tau * Fraction(d, m), Fraction(1))
                c_upper = max(c_upper, k * (s_km / (scale_up * s_tau) - 1))
                if tau > 0:
                    scale_dn = min(tau * Fraction(d, m), Fraction(1))
                    c_lower = max(c_lower, k * (1 - s_km / (scale_dn * s_tau)))
                else:
                    envelope = max(Fraction(m, d), Fraction(1, k))
                    deficit = 1 - s_km / s_tau
                    if deficit > 0:
                        c_lower = max(c_lower, deficit ** n / envelope)
            report.rows.append({"k": k, "m": m, "S_km": s_km})
        report.fitted["C_upper"] = c_upper
        report.fitted["C_lower" if tau > 0 else "C_lower_pow_n"] = c_lower
        report.check("fitted constants are finite rationals", True)
        _fit_rate(report, samples, s_tau)
        errs = [abs(s - s_tau) * k for k, s in samples]
        _two_halves(report, "k-scaled deviation |S_km - S_tau| * k is stable",
                    ks, errs)
        reports.append(report)
    return reports


def verify_delta_rate(model: GradedSeriesModel, family: Sequence[ValuationModel],
                      tau, m_rule, k_range: range) -> SweepReport:
    """Restricted delta_{k,m_k} against restricted delta_tau: sandwich constants
    fitted; at tau = 0 additionally the k^{-1/n} envelope on alpha_k - alpha."""
    tau = rat(tau)
    n = model.ambient.dim
    d_tau, d_label = delta_tau_restricted(model, family, tau)
    report = SweepReport(
        "delta_rate",
        {"tau": tau, "k_range": [min(k_range), max(k_range)],
         "delta_tau": d_tau, "argmin": d_label,
         "family": [v.label for v in family]},
    )
    ks, samples = [], []
    c_fit = Fraction(0)
    env_fit = Fraction(0)
    for k in model.levels_in(k_range):
        m = m_rule(model.d_k(k), k)
        val, label = delta_km_restricted(model, family, k, m)
        if val == INFINITE:
            continue
        ks.append(k)
        samples.append((k, val))
        report.rows.append({"k": k, "m": m, "delta_km": val, "argmin": label})
        if isinstance(d_tau, Fraction) and d_tau > 0:
            c_fit = max(c_fit, abs(val - d_tau) * k / d_tau)
            if tau == 0 and val > d_tau:
                env_fit = max(env_fit, (val - d_tau) ** n * k)
    report.fitted["C_relative"] = c_fit
    if tau == 0:
        report.fitted["C_envelope_pow_n"] = env_fit
    if isinstance(d_tau, Fraction):
        _fit_rate(report, samples, d_tau)
    scaled = [abs(val - d_tau) * k for k, val in samples]
    _two_halves(report, "k-scaled deviation |delta_km - delta_tau| * k is stable",
                ks, scaled)
    return report


def verify_endpoint_limits(model: GradedSeriesModel, v: ValuationModel,
                           k_range: range) -> SweepReport:
    """S_{k,m_k} -> S0 for collapsing families (m_k = 1 or ~sqrt(d_k)) and
    -> S_1 for near-full ones.

    Collapsing families are held to the envelope C (max{m/d, 1/k})^{1/n}
    (checked on the power scale err^n / max{m/d, 1/k}); near-full families to
    C/k. Both constants are fitted and must pass two-halves stability.
    """
    vo = S0_and_sigma(model, v)
    s1 = S_tau(model, v, 1)
    n = model.ambient.dim
    report = SweepReport(
        "endpoint_limits",
        {"k_range": [min(k_range), max(k_range)], "S0": vo.S0, "S1": s1},
    )
    sqrt_rule = lambda d, k: min(d, max(1, math.isqrt(max(0, d - 1)) + 1))
    rules = {
        "m=1": (make_m_rule("one"), vo.S0, "collapsing"),
        "m=ceil_sqrt_dk": (sqrt_rule, vo.S0, "collapsing"),
        "m=dk_minus_sqrt": (make_m_rule("dk_minus_sqrt"), s1, "full"),
        "m=dk": (make_m_rule("dk"), s1, "full"),
    }
    values = _S_km_sweep(model, v, [rule for rule, _, _ in rules.values()], k_range)
    upper_violations = 0
    for (rule_name, (_, target, kind)), vals in zip(rules.items(), values):
        ks, scaled = [], []
        for k, d, m, s in vals:
            err = abs(s - target)
            if kind == "collapsing" and s > vo.S0:
                upper_violations += 1
            ks.append(k)
            if kind == "collapsing":
                scaled.append(err ** n / max(Fraction(m, d), Fraction(1, k)))
            else:
                scaled.append(err * k)
            report.rows.append({"rule": rule_name, "k": k, "m": m, "error": err})
        if not ks:
            continue
        report.fitted[f"envelope[{rule_name}]"] = max(scaled)
        _two_halves(report, f"{rule_name}: fitted envelope constant is stable",
                    ks, scaled)
    report.check("S_{k,m} never exceeds S0", upper_violations == 0,
                 {"violations": upper_violations})
    return report


# ---------------------------------------------------------------------------
# weierstrass figure data
# ---------------------------------------------------------------------------

# k*Delta_k of O_C(p) on a smooth plane quartic for k = 1..5 (solid dots of
# the three gap-sequence cases), derived from the numerical semigroups and
# matching the classical tables.
QUARTIC_LEVEL_SETS: dict[str, dict[int, frozenset[int]]] = {
    "ordinary": {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({3}),
                 4: frozenset({0, 4}), 5: frozenset({0, 1, 5})},
    "flex": {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({0, 3}),
             4: frozenset({1, 4}), 5: frozenset({0, 2, 5})},
    "hyperflex": {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({0, 3}),
                  4: frozenset({0, 1, 4}), 5: frozenset({1, 2, 5})},
}

P1XP1_LEVEL_SETS = {
    False: {1: frozenset({(0, 0), (0, 1), (0, 2), (0, 3)}),
            2: frozenset({(0, j) for j in range(7)} | {(1, 0), (1, 1)})},
    True: {1: frozenset({(0, 0), (0, 1), (0, 2), (0, 3)}),
           2: frozenset({(0, j) for j in range(7)} | {(1, 0), (1, 2)})},
}


def verify_weierstrass(k_max: int) -> SweepReport:
    """Exact reproduction of the curve/canonical/ruled-surface gap data plus
    the gap-sequence round trip, exhaustive through genus 6."""
    genus_max = 6
    report = SweepReport("weierstrass", {"k_max": k_max, "genus_max": genus_max})
    for kind in PLANE_QUARTIC_GAP_SEQUENCES:
        model = plane_quartic_model(kind)
        for k, expect in QUARTIC_LEVEL_SETS[kind].items():
            got = frozenset(z[0] for z in model.discrete_body(k).points)
            report.check(f"quartic[{kind}] level {k}", got == expect,
                         {"got": sorted(got), "expected": sorted(expect)})
        gaps = tuple(n for n, _ in model.recover_gaps())
        report.check(f"quartic[{kind}] gap sequence round trip",
                     gaps == PLANE_QUARTIC_GAP_SEQUENCES[kind], {"got": list(gaps)})
    for kind, pattern in GENUS3_CANONICAL_PATTERNS.items():
        model = genus3_canonical_model(kind)
        for k, expect in pattern.items():
            got = frozenset(z[0] for z in model.discrete_body(k).points)
            report.check(f"canonical[{kind}] level {k}", got == frozenset(expect),
                         {"got": sorted(got)})
    for ramified, levels in P1XP1_LEVEL_SETS.items():
        model = p1xp1_model(ramified)
        for k, expect in levels.items():
            got = frozenset(model.discrete_body(k).points)
            report.check(f"p1xp1[ramified={ramified}] level {k}", got == expect,
                         {"got": sorted(got)})
    roundtrip_fail = 0
    total = 0
    for g in range(1, genus_max + 1):
        for gaps in gap_sequences_of_genus(g):
            total += 1
            model = CurveDivisorModel(g, gaps)
            if tuple(n for n, _ in model.recover_gaps()) != gaps:
                roundtrip_fail += 1
                report.check("gap round trip", False, {"gaps": list(gaps)})
    report.check(f"gap sequences of genus <= {genus_max} round-trip ({total} models)",
                 roundtrip_fail == 0, {"failures": roundtrip_fail})
    for g in (2, 3, 4):
        model = CanonicalCurveModel(g)
        rows = model.gap_table(k_max)
        ok = rows[0].diff == g - 1 and all(r.diff == g for r in rows[1:])
        report.check(f"canonical genus {g}: deficit g-1 at k=1 then g", ok)
        report.rows.extend(
            {"model": f"canonical_g{g}", "k": r.k, "d_k": r.d_k, "D_k": r.D_k,
             "diff": r.diff} for r in rows
        )
    return report
