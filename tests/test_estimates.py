"""Verification-harness tests at reduced sweep sizes (full sizes live in the
acceptance suite)."""

import hashlib
import itertools
import math
import random
import statistics
from fractions import Fraction as F

import pytest

import okbodies.cli as cli
import okbodies.estimates as estimates
import okbodies.geometry as geometry
from okbodies.geometry import (AffineFunctional, ConcavePL, GeometryError, hull,
                               integrate_transform, max_transform, validate_body, volume)
from okbodies.lattice import concave_sum, count
from okbodies.series import CanonicalCurveModel, SyntheticModel, ToricModel, top_column_gap_model
from okbodies.thresholds import ValuationModel
from okbodies.estimates import (
    NEG_INF,
    SweepReport,
    make_m_rule,
    rate_fit,
    concave_sampler,
    sub_body_sampler,
    verify_concave_sum_bound,
    verify_cone_counts,
    verify_delta_rate,
    verify_endpoint_limits,
    verify_lower_bound_constant,
    verify_maxp1,
    verify_S_two_sided_sweeps,
    verify_uniform_ehrhart,
    verify_weierstrass,
)
from oracles import (oracle_discrepancy, oracle_plus_body_count, oracle_region_max,
                     oracle_sub_body_sampler)

UNIT_SQUARE = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
UNIT_SIMPLEX = hull([(0, 0), (1, 0), (0, 1)])
SEGMENT = ToricModel(hull([(0,), (1,)]))
V_SEG = ValuationModel.divisorial("p", SEGMENT.ambient)


# ---------------------------------------------------------------------------
# rate_fit
# ---------------------------------------------------------------------------

def test_rate_fit_power_laws():
    ks = list(range(4, 40))
    one_over_k = [(k, 1 + F(1, k)) for k in ks]
    fit = rate_fit(one_over_k, 1)
    assert abs(fit.exponent + 1.0) < 0.01
    quad = [(k, 1 + F(1, k * k)) for k in ks]
    assert abs(rate_fit(quad, 1).exponent + 2.0) < 0.01


def test_rate_fit_constant_sentinel():
    fit = rate_fit([(k, F(1)) for k in range(4, 12)], 1)
    assert fit.exponent == NEG_INF


def test_rate_fit_needs_samples():
    with pytest.raises(ValueError):
        rate_fit([(1, F(1))], 0)


def test_rate_fit_is_statistics_linear_regression_bit_for_bit(monkeypatch):
    """``rate_fit`` takes its least-squares line in the ``math.fsum`` steps of
    ``statistics.linear_regression``, so its exponent is that slope to the
    last bit, and its residual is read off that line: on seeded samples and
    on every fit of a ``verify stwosided --k-max 12`` run."""
    rng = random.Random(12)
    cases = []
    for _ in range(300):
        limit = F(rng.randint(-5, 5), rng.randint(1, 7))
        ks = sorted(rng.sample(range(1, 500), rng.randint(4, 30)))
        cases.append(([(k, limit + F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                        / k ** rng.randint(0, 2)) for k in ks], limit))
    seen = []
    monkeypatch.setattr(estimates, "rate_fit", lambda samples, limit:
                        seen.append((samples, limit)) or rate_fit(samples, limit))
    assert cli.main(["verify", "stwosided", "--k-max", "12"]) == 0
    fitted = 0
    for samples, limit in cases + seen:
        fit = rate_fit(samples, limit)
        limit = geometry.rat(limit)
        pts = [(k, abs(v - limit)) for k, v in samples if v != limit]
        if len(pts) < 3:
            assert fit.exponent == NEG_INF
            continue
        xs = [math.log(k) for k, _ in pts]
        ys = [math.log(float(e)) for _, e in pts]
        slope, intercept = statistics.linear_regression(xs, ys)
        assert fit.exponent.hex() == slope.hex()
        assert fit.residual == math.sqrt(
            sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs))
        fitted += 1
    assert len(seen) > 0 and fitted > len(cases)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

STANDARD_SIMPLEX = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
# slanted facets and negative coordinates: 37/90 of its bounding box lies outside it
SLANTED = hull([(-1, F(-1, 2)), (2, 0), (F(1, 3), 2), (-1, 1)])


@pytest.mark.parametrize("K, min_volume", [
    (UNIT_SQUARE, F(1, 10)),
    (hull(list(itertools.product((0, 1), repeat=3))), F(1, 50)),
    (STANDARD_SIMPLEX, F(1, 500)),
    (SLANTED, F(1, 4)),
])
@pytest.mark.parametrize("seed", [0, 5, 31])
def test_sub_body_sampler_matches_fraction_oracle(K, min_volume, seed):
    """The integer candidate test samples the bodies the Fraction one does."""
    got = sub_body_sampler(K, min_volume, seed)(4)
    want = oracle_sub_body_sampler(K, min_volume, seed)(4)
    assert [(P.vertices, P.halfspaces) for P in got] == [(P.vertices, P.halfspaces) for P in want]
    for P in got:
        validate_body(P)  # the seeded integer form and rank included


def test_sub_body_sampler_deterministic_and_valid():
    sample = sub_body_sampler(UNIT_SQUARE, F(1, 10), seed=3)
    a = sample(5)
    b = sample(5)
    assert [x.vertices for x in a] == [x.vertices for x in b]
    for body in a:
        assert volume(body) >= F(1, 10)
        assert all(UNIT_SQUARE.contains(v) for v in body.vertices)


def test_sub_body_sampler_body_sequence_digest():
    """The first 200 bodies of the unit-square sampler at floor 1/10, seed 0
    (the ehrhart, lowerbound and concave suites' draw), pinned by the sha256
    of each body's (D, Z) and halfspaces: a change to the candidate loop
    must make the same rng calls in the same order."""
    bodies = sub_body_sampler(UNIT_SQUARE, F(1, 10), 0)(200)
    text = repr([(P.int_form(), [(h.normal, h.offset.numerator, h.offset.denominator)
                                 for h in P.halfspaces]) for P in bodies])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d56d16175bb8071b7cfbfe98b6540ef00574614c5fe16e07a2b7ed983f46a4e7")


def test_integer_readers_build_no_vertex_fractions():
    """Bodies from ``hull``, ``intersect_halfspace`` and the sampler keep
    their vertex slot unfilled through ``is_empty``, ``count``, ``volume``,
    ``concave_sum`` and ``max_transform`` (the linearity regions too), and
    the first ``vertices`` read fills it once."""
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    bodies = [hull([(0, 0), (3, 1), (1, 4), (F(1, 2), 2)]),
              geometry.intersect_halfspace(cube, geometry.HalfSpace((1, 1, 1), F(3, 2))),
              *sub_body_sampler(hull([(0, 0), (2, 0), (0, 2), (2, 2)]), F(1, 10), 17)(3)]
    for P in bodies:
        assert P._vertices is None
        D, Z = P.int_form()
        pieces = [AffineFunctional.make([1] + [0] * (P.dim - 1), 0),
                  AffineFunctional.make([0] * (P.dim - 1) + [-1], 4)]
        g = ConcavePL.make(pieces, P)
        assert not P.is_empty
        count(P, 7), volume(P), concave_sum(P, g, 7), max_transform(P, g)
        assert P._vertices is None
        assert all(R._vertices is None for _, R in geometry._linearity_regions(P, g))
        vertices = P.vertices
        assert vertices == tuple(tuple(F(c, D) for c in z) for z in Z)
        assert P._vertices is vertices and P.vertices is vertices


def test_sub_body_sampler_draws_afresh_on_every_call(monkeypatch):
    """Each call of one sampler makes exactly the tries of a fresh draw of
    its size, and smaller asks return prefixes of larger ones."""
    tries = []
    hull_rows = estimates._hull_rows
    monkeypatch.setattr(estimates, "_hull_rows", lambda *a: tries.append(a) or hull_rows(*a))

    def tries_of(sample, n):
        tries.clear()
        bodies = sample(n)
        return bodies, len(tries)

    sample = sub_body_sampler(SLANTED, F(1, 4), seed=7)
    six, six_tries = tries_of(sample, 6)
    two, two_tries = tries_of(sample, 2)
    nine, nine_tries = tries_of(sample, 9)
    for n, got in ((6, six_tries), (2, two_tries), (9, nine_tries)):
        assert tries_of(sub_body_sampler(SLANTED, "1/4", 7), n)[1] == got
    assert two_tries < six_tries < nine_tries
    assert two == six[:2] and six == nine[:6]
    assert tries_of(sample, 6) == (six, six_tries)
    want = oracle_sub_body_sampler(SLANTED, F(1, 4), 7)(9)
    assert [(P.vertices, P.halfspaces) for P in nine] == [(P.vertices, P.halfspaces)
                                                         for P in want]


def test_sub_body_sampler_guard_raises_below_one_body_in_200_tries():
    # area 99/100 needs a sampled point at or next to each corner of the square
    with pytest.raises(RuntimeError, match="volume floor"):
        sub_body_sampler(UNIT_SQUARE, F(99, 100), seed=0)(1)


# ---------------------------------------------------------------------------
# uniform Ehrhart and lower bound
# ---------------------------------------------------------------------------

def test_verify_uniform_ehrhart_small():
    rep = verify_uniform_ehrhart(range(1, 17), seed=7)
    assert rep.passed
    assert rep.fitted["sup_normalized_discrepancy"] <= 4


UNIT_CUBE = hull(list(itertools.product((0, 1), repeat=3)))


@pytest.mark.parametrize("K, nu", [(UNIT_SQUARE, F(1, 10))])
def test_verify_uniform_ehrhart_rows_match_fraction_discrepancies(K, nu):
    """The integer cross-multiplied maximum is max |oracle_discrepancy(P, k)|
    over the suite's 200 sub-bodies of K with volume >= nu, recomputed in
    Fractions."""
    bodies = sub_body_sampler(K, nu, 4)(200)
    rep = verify_uniform_ehrhart(range(1, 9), seed=4)
    assert rep.grid == {"nu": nu, "k_range": [1, 8], "N": 200, "seed": 4}
    want = []
    for k in range(1, 9):
        w = max(abs(oracle_discrepancy(P, k)) for P in bodies)
        want.append({"k": k, "max_abs_discrepancy": w, "normalized": w / k})
    assert rep.rows == want


def test_verify_lower_bound_square_and_simplex():
    for body in (UNIT_SQUARE, UNIT_SIMPLEX):
        rep = verify_lower_bound_constant(body, range(1, 31))
        assert rep.passed
        assert all(r["ok"] for r in rep.rows)


def test_verify_lower_bound_segment():
    seg = hull([(0,), (1,)])
    rep = verify_lower_bound_constant(seg, range(2, 21))
    assert rep.passed
    # C = 1/(2 * 1/2) = 1: bound is (1 - 1/k) k = k - 1 <= k + 1
    assert rep.fitted["C"] == 1
    for row in rep.rows:
        assert row["count"] == row["k"] + 1


def test_verify_concave_sum_small():
    rep = verify_concave_sum_bound(range(1, 15), seed=2)
    assert rep.passed


@pytest.mark.parametrize("K", [UNIT_SQUARE])
def test_verify_concave_rows_match_fraction_excesses(K, monkeypatch):
    """The integer cross-multiplied worst excess is the largest
    (concave_sum - integral) k / sup G over the suite's 50 pairs on
    sub-bodies of K with volume >= 1/10, recomputed in Fractions from 0,
    with the pairs whose sup G is 0 skipped: every third sampled G is
    replaced by G = 0."""
    real = estimates.concave_sampler
    drawn = []

    def sampler(P, rng):
        g = real(P, rng)
        if len(drawn) % 3 == 0:
            g = ConcavePL.make([AffineFunctional.make((0,) * P.dim, 0)], P)
        drawn.append(g)
        return g

    monkeypatch.setattr(estimates, "concave_sampler", sampler)
    bodies = sub_body_sampler(K, F(1, 10), 3)(50)
    rep = verify_concave_sum_bound(range(1, 7), seed=3)
    assert rep.grid == {"k_range": [1, 6], "N": 50, "seed": 3, "min_volume": F(1, 10)}
    pairs = [(P, g, oracle_region_max(P, g), integrate_transform(P, g))
             for P, g in zip(bodies, drawn)]
    want = []
    for k in range(1, 7):
        worst = F(0)
        for P, g, sup_g, integral in pairs:
            if sup_g:
                worst = max(worst, (concave_sum(P, g, k) - integral) * k / sup_g)
        want.append({"k": k, "worst_normalized_excess": worst})
    assert rep.rows == want
    assert any(row["worst_normalized_excess"] > 0 for row in want)


def test_verify_concave_computes_max_and_integral_once_per_pair(tmp_path, monkeypatch):
    from collections import Counter

    import okbodies.estimates as estimates
    from okbodies.cli import main

    calls = Counter()
    for name in ("max_transform", "integrate_transform"):
        def counting(P, g, name=name, real=getattr(estimates, name)):
            calls[name, P, g] += 1
            return real(P, g)
        monkeypatch.setattr(estimates, name, counting)
    assert main(["verify", "concave", "--k-max", "12", "--out", str(tmp_path)]) == 0
    # 50 sampled (P, G) pairs, levels 1..12: neither depends on k
    for name in ("max_transform", "integrate_transform"):
        assert sum(c for (f, *_), c in calls.items() if f == name) == 50
    assert set(calls.values()) == {1}


def test_max_then_integrate_transform_clip_once(monkeypatch):
    """max_transform and integrate_transform on one (P, G) share one cached
    linearity subdivision: the second clips nothing."""
    P = sub_body_sampler(UNIT_SQUARE, F(1, 10), 3)(1)[0]
    g = concave_sampler(P, random.Random(5))
    g = ConcavePL.make(g.pieces + (AffineFunctional.make((F(-1, 2), 1), 1),), P)
    calls = []
    real = geometry.intersect_halfspace
    monkeypatch.setattr(geometry, "intersect_halfspace",
                        lambda *a: calls.append(a) or real(*a))
    sup_g = max_transform(P, g)
    clips = len(calls)
    assert clips > 0
    integral = integrate_transform(P, g)
    assert len(calls) == clips
    monkeypatch.undo()
    assert sup_g == max(g(v) for _, R in geometry._linearity_regions(P, g) for v in R.vertices)
    assert integral > 0


def test_concave_pl_make_reports_the_exact_negative_minimum():
    P = hull([(0, 0), (F(3, 2), 0), (F(1, 3), F(5, 7))])
    pieces = [AffineFunctional.make((1, F(-2, 3)), F(1, 5)),
              AffineFunctional.make((F(-1, 4), 1), F(1, 11))]
    m = min(min(f(v) for f in pieces) for v in P.vertices)
    assert m == F(-1, 4) * F(3, 2) + F(1, 11) < 0
    with pytest.raises(GeometryError, match=rf"negative on the domain \(min {m}\)$"):
        ConcavePL.make(pieces, P)


def test_concave_sum_segment_identity():
    # P = segment, G = p1: excess is exactly 1/2 for every k
    from okbodies.geometry import first_coordinate_transform, integrate_transform
    from okbodies.lattice import concave_sum

    seg = hull([(0,), (1,)])
    g = first_coordinate_transform(seg)
    for k in (1, 2, 9):
        excess = (concave_sum(seg, g, k) - integrate_transform(seg, g)) * k
        assert excess == F(1, 2)


def test_concave_sum_simplex_instance():
    # (sum - integral) * k / sup = (1/2 - 1/6) * 2 / 1 at k = 2 on the simplex
    from okbodies.geometry import first_coordinate_transform, integrate_transform
    from okbodies.lattice import concave_sum

    g = first_coordinate_transform(UNIT_SIMPLEX)
    assert integrate_transform(UNIT_SIMPLEX, g) == F(1, 6)
    assert (concave_sum(UNIT_SIMPLEX, g, 2) - F(1, 6)) * 2 == F(2, 3)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_verify_cone_counts_simplex():
    rep = verify_cone_counts(UNIT_SIMPLEX, 0, 1, (1, 0), range(2, 25))
    assert rep.passed


def test_verify_cone_counts_square_slice():
    rep = verify_cone_counts(UNIT_SQUARE, F(1, 4), F(3, 4), (F(3, 4), 0),
                             range(2, 21))
    assert rep.passed


def test_cone_full_cut_is_whole_cone():
    # l_k = k gives t = a: the superlevel is the entire cone
    from okbodies.geometry import apex_cone, first_coordinate_transform, superlevel

    cone = apex_cone(UNIT_SIMPLEX, 0, 1, (1, 0))
    g = first_coordinate_transform(cone)
    assert superlevel(cone, g, 0) == cone
    assert count(superlevel(cone, g, 0), 6) == count(cone, 6)


# ---------------------------------------------------------------------------
# maxp1
# ---------------------------------------------------------------------------

def test_verify_maxp1_canonical():
    model = CanonicalCurveModel(3)
    rep = verify_maxp1(model, range(1, 31), iota=0)
    assert rep.passed
    # generic pattern: gap = g/k, plus-count = g (k >= 2), so C^n = g
    for row in rep.rows:
        if row["k"] >= 2:
            assert row["gap"] == F(3, row["k"])
            assert row["plus_count"] == 3
    assert rep.fitted["C_pow_n"] == 1  # (g/k * k)^1 / g


def test_verify_maxp1_toric_zero_gap():
    model = ToricModel(UNIT_SIMPLEX)
    rep = verify_maxp1(model, range(1, 15), iota=0)  # p1 tops out at the vertex (1, 0)
    assert rep.passed
    assert all(row["gap"] == 0 for row in rep.rows)


def test_verify_maxp1_top_column():
    model = top_column_gap_model()
    rep = verify_maxp1(model, range(1, 25), iota=1)  # p1 tops out on the edge x1 = 1
    assert rep.passed
    for row in rep.rows:
        k = row["k"]
        assert row["gap"] == F(1, k)
        assert row["plus_count"] == k + 1
        # bound needs C >= (k+1)^{-1/2}: C = 1 works
        assert (row["gap"] * k) ** 2 <= 1 * row["plus_count"]


def test_plus_body_count_matches_the_point_scan():
    """The plus-body count, a suffix sum of the level's first-axis counts,
    against scanning every point (``oracles.oracle_plus_body_count``), and
    the quantum maximum against the largest x1 of Delta_k, on both maxp1
    models for k <= 40 and on a unit-cube model that loses its top slab and
    one more point for k <= 12, with cuts from below the first to above the
    last x1."""
    rng = random.Random(44)
    slab_gap = SyntheticModel(UNIT_CUBE, lambda k: [(k - 1, 0, 0)] + [
        (k, j, i) for j in range(k + 1) for i in range(k + 1)])
    for model, ks in ((CanonicalCurveModel(3), range(1, 41)),
                      (top_column_gap_model(), range(1, 41)), (slab_gap, range(1, 13))):
        for k in ks:
            points = model.idealized_body(k).points
            lo, hi = points[0][0], points[-1][0]
            assert model.max_gap_stat(k)[1] == F(max(z[0] for z in model.discrete_body(k)), k)
            tops = [F(j, k) for j in range(lo - 3, hi + 3)]
            tops += [F(rng.randint(2 * lo - 7, 2 * hi + 7), 2 * k + 1) for _ in range(5)]
            for top in tops:
                assert estimates._plus_body_count(model, k, top) == oracle_plus_body_count(
                    model, k, top)
            # a cut below the first x1 keeps every point, one above the last none
            assert estimates._plus_body_count(model, k, F(lo - 3, k)) == len(points)
            assert estimates._plus_body_count(model, k, F(hi + 2, k)) == 0


# ---------------------------------------------------------------------------
# S and delta sweeps
# ---------------------------------------------------------------------------

def test_verify_S_two_sided_segment():
    half = (F(1, 2), make_m_rule("ceil_tau", F(1, 2)))
    rep = verify_S_two_sided_sweeps(SEGMENT, V_SEG, [half], range(1, 41))[0]
    assert rep.passed
    assert rep.fitted["C_upper"] <= 2
    assert -1.3 <= rep.exponent <= -0.8


def test_verify_S_two_sided_tau_zero():
    rep = verify_S_two_sided_sweeps(SEGMENT, V_SEG, [(0, make_m_rule("one"))], range(1, 31))[0]
    assert rep.passed
    # S_{k,1} = 1 = S0 for every k: both constants vanish
    assert rep.fitted["C_upper"] == 0
    assert rep.fitted["C_lower_pow_n"] == 0
    assert rep.exponent == NEG_INF


def test_verify_S_two_sided_sweeps_match_one_sweep_per_tau():
    simplex_model = ToricModel(UNIT_SIMPLEX)
    v_simp = ValuationModel.divisorial("e1", UNIT_SIMPLEX)
    sweeps = [(tau, make_m_rule("ceil_tau", tau)) for tau in (F(1, 4), F(1, 2), F(1))]
    sweeps.append((0, make_m_rule("one")))
    for model, v in ((SEGMENT, V_SEG), (simplex_model, v_simp)):
        together = verify_S_two_sided_sweeps(model, v, sweeps, range(1, 13))
        alone = [verify_S_two_sided_sweeps(model, v, [sweep], range(1, 13))[0]
                 for sweep in sweeps]
        assert [r.to_json() for r in together] == [r.to_json() for r in alone]


def test_verify_delta_rate_canonical_alpha():
    model = CanonicalCurveModel(3)
    v = ValuationModel.divisorial("p", model.ambient)
    rep = verify_delta_rate(model, [v], 0, make_m_rule("one"), range(2, 41))
    assert rep.passed
    assert rep.grid["delta_tau"] == F(1, 4)
    assert -1.3 <= rep.exponent <= -0.8
    # alpha_k = k/(4k - 3) exactly
    for row in rep.rows:
        k = row["k"]
        assert row["delta_km"] == F(k, 4 * k - 3)


def test_verify_endpoint_limits_segment():
    rep = verify_endpoint_limits(SEGMENT, V_SEG, range(2, 41))
    assert rep.passed
    by_rule = {}
    for row in rep.rows:
        by_rule.setdefault(row["rule"], []).append(row["error"])
    assert by_rule["m=dk"] == [F(0)] * len(by_rule["m=dk"])  # exact at every k
    assert by_rule["m=ceil_sqrt_dk"][-1] < by_rule["m=ceil_sqrt_dk"][0]


def test_level_sweeps_visit_only_the_levels_of_the_model(monkeypatch):
    """Over k < 10^4 on a model with levels {3, 7}, each level sweep asks
    has_level about its own two levels only, not about every k of the range."""
    calls = []
    has_level = SyntheticModel.has_level

    def counted(self, k):
        calls.append(k)
        return has_level(self, k)

    monkeypatch.setattr(SyntheticModel, "has_level", counted)
    model = SyntheticModel(UNIT_SIMPLEX, {3: [], 7: [(0, 0)]})
    v = ValuationModel.divisorial("e1", UNIT_SIMPLEX)
    ks, half = range(1, 10**4), make_m_rule("ceil_tau", F(1, 2))
    for sweep in (lambda: verify_S_two_sided_sweeps(model, v, [(F(1, 2), half)], ks)[0],
                  lambda: verify_endpoint_limits(model, v, ks),
                  lambda: verify_delta_rate(model, [v], F(1, 2), half, ks),
                  lambda: verify_maxp1(model, ks, iota=0)):
        calls.clear()
        rep = sweep()
        assert {row["k"] for row in rep.rows} == {3, 7}
        assert set(calls) <= {3, 7} and len(calls) <= 20, (rep.name, len(calls))


# ---------------------------------------------------------------------------
# weierstrass and gap growth
# ---------------------------------------------------------------------------

def test_verify_weierstrass_suite():
    rep = verify_weierstrass(k_max=20)
    assert rep.passed


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_json_and_csv():
    rep = verify_lower_bound_constant(UNIT_SIMPLEX, range(1, 15))
    data = rep.to_json()
    assert data["passed"] is True
    assert data["name"] == "lower_bound_constant"
    assert isinstance(data["grid"]["C"], str)  # rationals as p/q strings
    header, rows = rep.csv_rows()
    assert header[0] == "k"
    assert len(rows) == len(rep.rows)


def test_report_failure_carries_witness():
    rep = SweepReport("demo", {})
    rep.check("always fails", False, {"k": 3, "value": F(1, 2)})
    assert not rep.passed
    data = rep.to_json()
    assert data["assertions"][0]["witness"] == {"k": 3, "value": "1/2"}


def test_sweep_from_json():
    from okbodies.estimates import sweep_from_json

    tau, rule, ks = sweep_from_json({"tau": "1/2", "m_rule": "ceil_tau",
                                     "k_range": [2, 9]})
    assert tau == F(1, 2)
    assert rule(11, 3) == 6
    assert list(ks) == list(range(2, 10))
    with pytest.raises(ValueError):
        sweep_from_json({"k_range": [5, 2]})


def test_m_rules():
    assert make_m_rule("one")(10, 5) == 1
    assert make_m_rule("dk")(10, 5) == 10
    assert make_m_rule("ceil_tau", F(1, 4))(10, 5) == 3
    assert make_m_rule("dk_minus_sqrt")(10, 5) == 7
    assert make_m_rule("constant", const=4)(10, 5) == 4
    assert make_m_rule("constant", const=99)(10, 5) == 10
    with pytest.raises(ValueError):
        make_m_rule("ceil_tau")
    with pytest.raises(ValueError):
        make_m_rule("mystery")
