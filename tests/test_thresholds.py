"""Threshold invariants: jumping numbers, S_{k,m}, quantiles, restricted deltas."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from operator import gt, lt

import pytest
from hypothesis import given, settings, strategies as st

from okbodies import geometry, thresholds
from okbodies.cli import main
from okbodies.geometry import (
    AffineFunctional,
    ConcavePL,
    first_coordinate_transform,
    hull,
    max_transform,
    superlevel,
)
from okbodies.lattice import PointCloud, concave_sum, count, enumerate_points
from okbodies.series import (
    GENUS3_CANONICAL_PATTERNS,
    PLANE_QUARTIC_GAP_SEQUENCES,
    CanonicalCurveModel,
    CurveDivisorModel,
    GradedSeriesModel,
    LevelError,
    SyntheticModel,
    ToricModel,
    gap_sequences_of_genus,
    genus3_canonical_model,
    p1xp1_model,
    plane_quartic_model,
    top_column_gap_model,
)
from okbodies.thresholds import (
    INFINITE,
    JumpingVector,
    S0_and_sigma,
    S_km,
    S_tau,
    Sbar_km,
    ValuationModel,
    ccdf_continuous,
    delta_km_restricted,
    delta_tau_restricted,
    empirical_family_measure,
    idealized_jumping,
    jumping_numbers,
    quantile,
    quantum_quantile,
    select_compatible_family,
    valuation_from_json,
)
from oracles import (check_guards, oracle_bisect, oracle_candidates, oracle_ccdf_data,
                     oracle_ccdf_fit, oracle_jumping_values, oracle_lagrange, oracle_newton,
                     oracle_S_tau, oracle_scaled_values, oracle_score_level,
                     oracle_sorted_scores, oracle_tail_mean)

SIMPLEX = ToricModel(hull([(0, 0), (1, 0), (0, 1)]))
SEGMENT = ToricModel(hull([(0,), (1,)]))
HYPERFLEX = plane_quartic_model("hyperflex")
CANONICAL3 = CanonicalCurveModel(3)

V_SIMPLEX = ValuationModel.divisorial("e1", SIMPLEX.ambient)
V_SEGMENT = ValuationModel.divisorial("e1", SEGMENT.ambient)
V_HYPER = ValuationModel.divisorial("p", HYPERFLEX.ambient)
V_CAN = ValuationModel.divisorial("p", CANONICAL3.ambient)


def coordinate_family(model):
    """The three toric divisor transforms on a dilated 2-simplex conv{0, s e1, s e2}."""
    amb = model.ambient
    s = max(v[0] for v in amb.vertices)
    g1 = first_coordinate_transform(amb)
    g2 = ConcavePL.make([AffineFunctional.make((0, 1), 0)], amb)
    g3 = ConcavePL.make([AffineFunctional.make((-1, -1), s)], amb)
    return [
        ValuationModel("D1", F(1), g1),
        ValuationModel("D2", F(1), g2),
        ValuationModel("D3", F(1), g3),
    ]


# ---------------------------------------------------------------------------
# jumping numbers
# ---------------------------------------------------------------------------

def test_jumping_numbers_simplex():
    jv = jumping_numbers(SIMPLEX, V_SIMPLEX, 2)
    assert jv.values == (2, 1, 1, 0, 0, 0)


def test_jumping_numbers_hyperflex():
    jv = jumping_numbers(HYPERFLEX, V_HYPER, 5)
    assert jv.values == (5, 2, 1)


def test_jumping_numbers_zero_transform():
    g0 = ConcavePL.make([AffineFunctional.make((0, 0), 0)], SIMPLEX.ambient)
    v = ValuationModel("zero", F(1), g0)
    assert jumping_numbers(SIMPLEX, v, 3).values == (0,) * 10


def test_idealized_jumping_hyperflex():
    iv = idealized_jumping(HYPERFLEX, V_HYPER, 5)
    assert iv.values == (5, 4, 3, 2, 1, 0)


def test_idealized_equals_jumping_on_toric():
    for k in (1, 2, 4):
        assert (jumping_numbers(SIMPLEX, V_SIMPLEX, k).values
                == idealized_jumping(SIMPLEX, V_SIMPLEX, k).values)


def test_sandwich_inequalities():
    # j <= i entrywise and the tail comparison j_{k,d+1-l} >= i_{k,D+1-l}
    for model, v in [(HYPERFLEX, V_HYPER), (CANONICAL3, V_CAN), (SIMPLEX, V_SIMPLEX)]:
        for k in (1, 2, 3, 5, 8):
            j = jumping_numbers(model, v, k).values
            i = idealized_jumping(model, v, k).values
            d, D = len(j), len(i)
            assert all(j[l] <= i[l] for l in range(d))
            assert all(j[d - l] >= i[D - l] for l in range(1, d + 1))


def test_hyperflex_tail_alignment():
    j = jumping_numbers(HYPERFLEX, V_HYPER, 5).values
    i = idealized_jumping(HYPERFLEX, V_HYPER, 5).values
    assert j == (5, 2, 1) and i[-3:] == (2, 1, 0)


# ---------------------------------------------------------------------------
# S_{k,m} and the idealized variant
# ---------------------------------------------------------------------------

def test_S_km_values():
    assert S_km(SIMPLEX, V_SIMPLEX, 2, 3) == F(2, 3)
    assert S_km(SIMPLEX, V_SIMPLEX, 2, 6) == F(1, 3)
    assert S_km(HYPERFLEX, V_HYPER, 5, 2) == F(7, 10)
    with pytest.raises(ValueError):
        S_km(SIMPLEX, V_SIMPLEX, 2, 7)
    with pytest.raises(ValueError):
        S_km(SIMPLEX, V_SIMPLEX, 2, 0)


def test_Sbar_km_values():
    assert Sbar_km(HYPERFLEX, V_HYPER, 5, 2) == F(9, 10)
    for k, m in [(2, 3), (3, 4)]:
        assert Sbar_km(SIMPLEX, V_SIMPLEX, k, m) == S_km(SIMPLEX, V_SIMPLEX, k, m)
    for k in (1, 2, 5):
        assert Sbar_km(SEGMENT, V_SEGMENT, k, 1) == 1


def test_S_monotone_in_m():
    for model, v in [(SIMPLEX, V_SIMPLEX), (HYPERFLEX, V_HYPER)]:
        for k in (2, 5):
            d = model.d_k(k)
            vals = [S_km(model, v, k, m) for m in range(1, d + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            D = model.D_k(k)
            ivals = [Sbar_km(model, v, k, m) for m in range(1, D + 1)]
            assert all(a >= b for a, b in zip(ivals, ivals[1:]))


def test_fekete_superadditivity():
    for model, v in [(SIMPLEX, V_SIMPLEX), (HYPERFLEX, V_HYPER), (CANONICAL3, V_CAN)]:
        for k in (1, 2, 3):
            for kp in (1, 2, 4):
                lhs = k * S_km(model, v, k, 1) + kp * S_km(model, v, kp, 1)
                rhs = (k + kp) * S_km(model, v, k + kp, 1)
                assert lhs <= rhs


def test_joint_superadditivity():
    for model, v in [(SIMPLEX, V_SIMPLEX), (HYPERFLEX, V_HYPER)]:
        for k in (2, 3):
            for kp in (1, 2):
                for m in range(1, model.d_k(k) + 1):
                    lhs = k * S_km(model, v, k, m) + kp * S_km(model, v, kp, 1)
                    assert (k + kp) * S_km(model, v, k + kp, m) >= lhs


def test_multiple_monotonicity():
    for model, v in [(SIMPLEX, V_SIMPLEX), (HYPERFLEX, V_HYPER)]:
        for k in (1, 2):
            for ell in (2, 3):
                for m in range(1, model.d_k(k) + 1):
                    assert S_km(model, v, k, m) <= S_km(model, v, ell * k, m)


def test_weak_reverse_inequality():
    # S_{k,m} >= (1/km) sum_{l=1+D-d}^{m+D-d} i_{k,l} on divisorial models
    for model, v in [(HYPERFLEX, V_HYPER), (CANONICAL3, V_CAN)]:
        for k in (2, 3, 5):
            j = jumping_numbers(model, v, k)
            i = idealized_jumping(model, v, k)
            d, D = len(j), len(i)
            for m in range(1, d + 1):
                rhs = sum(i.values[D - d : m + D - d], F(0)) / (k * m)
                assert S_km(model, v, k, m) >= rhs


# ---------------------------------------------------------------------------
# extremal orders and empirical measures
# ---------------------------------------------------------------------------

def test_S0_sigma_basic():
    vo = S0_and_sigma(SIMPLEX, V_SIMPLEX)
    assert (vo.S0, vo.sigma) == (1, 0)
    seg = ToricModel(hull([(F(1, 3),), (F(7, 2),)]))
    vseg = ValuationModel.divisorial("p", seg.ambient)
    vo = S0_and_sigma(seg, vseg)
    assert (vo.S0, vo.sigma) == (F(7, 2), F(1, 3))


def test_S0_interior_peak_needs_lp():
    # tent function peaking at x = 1/2: vertex evaluation alone would say 0
    tent = ConcavePL.make(
        [AffineFunctional.make((1,), 0), AffineFunctional.make((-1,), 1)],
        SEGMENT.ambient,
    )
    v = ValuationModel("tent", F(1), tent)
    vo = S0_and_sigma(SEGMENT, v)
    assert (vo.S0, vo.sigma) == (F(1, 2), 0)


# ---------------------------------------------------------------------------
# ccdf / quantiles
# ---------------------------------------------------------------------------

def test_ccdf_simplex_quadratic():
    assert ccdf_continuous(SIMPLEX, V_SIMPLEX, F(1, 2)) == F(1, 4)
    assert ccdf_continuous(SIMPLEX, V_SIMPLEX, 0) == 1
    for t in [F(1, 3), F(2, 3), F(9, 10)]:
        assert ccdf_continuous(SIMPLEX, V_SIMPLEX, t) == (1 - t) ** 2


def test_ccdf_segment_linear():
    for t in [F(0), F(1, 4), F(1)]:
        assert ccdf_continuous(SEGMENT, V_SEGMENT, t) == 1 - t


def test_ccdf_domain_check():
    with pytest.raises(ValueError):
        ccdf_continuous(SEGMENT, V_SEGMENT, 2)


def test_quantile_exact_cases():
    spec = quantile(SIMPLEX, V_SIMPLEX, F(1, 4))
    assert spec.exact and spec.quantile == F(1, 2)
    for tau in [F(1, 3), F(1, 2), F(1)]:
        spec = quantile(SEGMENT, V_SEGMENT, tau)
        assert spec.exact and spec.quantile == 1 - tau
    spec = quantile(SIMPLEX, V_SIMPLEX, 0)
    assert spec.quantile == 1 and spec.atom_at_top == 0


def test_quantile_irrational_root_bracketed():
    spec = quantile(SIMPLEX, V_SIMPLEX, F(1, 2), tol=F(1, 10**12))
    assert not spec.exact
    lo, hi = spec.bracket
    assert hi - lo <= F(1, 10**12)
    # true root is 1 - sqrt(1/2)
    assert (1 - lo) ** 2 >= F(1, 2) >= (1 - hi) ** 2


def test_quantile_bisects_a_cubic_ccdf_piece():
    # F(t) = (1 - t)^3 on the unit 3-simplex: Q(1/3) = 1 - 3^(-1/3) is irrational,
    # and the tail {x1 >= Q} is a simplex whose x1-mean is Q + (1 - Q)/4
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    v = ValuationModel.divisorial("e1", simplex3.ambient)
    tol = F(1, 10**12)
    spec = quantile(simplex3, v, F(1, 3), tol=tol)
    assert not spec.exact
    lo, hi = spec.bracket
    assert hi - lo <= tol and (1 - lo) ** 3 >= F(1, 3) >= (1 - hi) ** 3
    q = 1 - 3 ** (-1 / 3)
    assert abs(float(S_tau(simplex3, v, F(1, 3), tol=tol)) - (q + (1 - q) / 4)) < 1e-9
    # its quadratic part 1 - 3t + 3t^2 = 1/3 has the rational roots 1/3 and 2/3
    cubic = (F(1), F(-3), F(3), F(-1))
    assert thresholds._exact_poly_root(cubic, F(1, 3), F(0), F(1)) is None


def test_quantile_at_a_piece_left_end_is_exact_at_any_degree():
    """F crossing tau at the left end of a cubic ccdf piece gives that end
    exactly, not a bracket.  On the unit 3-simplex, G = x1 + 1 has F = 1 up
    to sigma = 1, so Q(1) = 1 and the tail is the whole simplex; the
    two-piece G (x1 + x2 + 1/2) ∧ (x3 - x1 + 2) has F = 1/2 at its knot 1."""
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    ambient = simplex3.ambient
    shift = ConcavePL.make([AffineFunctional.make((1, 0, 0), 1)], ambient)
    ridge = ConcavePL.make([AffineFunctional.make((1, 1, 0), F(1, 2)),
                            AffineFunctional.make((-1, 0, 1), 2)], ambient)
    for g, tau in ((shift, F(1)), (ridge, F(1, 2))):
        v = ValuationModel("G", F(1), g)
        assert (1, 4) in {(lo, len(c)) for lo, _, c in thresholds._ccdf_data(ambient, g).pieces}
        spec = quantile(simplex3, v, tau)
        assert spec.exact and spec.quantile == 1
        assert S_tau(simplex3, v, tau) == oracle_S_tau(simplex3, v, tau)
    assert S_tau(simplex3, ValuationModel("G", F(1), shift), 1) == F(5, 4)


def test_bisect_matches_fraction_bisection_oracle():
    """The integer bisection keeps the same bracket as halving in Fractions
    on seeded pieces of degree 0-4 (monotone or not, so the decisions go both
    ways) over rational intervals, at tol 1/10, 10^-3 and 10^-9."""
    rng = random.Random(23)
    for _ in range(1500):
        coeffs = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
        lo = F(rng.randint(-10, 10), rng.randint(1, 9))
        hi = lo + F(rng.randint(1, 30), rng.randint(1, 9))
        tau = thresholds._poly_eval(coeffs, lo + (hi - lo) * F(rng.randint(0, 8), 8))
        tau += rng.choice((0, F(rng.randint(-3, 3), rng.randint(1, 50))))
        tol = rng.choice((F(1, 10), F(1, 10**3), F(1, 10**9)))
        assert thresholds._bisect(coeffs, tau, lo, hi, tol) == oracle_bisect(coeffs, tau, lo, hi, tol)


def test_quantile_beyond_F0_raises_value_error():
    """G = x - 1/2 on the unit square is negative on half of it, so F(0) =
    1/2: tau = 1/2 is reached at 0, and a larger tau is never reached."""
    g, ambient = edge_transforms()[-1]
    model, v = ToricModel(ambient), ValuationModel("G", F(1), g)
    assert ccdf_continuous(model, v, 0) == F(1, 2)
    assert quantile(model, v, F(1, 2)).quantile == 0
    for tau in (F(3, 4), F(1)):
        with pytest.raises(ValueError, match="never reaches"):
            quantile(model, v, tau)
        with pytest.raises(ValueError, match="never reaches"):
            S_tau(model, v, tau)


def test_S_tau_checks_tol_as_quantile_does():
    for tol in (0, -1):
        for call in (quantile, S_tau):
            with pytest.raises(ValueError, match="tol must be positive"):
                call(SIMPLEX, V_SIMPLEX, 0, tol=tol)


def test_S_tau_after_quantile_solves_nothing_again(monkeypatch):
    """quantile keeps each solved TailSpec, so S_tau with the same
    arguments neither looks for an exact root nor bisects.  No case crosses
    at a piece's left end, which is solved without either."""
    calls = Counter()
    for name in ("_exact_poly_root", "_bisect"):
        real = getattr(thresholds, name)
        monkeypatch.setattr(thresholds, name,
                            lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    cases = [(SIMPLEX, V_SIMPLEX, F(1, 4), F(1, 10**9)), (SIMPLEX, V_SIMPLEX, F(1, 2), F(1, 10**6)),
             (simplex3, ValuationModel.divisorial("e1", simplex3.ambient), F(1, 3), F(1, 10**9))]
    solved = Counter()
    for model, v, tau, tol in cases:
        calls.clear()
        spec = quantile(model, v, tau, tol)
        solved += calls
        pieces = thresholds._ccdf_data(model.ambient, v.G).pieces
        assert spec.quantile not in {lo for lo, _, _ in pieces}
        calls.clear()
        S_tau(model, v, tau, tol)
        assert calls == Counter()
    assert solved == Counter({"_exact_poly_root": 3, "_bisect": 2})


def test_quantile_consistency():
    for model, v in [(SIMPLEX, V_SIMPLEX), (SEGMENT, V_SEGMENT)]:
        for tau in [F(1, 4), F(1, 3), F(3, 4), F(1)]:
            spec = quantile(model, v, tau)
            if spec.exact:
                assert ccdf_continuous(model, v, spec.quantile) >= tau


def test_quantile_atom_at_flat_top():
    # G = min(x1 + 1/2, 1) on the square: the top level set {G = 1} has
    # volume 1/2, so tau below the atom must return the maximal order
    sq = ToricModel(hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
    g = ConcavePL.make(
        [AffineFunctional.make((1, 0), F(1, 2)), AffineFunctional.make((0, 0), 1)],
        sq.ambient,
    )
    v = ValuationModel("flat", F(1), g)
    vo = S0_and_sigma(sq, v)
    assert (vo.S0, vo.sigma) == (1, F(1, 2))
    spec = quantile(sq, v, F(1, 4))
    assert spec.quantile == 1 and spec.atom_at_top == F(1, 2) and spec.exact
    assert S_tau(sq, v, F(1, 4)) == 1
    spec = quantile(sq, v, F(3, 4))
    assert spec.exact and spec.quantile == F(3, 4)
    assert ccdf_continuous(sq, v, F(3, 4)) == F(3, 4)


def test_zero_G_is_one_atom_at_zero():
    """G = 0 on the unit square: s0 = 0, so the ccdf has no piece and reads
    its atom, the whole ambient."""
    sq = ToricModel(hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
    v = ValuationModel("zero", F(1), ConcavePL.make([AffineFunctional.make((0, 0), 0)],
                                                     sq.ambient))
    assert thresholds._ccdf_data(sq.ambient, v.G).pieces == ()
    assert ccdf_continuous(sq, v, 0) == 1
    spec = quantile(sq, v, F(1, 2))
    assert spec.exact and spec.quantile == 0
    assert S_tau(sq, v, F(1, 2)) == 0


def test_quantum_quantile():
    assert quantum_quantile(SIMPLEX, V_SIMPLEX, 2, F(1, 2)) == F(1, 2)
    assert quantum_quantile(SIMPLEX, V_SIMPLEX, 2, 1) == 0  # j_{k,d_k}/k
    assert quantum_quantile(SIMPLEX, V_SIMPLEX, 2, F(1, 20)) == 1  # floor = 0 convention


def test_quantum_quantile_of_an_empty_level_raises():
    # every point of the unit simplex at level 1 is a gap, so Delta_1 is empty
    empty = SyntheticModel(SIMPLEX.ambient, {1: [(0, 0), (0, 1), (1, 0)]})
    for tau in (F(0), F(1, 2), F(1)):
        with pytest.raises(LevelError, match="Delta_1 is empty"):
            quantum_quantile(empty, V_SIMPLEX, 1, tau)


def test_quantum_quantile_converges():
    tau = F(1, 4)
    target = quantile(SIMPLEX, V_SIMPLEX, tau).quantile
    errs = [abs(quantum_quantile(SIMPLEX, V_SIMPLEX, k, tau) - target) for k in (8, 16, 32)]
    assert errs[-1] <= errs[0]
    assert errs[-1] <= F(1, 10)


# ---------------------------------------------------------------------------
# tail expectations
# ---------------------------------------------------------------------------

def test_S_tau_segment_closed_form():
    for tau in [F(1, 4), F(1, 2), F(3, 4), F(1)]:
        assert S_tau(SEGMENT, V_SEGMENT, tau) == 1 - tau / 2
    assert S_tau(SEGMENT, V_SEGMENT, F(1, 2)) == F(3, 4)


def test_S_tau_simplex_values():
    assert S_tau(SIMPLEX, V_SIMPLEX, F(1, 4)) == F(2, 3)
    assert S_tau(SIMPLEX, V_SIMPLEX, 1) == F(1, 3)
    assert S_tau(SIMPLEX, V_SIMPLEX, 0) == 1


def test_S_tau_two_piece_transform_oracle():
    # G = min(2 x1, 1 - x1) on the unit simplex peaks at x1 = 1/3 (value 2/3).
    # F(t) = (1 - t/2)^2 - t^2, so Q(7/12) = 1/3 exactly, and the tail region
    # is {1/6 <= x1 <= 2/3}. Oracle by direct antiderivatives:
    #   vol  = int_{1/6}^{2/3} (1-t) dt                      = 7/24
    #   intG = int_{1/6}^{1/3} 2t(1-t) + int_{1/3}^{2/3} (1-t)^2 = 4/27
    g = ConcavePL.make(
        [AffineFunctional.make((2, 0), 0), AffineFunctional.make((-1, 0), 1)],
        SIMPLEX.ambient,
    )
    v = ValuationModel("ridge", F(1), g)
    vo = S0_and_sigma(SIMPLEX, v)
    assert (vo.S0, vo.sigma) == (F(2, 3), 0)
    for t in (F(0), F(1, 6), F(1, 3), F(1, 2)):
        assert ccdf_continuous(SIMPLEX, v, t) == (1 - t / 2) ** 2 - t ** 2
    spec = quantile(SIMPLEX, v, F(7, 12))
    assert spec.exact and spec.quantile == F(1, 3)
    assert S_tau(SIMPLEX, v, F(7, 12)) == F(4, 27) / F(7, 24)


def test_S_tau_monotone_in_tau():
    taus = [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
    vals = [S_tau(SIMPLEX, V_SIMPLEX, t, tol=F(1, 10**6)) for t in taus]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_S_tau_interval_certified():
    exact_like = S_tau(SIMPLEX, V_SIMPLEX, F(1, 2), tol=F(1, 10**8))
    # tail body [1 - 1/sqrt2, 1]: mean = 1 - (2 - sqrt2)/(3... check numerically
    import math as _m

    q = 1 - _m.sqrt(0.5)
    true = (2 * q + 1) / 3  # barycenter of triangle {(q,0),(1,0),(q,1-q)} x-coord
    assert abs(float(exact_like) - true) < 1e-6


def test_concavity_of_ccdf_root():
    # t -> F(t)^{1/n} |ambient|^{1/n} concave: n = 2 so squaring is exact
    grid = [F(j, 16) for j in range(17)]
    f = [ccdf_continuous(SIMPLEX, V_SIMPLEX, t) for t in grid]
    for i in range(1, 16):
        lhs = 4 * f[i]            # (2 sqrt(f_mid))^2
        rhs_lo = f[i - 1] + f[i + 1]
        # sqrt(a)+sqrt(b) <= 2 sqrt(m)  <=>  a + b + 2 sqrt(ab) <= 4m
        gap = lhs - rhs_lo
        assert gap >= 0 and gap * gap >= 4 * f[i - 1] * f[i + 1]


def test_volume_power_lower_bound():
    vo = S0_and_sigma(SIMPLEX, V_SIMPLEX)
    vol = F(1, 2)
    for t in [F(j, 10) for j in range(10)]:
        lhs = ccdf_continuous(SIMPLEX, V_SIMPLEX, t) * vol
        assert lhs >= (1 - t / vo.S0) ** 2 * vol


def test_max_mean_bound():
    # S0 <= (n+1) S_1 for the first-coordinate transform on a convex body
    for model, v, n in [(SIMPLEX, V_SIMPLEX, 2), (SEGMENT, V_SEGMENT, 1)]:
        assert S0_and_sigma(model, v).S0 <= (n + 1) * S_tau(model, v, 1)


def _tail_ambient(rng, n):
    """A full-dimensional rational hull of the origin and n to n+2 more points
    in [0, 1]^n."""
    while True:
        pts = [(0,) * n] + [tuple(F(rng.randint(0, 4), 4) for _ in range(n))
                            for _ in range(rng.randint(n, n + 2))]
        body = hull(pts)
        if body.is_full_dim():
            return body


def _tail_transforms():
    """(ambient, G) for the S_tau differential, seeded: rational hulls in
    n = 1..4 with 1-3 random pieces, the same G with one piece listed twice,
    and with a constant piece that cuts a flat top (an atom at s0)."""
    rng = random.Random(21)
    for n in (1, 2, 3, 4) * 3:
        ambient = _tail_ambient(rng, n)
        g = _random_transform(rng, ambient)
        yield ambient, g
        yield ambient, ConcavePL.make(g.pieces + (rng.choice(g.pieces),), ambient)
        s0, sigma = max_transform(ambient, g), min(g(x) for x in ambient.vertices)
        if s0 > sigma:
            flat = AffineFunctional.make((0,) * n, (s0 + sigma) / 2)
            yield ambient, ConcavePL.make(g.pieces + (flat,), ambient)


def test_S_tau_matches_body_oracle():
    """The layer-cake S_tau, read off the ccdf, is the same Fraction as the
    mean of G over the superlevel body, on exact and inexact quantiles alike
    (the inexact ones bisect the same bracket to the same midpoint)."""
    rng = random.Random(22)
    inexact = Counter()
    for ambient, g in _tail_transforms():
        model, v = ToricModel(ambient), ValuationModel("G", F(1), g)
        for tau in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(rng.randint(1, 99), 100)):
            assert S_tau(model, v, tau) == oracle_S_tau(model, v, tau)
            inexact[ambient.dim] += tau > 0 and not quantile(model, v, tau).exact
    assert all(inexact[n] > 0 for n in (2, 3, 4))


def test_tail_mean_is_one_lipschitz_so_S_tau_reads_the_bracket_ends():
    """F is log-concave (Brunn-Minkowski), so the tail mean E[G | G >= q]
    is non-decreasing and 1-Lipschitz in q: at the ends of an inexact
    quantile's bracket (a, b) the tail means are at most b - a apart, and
    S_tau, their midpoint, needs no further bisection.  Checked with the
    oracle's superlevel-body tail means on seeded inexact quantiles of 2-D,
    3-D and 4-D hulls at three tolerances, G with and without a flat top;
    S_tau matches the bisecting oracle there, at tau 0, at the top atom
    (quantile s0) and at a piece's left end (exact)."""
    rng = random.Random(24)
    inexact = Counter()
    for n in (2, 3, 4) * 2:
        ambient = _tail_ambient(rng, n)
        model, g = ToricModel(ambient), _random_transform(rng, ambient)
        s0, sigma = max_transform(ambient, g), min(g(x) for x in ambient.vertices)
        flat = AffineFunctional.make((0,) * n, (3 * s0 + sigma) / 4)
        for v in (ValuationModel("G", F(1), g),
                  ValuationModel("flat", F(1), ConcavePL.make(g.pieces + (flat,), ambient))):
            _, atom, pieces = thresholds._ccdf_data(ambient, v.G)
            ends = [(lo, thresholds._poly_eval(c, lo)) for lo, _, c in pieces if lo > 0]
            lo, tau = next((lo, tau) for lo, tau in reversed(ends) if tau > atom)
            assert quantile(model, v, tau).quantile == lo
            for tau in (F(0), atom, tau, *(F(rng.randint(1, 99), 100) for _ in range(3))):
                tol = rng.choice((F(1, 10), F(1, 1000), thresholds.DEFAULT_TOL))
                assert S_tau(model, v, tau, tol) == oracle_S_tau(model, v, tau, tol)
                spec = quantile(model, v, tau, tol)
                if not spec.exact:
                    a, b = spec.bracket
                    gap = oracle_tail_mean(model, v, b) - oracle_tail_mean(model, v, a)
                    assert 0 <= gap <= b - a
                    inexact[n] += 1
    assert all(inexact[n] > 0 for n in (2, 3, 4))


def test_S_tau_builds_no_body_once_the_ccdf_is_cached(monkeypatch):
    """Once _ccdf_data(ambient, G) is cached, S_tau measures nothing: no
    superlevel body, volume or integral, on exact and inexact quantiles."""
    calls = Counter()
    for module in (thresholds, geometry):
        for name in ("superlevel", "volume", "integrate_transform"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    ridge = ConcavePL.make(
        [AffineFunctional.make((2, 0), 0), AffineFunctional.make((-1, 0), 1)], SIMPLEX.ambient)
    cases = [(SIMPLEX, V_SIMPLEX, F(1, 4)), (SIMPLEX, V_SIMPLEX, F(1, 2)),
             (SIMPLEX, ValuationModel("ridge", F(1), ridge), F(7, 12)),
             (simplex3, ValuationModel.divisorial("e1", simplex3.ambient), F(1, 3))]
    exact = []
    for model, v, tau in cases:
        thresholds._ccdf_data(model.ambient, v.G)
        exact.append(quantile(model, v, tau).exact)
        calls.clear()
        S_tau(model, v, tau)
        assert calls == Counter()
    assert exact == [True, False, True, False]


def test_S_tau_bracket_ending_at_an_empty_top():
    """tau far below tol: the quantile's bracket ends at s0, whose level set
    has no volume.  The tail mean there is s0 (its limit).  F(t) = (1 - t)^3
    on the unit 3-simplex gives the tail mean q + (1 - q) / 4, and the tail
    means at the two ends of the bracket are already within tol."""
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    v = ValuationModel.divisorial("e1", simplex3.ambient)
    tau = F(1, 10**30)
    spec = quantile(simplex3, v, tau)
    lo, hi = spec.bracket
    assert not spec.exact and spec.atom_at_top == 0 and hi == 1
    lo_val = lo + (1 - lo) / 4
    assert 1 - lo_val <= thresholds.DEFAULT_TOL
    assert S_tau(simplex3, v, tau) == (lo_val + 1) / 2


def simplex_transform(seed):
    """A 3-piece concave G on a rational 3-simplex, drawn as perfbench's
    geometry-bodies workload draws them: gradients in [-2, 2]^3, lifted to
    1/4 above zero."""
    rng = random.Random(seed)
    simplex = hull([(0, 0, 0)])
    while not simplex.is_full_dim():
        simplex = hull([tuple(F(rng.randrange(0, 33), 32) for _ in range(3)) for _ in range(4)])
    grads = [tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(3)]
    lift = F(1, 4) - min(sum(a * x for a, x in zip(grad, v))
                         for grad in grads for v in simplex.vertices)
    return ConcavePL.make([AffineFunctional.make(grad, lift) for grad in grads], simplex)


def edge_transforms():
    """(G, ambient) pairs at the edges of the ccdf fits: sigma > 0, a constant
    G (s0 = sigma), 1-D tents and flat tops, a 3-D flat top with an atom,
    duplicate pieces, a 4-D G with sigma > 0, and a G that is negative on
    part of the ambient (sigma < 0, so F(0) < 1)."""
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    segment = hull([(0,), (2,)])
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    simplex4 = hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])

    def G(ambient, *pieces, nonnegative=True):
        pieces = tuple(AffineFunctional.make(grad, c) for grad, c in pieces)
        return (ConcavePL.make if nonnegative else ConcavePL)(pieces, ambient), ambient

    return [
        G(square, ((1, 1), F(1, 3))),
        G(square, ((0, 0), F(1, 2))),
        G(segment, ((1,), F(1, 4)), ((-1,), F(9, 4))),
        G(segment, ((1,), 0), ((0,), F(1, 2))),
        G(cube, ((1, 1, 1), 0), ((0, 0, 0), 1)),
        G(square, ((2, -1), 1), ((2, -1), 1), ((-1, 1), F(3, 2))),
        G(simplex4, ((1, -1, 0, 1), F(3, 2)), ((-1, 0, 2, 0), 2)),
        G(square, ((1, 0), F(-1, 2)), nonnegative=False),
    ]


def assert_ccdf_matches(ambient, g, oracle):
    """``_ccdf_data`` against an oracle (s0, sigma, vol, atom, breaks,
    pieces) with one piece per candidate interval: s0 and the atom are
    equal, ``_candidates`` are the oracle's breaks, the pieces tile [0, s0]
    with a new polynomial each, and every oracle interval lies inside
    exactly one piece, with identical coefficients."""
    s0, _, _, atom, breaks, intervals = oracle
    data = thresholds._ccdf_data(ambient, g)
    assert (data.s0, data.atom) == (s0, atom)
    assert thresholds._candidates(ambient, g) == breaks
    pieces = data.pieces
    assert (pieces[0][0], pieces[-1][1]) == (0, s0) if pieces else len(breaks) <= 1
    assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(pieces, pieces[1:]))
    for lo, hi, coeffs in intervals:
        assert [c for a, b, c in pieces if a <= lo and hi <= b] == [coeffs]


def test_ccdf_data_matches_all_candidates_oracle():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    flat_top = ConcavePL.make(
        [AffineFunctional.make((1, 0), F(1, 2)), AffineFunctional.make((0, 0), 1)], square)
    ridge = ConcavePL.make(
        [AffineFunctional.make((2, 0), 0), AffineFunctional.make((-1, 0), 1)], SIMPLEX.ambient)
    cases = [(V_SIMPLEX.G, SIMPLEX.ambient), (V_SEGMENT.G, SEGMENT.ambient),
             (flat_top, square), (ridge, SIMPLEX.ambient)]
    cases += [(g, g.domain) for g in map(simplex_transform, (1, 2, 3))]
    # a rational 4-simplex and gradients with non-integer entries: the integer
    # solve scales every row by one common denominator first
    simplex4 = hull([(0, 0, 0, 0), (F(1, 2), 0, 0, 0), (F(1, 3), F(2, 3), 0, 0),
                     (0, F(1, 4), F(3, 4), 0), (F(1, 5), 0, F(1, 6), F(5, 6))])
    grads = [(F(1, 3), 0, F(2, 5), -1), (0, F(1, 2), 0, 1)]
    lift = F(1, 4) - min(sum(a * x for a, x in zip(grad, v))
                         for grad in grads for v in simplex4.vertices)
    tent = ConcavePL.make([AffineFunctional.make(grads[0], lift),
                           AffineFunctional.make(grads[1], lift + F(1, 7))], simplex4)
    cases.append((tent, simplex4))
    for g, ambient in cases + edge_transforms():
        assert_ccdf_matches(ambient, g, oracle_ccdf_data(ambient, g))


def test_newton_matches_lagrange_oracle():
    """The fit oracle's divided differences against the multiplied-out
    Lagrange basis on seeded distinct nodes, with random values or the values
    of a random polynomial of lower degree (so trailing zeros are dropped)."""
    rng = random.Random(19)
    for _ in range(300):
        m = rng.randrange(1, 7)
        ts = sorted({F(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(m)})
        if rng.randrange(3):
            vals = [F(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in ts]
        else:
            poly = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(1, m + 1))]
            vals = [sum(c * t ** d for d, c in enumerate(poly)) for t in ts]
        assert oracle_newton(ts, vals) == oracle_lagrange(ts, vals)


def _closed_form_cases():
    """(G, ambient) for the closed-form ccdf, seeded: random hulls in n = 1..4
    with 1-3 pieces, the same G with a duplicate piece, with a constant piece
    (an atom at s0) and shifted below zero at a vertex (sigma < 0), then
    first coordinates and tents on cubes, constant on facets and with tied
    knots at many vertices."""
    rng = random.Random(28)
    for n in (1, 2, 3, 4) * 3:
        ambient = _tail_ambient(rng, n)
        g = _random_transform(rng, ambient)
        s0, sigma = max_transform(ambient, g), min(g(x) for x in ambient.vertices)
        pieces = list(g.pieces)
        yield g, ambient
        yield ConcavePL.make(pieces + [rng.choice(pieces)], ambient), ambient
        if s0 > sigma:
            flat = AffineFunctional.make((0,) * n, (s0 + sigma) / 2)
            yield ConcavePL.make(pieces + [flat], ambient), ambient
            drop = sigma + (s0 - sigma) / 3
            yield ConcavePL(tuple(AffineFunctional(f.gradient, f.constant - drop)
                                  for f in pieces), ambient), ambient
    for n in (1, 2, 3, 4):
        cube = hull(list(itertools.product((0, 1), repeat=n)))
        x0 = [1] + [0] * (n - 1)
        yield first_coordinate_transform(cube), cube
        yield ConcavePL.make([AffineFunctional.make(x0, 0),
                              AffineFunctional.make([-c for c in x0], 1)], cube), cube
        yield ConcavePL.make([AffineFunctional.make([1] * n, 0),
                              AffineFunctional.make([0] * n, F(n, 2))], cube), cube


def test_ccdf_data_matches_fit_oracles():
    """The closed-form ccdf equals the superlevel fit of every real interval
    (``oracle_ccdf_fit``) field for field, and the fit of every candidate
    interval (``oracle_ccdf_data``) where that is cheap, on seeded bodies in
    n = 1..4 with duplicate and constant pieces, G constant on a facet, tied
    knots and sigma < 0."""
    seen = Counter()
    for g, ambient in itertools.chain(_closed_form_cases(), edge_transforms()):
        assert_ccdf_matches(ambient, g, oracle_ccdf_fit(ambient, g))
        if ambient.dim <= 3:
            assert_ccdf_matches(ambient, g, oracle_ccdf_data(ambient, g))
        sigma = min(g(x) for x in ambient.vertices)
        seen[ambient.dim, sigma < 0, thresholds._ccdf_data(ambient, g).atom > 0] += 1
    assert all(seen[n, False, False] for n in (1, 2, 3, 4))
    assert all(seen[n, True, False] for n in (1, 2, 3, 4))
    assert all(seen[n, False, True] for n in (1, 2, 3, 4))


def test_ccdf_builds_no_superlevel_and_triangulates_each_region_once(monkeypatch):
    """A cold ``_ccdf_data`` builds no superlevel body and triangulates each
    full-dimensional linearity region once (and nothing else); a warm
    quantile does neither."""
    calls = Counter()
    real_triangulate = thresholds.triangulate

    def triangulate(body):
        calls[body] += 1
        return real_triangulate(body)

    def no_superlevel(*args):
        raise AssertionError("a superlevel body was built")

    monkeypatch.setattr(thresholds, "triangulate", triangulate)
    monkeypatch.setattr(geometry, "superlevel", no_superlevel)
    cases = [(V_SIMPLEX.G, SIMPLEX.ambient), (V_SEGMENT.G, SEGMENT.ambient)]
    cases += [(g, g.domain) for g in map(simplex_transform, (1, 2))]
    cases += edge_transforms()
    for g, ambient in cases:
        thresholds._ccdf_data.cache_clear()
        thresholds._quantile_spec.cache_clear()
        calls.clear()
        thresholds._ccdf_data(ambient, g)
        regions = [r for _, r in geometry._linearity_regions(ambient, g) if r.is_full_dim()]
        assert calls == Counter(regions)
        calls.clear()
        quantile(ToricModel(ambient), ValuationModel("G", F(1), g), F(1, 4))
        assert calls == Counter()


def test_only_an_inexact_quantile_solves_the_candidate_breaks():
    """The candidate breaks (``thresholds._candidates``) are the bisection
    grid of an inexact quantile alone: cold ``ccdf_continuous``, an
    atom-capped quantile and exact quantiles solve none, and two inexact taus
    on one (ambient, G) solve them once."""
    solves = thresholds._candidates.cache_info
    square = ToricModel(hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
    flat_top = ValuationModel("flat", F(1), ConcavePL.make(
        [AffineFunctional.make((1, 0), F(1, 2)), AffineFunctional.make((0, 0), 1)], square.ambient))
    simplex3 = ToricModel(hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    e1 = ValuationModel.divisorial("e1", simplex3.ambient)
    cold = [lambda: ccdf_continuous(simplex3, e1, F(1, 3)),
            lambda: quantile(square, flat_top, F(1, 4)),  # tau <= atom = 1/2
            lambda: quantile(SEGMENT, V_SEGMENT, F(1, 2)),
            lambda: quantile(SIMPLEX, V_SIMPLEX, F(1, 4))]  # (1 - q)^2 = 1/4
    for solve in cold:
        thresholds._ccdf_data.cache_clear()
        thresholds._quantile_spec.cache_clear()
        solve()
    assert solves().misses == 0
    assert quantile(square, flat_top, F(1, 4)).quantile == 1
    assert (quantile(SEGMENT, V_SEGMENT, F(1, 2)).quantile,
            quantile(SIMPLEX, V_SIMPLEX, F(1, 4)).quantile) == (F(1, 2), F(1, 2))
    assert solves().misses == 0
    assert not quantile(simplex3, e1, F(1, 3)).exact  # (1 - q)^3 = 1/3
    assert solves().misses == 1
    assert not quantile(simplex3, e1, F(1, 5)).exact
    assert solves().misses == 1


def _lifted(ambient, pieces, low=F(0)):
    """G = min of the pieces, all shifted by one constant so that the
    minimum of G over the ambient is low (negative at a vertex if low < 0)."""
    g = ConcavePL(tuple(pieces), ambient)
    shift = low - min(g(v) for v in ambient.vertices)
    lifted = tuple(AffineFunctional(f.gradient, f.constant + shift) for f in pieces)
    return (ConcavePL.make if low >= 0 else ConcavePL)(lifted, ambient)


def grid_hull_transform(n, size, seed):
    """G and its ambient as in the S_tau timings of ROADMAP.md: the hull of
    `size` points with coordinates in {0, 1/24, ..., 1}^n, and three pieces
    with gradients in {-3/2, ..., 3/2}^n and constants 6..12."""
    rng = random.Random(seed)
    ambient = hull([tuple(F(rng.randint(0, 24), 24) for _ in range(n)) for _ in range(size)])
    pieces = [AffineFunctional.make([F(rng.randint(-3, 3), 2) for _ in range(n)],
                                    F(rng.randint(6, 12))) for _ in range(3)]
    return ConcavePL.make(pieces, ambient), ambient


def _candidate_cases():
    """(G, ambient) for the candidate differential, seeded: random hulls,
    boxes and prisms (parallel facets, so many singular combinations) in
    n = 1..4, each with random pieces, a duplicated and a constant piece, a
    piece parallel to a facet, n + 2 pieces, and G negative at a vertex."""
    rng = random.Random(30)
    ambients = []
    for n in (1, 2, 3, 4):
        ambients += [_tail_ambient(rng, n), _tail_ambient(rng, n)]
        sides = [_random_rational(rng, 1, 3) for _ in range(n)]
        ambients.append(hull(list(itertools.product(*((0, s) for s in sides)))))
        if n >= 2:
            base = _tail_ambient(rng, n - 1)
            ambients.append(hull([(*v, z) for v in base.vertices for z in (0, F(1, 2))]))
    for ambient in ambients:
        n = ambient.dim
        pieces = [_random_piece(rng, n) for _ in range(rng.randint(1, 3))]
        facet = rng.choice(ambient.halfspaces)
        scale = rng.choice((-1, 1)) * _random_rational(rng, 1, 2)
        parallel = AffineFunctional.make([scale * c for c in facet.normal], facet.offset)
        constant = AffineFunctional.make([0] * n, _random_rational(rng, 0, 2))
        yield _lifted(ambient, pieces), ambient
        yield _lifted(ambient, pieces + [pieces[0], constant]), ambient
        yield _lifted(ambient, [parallel, rng.choice(pieces)]), ambient
        yield _lifted(ambient, [_random_piece(rng, n) for _ in range(n + 2)]), ambient
        yield _lifted(ambient, pieces + [parallel], low=F(-1, 3)), ambient
    yield grid_hull_transform(3, 20, 1)


def test_candidates_match_the_elimination_oracle():
    """``_candidates`` (Cramer's rule over the combinations that hold a piece
    row) equals the Bareiss elimination of every combination
    (``oracle_candidates``), tuple for tuple, on seeded hulls, boxes and
    prisms in n = 1..4 with constant, duplicated, facet-parallel and n + 2
    pieces, on G negative at a vertex, and on the 3-D 22-facet S_tau hull."""
    seen = Counter()
    for g, ambient in _candidate_cases():
        assert thresholds._candidates(ambient, g) == oracle_candidates(ambient, g)
        n = ambient.dim
        seen[n, min(g(v) for v in ambient.vertices) < 0, len(g.pieces) > n + 1] += 1
    assert all(seen[n, negative, many] for n in (1, 2, 3, 4)
               for negative, many in ((False, False), (True, False), (False, True)))


def test_candidates_solve_no_facet_only_combination(monkeypatch):
    """``_candidates`` makes no Bareiss elimination and solves only
    combinations with a piece row: one n x n Cramer solve (``_meet``) per
    facet n-subset, read by every piece, and one per combination of n + 1 - j
    facets with j >= 2 pieces; never one of the C(F, n + 1) facet-only
    combinations."""
    calls = []

    def no_reduce(rows):
        raise AssertionError("an elimination ran")

    cube = hull(list(itertools.product((0, 1), repeat=3)))
    cases = [(g, g.domain) for g in map(simplex_transform, (1, 2))]
    cases += [grid_hull_transform(3, 20, 1), grid_hull_transform(4, 6, 2),
              (_lifted(cube, [AffineFunctional.make(grad, 0) for grad in
                              ((1, 0, 0), (0, 1, 0), (-1, -1, 1), (0, 0, -1), (1, 1, 1))]), cube)]
    for g, ambient in cases:
        max_transform(ambient, g)  # the regions, cached on the body
    meet = thresholds._meet
    monkeypatch.setattr(thresholds, "_meet", lambda rows: calls.append(rows) or meet(rows))
    monkeypatch.setattr(geometry, "_int_reduce", no_reduce)
    for g, ambient in cases:
        calls.clear()
        thresholds._candidates(ambient, g)
        n, facets, p = ambient.dim, len(ambient.halfspaces), len(g.pieces)
        assert len(calls) == math.comb(facets, n) + sum(
            math.comb(p, j) * math.comb(facets, n + 1 - j) for j in range(2, min(p, n + 1) + 1))
        assert all(len(rows) == n for rows in calls)


# ---------------------------------------------------------------------------
# compatible families
# ---------------------------------------------------------------------------

def test_select_family_tie_break():
    fam = select_compatible_family(SIMPLEX, V_SIMPLEX, 2, 2)
    assert fam.points == ((1, 1), (2, 0))  # (1/2,1/2) beats (1/2,0) on lex


def test_select_family_endpoints():
    d = SIMPLEX.d_k(2)
    assert select_compatible_family(SIMPLEX, V_SIMPLEX, 2, d) == SIMPLEX.discrete_body(2)
    top = select_compatible_family(SIMPLEX, V_SIMPLEX, 2, 1)
    assert top.points == ((2, 0),)


def test_family_nesting():
    d = SIMPLEX.d_k(3)
    prev = set()
    for m in range(1, d + 1):
        cur = set(select_compatible_family(SIMPLEX, V_SIMPLEX, 3, m).points)
        assert prev <= cur
        prev = cur


def test_empirical_family_measure_mean():
    fm = empirical_family_measure(SEGMENT, V_SEGMENT, 1, 1)
    assert fm.atoms == (((F(1),), F(1)),)
    assert fm.mean() == (F(1),)


def test_family_mean_approaches_tail_barycenter():
    tau = F(1, 4)
    target = (F(2, 3), F(1, 6))
    devs = []
    for k in (20, 40):
        m = math.ceil(tau * SIMPLEX.d_k(k))
        mean = empirical_family_measure(SIMPLEX, V_SIMPLEX, k, m).mean()
        devs.append(sum((a - b) ** 2 for a, b in zip(mean, target)))
    assert devs[1] <= devs[0]
    assert devs[1] <= F(1, 400)  # within 0.05 euclidean


# ---------------------------------------------------------------------------
# restricted thresholds
# ---------------------------------------------------------------------------

def test_delta_km_anticanonical_p2():
    model = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
    fam = coordinate_family(model)
    for k in (1, 2, 5, 8):
        val, label = delta_km_restricted(model, fam, k, model.d_k(k))
        assert val == 1  # exact by the S_3 symmetry of the dilated simplex
        assert label == "D1"


def test_delta_km_simplex_full_m():
    fam = coordinate_family(SIMPLEX)
    val, _ = delta_km_restricted(SIMPLEX, fam, 2, 6)
    assert val == 3


def test_delta_km_single_valuation():
    val, label = delta_km_restricted(HYPERFLEX, [V_HYPER], 5, 2)
    assert val == F(1) / F(7, 10) and label == "p"


def test_delta_monotonicity():
    fam = coordinate_family(SIMPLEX)
    for k in (1, 2):
        d = SIMPLEX.d_k(k)
        vals = [delta_km_restricted(SIMPLEX, fam, k, m)[0] for m in range(1, d + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    for m in (1, 3):
        assert (delta_km_restricted(SIMPLEX, fam, 4, m)[0]
                <= delta_km_restricted(SIMPLEX, fam, 2, m)[0])


def test_alpha_k_values():
    # alpha_k is the m = 1 endpoint of the restricted delta_{k,m}
    fam = coordinate_family(SIMPLEX)
    for k in (1, 2, 6):
        assert delta_km_restricted(SIMPLEX, fam, k, 1)[0] == 1
    # S_{k,1} = j_{k,1}/k by definition: 5/2 on the generic genus-3 model
    val, _ = delta_km_restricted(CANONICAL3, [V_CAN], 2, 1)
    assert val == F(2, 5)


def test_alpha_k_infinite_sentinel():
    g0 = ConcavePL.make([AffineFunctional.make((0, 0), 0)], SIMPLEX.ambient)
    fam = [ValuationModel("zero", F(1), g0)]
    val, label = delta_km_restricted(SIMPLEX, fam, 2, 1)
    assert val == INFINITE and label == "zero"


def test_delta_tau_segment():
    fam = [ValuationModel.divisorial("p", SEGMENT.ambient)]
    assert delta_tau_restricted(SEGMENT, fam, 1)[0] == 2
    assert delta_tau_restricted(SEGMENT, fam, 0)[0] == 1
    assert delta_tau_restricted(SEGMENT, fam, F(1, 2))[0] == F(4, 3)


def test_restricted_requires_family():
    with pytest.raises(ValueError):
        delta_km_restricted(SIMPLEX, [], 2, 1)


# ---------------------------------------------------------------------------
# partial bodies / quantile gap stabilization
# ---------------------------------------------------------------------------

def test_quantile_gap_stabilization_curve():
    for kind in ("ordinary", "flex", "hyperflex"):
        model = plane_quartic_model(kind)
        v = ValuationModel.divisorial("p", model.ambient)
        n_top = max(CurveDivisorModel(3, model.gaps).gaps)
        for tau in [F(1, 2), F(1)]:
            threshold = math.ceil(n_top / tau)
            body = superlevel(model.ambient, v.G, quantile(model, v, tau).quantile)
            for k in range(threshold, threshold + 6):
                # lattice points of the quantile body: idealized vs realized
                actual = sum(map(body.contains, model.discrete_body(k).coordinates()))
                assert count(body, k) - actual == 3  # = genus


def test_idealized_S_sandwich_against_partial_count():
    # min{1, M/m} Sbar_{k,M} <= Sbar_{k,m} <= max{1, M/m} Sbar_{k,M}
    tau = F(1, 2)
    body = superlevel(SEGMENT.ambient, V_SEGMENT.G, quantile(SEGMENT, V_SEGMENT, tau).quantile)
    for k in (4, 8, 16):
        M = count(body, k)
        for m in (1, k // 2, k):
            sm = Sbar_km(SEGMENT, V_SEGMENT, k, m)
            sM = Sbar_km(SEGMENT, V_SEGMENT, k, M)
            assert min(F(1), F(M, m)) * sM <= sm <= max(F(1), F(M, m)) * sM


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_valuation_from_json():
    data = {"label": "e1", "A": "2/4", "G": {"pieces": [{"grad": ["1", "0"], "const": "0"},
                                                        {"grad": ["0", "0"], "const": "1"}]}}
    v = valuation_from_json(data, SIMPLEX.ambient)
    assert (v.label, v.A) == ("e1", F(1, 2))
    assert jumping_numbers(SIMPLEX, v, 2).values == (2, 1, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# integer level scores against the Fraction oracle
# ---------------------------------------------------------------------------

def _scored_points(cloud, g):
    """Oracle: (G(x), x) in Fraction arithmetic, sorted descending (ties
    lexicographically larger point first)."""
    pairs = [(g(x), x) for x in cloud.coordinates()]
    pairs.sort(reverse=True)
    return pairs


def _oracle_concave_sum(body, g, k):
    total = sum((g(x) for x in enumerate_points(body, k).coordinates()), F(0))
    return total / F(k) ** body.dim


def _random_rational(rng, lo, hi):
    den = rng.choice([1, 2, 3, 5, 6])
    return F(rng.randint(lo * den, hi * den), den)


def _random_piece(rng, n):
    """An affine piece with small integer (tied) or rational gradient entries
    and a rational constant in [0, 3]."""
    if rng.random() < 0.4:
        grad = [F(rng.randint(-1, 1)) for _ in range(n)]
    else:
        grad = [_random_rational(rng, -2, 2) for _ in range(n)]
    return AffineFunctional.make(grad, _random_rational(rng, 0, 3))


def _random_transform(rng, domain):
    """1-3 pieces with non-unit rational denominators, shifted to be >= 0 on
    the domain; small integer gradients (zeros included) give tied values."""
    pieces = [_random_piece(rng, domain.dim) for _ in range(rng.randint(1, 3))]
    low = min(ConcavePL(tuple(pieces), domain)(v) for v in domain.vertices)
    if low < 0:
        pieces = [AffineFunctional(f.gradient, f.constant - low) for f in pieces]
    return ConcavePL.make(pieces, domain)


def _random_polygon(rng):
    """A full-dimensional rational polygon with the origin as a vertex, so
    every level has a lattice point."""
    while True:
        pts = [(0, 0)] + [(_random_rational(rng, 0, 2), _random_rational(rng, 0, 2))
                          for _ in range(rng.randint(2, 4))]
        body = hull(pts)
        if body.is_full_dim():
            return body


def _random_model(rng, kind, levels):
    if kind == "toric":
        if rng.random() < 0.25:
            return ToricModel(hull([(0,), (_random_rational(rng, 1, 3),)]))
        return ToricModel(_random_polygon(rng))
    if kind == "curve":
        gaps = rng.choice(gap_sequences_of_genus(rng.randint(1, 4)))
        return CurveDivisorModel(len(gaps), gaps)
    ambient = _random_polygon(rng)
    gaps = {}
    for k in levels:
        pts = [z for z in enumerate_points(ambient, k).points if any(z)]
        gaps[k] = rng.sample(pts, rng.randint(0, len(pts) // 2))
    return SyntheticModel(ambient, gaps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["toric", "curve", "synthetic"]))
def test_level_scores_match_fraction_oracle(seed, kind):
    rng = random.Random(seed)
    levels = list(range(1, 6))
    model = _random_model(rng, kind, levels)
    v = ValuationModel("v", F(1), _random_transform(rng, model.ambient))
    s0 = max_transform(model.ambient, v.G)
    sigma = min(v.G(x) for x in model.ambient.vertices)
    # revisit the first level after the cache has moved on
    for k in levels + [levels[0]]:
        scored = _scored_points(model.discrete_body(k), v.G)
        j = tuple(k * val for val, _ in scored)
        i = tuple(k * val for val, _ in _scored_points(model.idealized_body(k), v.G))
        d = len(j)
        assert jumping_numbers(model, v, k).values == j
        assert idealized_jumping(model, v, k).values == i
        for m in range(1, d + 1):
            assert S_km(model, v, k, m) == sum(j[:m], F(0)) / (k * m)
            assert select_compatible_family(model, v, k, m) == PointCloud(
                k, tuple(tuple(int(c * k) for c in x) for _, x in scored[:m]))
        for m in range(1, len(i) + 1):
            assert Sbar_km(model, v, k, m) == sum(i[:m], F(0)) / (k * m)
        for tau in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(rng.randint(0, 7), 7)):
            m = math.floor(tau * d)
            assert quantum_quantile(model, v, k, tau) == j[max(m - 1, 0)] / k
        assert S0_and_sigma(model, v) == (s0, sigma)
        assert concave_sum(model.ambient, v.G, k) == _oracle_concave_sum(
            model.ambient, v.G, k)


def _repeated_piece_transform(rng, domain):
    """A random 2-4 piece transform (ties from small gradients) with one piece
    listed twice."""
    g = _random_transform(rng, domain)
    while len(g.pieces) < 2:
        g = _random_transform(rng, domain)
    pieces = list(g.pieces)
    pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(pieces))
    return ConcavePL.make(pieces, domain)


def _gaps_on_ties(rng, g, ambient, k):
    """Gap numerators for level k: every top-scoring point but one (all of them
    if there are several top scores to spare), part of one tied score class,
    and a few more; Delta_k keeps at least one point."""
    points = enumerate_points(ambient, k).points
    by_score = {}
    for z, s in zip(points, oracle_scaled_values(g, points, k)):
        by_score.setdefault(s, []).append(z)
    top = by_score[max(by_score)]
    gaps = set(top if len(points) > len(top) else top[1:])
    tied = [group for group in by_score.values() if len(group) >= 2]
    if tied:
        group = rng.choice(tied)
        gaps.update(rng.sample(group, rng.randint(1, len(group) - 1)))
    gaps.update(rng.sample(points, rng.randint(0, len(points) // 4)))
    if len(gaps) == len(points):
        gaps.discard(rng.choice(points))
    return sorted(gaps)


def _random_ambient(rng, n):
    """A full-dimensional rational body in [0, 2]^n (n <= 2) or [0, 1]^3."""
    if n == 1:
        return hull([(0,), (_random_rational(rng, 1, 2),)])
    if n == 2:
        return _random_polygon(rng)
    while True:
        pts = [(0, 0, 0)] + [tuple(F(rng.randint(0, 4), 4) for _ in range(3))
                             for _ in range(rng.randint(4, 6))]
        body = hull(pts)
        if body.is_full_dim():
            return body


def _bundled_models():
    """One model of every bundled backend and gap pattern."""
    bundled = [ToricModel(hull([(0, 0), (1, 0), (0, 1)])), ToricModel(hull([(0,), (1,)])),
               CanonicalCurveModel(3), p1xp1_model(True), p1xp1_model(False),
               top_column_gap_model()]
    bundled += [plane_quartic_model(kind) for kind in PLANE_QUARTIC_GAP_SEQUENCES]
    bundled += [genus3_canonical_model(kind) for kind in GENUS3_CANONICAL_PATTERNS]
    return bundled


def _differential_cases():
    """(model, transforms, levels): every bundled backend, then seeded
    synthetic models with gaps placed on top and tied scores of their G."""
    rng = random.Random(16)
    for model in _bundled_models():
        transforms = [first_coordinate_transform(model.ambient),
                      _repeated_piece_transform(rng, model.ambient)]
        yield model, transforms, [k for k in range(1, 9) if model.has_level(k)]
    for n in (1, 2, 3) * 4:
        ambient = _random_ambient(rng, n)
        g = _repeated_piece_transform(rng, ambient)
        levels = sorted(rng.sample(range(1, 21), 3))
        model = SyntheticModel(ambient, {k: _gaps_on_ties(rng, g, ambient, k) for k in levels})
        yield model, [g, _random_transform(rng, ambient)], levels


def _scores_and_prefix(oracle):
    """The (scores, prefix) of an oracle table (L, scores, points, prefix)."""
    _, scores, _, prefix = oracle
    return scores, prefix


def _expanded(table):
    """The (scores, prefix) a library score table stands for: its histogram
    expanded to one score per point, descending, and the sum of the m
    largest scores for every m, each read with ``thresholds._top`` (prefix[0]
    = 0).  The table's scores must be distinct and its counts positive."""
    scores, ranks, _ = table
    assert all(map(gt, scores, scores[1:])) and all(map(lt, ranks, ranks[1:]))
    expanded = tuple(s for s, n in thresholds._histogram(table) for _ in range(n))
    assert all(thresholds._top(table, m)[0] == s for m, s in enumerate(expanded, 1))
    return expanded, (0, *(thresholds._top(table, m)[1] for m in range(1, len(expanded) + 1)))


def test_score_tables_match_per_level_oracle():
    """One idealized scoring per level, Delta_k's table as its scores minus the
    gaps' scores, column-wise scores, shared-Fraction jumping vectors and
    families ranked on demand, against scoring each set on its
    own (``oracles.oracle_score_level``): every table and every query equal."""
    rng = random.Random(61)
    for model, transforms, levels in _differential_cases():
        for k in levels:
            for g in transforms:
                v = ValuationModel("v", F(1), g)
                # either table may be asked for first
                order = (False, True) if rng.random() < 0.5 else (True, False)
                tables = {ideal: thresholds._level_scores(model, g, k, ideal) for ideal in order}
                oracle = {ideal: oracle_score_level(model, g, k, ideal) for ideal in order}
                assert {ideal: _expanded(t) for ideal, t in tables.items()} == {
                    ideal: _scores_and_prefix(t) for ideal, t in oracle.items()}
                if not model._level_gaps(k):
                    assert tables[False] is tables[True]
                L, scores, points, prefix = oracle[False]
                _, ideal_scores, _, ideal_prefix = oracle[True]
                d = len(scores)
                assert jumping_numbers(model, v, k).values == oracle_jumping_values(oracle[False])
                assert idealized_jumping(model, v, k).values == oracle_jumping_values(
                    oracle[True])
                for m in range(1, d + 1):
                    assert S_km(model, v, k, m) == F(prefix[m], L * k * m)
                for m in range(1, len(ideal_scores) + 1):
                    assert Sbar_km(model, v, k, m) == F(ideal_prefix[m], L * k * m)
                for tau in (F(0), F(1, 3), F(1, 2), F(1), F(rng.randint(0, 9), 9)):
                    m = math.floor(tau * d)
                    assert quantum_quantile(model, v, k, tau) == F(scores[max(m - 1, 0)], L * k)
                s0, sigma = S0_and_sigma(model, v)
                assert sigma <= F(scores[-1], L * k) <= F(scores[0], L * k) <= s0
                for m in {1, min(2, d), max(d // 2, 1), max(d - 1, 1), d, rng.randint(1, d)}:
                    assert select_compatible_family(model, v, k, m) == PointCloud(k, points[:m])
                assert g.scaled_values(points, k) == oracle_scaled_values(g, points, k)


def _tie_heavy_transforms(ambient):
    """Transforms under which most points of a level tie: a constant, each
    coordinate, and the min of the first coordinate with a constant."""
    n = ambient.dim
    top = max(v[0] for v in ambient.vertices)
    axes = [ConcavePL.make([AffineFunctional.make([int(i == j) for j in range(n)], 0)], ambient)
            for i in range(n) if min(v[i] for v in ambient.vertices) >= 0]
    return axes + [
        ConcavePL.make([AffineFunctional.make([0] * n, F(2, 3))], ambient),
        ConcavePL.make([AffineFunctional.make([1] + [0] * (n - 1), 0),
                        AffineFunctional.make([0] * n, top / 2)], ambient),
    ]


def test_score_tables_match_oracle_on_tied_levels():
    """Both tables of a level (ambient ∩ Z^n/k and Delta_k) and Delta_k's
    compatible families against scoring and sorting each set with (score,
    point) pairs, on levels where most points tie: every bundled model and
    synthetic gap models with their gaps inside the tie classes, up to
    k = 16."""
    rng = random.Random(73)
    cases = [(model, range(1, 17)) for model in _bundled_models()]
    for n in (1, 2, 2, 3):
        ambient = _random_ambient(rng, n)
        g = _tie_heavy_transforms(ambient)[0]
        levels = sorted(rng.sample(range(1, 17), 4))
        cases.append((SyntheticModel(ambient, {k: _gaps_on_ties(rng, g, ambient, k)
                                               for k in levels}), levels))
    tied = 0
    for model, levels in cases:
        for k in levels:
            if not model.has_level(k):
                continue
            for g in _tie_heavy_transforms(model.ambient):
                for ideal in (True, False):
                    table = thresholds._level_scores(model, g, k, ideal)
                    oracle = oracle_score_level(model, g, k, ideal)
                    expanded = _expanded(table)
                    assert expanded == _scores_and_prefix(oracle)
                    tied += len(expanded[0]) - len(table[0])
                points = oracle[2]  # Delta_k's, in the oracle's (score, point) order
                d = len(points)
                v = ValuationModel("v", F(1), g)
                for m in {1, max(d // 2, 1), d}:
                    assert select_compatible_family(model, v, k, m) == PointCloud(k, points[:m])
    assert tied > 10_000


class _Unordered(tuple):
    """A point that refuses every order comparison."""

    def _refuse(self, other):
        raise TypeError("a level's points must not be compared")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


def test_ranking_a_level_never_compares_points():
    """``_score_level`` sorts a level's integer scores alone: with points
    that refuse comparisons, P^2's jumping numbers and S_{k,m} are
    those of the oracle, on levels full of ties."""
    model = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
    for k in (5, 12):
        cloud = model.idealized_body(k)
        object.__setattr__(cloud, "points", tuple(map(_Unordered, cloud.points)))
        with pytest.raises(TypeError):
            cloud.points[0] < cloud.points[1]
        for v in coordinate_family(model):
            oracle = oracle_score_level(ToricModel(model.ambient), v.G, k, ideal=False)
            L, scores, _, prefix = oracle
            assert jumping_numbers(model, v, k).values == oracle_jumping_values(oracle)
            for m in (1, len(scores) // 2, len(scores)):
                assert S_km(model, v, k, m) == F(prefix[m], L * k * m)


class _Unhashable(tuple):
    """A point that refuses hashing and equality."""

    def _refuse(self, *other):
        raise TypeError("a level's points must not be hashed or compared")

    __hash__ = __eq__ = _refuse


def test_delta_k_table_reads_no_point_of_its_level():
    """Delta_k's table is the idealized scores minus the gaps' own scores:
    with the idealized points refusing hashes and equality, the jumping
    numbers, S_{k,m} and quantum quantiles of two gap models are those of the
    oracle on an untouched copy of the model."""
    for make in (lambda: genus3_canonical_model("hyperflex"), top_column_gap_model):
        model, untouched = make(), make()
        for k in range(1, 7):
            cloud = model.idealized_body(k)
            assert model._level_gaps(k)
            object.__setattr__(cloud, "points", tuple(map(_Unhashable, cloud.points)))
            with pytest.raises(TypeError):
                cloud.points[0] in model._level_gaps(k)
            for g in _tie_heavy_transforms(model.ambient):
                v = ValuationModel("v", F(1), g)
                oracle = oracle_score_level(untouched, g, k, ideal=False)
                L, scores, _, prefix = oracle
                d = len(scores)
                assert jumping_numbers(model, v, k).values == oracle_jumping_values(oracle)
                for m in {1, max(d // 2, 1), d}:
                    assert S_km(model, v, k, m) == F(prefix[m], L * k * m)
                for tau in (F(0), F(1, 3), F(1, 2), F(1)):
                    m = math.floor(tau * d)
                    assert quantum_quantile(model, v, k, tau) == F(scores[max(m - 1, 0)], L * k)


def test_point_clouds_come_sorted_from_their_producers(monkeypatch):
    """``PointCloud`` keeps sorted, distinct points after an O(n) check and
    sorts anything else itself.  Every producer hands it sorted, distinct
    points, so that sort never runs: the idealized level and Delta_k in
    lattice order, the gap set sorted from its frozenset, and each compatible
    family sorted from score order."""
    handed = []
    post_init = PointCloud.__post_init__

    def checking(cloud):
        points = cloud.points
        handed.append(all(a < b for a, b in zip(points, points[1:])))
        post_init(cloud)

    monkeypatch.setattr(PointCloud, "__post_init__", checking)
    for model, transforms, levels in _differential_cases():
        for k in levels:
            model.idealized_body(k), model.discrete_body(k), model.gap_set(k)
            d = model.d_k(k)
            for g in transforms:
                v = ValuationModel("v", F(1), g)
                for m in {1, max(d // 2, 1), d}:
                    select_compatible_family(model, v, k, m)
    assert len(handed) > 100 and all(handed)


def test_jumping_vector_rejects_an_increase():
    JumpingVector(1, (F(2), F(1), F(1), F(1)))  # equal, distinct Fractions pass
    for values in ((F(0), F(1)), (F(1), F(1), F(2)), (F(3), F(1), F(2), F(2))):
        with pytest.raises(ValueError, match="non-increasing"):
            JumpingVector(1, values)


def test_valuation_model_rejects_a_nonpositive_log_discrepancy():
    g = first_coordinate_transform(hull([(0,), (1,)]))
    assert ValuationModel("v", F(1, 3), g).A == F(1, 3)
    for A in (F(0), F(-1, 2)):
        with pytest.raises(ValueError, match="log discrepancy A must be positive"):
            ValuationModel("v", A, g)


def test_tail_spec_is_exact_exactly_without_a_bracket():
    assert thresholds.TailSpec(F(1, 2), F(1), F(0), None).exact
    assert not thresholds.TailSpec(F(1, 2), F(1), F(0), (F(1), F(1) + F(1, 2**30))).exact
    g = first_coordinate_transform(hull([(0, 0), (3, 0), (0, 3)]))
    model = ToricModel(g.domain)
    specs = [quantile(model, ValuationModel("v", F(1), g), tau) for tau in (F(1, 9), F(1, 2))]
    assert [spec.exact for spec in specs] == [True, False]
    assert [spec.bracket is None for spec in specs] == [True, False]


def test_library_jumping_vectors_skip_the_order_check(monkeypatch):
    """``jumping_numbers`` and ``idealized_jumping`` read an already sorted
    score table and run no order check, and each vector equals the checked
    construction of its values, on every bundled model for k <= 16 (a
    caller's increasing vector still raises: the test above)."""
    checked = []
    post_init = JumpingVector.__post_init__
    monkeypatch.setattr(JumpingVector, "__post_init__",
                        lambda vec: checked.append(vec) or post_init(vec))
    built = 0
    for model in _bundled_models():
        v = ValuationModel("v", F(1), first_coordinate_transform(model.ambient))
        for k in filter(model.has_level, range(1, 17)):
            for vec in (jumping_numbers(model, v, k), idealized_jumping(model, v, k)):
                assert checked == []
                assert JumpingVector(k, vec.values) == vec
                checked.clear()
                built += 1
    assert built > 300


def test_equal_transforms_hash_equal_and_share_a_level_entry(monkeypatch):
    model = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
    pieces = [AffineFunctional.make((1, 0), 0), AffineFunctional.make((-1, -1), 3)]
    g1 = ConcavePL.make(pieces, model.ambient)
    g2 = ConcavePL.make(list(pieces), hull([(0, 0), (3, 0), (0, 3)]))
    assert g1 is not g2 and g1 == g2
    assert hash(g1) == hash(g2) == hash((g1.pieces, g1.domain))
    calls = []
    score_level = thresholds._score_level
    monkeypatch.setattr(thresholds, "_score_level",
                        lambda *args: calls.append(args) or score_level(*args))
    assert thresholds._level_scores(model, g1, 4) is thresholds._level_scores(model, g2, 4)
    assert len(calls) == 1
    assert [key for key in model._level if isinstance(key, tuple)] == [(g1, True)]


def count_level_scorings(monkeypatch) -> Counter:
    """Count ``_score_level`` per (model, G, k), and fail on any ``discrete_body``:
    a score table is read off the idealized level, and no Delta_k is built."""
    calls = Counter()
    score_level = thresholds._score_level

    def counting(model, g, k):
        calls[(model, g, k)] += 1
        return score_level(model, g, k)

    def no_discrete_body(model, k):
        raise AssertionError(f"discrete_body({k}) was built")

    monkeypatch.setattr(thresholds, "_score_level", counting)
    monkeypatch.setattr(GradedSeriesModel, "discrete_body", no_discrete_body)
    return calls


def sweep_level_scorings(tmp_path, monkeypatch, model_json, family):
    """``thresholds --k-max 6`` on the model with one valuation per family entry
    (a list of (label, grad, const) pieces); returns the scorings and the model."""
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_json))
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps([
        {"label": pieces[0][0], "A": "1",
         "G": {"pieces": [{"grad": grad, "const": const} for _, grad, const in pieces]}}
        for pieces in family]))
    calls = count_level_scorings(monkeypatch)
    assert main(["thresholds", "--in", str(model_path), "--valuations", str(family_path),
                 "--tau", "1/2", "--k-max", "6", "--out", str(tmp_path / "t.csv")]) == 0
    (model,) = {model for model, _, _ in calls}
    transforms = {g for _, g, _ in calls}
    assert len(transforms) == len(family)
    assert set(calls) == {(model, g, k) for g in transforms for k in range(1, 7)}
    assert sum(calls.values()) == 6 * len(family)
    assert model._level_k == 6
    return transforms, model


def test_thresholds_sweep_scores_each_level_once(tmp_path, monkeypatch):
    transforms, model = sweep_level_scorings(tmp_path, monkeypatch, {
        "backend": "toric", "polytope": {"dim": 2, "vertices": [["0", "0"], ["3", "0"],
                                                                ["0", "3"]]}},
        [[("D1", ["1", "0"], "0")], [("D2", ["0", "1"], "0")], [("D3", ["-1", "-1"], "3")]])
    # 18 scorings (3 G x 6 levels); without gaps Delta_k reads the idealized table
    assert len(transforms) == 3
    assert {key for key in model._level if isinstance(key, tuple)} == {
        (g, True) for g in transforms}
    assert all(thresholds._level_scores(model, g, 6) is model._level[g, True]
               for g in transforms)


def test_thresholds_gap_model_sweep_scores_each_level_once(tmp_path, monkeypatch):
    # every level has gaps, so Delta_6 keeps its own table beside the idealized one
    transforms, model = sweep_level_scorings(tmp_path, monkeypatch, {
        "backend": "synthetic", "polytope": {"dim": 2, "vertices": [
            ["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
        "per_k_gaps": {str(k): [[k, k], [0, k]] for k in range(1, 7)}},
        [[("min", ["1", "0"], "0"), ("min", ["0", "1"], "0")], [("D1", ["1", "0"], "0")]])
    assert {key for key in model._level if isinstance(key, tuple)} == {
        (g, ideal) for g in transforms for ideal in (False, True)}


def test_verify_endpoints_scores_each_level_once(tmp_path, monkeypatch):
    calls = count_level_scorings(monkeypatch)
    assert main(["verify", "endpoints", "--k-max", "12", "--out", str(tmp_path)]) == 0
    # the segment and the simplex model, levels 2..12, one G each
    assert len(calls) == 22
    assert set(calls.values()) == {1}
    assert sorted(Counter(model for model, _, _ in calls).values()) == [11, 11]
    assert {k for _, _, k in calls} == set(range(2, 13))


def test_verify_stwosided_scores_each_level_once(tmp_path, monkeypatch):
    calls = count_level_scorings(monkeypatch)
    assert main(["verify", "stwosided", "--k-max", "12", "--out", str(tmp_path)]) == 0
    # the segment and the simplex model, levels 1..12, one scoring for all three taus
    assert len(calls) == 24
    assert sum(calls.values()) == 24
    assert sorted(Counter(model for model, _, _ in calls).values()) == [12, 12]
    assert {k for _, _, k in calls} == set(range(1, 13))


def test_verify_all_scores_each_level_once(tmp_path, monkeypatch):
    calls = Counter()
    score_level = thresholds._score_level

    def counting(model, g, k):
        calls[(model, g, k)] += 1
        return score_level(model, g, k)

    monkeypatch.setattr(thresholds, "_score_level", counting)
    assert main(["verify", "all", "--k-max", "12", "--out", str(tmp_path)]) == 0
    # stwosided 24, deltarate 3 x 12 (P^2) + 11 (canonical), endpoints 22
    assert len(calls) == 93
    assert set(calls.values()) == {1}


def _one_piece_transforms(rng, ambient):
    """One-piece G >= 0 on an ambient: an even gradient (gcd > 1 once
    cleared), a rational gradient, the negated first axis, a constant, a
    random integer gradient and, for n > 1, -3 times the last axis and a
    steep (60, 1, ...), whose frame has more columns than a low level has
    points; each with a rational constant that puts its minimum in [0, 2]."""
    n = ambient.dim
    grads = [[2 * rng.choice([-2, -1, 1, 2]) for _ in range(n)],
             [_random_rational(rng, -2, 2) for _ in range(n)],
             [-1] + [0] * (n - 1), [0] * n, [rng.randint(-3, 3) for _ in range(n)]]
    if n > 1:
        grads += [[0] * (n - 1) + [-3], [60] + [1] * (n - 1)]
    transforms = []
    for grad in grads:
        low = min(sum(F(a) * x for a, x in zip(grad, v)) for v in ambient.vertices)
        transforms.append(ConcavePL.make(
            [AffineFunctional.make(grad, _random_rational(rng, 0, 2) - low)], ambient))
    return transforms


def _one_piece_cases():
    """(model, transforms, levels): every bundled model, seeded synthetic gap
    models on random 1-, 2- and 3-D ambients with their gaps on the top and
    tied scores of one transform, and two models whose level 1 is all gaps."""
    rng = random.Random(36)
    for model in _bundled_models():
        yield model, _one_piece_transforms(rng, model.ambient), [
            k for k in range(1, 9) if model.has_level(k)]
    for n in (1, 2, 3) * 3:
        ambient = _random_ambient(rng, n)
        transforms = _one_piece_transforms(rng, ambient)
        g = rng.choice(transforms)
        levels = sorted(rng.sample(range(1, 13), 3))
        yield (SyntheticModel(ambient, {k: _gaps_on_ties(rng, g, ambient, k) for k in levels}),
               transforms, levels)
    for ambient in (SIMPLEX.ambient, hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])):
        gaps = enumerate_points(ambient, 1).points
        yield (SyntheticModel(ambient, {1: gaps, 2: [gaps[-1]]}),
               _one_piece_transforms(rng, ambient), [1, 2])


def test_one_piece_tables_match_the_per_point_oracle():
    """A one-piece G on a full-dimensional 2-D or 3-D ambient is read off the
    first-axis counts of its frame, unless the frame has more columns or
    slabs than the level has points; every other input counts the scores of
    its listed points.  Both tables of every level, the jumping numbers,
    S_{k,m} and Sbar_{k,m} at m = 1 and d_k, the head and the quantum
    quantiles equal the per-point oracle's, gcd > 1, rational and constant
    G, gaps on the top score and an empty Delta_k (``LevelError``)
    included."""
    paths, empty = Counter(), 0
    for model, transforms, levels in _one_piece_cases():
        for k in levels:
            for g in transforms:
                v = ValuationModel("v", F(1), g)
                if model.ambient.dim > 1:
                    paths[thresholds._point_free_frame(
                        model.ambient, g, k, count(model.ambient, k)) is None] += 1
                for ideal in (True, False):
                    table = thresholds._level_scores(model, g, k, ideal)
                    assert _expanded(table) == _scores_and_prefix(
                        oracle_score_level(model, g, k, ideal))
                L, scores, _, prefix = oracle_score_level(model, g, k, ideal=False)
                _, ideal_scores, _, ideal_prefix = oracle_score_level(model, g, k, ideal=True)
                d, D = len(scores), len(ideal_scores)
                assert jumping_numbers(model, v, k).values == tuple(F(s, L) for s in scores)
                assert idealized_jumping(model, v, k).values == tuple(
                    F(s, L) for s in ideal_scores)
                assert thresholds.jumping_head(model, v, k) == tuple(F(s, L) for s in scores[:3])
                for m in {1, D}:
                    assert Sbar_km(model, v, k, m) == F(ideal_prefix[m], L * k * m)
                if not d:
                    empty += 1
                    with pytest.raises(LevelError, match=f"Delta_{k} is empty"):
                        quantum_quantile(model, v, k, F(1, 2))
                    with pytest.raises(ValueError, match=r"m=1 out of range \[1, 0\]"):
                        S_km(model, v, k, 1)
                    continue
                for m in {1, d}:
                    assert S_km(model, v, k, m) == F(prefix[m], L * k * m)
                for tau in (F(0), F(1, 2), F(1)):
                    m = math.floor(tau * d)
                    assert quantum_quantile(model, v, k, tau) == F(scores[max(m - 1, 0)], L * k)
    assert paths == {False: 225, True: 69} and empty == 14


def test_one_piece_tables_match_the_sorted_scores_at_large_levels():
    """The tables of P^2 and of a random 3-D body against the enumerate,
    score and sort table (``oracles.oracle_sorted_scores``) at every level
    up to 40 and 16: every expanded score and prefix sum.  All but a few,
    the steep G at low levels, are read off first-axis counts."""
    rng = random.Random(35)
    listed = 0
    for model, k_max in ((ToricModel(hull([(0, 0), (3, 0), (0, 3)])), 40),
                         (ToricModel(_random_ambient(rng, 3)), 16)):
        transforms = _one_piece_transforms(rng, model.ambient)
        for k in range(1, k_max + 1):
            for g in transforms:
                listed += thresholds._point_free_frame(
                    model.ambient, g, k, count(model.ambient, k)) is None
                assert _expanded(thresholds._level_scores(model, g, k, ideal=True)) == \
                    oracle_sorted_scores(model, g, k)
    assert listed == 62


def test_one_piece_tables_list_no_point(monkeypatch):
    """With every point listing refused (``enumerate_points`` in ``lattice``
    and ``series``, and the lattice walk), the one-piece tables of P^2 and of
    a 3-D gap model, every level query on them and the maxp1 statistics of
    2-D and 3-D models still give the values of an untouched twin model."""
    import okbodies.lattice as lattice
    import okbodies.series as series
    from okbodies.estimates import _plus_body_count

    cube = hull(list(itertools.product((0, 1), repeat=3)))
    grads = {2: [(1, 0), (0, -3), (-1, -1), (2, 4), (F(1, 2), F(1, 4)), (0, 0)],
             3: [(1, 0, 0), (0, 0, -3), (1, 1, 1), (2, 2, -2), (F(1, 2), 0, F(-1, 3)), (0, 0, 0)]}

    def models():
        return [ToricModel(hull([(0, 0), (3, 0), (0, 3)])), top_column_gap_model(),
                SyntheticModel(cube, lambda k: [(k, k, k), (k, 0, k), (0, k, 0)])]

    def transforms(ambient):
        return [ConcavePL.make([AffineFunctional.make(grad, 12)], ambient)
                for grad in grads[ambient.dim]]

    def answers(model):
        out = []
        for k in range(1, 7):
            for g in transforms(model.ambient):
                assert thresholds._point_free_frame(model.ambient, g, k, count(model.ambient, k))
                v = ValuationModel("v", F(1), g)
                d = model.d_k(k)
                out += [jumping_numbers(model, v, k), idealized_jumping(model, v, k),
                        thresholds.jumping_head(model, v, k), S_km(model, v, k, d),
                        S_km(model, v, k, max(d // 3, 1)), Sbar_km(model, v, k, 1),
                        quantum_quantile(model, v, k, F(2, 3)),
                        delta_km_restricted(model, [v], k, 1)]
            top = model.max_gap_stat(k)
            out += [top, _plus_body_count(model, k, top[1])]
        return out

    expected = [answers(model) for model in models()]

    def refused(*args):
        raise AssertionError("a point was listed")

    for module, name in ((lattice, "enumerate_points"), (series, "enumerate_points"),
                         (lattice, "_numerators")):
        monkeypatch.setattr(module, name, refused)
    assert [answers(model) for model in models()] == expected


def test_thresholds_guards_raise_as_pinned():
    """tau outside [0, 1] and a family size m outside [1, d_k] raise
    ValueError before any level is scored."""
    tau = (ValueError, "tau must lie in [0, 1]")
    check_guards([
        (lambda: quantile(SIMPLEX, V_SIMPLEX, -1), tau),
        (lambda: quantile(SIMPLEX, V_SIMPLEX, 2), tau),
        (lambda: quantum_quantile(SIMPLEX, V_SIMPLEX, 1, -1), tau),
        (lambda: quantum_quantile(SIMPLEX, V_SIMPLEX, 1, F(3, 2)), tau),
        (lambda: select_compatible_family(SIMPLEX, V_SIMPLEX, 2, 0),
         (ValueError, "m=0 out of range [1, 6]")),
        (lambda: select_compatible_family(SIMPLEX, V_SIMPLEX, 2, 7),
         (ValueError, "m=7 out of range [1, 6]")),
    ])


def test_exact_poly_root_on_crossing_pieces():
    """On seeded crossing pieces, P(lo) > tau > P(hi) with one root r of
    P = tau in (lo, hi), ``_exact_poly_root`` returns r when r is rational
    (a linear piece, or a quadratic one with a square discriminant and its
    other root outside [lo, hi]) and None when it is irrational (P - tau =
    -c ((t - m)^2 - q) for m < lo and a q between (lo - m)^2 and (hi - m)^2
    that is no square, so r = m + sqrt(q))."""
    def square(x):
        return math.isqrt(x.numerator * x.denominator) ** 2 == x.numerator * x.denominator

    rng = random.Random(44)
    for shape in ("linear", "square", "irrational") * 40:
        lo = F(rng.randint(-20, 20), rng.randint(1, 9))
        hi = lo + F(rng.randint(1, 20), rng.randint(1, 9))
        r = lo + (hi - lo) * F(rng.randint(1, 9), 10)
        tau = F(rng.randint(-9, 9), rng.randint(1, 9))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        if shape == "linear":  # P - tau = c (r - t)
            coeffs = (tau + c * r, -c)
        elif shape == "square":  # P - tau = c (t - r)(t - s), s outside [lo, hi]
            s = hi + F(rng.randint(1, 9), rng.randint(1, 3)) if rng.random() < 0.5 else lo - 1
            c = c if s > hi else -c
            coeffs = (tau + c * r * s, -c * (r + s), c)
        else:
            m = lo - F(1, rng.randint(1, 4))
            a, b = (lo - m) ** 2, (hi - m) ** 2
            q = next(q for q in (a + (b - a) * F(j, 10) for j in range(1, 10)) if not square(q))
            coeffs = (tau - c * (m * m - q), 2 * c * m, -c)
            r = None
        assert thresholds._poly_eval(coeffs, lo) > tau > thresholds._poly_eval(coeffs, hi)
        root = thresholds._exact_poly_root(coeffs, tau, lo, hi)
        assert root == r
        if root is not None:
            assert lo < root < hi and thresholds._poly_eval(coeffs, root) == tau


def test_delta_km_restricted_takes_the_finite_minimum_over_a_mixed_family():
    """A valuation with S_{k,m} = 0 counts as +inf: in a family that mixes it
    with finite ones, the finite minimum wins, though its label sorts first.
    On the unit simplex every coordinate transform has S_{2,1} = 1, so the
    ratios are the A values."""
    zero = ValuationModel("A0", F(1), ConcavePL.make([AffineFunctional.make((0, 0), 0)],
                                                     SIMPLEX.ambient))
    d1, d2, d3 = coordinate_family(SIMPLEX)
    family = [ValuationModel("D1", F(3), d1.G), zero, ValuationModel("D2", F(2), d2.G),
              ValuationModel("D3", F(5), d3.G)]
    assert [S_km(SIMPLEX, v, 2, 1) for v in family] == [1, 0, 1, 1]
    assert delta_km_restricted(SIMPLEX, family, 2, 1) == (2, "D2")
