"""Backend tests: toric, curve-divisor, canonical-curve, synthetic models."""

import itertools
import random
from fractions import Fraction as F

import pytest

from okbodies import series
from okbodies.estimates import verify_maxp1
from okbodies.geometry import empty_body, hull
from okbodies.lattice import PointCloud, enumerate_points
from okbodies.series import (
    CanonicalCurveModel,
    CurveDivisorModel,
    GENUS3_CANONICAL_PATTERNS,
    LevelError,
    ModelError,
    PLANE_QUARTIC_GAP_SEQUENCES,
    SyntheticModel,
    ToricModel,
    gap_sequences_of_genus,
    genus3_canonical_model,
    is_gap_sequence,
    model_from_json,
    p1xp1_model,
    plane_quartic_model,
    top_column_gap_model,
)
from okbodies.thresholds import ValuationModel, _level_scores
from oracles import (check_guards, oracle_is_gap_sequence, oracle_level, oracle_recover_gaps,
                     oracle_superadditive)

UNIT_SIMPLEX = hull([(0, 0), (1, 0), (0, 1)])

# k*Delta_k for O_C(p) on a plane quartic, k = 1..5, per point type.
# Derived independently from the numerical semigroup: the level-k set is
# {k - s : s in complement(gaps), s <= k}.
QUARTIC_BODIES = {
    "ordinary": {1: {1}, 2: {2}, 3: {3}, 4: {0, 4}, 5: {0, 1, 5}},
    "flex": {1: {1}, 2: {2}, 3: {0, 3}, 4: {1, 4}, 5: {0, 2, 5}},
    "hyperflex": {1: {1}, 2: {2}, 3: {0, 3}, 4: {0, 1, 4}, 5: {1, 2, 5}},
}


# ---------------------------------------------------------------------------
# gap sequences / semigroups
# ---------------------------------------------------------------------------

def test_gap_sequence_validation():
    assert is_gap_sequence([1, 2, 3])
    assert is_gap_sequence([1, 2, 4])
    assert is_gap_sequence([1, 2, 5])
    assert is_gap_sequence([1, 3])            # complement {0,2,4,5,...} is a semigroup
    assert not is_gap_sequence([2, 3])        # N_1 must be 1
    assert not is_gap_sequence([1, 3, 4])     # complement {2,5,...}: 2+2=4 is a gap
    assert not is_gap_sequence([1, 2, 6])     # N_g > 2g-1
    assert not is_gap_sequence([])


def _semigroup_gaps(generators):
    """The gaps of the numerical semigroup spanned by coprime generators."""
    bound = max(generators) ** 2
    members = {0}
    for n in range(1, bound + 1):
        if any(n - a in members for a in generators if a <= n):
            members.add(n)
    return [n for n in range(1, bound + 1) if n not in members]


def test_gap_sequence_matches_pair_loop_oracle():
    """The bitset closure test agrees with the pair loop on every candidate
    that ``gap_sequences_of_genus`` tries through genus 7, and on large
    semigroups with one gap moved, added or dropped."""
    for g in range(1, 8):
        for rest in itertools.combinations(range(2, 2 * g), g - 1):
            cand = (1,) + rest
            assert is_gap_sequence(cand) == oracle_is_gap_sequence(cand), cand
    rng = random.Random(7)
    seen = set()
    for gens in [(2, 61), (7, 11), (13, 17), (10, 13, 17), (19, 23), (5, 31, 47)]:
        gaps = _semigroup_gaps(gens)
        assert is_gap_sequence(gaps) and oracle_is_gap_sequence(gaps)
        top = gaps[-1]
        for _ in range(40):
            moved = set(gaps)
            if rng.random() < 0.5:
                moved.discard(rng.choice(gaps[1:]))
            if rng.random() < 0.7 or len(moved) == len(gaps):
                moved.add(rng.randint(2, top + 2))
            cand = sorted(moved)
            want = oracle_is_gap_sequence(cand)
            assert is_gap_sequence(cand) == want, (gens, cand)
            seen.add(want)
    assert seen == {True, False}


def test_genus_20000_hyperelliptic_curve_model_builds():
    """The hyperelliptic gaps 1, 3, ..., 2g - 1 at g = 20,000 pass the
    closure test (one shift per even member up to g), and moving the gap 3
    to 2 breaks closure (3 + 4 = 7)."""
    g = 20000
    model = CurveDivisorModel(g, range(1, 2 * g, 2))
    assert model.genus == g and model.gaps[-1] == 2 * g - 1
    assert not is_gap_sequence([1, 2] + list(range(5, 2 * g, 2)))


def test_semigroup_counts_by_genus():
    # number of numerical semigroups of genus 1..8
    expected = [1, 2, 4, 7, 12, 23, 39, 67]
    for g, n in enumerate(expected, start=1):
        assert len(gap_sequences_of_genus(g)) == n


def test_curve_model_rejects_bad_input():
    with pytest.raises(ModelError):
        CurveDivisorModel(2, [2, 3])
    with pytest.raises(ModelError):
        CurveDivisorModel(3, [1, 2])  # genus mismatch


# ---------------------------------------------------------------------------
# curve-divisor backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(PLANE_QUARTIC_GAP_SEQUENCES))
def test_quartic_discrete_bodies(kind):
    model = plane_quartic_model(kind)
    for k, expected in QUARTIC_BODIES[kind].items():
        got = {z[0] for z in model.discrete_body(k).points}
        assert got == expected, (kind, k)


def test_quartic_hyperflex_k5_values():
    model = plane_quartic_model("hyperflex")
    assert model.discrete_body(5).coordinates() == [(F(1, 5),), (F(2, 5),), (F(1),)]
    assert {z[0] for z in model.gap_set(5).points} == {0, 3, 4}
    assert model.d_k(3) == 2  # S ∩ [0,3] = {0,3}


def test_recover_gaps_roundtrip_examples():
    assert CurveDivisorModel(3, [1, 2, 4]).recover_gaps() == [(1, 1), (2, 2), (4, 4)]
    assert plane_quartic_model("ordinary").recover_gaps() == [(1, 1), (2, 2), (3, 3)]
    assert plane_quartic_model("hyperflex").recover_gaps() == [(1, 1), (2, 2), (5, 5)]


def test_recover_gaps_roundtrip_exhaustive_genus4():
    for gaps in gap_sequences_of_genus(4):
        model = CurveDivisorModel(4, gaps)
        assert tuple(n for n, _ in model.recover_gaps()) == gaps


def test_gap_table_hyperflex():
    model = plane_quartic_model("hyperflex")
    assert [r.diff for r in model.gap_table(5)] == [1, 2, 2, 2, 3]


def test_curve_min_delta_k_detects_gaps():
    # k is a gap iff min Delta_k > 0
    model = plane_quartic_model("flex")
    for k in range(1, 10):
        is_gap = min(z[0] for z in model.discrete_body(k).points) > 0
        assert is_gap == (k in (1, 2, 4))


def test_curve_superadditive():
    oracle_superadditive(plane_quartic_model("hyperflex"), 10)


# ---------------------------------------------------------------------------
# canonical-curve backend
# ---------------------------------------------------------------------------

def test_canonical_generic_bodies():
    model = CanonicalCurveModel(3)
    assert model.discrete_body(2).coordinates() == [
        (F(0),), (F(1, 2),), (F(1),), (F(3, 2),), (F(2),), (F(5, 2),)
    ]
    assert model.d_k(2) == 6
    assert {z[0] for z in model.gap_set(2).points} == {6, 7, 8}


def test_canonical_dimension_formula():
    model = CanonicalCurveModel(5)
    assert model.d_k(1) == 5
    for k in range(2, 12):
        assert model.d_k(k) == k * 8 + 1 - 5
        assert len(model.discrete_body(k)) == model.d_k(k)


def test_canonical_gap_counts_stabilize():
    for g in (2, 3, 5):
        model = CanonicalCurveModel(g)
        rows = model.gap_table(12)
        assert rows[0].diff == g - 1
        assert all(r.diff == g for r in rows[1:])


def test_k_weierstrass_sequences():
    def sequence(model, k):  # k*Delta_k + 1: d_k sorted integers in [1, k(2g-2)+1]
        return sorted(z[0] + 1 for z in model.discrete_body(k).points)

    assert sequence(CanonicalCurveModel(3), 2) == [1, 2, 3, 4, 5, 6]
    assert sequence(genus3_canonical_model("flex"), 1) == [1, 2, 4]
    assert sequence(CanonicalCurveModel(2), 1) == [1, 2]


def test_canonical_max_gap_equality_iff_generic():
    generic = CanonicalCurveModel(3)
    assert generic.max_gap_stat(2) == (F(4), F(5, 2), F(3, 2))  # = g/k
    for kind, pattern in GENUS3_CANONICAL_PATTERNS.items():
        model = genus3_canonical_model(kind)
        for k in (1, 2):
            _, _, diff = model.max_gap_stat(k)
            bound = F(3 if k > 1 else 2, k)  # g/k for k >= 2, g-1 at k = 1
            assert diff <= bound
            generic_at_k = set(pattern[k]) == set(range(model.d_k(k)))
            assert (diff == bound) == generic_at_k, (kind, k)


def test_genus3_patterns_reproduce_declared_bodies():
    for kind, pattern in GENUS3_CANONICAL_PATTERNS.items():
        model = genus3_canonical_model(kind)
        for k, realized in pattern.items():
            assert {z[0] for z in model.discrete_body(k).points} == set(realized)


def test_genus3_patterns_superadditive_up_to_declared_levels():
    for kind in GENUS3_CANONICAL_PATTERNS:
        oracle_superadditive(genus3_canonical_model(kind), 2)


def test_hyperflex_canonical_not_superadditive_past_declared_levels():
    # the generic default at k=3 is wrong for a hyperflex point: 2*4 + 4 = 12
    # lies in Delta_1 + Delta_2 scaled but not in the generic {0..9}
    with pytest.raises(ModelError):
        oracle_superadditive(genus3_canonical_model("hyperflex"), 3)


def test_canonical_rejects_bad_patterns():
    with pytest.raises(ModelError):
        CanonicalCurveModel(3, {2: [6, 7]})       # wrong size (needs 3)
    with pytest.raises(ModelError):
        CanonicalCurveModel(3, {2: [6, 7, 9]})    # out of range
    with pytest.raises(ModelError):
        CanonicalCurveModel(1)


# ---------------------------------------------------------------------------
# toric and synthetic backends
# ---------------------------------------------------------------------------

def test_toric_no_gaps():
    model = ToricModel(UNIT_SIMPLEX)
    assert model.discrete_body(1).coordinates() == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    for k in (1, 2, 5):
        assert model.gap_set(k).points == ()
        assert model.d_k(k) == (k + 1) * (k + 2) // 2
    assert [r.diff for r in model.gap_table(6)] == [0] * 6
    assert model.max_gap_stat(4) == (F(1), F(1), F(0))


def test_toric_superadditive():
    oracle_superadditive(ToricModel(UNIT_SIMPLEX), 6)


def test_gap_set_is_complement():
    model = plane_quartic_model("flex")
    for k in range(1, 8):
        ideal = set(model.idealized_body(k).points)
        actual = set(model.discrete_body(k).points)
        gaps = set(model.gap_set(k).points)
        assert actual | gaps == ideal
        assert actual & gaps == set()


def test_p1xp1_models():
    for ramified in (False, True):
        model = p1xp1_model(ramified)
        assert {z for z in model.discrete_body(1).points} == {(0, j) for j in range(4)}
        assert model.d_k(2) == 9
        assert model.D_k(2) == 10
        gap = model.gap_set(2).points
        assert gap == (((1, 1),) if ramified else ((1, 2),))
    with pytest.raises(LevelError):
        p1xp1_model(False).discrete_body(3)


def test_top_column_gap_model():
    model = top_column_gap_model()
    for k in (1, 2, 5):
        assert model.d_k(k) == (k + 1) ** 2 - (k + 1)
        assert model.max_gap_stat(k)[2] == F(1, k)


def test_max_gap_stat_equals_the_maximum_over_delta_k():
    """The quantum maximum read off the sorted idealized level equals
    max z1 over Delta_k, on gap, canonical and toric models, with gaps that
    take the top points of a level; an empty Delta_k raises LevelError."""
    models = [plane_quartic_model("flex"), top_column_gap_model(), p1xp1_model(True),
              CanonicalCurveModel(3), genus3_canonical_model("hyperflex"),
              ToricModel(UNIT_SIMPLEX), ToricModel(hull([(0, 0), (2, 0), (0, 1), (2, 1)]))]
    rng = random.Random(4200)
    for n in (1, 2, 3):
        ambient = hull([tuple(F(rng.randint(0, 3), 3) for _ in range(n)) for _ in range(n + 3)])
        gap_sets = {}
        for k in range(1, 6):
            ideal = enumerate_points(ambient, k).points
            top = rng.randint(0, max(0, len(ideal) - 1))  # the last `top` points are gaps
            gap_sets[k] = list(ideal[len(ideal) - top:]) + rng.sample(ideal, min(2, len(ideal)))
        models.append(SyntheticModel(ambient, gap_sets))
    for model in models:
        top_ambient = max(v[0] for v in model.ambient.vertices)
        for k in model.levels_in(range(1, 7)):
            points = model.discrete_body(k).points
            if not points:
                with pytest.raises(LevelError):
                    model.max_gap_stat(k)
                continue
            top = F(max(z[0] for z in points), k)
            assert model.max_gap_stat(k) == (top_ambient, top, top_ambient - top), (model, k)
    empty = SyntheticModel(UNIT_SIMPLEX, {1: [(0, 0), (0, 1), (1, 0)], 2: []})
    assert empty.discrete_body(1).points == ()
    with pytest.raises(LevelError, match="Delta_1 is empty"):
        empty.max_gap_stat(1)
    with pytest.raises(LevelError):
        empty.max_gap_stat(3)  # not a level


def test_maxp1_builds_no_delta_k(monkeypatch):
    """maxp1 reads its quantum maximum and plus-body count off the idealized
    level alone."""
    monkeypatch.setattr(series.GradedSeriesModel, "discrete_body",
                        lambda *args: pytest.fail("discrete_body called"))
    for model, iota in ((CanonicalCurveModel(3), 0), (top_column_gap_model(), 1),
                        (plane_quartic_model("hyperflex"), 0), (ToricModel(UNIT_SIMPLEX), 0)):
        rep = verify_maxp1(model, range(1, 13), iota)
        assert len(rep.rows) == 12 and rep.passed


def test_synthetic_rejects_gap_outside_ambient():
    # outside the simplex; too short; too long (zip would drop the extra 0)
    for gap in ((3, 3), (1,), (1, 0, 0)):
        model = SyntheticModel(UNIT_SIMPLEX, {2: [gap]})
        for query in (model.discrete_body, model.d_k, model.gap_set, model.gap_table):
            with pytest.raises(ModelError):
                query(2)
    # the same through a callable, at every level
    model = SyntheticModel(UNIT_SIMPLEX, lambda k: [(k + 1, 0)])
    with pytest.raises(ModelError):
        model.gap_table(3)


def test_synthetic_gap_on_rational_facet():
    # x <= 1/2 is a facet of the p1xp1 ambient; at k = 2 it holds the
    # numerators with x = 1, so both gaps on it are accepted
    for ramified, gap in ((True, (1, 1)), (False, (1, 2))):
        model = p1xp1_model(ramified)
        assert model.gap_set(2).points == (gap,)
        assert model.d_k(2) == 9 and model.D_k(2) == 10
        assert [r.diff for r in model.gap_table(2)] == [0, 1]
    # at k = 3 the facet holds x <= floor(3/2) = 1, so x = 2/3 is outside
    model = SyntheticModel(p1xp1_model(False).ambient, {3: [(2, 0)]})
    with pytest.raises(ModelError):
        model.d_k(3)
    assert SyntheticModel(model.ambient, {3: [(1, 0)]}).d_k(3) == model.D_k(3) - 1


def test_levels_in_reads_the_levels_without_stepping_through_the_range():
    # toric, curve and canonical models keep the plain range, less its k < 1
    assert ToricModel(UNIT_SIMPLEX).levels_in(range(-2, 5)) == range(1, 5)
    assert plane_quartic_model("flex").levels_in(range(3, 10**12)) == range(3, 10**12)
    assert CanonicalCurveModel(3).levels_in(range(0, 1)) == range(1, 1)
    model = SyntheticModel(UNIT_SIMPLEX, {3: [], 1: [(1, 0)], 10**12: []})
    assert model.levels_in(range(2, 10**12)) == [3]
    assert model.levels_in(range(1, 10**12 + 1)) == [1, 3, 10**12]
    assert SyntheticModel(UNIT_SIMPLEX, {}).levels_in(range(1, 10**12)) == []
    table = SyntheticModel(UNIT_SIMPLEX, {3: [], 1: [(1, 0)]}).gap_table(10**12)
    assert [(r.k, r.d_k, r.D_k) for r in table] == [(1, 2, 3), (3, 10, 10)]


# ---------------------------------------------------------------------------
# differential: gap-derived levels against the enumerating oracle
# ---------------------------------------------------------------------------

def assert_matches_oracle(model, k_max, gaps_at=lambda k: ()):
    """Delta_k, d_k, D_k and the gap set of every level k <= k_max of
    ``model``, and its gap table, equal the enumerating oracle's, or model
    and oracle both raise ModelError."""
    rows, rejected = [], False
    for k in filter(model.has_level, range(1, k_max + 1)):
        try:
            body, d, D, gap_points = oracle_level(model, k, gaps_at(k))
        except ModelError:
            rejected = True
            for query in (model.discrete_body, model.d_k, model.gap_set):
                with pytest.raises(ModelError):
                    query(k)
            continue
        assert list(model.discrete_body(k).points) == body, k
        assert (model.d_k(k), model.D_k(k)) == (d, D), k
        assert list(model.gap_set(k).points) == gap_points, k
        rows.append((k, d, D, D - d))
    if rejected:
        with pytest.raises(ModelError):
            model.gap_table(k_max)
    else:
        assert [(r.k, r.d_k, r.D_k, r.diff) for r in model.gap_table(k_max)] == rows


def bundled_models():
    yield from (plane_quartic_model(kind) for kind in PLANE_QUARTIC_GAP_SEQUENCES)
    yield from (genus3_canonical_model(kind) for kind in GENUS3_CANONICAL_PATTERNS)
    yield from (CanonicalCurveModel(g) for g in (2, 3, 5))
    yield from (ToricModel(body) for body in (
        UNIT_SIMPLEX, hull([(0,), (F(5, 2),)]), hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])))


def test_bundled_models_match_oracle():
    for model in bundled_models():
        assert_matches_oracle(model, 12)
    for ramified in (False, True):
        model = p1xp1_model(ramified)
        gap = (1, 1) if ramified else (1, 2)
        assert_matches_oracle(model, 2, lambda k: [gap] if k == 2 else [])
    assert_matches_oracle(top_column_gap_model(), 12, lambda k: [(k, j) for j in range(k + 1)])


@pytest.mark.parametrize("genus", range(1, 6))
def test_curve_models_match_oracle_through_genus5(genus):
    for gaps in gap_sequences_of_genus(genus):
        model = CurveDivisorModel(genus, gaps)
        assert_matches_oracle(model, 2 * genus + 2)
        assert model.recover_gaps() == oracle_recover_gaps(model) == [(n, n) for n in gaps]


def random_synthetic(rng, n):
    """A random rational hull in [0, 1]^n and random gap sets at four levels
    k <= 30; some levels get a point outside the ambient or of the wrong
    length, which model and oracle must both reject."""
    den = rng.randint(1, 4)
    pts = [tuple(F(rng.randint(0, den), den) for _ in range(n))
           for _ in range(rng.randint(n + 1, n + 4))]
    ambient = hull(pts)
    gap_sets = {}
    for k in rng.sample(range(1, 31), 4):
        ideal = enumerate_points(ambient, k).points
        gaps = rng.sample(ideal, rng.randint(0, min(len(ideal), 6)))
        bad = rng.random()
        if bad < 0.1:  # x_1 = (k + 1)/k > 1
            gaps.append((k + 1,) + (0,) * (n - 1))
        elif bad < 0.2:
            gaps.append((0,) * rng.choice((n - 1, n + 1)))
        gap_sets[k] = gaps
    return ambient, gap_sets


@pytest.mark.parametrize("n", (1, 2, 3))
def test_random_synthetic_models_match_oracle(n):
    rng = random.Random(4100 + n)
    for trial in range(20):
        ambient, gap_sets = random_synthetic(rng, n)
        if trial % 2:
            model = SyntheticModel(ambient, gap_sets)
        else:
            model = SyntheticModel(ambient, lambda k: gap_sets.get(k, ()), levels=gap_sets)
        assert_matches_oracle(model, 30, lambda k: gap_sets.get(k, ()))


# ---------------------------------------------------------------------------
# one level at a time
# ---------------------------------------------------------------------------

def slot_denominators(model) -> set[int]:
    return {v.denominator for v in model._level.values() if isinstance(v, PointCloud)}


def test_model_keeps_only_the_last_level():
    model = top_column_gap_model()
    for k in range(1, 9):
        model.discrete_body(k)
    assert model._level_k == 8 and slot_denominators(model) == {8}
    model = top_column_gap_model()
    verify_maxp1(model, range(1, 8), iota=1)
    # maxp1 reads level 7's column counts and gaps, and lists no point
    assert model._level_k == 7 and slot_denominators(model) == set()
    assert model._level["columns"] == {x: 8 for x in range(8)}
    assert model._level["gaps"] == frozenset((7, j) for j in range(8))


def level_state(model, g, k):
    return (model.discrete_body(k), model.idealized_body(k),
            _level_scores(model, g, k), _level_scores(model, g, k, ideal=True))


def test_level_slot_computes_each_entry_once_per_visit():
    model = p1xp1_model(True)  # level 2 has a gap, so Delta_2 is its own cloud
    g = ValuationModel.divisorial("x", model.ambient).G
    first = level_state(model, g, 2)
    assert first[0] != first[1]
    assert all(a is b for a, b in zip(level_state(model, g, 2), first))
    level_state(model, g, 1)
    again = level_state(model, g, 2)  # revisited: rebuilt, and equal
    assert again == first
    assert all(a is not b for a, b in zip(again, first))


def test_gaps_are_read_once_per_level(monkeypatch):
    model = p1xp1_model(False)
    levels = []
    gaps = model._gaps

    def counting(k):
        levels.append(k)
        return gaps(k)

    monkeypatch.setattr(model, "_gaps", counting)
    assert model.d_k(2) == 9
    assert len(model.discrete_body(2)) == 9
    assert model.gap_set(2).points == ((1, 2),)
    assert levels == [2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("data, model", [
    ({"backend": "toric",
      "polytope": {"dim": 2, "vertices": [["0", "0"], ["0", "1"], ["1", "0"]]}},
     ToricModel(UNIT_SIMPLEX)),
    ({"backend": "curve", "genus": 3, "gaps": [1, 2, 5]}, plane_quartic_model("hyperflex")),
    ({"backend": "canonical", "genus": 3, "per_k_gaps": {"1": [2, 4], "2": [5, 7, 8]}},
     genus3_canonical_model("flex")),
    ({"backend": "synthetic",
      "polytope": {"dim": 2, "vertices": [["0", "0"], ["0", "3"], ["1/2", "0"], ["1/2", "1"]]},
      "per_k_gaps": {"1": [], "2": [[1, 1]]}, "levels": [1, 2]},
     p1xp1_model(True)),
], ids=["toric", "curve", "canonical", "synthetic"])
def test_model_from_json(data, model):
    again = model_from_json(data)
    assert type(again) is type(model)
    for k in (1, 2):
        assert again.discrete_body(k) == model.discrete_body(k)


def test_model_json_unknown_backend():
    with pytest.raises(ModelError):
        model_from_json({"backend": "mystery"})


def test_series_guards_raise_as_pinned():
    """A table of fewer than one level, a level that is no int, and a toric
    or synthetic model on the empty body each raise before any level is
    built."""
    model = ToricModel(UNIT_SIMPLEX)
    check_guards([
        (lambda: model.gap_table(0), (ValueError, "k_max must be >= 1")),
        (lambda: model.discrete_body(F(2)),
         (LevelError, "k must be a positive integer, got Fraction(2, 1)")),
        (lambda: model.discrete_body(1.0), (LevelError, "k must be a positive integer, got 1.0")),
        (lambda: ToricModel(empty_body(2)), (ModelError, "toric model needs a nonempty polytope")),
        (lambda: SyntheticModel(empty_body(2), {1: []}),
         (ModelError, "synthetic model needs a nonempty ambient body")),
    ])
