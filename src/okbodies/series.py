"""Graded-series models: discrete Okounkov bodies inside a fixed ambient body.

Delta_k is the idealized lattice set ambient ∩ Z^n/k minus a finite gap set.
Each of the four backends states only its gaps per level, so d_k = D_k - #gaps:

* Toric       — no gaps: Delta_k is the full idealized lattice set.
* CurveDivisor — sections of O_C(p) on a genus-g curve: the gaps are the
  Weierstrass gap sequence, complementary to a numerical semigroup.
* CanonicalCurve — sections of K_C; per-level vanishing patterns are inputs
  (they are not determined by the genus alone), defaulting to the generic
  pattern k*Delta_k = {0,...,d_k-1}.
* Synthetic   — explicit gap sets, for constructed examples.

Models are immutable after construction and hold the results of one level at a time.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .geometry import ConvexBody, body_from_json, hull, json_int, read_int
from .lattice import PointCloud, _first_axis_counts, count, enumerate_points


class ModelError(ValueError):
    """Invalid model data (non-semigroup gaps, wrong gap-set sizes, ...)."""


class LevelError(ModelError):
    """Requested level k is outside N(L) for this model."""


class GapRow(tuple):
    """One row of ``gap_table``: the tuple (k, d_k, D_k, diff)."""

    __slots__ = ()
    k = property(itemgetter(0))
    d_k = property(itemgetter(1))
    D_k = property(itemgetter(2))
    diff = property(itemgetter(3))

    def __new__(cls, k: int, d_k: int, D_k: int, diff: int) -> "GapRow":
        return tuple.__new__(cls, (k, d_k, D_k, diff))


class GradedSeriesModel:
    """Base class: ambient body plus ``_gaps(k)``, the integer numerators of
    ambient ∩ Z^n/k missing from Delta_k (none by default). Delta_k filters the
    idealized set by the gaps; D_k is a ``count`` and d_k = D_k - #gaps.

    Per-level results (point sets, counts, gap set, score tables) live in one
    slot, ``_level`` for level ``_level_k``: a level left and revisited is rebuilt.
    """

    def __init__(self, ambient: ConvexBody):
        self.ambient = ambient
        self._level_k: Optional[int] = None
        self._level: dict = {}

    def _at_level(self, k: int, key, make: Callable[[], object]):
        """``make()``, at most once per visit of level k; a new level drops the old one."""
        if self._level_k != k:
            self._level_k, self._level = k, {}
        if key not in self._level:
            self._level[key] = make()
        return self._level[key]

    # -- levels ---------------------------------------------------------

    def has_level(self, k: int) -> bool:
        return k >= 1

    def levels_in(self, ks: range) -> Sequence[int]:
        """The levels in ks, in order (here ks without its k < 1, a range).
        Loops over a range of levels read this, so a model with few levels
        is not stepped through every k of a long range."""
        return ks[bisect_left(ks, 1):]

    def _check_level(self, k: int) -> None:
        if not isinstance(k, int) or k < 1:
            raise LevelError(f"k must be a positive integer, got {k!r}")
        if not self.has_level(k):
            raise LevelError(f"k={k} is not a level of this model")

    # -- core sets ------------------------------------------------------

    def _gaps(self, k: int) -> frozenset[tuple[int, ...]]:
        return frozenset()

    def _level_gaps(self, k: int) -> frozenset[tuple[int, ...]]:
        """``_gaps(k)``, validated once per visit of level k."""
        return self._at_level(k, "gaps", lambda: self._gaps(k))

    def discrete_body(self, k: int) -> PointCloud:
        """Delta_k as a PointCloud over denominator k."""
        self._check_level(k)
        gaps = self._level_gaps(k)
        return self._at_level(k, "discrete", lambda: (
            PointCloud(k, tuple(z for z in self.idealized_body(k).points if z not in gaps))
            if gaps else self.idealized_body(k)))

    def idealized_body(self, k: int) -> PointCloud:
        """The idealized set ambient ∩ Z^n/k."""
        return self._at_level(k, "idealized", lambda: enumerate_points(self.ambient, k))

    def d_k(self, k: int) -> int:
        self._check_level(k)
        return self.D_k(k) - len(self._level_gaps(k))

    def D_k(self, k: int) -> int:
        """#(ambient ∩ Z^n/k), counted once per visit of level k."""
        return self._at_level(k, "D", lambda: count(self.ambient, k))

    def gap_set(self, k: int) -> PointCloud:
        """(ambient ∩ Z^n/k) \\ Delta_k."""
        self._check_level(k)
        return PointCloud(k, tuple(sorted(self._level_gaps(k))))

    def gap_table(self, k_max: int) -> list[GapRow]:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        rows = []
        for k in self.levels_in(range(1, k_max + 1)):
            dk, Dk = self.d_k(k), self.D_k(k)
            rows.append(GapRow(k, dk, Dk, Dk - dk))
        return rows

    def _columns(self, k: int) -> dict[int, int]:
        """``lattice._first_axis_counts`` of the ambient, once per level visit."""
        return self._at_level(k, "columns", lambda: _first_axis_counts(self.ambient, k))

    def max_gap_stat(self, k: int) -> tuple[Fraction, Fraction, Fraction]:
        """(max over ambient of p1, max over Delta_k of p1, their difference).

        The largest z1 in Delta_k is the highest column (``_columns``) with
        more points than gaps: no point is listed."""
        self._check_level(k)
        gaps = Counter(z[0] for z in self._level_gaps(k))
        top = max((z for z, n in self._columns(k).items() if n > gaps[z]), default=None)
        if top is None:
            raise LevelError(f"Delta_{k} is empty")
        top_ambient = max(v[0] for v in self.ambient.vertices)
        top_discrete = Fraction(top, k)
        return top_ambient, top_discrete, top_ambient - top_discrete


# ---------------------------------------------------------------------------
# toric
# ---------------------------------------------------------------------------

class ToricModel(GradedSeriesModel):
    """Every k-lattice point of the polytope is realized: no gaps."""

    backend = "toric"

    def __init__(self, polytope: ConvexBody):
        if polytope.is_empty:
            raise ModelError("toric model needs a nonempty polytope")
        super().__init__(polytope)


# ---------------------------------------------------------------------------
# curve divisor O_C(p)
# ---------------------------------------------------------------------------

def is_gap_sequence(gaps: Sequence[int]) -> bool:
    """Valid Weierstrass gap data: 1 = N_1 < ... < N_g <= 2g-1 with
    semigroup complement (closed under addition), tested on ints as bitsets:
    one shift and AND per member s <= N_g / 2, the smaller of any two members
    whose sum is at most N_g."""
    g = len(gaps)
    if g == 0:
        return False
    gaps = list(gaps)
    gap_set = set(gaps)
    if gaps[0] != 1 or sorted(gap_set) != gaps or gaps[-1] > 2 * g - 1:
        return False
    top = gaps[-1]
    gap_bits = 0  # bit n is set for each gap n
    for n in gaps:
        gap_bits |= 1 << n
    member_bits = ((1 << (top + 1)) - 2) ^ gap_bits  # the members 1..top
    return not any((member_bits << s) & gap_bits
                   for s in range(1, top // 2 + 1) if s not in gap_set)


def gap_sequences_of_genus(g: int) -> list[tuple[int, ...]]:
    """All Weierstrass gap sequences of genus g (numerical semigroups), exhaustively."""
    if g == 0:
        return []
    out = []
    for rest in itertools.combinations(range(2, 2 * g), g - 1):
        cand = (1,) + rest
        if is_gap_sequence(cand):
            out.append(cand)
    return out


class CurveDivisorModel(GradedSeriesModel):
    """Model of O_C(p) on a genus-g curve with flag through p: ambient [0, 1].

    h^0(kp) is the count of semigroup elements <= k: the level-k gaps are
    {k - N : N a Weierstrass gap, N <= k}; no function-field algebra is needed.
    """

    backend = "curve"

    def __init__(self, genus: int, gaps: Sequence[int]):
        gaps = tuple(int(n) for n in gaps)
        if genus != len(gaps):
            raise ModelError(f"genus {genus} != number of gaps {len(gaps)}")
        if not is_gap_sequence(gaps):
            raise ModelError(f"{gaps} is not a Weierstrass gap sequence")
        super().__init__(hull([(0,), (1,)]))
        self.genus = genus
        self.gaps = gaps

    def _gaps(self, k: int) -> frozenset[tuple[int, ...]]:
        return frozenset((k - n,) for n in self.gaps if n <= k)

    def recover_gaps(self) -> list[tuple[int, int]]:
        """Read the gap sequence back off the level counts.

        The deficit D_k - d_k counts the gaps N <= k, so N_i is the smallest
        k at which it reaches i; returns [(N_i, witnessing k)], which
        round-trips the input.
        """
        found = []
        deficit_seen = 0
        k = 0
        while deficit_seen < self.genus:
            k += 1
            deficit = self.D_k(k) - self.d_k(k)
            if deficit > deficit_seen:
                if deficit != deficit_seen + 1:
                    raise ModelError("gap deficit jumped by more than one")
                found.append((k, k))
                deficit_seen = deficit
            if k > 2 * self.genus:
                raise ModelError("ran past 2g without finding all gaps")
        return found


# ---------------------------------------------------------------------------
# canonical curve K_C
# ---------------------------------------------------------------------------

class CanonicalCurveModel(GradedSeriesModel):
    """Model of K_C on a genus-g curve (g >= 2): ambient [0, 2g-2].

    d_1 = g and d_k = k(2g-2)+1-g for k >= 2. The per-level gap sets (the
    lattice integers *not* realized in k*Delta_k) are inputs; levels without a
    declared pattern use the generic one, k*Delta_k = {0,...,d_k-1}.
    """

    backend = "canonical"

    def __init__(self, genus: int, per_k_gap_sets: Optional[Mapping[int, Iterable[int]]] = None):
        if genus < 2:
            raise ModelError("canonical-curve model needs genus >= 2")
        super().__init__(hull([(0,), (2 * genus - 2,)]))
        self.genus = genus
        patterns: dict[int, tuple[int, ...]] = {}
        for k, gaps in (per_k_gap_sets or {}).items():
            k = int(k)
            gaps = tuple(sorted(int(x) for x in gaps))
            top = k * (2 * genus - 2)
            expected = top + 1 - self.d_k(k)
            if len(set(gaps)) != len(gaps) or len(gaps) != expected:
                raise ModelError(
                    f"level {k} gap set must have exactly {expected} distinct entries"
                )
            if gaps and (gaps[0] < 0 or gaps[-1] > top):
                raise ModelError(f"level {k} gap entries must lie in [0, {top}]")
            patterns[k] = gaps
        self.per_k_gap_sets = patterns

    def d_k(self, k: int) -> int:
        self._check_level(k)
        g = self.genus
        return g if k == 1 else k * (2 * g - 2) + 1 - g

    def _gaps(self, k: int) -> frozenset[tuple[int, ...]]:
        if k in self.per_k_gap_sets:
            return frozenset((j,) for j in self.per_k_gap_sets[k])
        return frozenset((j,) for j in range(self.d_k(k), k * (2 * self.genus - 2) + 1))


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------

class SyntheticModel(GradedSeriesModel):
    """Explicit gap sets over an ambient body, for constructed examples.

    ``gap_sets`` maps k to an iterable of integer numerator vectors, or is a
    callable k -> iterable for models defined at every level. Levels default
    to the dict keys (or all k >= 1 for callables). Superadditivity is not
    checked.
    """

    backend = "synthetic"

    def __init__(self, ambient: ConvexBody,
                 gap_sets: Mapping[int, Iterable[Sequence[int]]] | Callable[[int], Iterable],
                 levels: Optional[Iterable[int]] = None):
        if ambient.is_empty:
            raise ModelError("synthetic model needs a nonempty ambient body")
        super().__init__(ambient)
        if callable(gap_sets):
            self._gap_fn = gap_sets
        else:
            gap_map = {int(k): tuple(pts) for k, pts in gap_sets.items()}
            self._gap_fn = lambda k: gap_map.get(k, ())
            if levels is None:
                levels = gap_map
        # None: every k >= 1 is a level
        self._levels = None if levels is None else frozenset(int(k) for k in levels)

    def has_level(self, k: int) -> bool:
        return k >= 1 and (self._levels is None or k in self._levels)

    def levels_in(self, ks: range) -> Sequence[int]:
        if self._levels is None:
            return super().levels_in(ks)
        return sorted(k for k in self._levels if k >= 1 and k in ks)

    def _gaps(self, k: int) -> frozenset[tuple[int, ...]]:
        gaps = frozenset(tuple(int(c) for c in z) for z in self._gap_fn(k))
        # z/k lies in the ambient iff a.z <= floor(k b) for every a.x <= b
        rows = [(h.normal, k * h.offset.numerator // h.offset.denominator)
                for h in self.ambient.halfspaces]
        n = self.ambient.dim
        for z in gaps:
            if len(z) != n:
                raise ModelError(f"level {k} gap {z} is not in the idealized lattice set")
            for normal, rhs in rows:
                if sum(map(mul, normal, z)) > rhs:
                    raise ModelError(f"level {k} gap {z} is not in the idealized lattice set")
        return gaps


# ---------------------------------------------------------------------------
# bundled reference models
# ---------------------------------------------------------------------------

# Vanishing behavior of O_C(p) at a point of a smooth plane quartic (g = 3):
# the three possible gap sequences, by the classical flex classification.
PLANE_QUARTIC_GAP_SEQUENCES: dict[str, tuple[int, ...]] = {
    "ordinary": (1, 2, 3),
    "flex": (1, 2, 4),
    "hyperflex": (1, 2, 5),
}

# K_C on a genus-3 quartic: the six k <= 2 vanishing patterns (k*Delta_k) at
# special points.  Keys are the point type; values map k to the realized set.
GENUS3_CANONICAL_PATTERNS: dict[str, dict[int, tuple[int, ...]]] = {
    "generic": {1: (0, 1, 2), 2: (0, 1, 2, 3, 4, 5)},
    "flex": {1: (0, 1, 3), 2: (0, 1, 2, 3, 4, 6)},
    "hyperflex": {1: (0, 1, 4), 2: (0, 1, 2, 4, 5, 8)},
    "sextactic_1": {1: (0, 1, 2), 2: (0, 1, 2, 3, 4, 6)},
    "sextactic_2": {1: (0, 1, 2), 2: (0, 1, 2, 3, 4, 7)},
    "sextactic_3": {1: (0, 1, 2), 2: (0, 1, 2, 3, 4, 8)},
}


def plane_quartic_model(kind: str) -> CurveDivisorModel:
    """O_C(p) model for a point of the named type on a smooth plane quartic."""
    return CurveDivisorModel(3, PLANE_QUARTIC_GAP_SEQUENCES[kind])


def genus3_canonical_model(kind: str) -> CanonicalCurveModel:
    """K_C model (g=3) with the named k <= 2 vanishing pattern declared."""
    pattern = GENUS3_CANONICAL_PATTERNS[kind]
    per_k = {}
    for k, realized in pattern.items():
        top = k * 4
        per_k[k] = tuple(sorted(set(range(top + 1)) - set(realized)))
    return CanonicalCurveModel(3, per_k)


def p1xp1_model(ramified: bool) -> SyntheticModel:
    """O(1,1) on P^1 x P^1 with flag through a smooth (2,1)-curve.

    Ambient quadrilateral conv{(0,0),(1/2,0),(1/2,1),(0,3)}; at k=2 exactly one
    point over x=1/2 is a gap, depending on whether the flag point ramifies.
    """
    ambient = hull([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1), (0, 3)])
    gap = (1, 1) if ramified else (1, 2)
    return SyntheticModel(ambient, {1: (), 2: (gap,)}, levels=(1, 2))


def top_column_gap_model() -> SyntheticModel:
    """Unit-square synthetic model with the whole x1 = 1 lattice column removed
    at every level: the quantum maximum trails the true maximum by exactly 1/k."""
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])

    def gaps(k: int):
        return [(k, j) for j in range(k + 1)]

    return SyntheticModel(square, gaps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_level(k: int) -> int:
    if k < 1:  # malformed input (exit 2), not a LevelError (exit 1)
        raise ValueError(f"model level {k} is not a positive integer")
    return k


def _json_level_key(key: str) -> int:
    """A ``per_k_gaps`` key as its level.  Only canonical base-10 keys are
    levels, so no two keys of one object name the same level; ``int`` alone
    would also read "01", "+1", " 2 " and "1_0"."""
    if not re.fullmatch("[1-9][0-9]*", key):
        raise ValueError(f"per_k_gaps key {key!r} is not a positive base-10 integer "
                         "without sign, spaces or leading zeros")
    return read_int(key)


def _json_per_k_gaps(data: Mapping) -> Mapping:
    """A model's ``per_k_gaps``: an object keyed by level, {} when absent."""
    per_k = data.get("per_k_gaps")
    if per_k is None:
        return {}
    if not isinstance(per_k, Mapping):
        raise ValueError("per_k_gaps must be a JSON object keyed by level")
    return per_k


def model_from_json(data: Mapping) -> GradedSeriesModel:
    if not isinstance(data, Mapping):
        raise ValueError("a model must be a JSON object")
    backend = data.get("backend")
    if backend == "toric":
        return ToricModel(body_from_json(data["polytope"]))
    if backend == "curve":
        return CurveDivisorModel(json_int(data["genus"], "genus"),
                                 [json_int(n, "gap") for n in data["gaps"]])
    if backend == "canonical":
        per_k = {_json_level_key(k): [json_int(x, "gap") for x in v]
                 for k, v in _json_per_k_gaps(data).items()}
        return CanonicalCurveModel(json_int(data["genus"], "genus"), per_k)
    if backend == "synthetic":
        ambient = body_from_json(data["polytope"])
        gap_sets = {_json_level_key(k): [tuple(json_int(c, "gap coordinate") for c in z)
                                         for z in v]
                    for k, v in _json_per_k_gaps(data).items()}
        bad = next((z for pts in gap_sets.values() for z in pts if len(z) != ambient.dim), None)
        if bad is not None:  # malformed input (exit 2), not a ModelError (exit 1)
            raise ValueError(f"gap vector {list(bad)} does not have dim = {ambient.dim} entries")
        levels = data.get("levels")
        if levels is not None:
            levels = [_json_level(json_int(k, "level")) for k in levels]
        if not (gap_sets if levels is None else levels):  # exit 2, not a run of no levels
            raise ValueError("a synthetic model needs at least one level: a nonempty "
                             "'levels' list, or 'per_k_gaps' keys when 'levels' is absent")
        return SyntheticModel(ambient, gap_sets, levels=levels)
    raise ModelError(f"unknown backend {backend!r}")
