"""Threshold invariants of graded-series models under valuation transforms.

Given a model (series module) and a valuation transform (a positive rational
log-discrepancy input A plus a concave PL transform G on the ambient body),
this module computes jumping numbers and their idealized analogues, the
S_{k,m} averages, the continuous ccdf/quantile machinery with tail
expectations S_tau, compatible families, and restricted Grassmannian
thresholds delta_{k,m} over finite valuation families.

All values are exact rationals except where a quantile has no rational root,
in which case results are interval-certified to a caller-supplied tolerance.
Restricted minima over a finite family are upper bounds on the corresponding
infima over all valuations, and are reported as such.

Every level-k query (jumping numbers, S_{k,m}, Sbar_{k,m}, quantum quantiles
and vanishing orders, restricted delta_{k,m}) reads one integer score table
of the level.  With L the lcm of the denominators of G, each point z/k of
the idealized level ambient ∩ Z^n/k scores k L G(z/k) = min_i(L grad_i . z
+ k L c_i), an exact int.  A table holds the distinct scores with the
cumulative counts and sums of the points above each (``_table``), built
once per (model, G, k) (``_score_level``): every invariant of a level
depends on the multiset of its scores alone.  Delta_k's table is the
idealized scores minus the gaps' own scores, subtracted as multisets, so no
point of the level is read (on a level without gaps it is the same table).
The model keeps both with the rest of its current level only.
Compatible families, the one query that needs points, score and rank their
level on demand.  Results are the same Fractions as scoring G(z/k) directly.

Everything here is a pure query over immutable models and valuations (the
level slot never changes a result). Because a model keeps one level, a sweep
that asks several questions of each level should loop over k outermost. Ties
are always broken deterministically (lexicographically larger point,
lexicographically smaller label), making reductions order-independent.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .geometry import (
    AffineFunctional,
    ConcavePL,
    ConvexBody,
    _det,
    _linearity_regions,
    first_coordinate_transform,
    json_array,
    max_transform,
    rat,
    triangulate,
)
from .lattice import PointCloud, _first_axis_counts, _frame, first_axis_bound
from .series import GradedSeriesModel, LevelError

DEFAULT_TOL = Fraction(1, 10**9)

INFINITE = math.inf  # sentinel ratio when S_{k,m} = 0


class ValuationModel(tuple):
    """A valuation presented by its log discrepancy A > 0 (supplied data, never
    computed here) and its concave transform G on the ambient body: the tuple
    (label, A, G)."""

    __slots__ = ()
    label = property(itemgetter(0))
    A = property(itemgetter(1))
    G = property(itemgetter(2))

    def __new__(cls, label: str, A: Fraction, G: ConcavePL) -> "ValuationModel":
        v = tuple.__new__(cls, (label, A, G))
        v.__post_init__()
        return v

    @staticmethod
    def divisorial(label: str, ambient: ConvexBody) -> "ValuationModel":
        """The canonical divisorial convention: A = 1 and G is the first coordinate."""
        return ValuationModel(label, Fraction(1), first_coordinate_transform(ambient))

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("log discrepancy A must be positive")


class JumpingVector(tuple):
    """Non-increasing vanishing orders at one level (values are k * G(x)): the
    tuple (k, values), whose ``len`` is that of its values."""

    __slots__ = ()
    k = property(itemgetter(0))
    values = property(itemgetter(1))

    def __new__(cls, k: int, values: tuple[Fraction, ...]) -> "JumpingVector":
        vec = tuple.__new__(cls, (k, values))
        vec.__post_init__()
        return vec

    def __post_init__(self):
        # tied neighbours share one Fraction, which needs no comparison
        if any(a is not b and a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("jumping values must be non-increasing")

    @classmethod
    def _sorted(cls, k: int, values: tuple[Fraction, ...]) -> "JumpingVector":
        """The vector of values already non-increasing, as a score table's
        are, built without the order check of ``__post_init__``."""
        return tuple.__new__(cls, (k, values))

    def __len__(self):
        return len(self.values)


class TailSpec(tuple):
    """A solved quantile: position, top-atom mass, and the certified bracket
    (a, b) of an inexact one (None when the quantile is exact).  The tuple
    (tau, quantile, atom_at_top, bracket)."""

    __slots__ = ()
    tau = property(itemgetter(0))
    quantile = property(itemgetter(1))
    atom_at_top = property(itemgetter(2))
    bracket = property(itemgetter(3))

    def __new__(cls, tau: Fraction, quantile: Fraction, atom_at_top: Fraction,
                bracket: Optional[tuple[Fraction, Fraction]]) -> "TailSpec":
        return tuple.__new__(cls, (tau, quantile, atom_at_top, bracket))

    @property
    def exact(self) -> bool:
        return self.bracket is None


class FamilyMeasure(tuple):
    """Uniform empirical measure on a compatible family (atoms in R^n): the
    1-tuple (atoms,)."""

    __slots__ = ()
    atoms = property(itemgetter(0))

    def __new__(cls, atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]) -> "FamilyMeasure":
        return tuple.__new__(cls, (atoms,))

    def mean(self) -> tuple[Fraction, ...]:
        n = len(self.atoms[0][0])
        return tuple(
            sum((p[i] * w for p, w in self.atoms), Fraction(0)) for i in range(n)
        )


# ---------------------------------------------------------------------------
# jumping numbers
# ---------------------------------------------------------------------------

_LevelScores = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _table(histogram: dict[int, int]) -> _LevelScores:
    """(scores, ranks, sums) of {score: points > 0}, scores descending:
    ranks[i] and sums[i] count and sum the points above scores[i]."""
    scores = tuple(histogram)
    return (scores, tuple(accumulate(histogram.values(), initial=0)),
            tuple(accumulate(map(mul, scores, histogram.values()), initial=0)))


def _histogram(table: _LevelScores) -> Iterable[tuple[int, int]]:
    """The (score, points) pairs of a table, in its descending score order."""
    scores, ranks, _ = table
    return zip(scores, map(sub, ranks[1:], ranks))


def _top(table: _LevelScores, m: int) -> tuple[int, int]:
    """(the m-th largest score, the sum of the m largest), 1 <= m <= the
    points of the table: one bisect and a partial run."""
    scores, ranks, sums = table
    i = bisect_left(ranks, m) - 1
    return scores[i], sums[i] + (m - ranks[i]) * scores[i]


def _point_free_frame(ambient: ConvexBody, g: ConcavePL, k: int,
                      points: int) -> Optional[ConvexBody]:
    """For a one-piece G on a full-dimensional 2-D or 3-D ambient, the
    ambient in the frame (``lattice._frame``) of the direction of L grad (or
    itself, G constant), unless its first axis at level k has more values
    than the level has points (a steep G); else None."""
    forms = set(g.integer_form[1])
    if len(forms) != 1 or ambient.dim not in (2, 3) or not ambient.is_full_dim():
        return None
    (grad, _), = forms
    d = math.gcd(*grad)
    frame = _frame(ambient, tuple(a // d for a in grad) if d else (1,) + (0,) * (ambient.dim - 1))
    return frame if first_axis_bound(frame, k) <= points else None


def _score_level(model: GradedSeriesModel, g: ConcavePL, k: int) -> _LevelScores:
    """The table of ambient ∩ Z^n/k.  With L grad = d u for the one piece of
    G, u primitive, z scores d (u . z) + k L c, read off the first-axis
    counts of the frame of u (``_point_free_frame``) with no point listed;
    else the listed level is scored (``ConcavePL.scaled_values``)."""
    frame = _point_free_frame(model.ambient, g, k, model.D_k(k))
    if frame is None:
        # counted in descending order, so its keys are
        return _table(Counter(sorted(g.scaled_values(model.idealized_body(k).points, k),
                                     reverse=True)))
    (grad, c), = set(g.integer_form[1])
    d = math.gcd(*grad)
    counts = _first_axis_counts(frame, k)
    if not d:  # constant G
        return _table({k * c: sum(counts.values())})
    return _table({d * z + k * c: counts[z] for z in sorted(counts, reverse=True) if counts[z]})


def _level_scores(model: GradedSeriesModel, g: ConcavePL, k: int,
                  ideal: bool = False) -> _LevelScores:
    """The score table of ambient ∩ Z^n/k if ideal, else of Delta_k, kept by
    the model with the rest of level k.  The idealized table is built once
    (``_score_level``).  Every gap is a point of that level, so Delta_k's
    scores are the idealized scores minus one copy of each gap's own score:
    a multiset difference that reads no point of the level and keeps the
    descending order (``Counter`` subtraction keeps the order of its left
    operand)."""
    if not ideal:
        model._check_level(k)
    table = model._at_level(k, (g, True), lambda: _score_level(model, g, k))
    if ideal or not (gaps := model._level_gaps(k)):
        return table
    return model._at_level(k, (g, False), lambda: _table(
        Counter(dict(_histogram(table))) - Counter(g.scaled_values(gaps, k))))


def _jumping_vector(model: GradedSeriesModel, v: ValuationModel, k: int,
                    ideal: bool) -> JumpingVector:
    table = _level_scores(model, v.G, k, ideal)
    L = v.G.integer_form[0]
    # one Fraction per distinct score, shared by the points that tie on it
    return JumpingVector._sorted(k, tuple(chain.from_iterable(
        repeat(Fraction(s, L), n) for s, n in _histogram(table))))


def jumping_numbers(model: GradedSeriesModel, v: ValuationModel, k: int) -> JumpingVector:
    """Non-increasing sort of {k G(x) : x in Delta_k}."""
    return _jumping_vector(model, v, k, ideal=False)


def idealized_jumping(model: GradedSeriesModel, v: ValuationModel, k: int) -> JumpingVector:
    """Non-increasing sort of {k G(x) : x in ambient ∩ Z^n/k}; length D_k."""
    return _jumping_vector(model, v, k, ideal=True)


def jumping_head(model: GradedSeriesModel, v: ValuationModel, k: int) -> tuple[Fraction, ...]:
    """The three largest jumping numbers of level k (fewer if d_k < 3), read
    off the score table without a ``JumpingVector``."""
    table = _level_scores(model, v.G, k)
    L = v.G.integer_form[0]
    return tuple(Fraction(_top(table, m)[0], L) for m in range(1, min(3, table[1][-1]) + 1))


def _top_average(model: GradedSeriesModel, v: ValuationModel, k: int, m: int,
                 ideal: bool) -> Fraction:
    table = _level_scores(model, v.G, k, ideal)
    if not 1 <= m <= table[1][-1]:
        raise ValueError(f"m={m} out of range [1, {table[1][-1]}]")
    return Fraction(_top(table, m)[1], v.G.integer_form[0] * k * m)


def S_km(model: GradedSeriesModel, v: ValuationModel, k: int, m: int) -> Fraction:
    """Average of the largest m jumping numbers divided by k."""
    return _top_average(model, v, k, m, ideal=False)


def Sbar_km(model: GradedSeriesModel, v: ValuationModel, k: int, m: int) -> Fraction:
    """Idealized analogue of S_km over all lattice points of the ambient body."""
    return _top_average(model, v, k, m, ideal=True)


# ---------------------------------------------------------------------------
# extremal vanishing orders
# ---------------------------------------------------------------------------

class VanishingOrders(tuple):
    """(S0, sigma) with attribute access."""

    __slots__ = ()
    S0 = property(itemgetter(0))
    sigma = property(itemgetter(1))


def S0_and_sigma(model: GradedSeriesModel, v: ValuationModel) -> VanishingOrders:
    """Maximal and minimal vanishing orders: max/min of G over the ambient body."""
    s0 = max_transform(model.ambient, v.G)
    sigma = min(v.G(x) for x in model.ambient.vertices)
    return VanishingOrders((s0, sigma))


# ---------------------------------------------------------------------------
# continuous ccdf / quantile machinery
# ---------------------------------------------------------------------------

class _Ccdf(tuple):
    """The ccdf F(t) = vol{G >= t} / vol of G on an ambient body: the tuple
    of its maximum s0, the top atom F(s0), and one (lo, hi, coefficients)
    piece per polynomial of F on [0, s0]: F on [lo, hi] as ascending
    coefficients in t, trailing zeros dropped.  The pieces end at 0, s0 and
    the knots of ``_knot_terms`` between them where F changes polynomial."""

    __slots__ = ()
    s0 = property(itemgetter(0))
    atom = property(itemgetter(1))
    pieces = property(itemgetter(2))

    def __new__(cls, s0: Fraction, atom: Fraction,
                pieces: tuple[tuple[Fraction, Fraction, tuple[Fraction, ...]], ...]) -> "_Ccdf":
        return tuple.__new__(cls, (s0, atom, pieces))


@lru_cache(maxsize=128)
def _ccdf_data(ambient: ConvexBody, g: ConcavePL) -> _Ccdf:
    """The pieces of F(t) = |{G >= t}| / |ambient|, in closed form on the
    triangulated linearity regions of G; no superlevel body is built.

    vol{G >= t} is a sum of truncated powers (z - t)_+^p over the knots z,
    the values of G at the vertices of the regions' simplices
    (``_knot_terms``).  Between two knots, F is the sum of the terms of
    every knot above it, so one sweep of the knots from s0 down adds each
    knot's terms into one polynomial in t, divided by vol.  A knot whose
    terms cancel changes no polynomial, so it ends no piece.  s0 is the
    largest knot, and the atom F(s0) its (z - t)^0 coefficient: the volume
    of the simplices on which G = s0.
    """
    n = ambient.dim
    if not ambient.is_full_dim():
        raise ValueError("ambient body must be full-dimensional")
    vol, terms = _knot_terms(ambient, g)
    s0 = max(terms)
    cuts = {Fraction(0), s0}.union(z for z, c in terms.items() if any(c))
    breaks = sorted(c for c in cuts if 0 <= c <= s0)
    knots = sorted(terms)
    poly = [Fraction(0)] * (n + 1)  # vol{G >= t} on the current interval
    pieces = []
    for lo, hi in reversed(list(zip(breaks, breaks[1:]))):
        while knots and knots[-1] >= hi:
            z = knots.pop()
            for p, c in enumerate(terms[z]):
                if c:  # c (z - t)^p = sum_q c C(p, q) z^(p - q) (-t)^q
                    for q in range(p + 1):
                        poly[q] += c * math.comb(p, q) * z ** (p - q) * (-1) ** q
        coeffs = [c / vol for c in poly]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        pieces.append((lo, hi, tuple(coeffs)))
    pieces.reverse()
    return _Ccdf(s0, terms[s0][0] / vol, tuple(pieces))


@lru_cache(maxsize=128)
def _candidates(ambient: ConvexBody, g: ConcavePL) -> tuple[Fraction, ...]:
    """The candidate breaks of the ccdf, ascending: 0, s0 and the t in
    [0, s0] where n+1 constraint hyperplanes of the hypograph {(x, t) : x in
    ambient, t <= G(x)} meet in a point.  Every end of a ccdf piece is one,
    as (v, G(v)) is such a point for a region vertex v.  Only an inexact
    quantile reads them: it bisects the candidate interval where F crosses
    tau, so they fix where its bracket lies.

    A point needs j >= 1 piece hyperplanes t = f(x), as the facets leave t
    free.  Taking the first piece's row from the other j - 1 leaves n
    equations in x alone: n + 1 - j facets and the j - 1 equalities f_1 =
    f_i.  They meet in one point iff their n x n coefficient matrix is
    nonsingular, and then x comes from Cramer's rule (``_meet``) and t is
    f_1(x).  With j = 1 the n equations are facets only, so each facet
    n-subset is solved once and read by every piece.  In integers
    throughout: each facet row is scaled by its offset's denominator, and
    the pieces are L f (``integer_form``)."""
    n = ambient.dim
    s0 = _ccdf_data(ambient, g).s0
    L, forms = g.integer_form
    # h . (x, 1) = 0 on each facet hyperplane, and r . (x, 1) = L f(x) per piece
    facets = [(*(a * h.offset.denominator for a in h.normal), -h.offset.numerator)
              for h in ambient.halfspaces]
    pieces = [(*grad, c) for grad, c in forms]
    # (the rows f_1 - f_i, the pieces that read t) per subset of j pieces
    groups = [((), pieces)]
    for j in range(2, min(len(pieces), n + 1) + 1):
        for first, *rest in combinations(pieces, j):
            groups.append((tuple(tuple(map(sub, first, r)) for r in rest), (first,)))
    cuts = {Fraction(0), s0} if s0 >= 0 else set()
    top, bottom = s0.numerator, s0.denominator
    for rows, readers in groups:
        for combo in combinations(facets, n - len(rows)):
            w = _meet(combo + rows)
            if w is None:
                continue
            den = L * w[n]  # t = r . w / den for each reader r
            for r in readers:
                num = sum(map(mul, r, w))
                if 0 <= num and num * bottom <= top * den:
                    cuts.add(Fraction(num, den))
    # ordered by floor(2^64 t) first, so only a tie there compares Fractions
    return tuple(sorted(cuts, key=lambda t: ((t.numerator << 64) // t.denominator, t)))


def _meet(rows: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """The point where n hyperplanes h . (x, 1) = 0 in R^n meet, as integer
    homogeneous coordinates w with x = w[:n] / w[n] and w[n] > 0 (Cramer's
    rule, in closed-form ``_det`` minors: w_k = ±(-1)^k det of the rows
    without column k), or None when the hyperplanes do not meet in one
    point."""
    n = len(rows)
    last = (-1) ** n * _det([r[:n] for r in rows])
    if not last:
        return None
    sign = 1 if last > 0 else -1
    return [sign * (-1) ** k * _det([r[:k] + r[k + 1:] for r in rows]) for k in range(n)] + [
        abs(last)]


def _knot_terms(ambient: ConvexBody, g: ConcavePL) -> tuple[Fraction, dict[Fraction, list[Fraction]]]:
    """(vol, terms): the volume of a full-dimensional ambient and, per knot z,
    the coefficients c_0..c_n with vol{G >= t} = sum_z sum_p c_p (z - t)_+^p,
    where (z - t)_+^0 is 1 for t < z.

    Each full-dimensional region of ``_linearity_regions``, on which G is
    one piece f, is triangulated once.  A simplex S with volume V and knots
    y_j = f(v_j) at its vertices has vol(S ∩ {f >= t}) = V [y_0, ..., y_n]
    (y - t)_+^n, a divided difference in y (Curry & Schoenberg, "On Pólya
    frequency functions IV", 1966).  A distinct knot z of multiplicity mu
    adds sum_{m < mu} a_m C(n, m) (z - t)_+^(n - m) to it, with a_m the
    Taylor coefficient of order mu - 1 - m at z of 1 / prod_{y_j != z}
    (x - y_j); tied knots take the confluent terms m > 0.

    The knots are read in integers: with the region's vertices Z / D and f
    = (L grad . x + L c) / L, they are u_j / M for the integers u_j = L
    grad . Z_j + L c D and M = L D, so a_m is M^(n - m) times the same
    Taylor coefficient of 1 / prod (x - u_j) at u, and V = |det| /
    (n! D^n) as in ``_moments``.
    """
    n = ambient.dim
    L, forms = g.integer_form
    form = dict(zip(g.pieces, forms))
    vol = Fraction(0)
    terms: dict[Fraction, list[Fraction]] = {}
    for f, region in _linearity_regions(ambient, g):
        if not region.is_full_dim():
            continue
        D, Z = region.int_form()
        grad, c = form[f]
        M = L * D
        us = [sum(map(mul, grad, z)) + c * D for z in Z]
        den = math.factorial(n) * D ** n
        for s in triangulate(region):
            base = Z[s[0]]
            V = Fraction(abs(_det([[x - y for x, y in zip(Z[j], base)] for j in s[1:]])), den)
            vol += V
            mult = Counter(us[j] for j in s)
            for u, mu in mult.items():
                # Taylor coefficients at u, orders < mu, of prod_w 1 / (x - w)^nu:
                # each factor 1 / ((u - w) + e) is sum_r (-e)^r / (u - w)^(r + 1)
                series = [Fraction(1)] + [Fraction(0)] * (mu - 1)
                for w, nu in mult.items():
                    if w != u:
                        inv = [Fraction((-1) ** r, (u - w) ** (r + 1)) for r in range(mu)]
                        for _ in range(nu):
                            series = [sum(series[a] * inv[r - a] for a in range(r + 1))
                                      for r in range(mu)]
                coeffs = terms.setdefault(Fraction(u, M), [Fraction(0)] * (n + 1))
                for m in range(mu):
                    coeffs[n - m] += V * math.comb(n, m) * M ** (n - m) * series[mu - 1 - m]
    return vol, terms


def _poly_eval(coeffs: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_integral(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """The integral over [a, b] of the polynomial with ascending coefficients."""
    anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
    return _poly_eval(anti, b) - _poly_eval(anti, a)


def ccdf_continuous(model: GradedSeriesModel, v: ValuationModel, t) -> Fraction:
    """F(t) = |{G >= t}| / |ambient|, exact; t must lie in [0, S0]."""
    t = rat(t)
    data = _ccdf_data(model.ambient, v.G)
    if not 0 <= t <= data.s0:
        raise ValueError(f"t={t} outside [0, {data.s0}]")
    for lo, hi, coeffs in data.pieces:
        if lo <= t <= hi:
            return _poly_eval(coeffs, t)
    # s0 == 0 edge: single point range, t = s0
    return data.atom


def _exact_poly_root(coeffs, tau, lo, hi) -> Optional[Fraction]:
    """The root of P(t) = tau in (lo, hi) if it is rational and P has degree
    <= 2, else None.

    ``_quantile_spec`` calls it only on a crossing piece, P(lo) > tau > P(hi):
    the piece above it, or the atom at s0, lies below tau, and F is
    continuous on [0, s0), as a concave G is flat on a full-dimensional set
    only at its maximum.  So P - tau is not constant and has exactly one
    root in (lo, hi): rational for a linear P, and for a quadratic one iff
    the discriminant is a square."""
    if len(coeffs) > 3:
        return None
    c = list(coeffs) + [Fraction(0)] * (3 - len(coeffs))
    a2, a1, a0 = c[2], c[1], c[0] - tau
    if a2 == 0:
        return -a0 / a1
    disc = a1 * a1 - 4 * a2 * a0
    pq = disc.numerator * disc.denominator
    r = math.isqrt(pq)
    if r * r != pq:
        return None  # irrational roots: caller bisects
    sq = Fraction(r, disc.denominator)
    return next(t for t in ((-a1 + sq) / (2 * a2), (-a1 - sq) / (2 * a2)) if lo < t < hi)


def _bisect(coeffs: Sequence[Fraction], tau: Fraction, lo: Fraction, hi: Fraction,
            tol: Fraction) -> tuple[Fraction, Fraction]:
    """The bracket [a, b] left by halving [lo, hi] until b - a <= tol, each
    midpoint t replacing a where P(t) >= tau and b elsewhere, for the
    polynomial P with ascending coefficients.

    Run in integers: with h = hi - lo, the midpoint of step s is
    t = lo + h m / 2^s for an odd m.  P is Taylor-shifted once to
    R(x) = P(lo + h x) and R and tau are scaled by one common denominator
    to integer coefficients r_i and an integer T, so P(t) >= tau iff
    sum_i r_i m^i 2^(s (d - i)) >= T 2^(s d), one Horner pass in ints.
    Bracket and steps are those of the same bisection in Fractions.
    """
    h = hi - lo
    shifted = list(coeffs)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += lo * shifted[j + 1]
    scaled = [c * h ** i for i, c in enumerate(shifted)]
    den = math.lcm(tau.denominator, *(c.denominator for c in scaled))
    r = [c.numerator * (den // c.denominator) for c in scaled]
    target = tau.numerator * (den // tau.denominator)
    d = len(r) - 1
    # a = lo + h m / 2^s and b = lo + h (m + 1) / 2^s; step while h / 2^s > tol
    m = s = 0
    wide, narrow = h.numerator * tol.denominator, tol.numerator * h.denominator
    while wide > narrow << s:
        s += 1
        mid = 2 * m + 1
        acc = r[d]
        for i in range(d - 1, -1, -1):
            acc = acc * mid + (r[i] << (s * (d - i)))
        m = mid if acc >= target << (s * d) else 2 * m
    return lo + h * Fraction(m, 1 << s), lo + h * Fraction(m + 1, 1 << s)


def quantile(model: GradedSeriesModel, v: ValuationModel, tau,
             tol=DEFAULT_TOL) -> TailSpec:
    """The volume quantile Q(tau) = sup{t : F(t) >= tau}.

    Exact when F crosses tau at the left end of a ccdf piece, of any degree,
    or where the crossing piece has a rational root (always for linear
    pieces, for quadratics with square discriminant); otherwise bisected to
    a certified bracket of width <= tol, in integers (``_bisect``). tau <=
    atom-at-top returns S0.  Solved once per (ambient, G, tau, tol) and kept
    next to the ccdf, so ``S_tau`` reads the quantile its caller just asked
    for.  Where G < 0 on part of the ambient, F(0) < 1, and a tau above F(0)
    raises ``ValueError``: F on [0, S0] never reaches it.
    """
    tau = rat(tau)
    tol = rat(tol)
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _quantile_spec(model.ambient, v.G, tau, tol)


@lru_cache(maxsize=128)
def _quantile_spec(ambient: ConvexBody, g: ConcavePL, tau: Fraction, tol: Fraction) -> TailSpec:
    """``quantile`` for a checked tau in [0, 1] and tol > 0.

    F crosses tau in the highest piece P with P(lo) >= tau; as P(hi) < tau
    and F is strictly decreasing on [max(0, min G), s0), P is not constant
    and P = tau at one point of it.  P(lo) = tau makes lo the quantile, at
    any degree; else a rational root is.  Otherwise the bisection starts
    from the highest candidate interval [b, b'] of the piece
    (``_candidates``) with P(b) >= tau."""
    s0, atom, pieces = _ccdf_data(ambient, g)
    if tau <= atom:
        return TailSpec(tau, s0, atom, None)
    for lo, hi, coeffs in reversed(pieces):
        at_lo = _poly_eval(coeffs, lo)
        if at_lo < tau:
            continue
        root = lo if at_lo == tau else _exact_poly_root(coeffs, tau, lo, hi)
        if root is not None:
            return TailSpec(tau, root, atom, None)
        grid = [lo, *(c for c in _candidates(ambient, g) if lo < c < hi), hi]
        i = next(i for i in range(len(grid) - 2, -1, -1) if _poly_eval(coeffs, grid[i]) >= tau)
        a, b = _bisect(coeffs, tau, grid[i], grid[i + 1], tol)  # P(a) >= tau > P(b)
        return TailSpec(tau, (a + b) / 2, atom, (a, b))
    raise ValueError(f"F on [0, {s0}] never reaches tau={tau}: "
                     f"G is negative on part of the ambient, so F(0) < tau")


def quantum_quantile(model: GradedSeriesModel, v: ValuationModel, k: int, tau) -> Fraction:
    """Largest t with #{x in Delta_k : G(x) >= t} >= floor(tau d_k), i.e.
    j_{k, floor(tau d_k)} / k; the empty constraint floor = 0 yields j_{k,1}/k."""
    tau = rat(tau)
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    table = _level_scores(model, v.G, k)
    d = table[1][-1]
    if not d:
        raise LevelError(f"Delta_{k} is empty")
    m = math.floor(tau * d)
    return Fraction(_top(table, max(m, 1))[0], v.G.integer_form[0] * k)


def S_tau(model: GradedSeriesModel, v: ValuationModel, tau,
          tol=DEFAULT_TOL) -> Fraction:
    """Tail expectation: the average of G over the quantile superlevel body.

    Read off the ccdf F by the layer-cake identity
    E[G | G >= q] = q + (∫_q^{s0} F(t) dt) / F(q), integrated exactly on the
    ccdf pieces, one polynomial each, so no body is built.  Exact whenever
    the quantile is exact.  For a bracket (a, b) it is the midpoint of the
    tail means at a and b, within tol / 2 of the true value: F is
    log-concave (Brunn-Minkowski), so the tail mean is non-decreasing and
    1-Lipschitz in q, and the two ends are at most b - a <= tol apart.
    """
    spec = quantile(model, v, tau, tol)
    s0, _, pieces = _ccdf_data(model.ambient, v.G)

    def tail_mean(q: Fraction) -> Fraction:
        above = [(max(lo, q), hi, c) for lo, hi, c in pieces if hi > q]
        if not above:  # q = s0: the tail is the top level set, where G = s0
            return s0
        area = sum(_poly_integral(c, lo, hi) for lo, hi, c in above)
        return q + area / _poly_eval(above[0][2], q)

    if spec.exact:
        return tail_mean(spec.quantile)
    a, b = spec.bracket
    return (tail_mean(a) + tail_mean(b)) / 2


# ---------------------------------------------------------------------------
# compatible families
# ---------------------------------------------------------------------------

def select_compatible_family(model: GradedSeriesModel, v: ValuationModel,
                             k: int, m: int) -> PointCloud:
    """The m points of Delta_k with the largest G-values (ties: lex-larger
    first); families are nested in m by construction.

    The only query that reads points, so it scores and ranks its level
    itself: the points of Delta_k are strictly increasing (``PointCloud``),
    so their indices go in from last to first and the stable descending sort
    by score leaves tied points lexicographically larger first, with no
    point ever compared."""
    points = model.discrete_body(k).points
    if not 1 <= m <= len(points):
        raise ValueError(f"m={m} out of range [1, {len(points)}]")
    scores = v.G.scaled_values(points, k)
    order = sorted(range(len(points) - 1, -1, -1), key=scores.__getitem__, reverse=True)
    return PointCloud(k, tuple(map(points.__getitem__, sorted(order[:m]))))


def empirical_family_measure(model: GradedSeriesModel, v: ValuationModel,
                             k: int, m: int) -> FamilyMeasure:
    """Uniform atoms (weight 1/m) on the selected compatible family; used for
    numerical weak-convergence checks against the tail-body barycenter."""
    family = select_compatible_family(model, v, k, m)
    w = Fraction(1, m)
    return FamilyMeasure(tuple((pt, w) for pt in family.coordinates()))


# ---------------------------------------------------------------------------
# restricted Grassmannian thresholds
# ---------------------------------------------------------------------------

def _restricted_min(family: Sequence[ValuationModel], S: Callable[[ValuationModel], Fraction]):
    """(A(v)/S(v), label): the least ratio over the valuations with S(v) != 0,
    the smallest label among ties; (INFINITE, smallest label) when every
    S(v) is zero."""
    if not family:
        raise ValueError("valuation family must be nonempty")
    ratios = [(v.A / s, v.label) for v in family if (s := S(v)) != 0]
    return min(ratios) if ratios else (INFINITE, min(v.label for v in family))


def delta_km_restricted(model: GradedSeriesModel, family: Sequence[ValuationModel],
                        k: int, m: int):
    """min over the family of A(v)/S_{k,m}(v): an UPPER bound on the
    Grassmannian threshold delta_{k,m} (which is an infimum over all
    divisorial valuations, unreachable from any finite family)."""
    return _restricted_min(family, lambda v: S_km(model, v, k, m))


def delta_tau_restricted(model: GradedSeriesModel, family: Sequence[ValuationModel], tau):
    """min over the family of A(v)/S_tau(v); tau = 0 uses S0. Upper bound on
    the limiting threshold, as for delta_km_restricted."""
    return _restricted_min(family, lambda v: S0_and_sigma(model, v).S0 if rat(tau) == 0
                           else S_tau(model, v, tau))


def valuation_from_json(data: dict, ambient: ConvexBody) -> ValuationModel:
    pieces = [
        AffineFunctional.make([rat(c) for c in json_array(p["grad"], "gradient")],
                              rat(p["const"]))
        for p in json_array(data["G"]["pieces"], "pieces")
    ]
    return ValuationModel(str(data["label"]), rat(data["A"]),
                          ConcavePL.make(pieces, ambient))
