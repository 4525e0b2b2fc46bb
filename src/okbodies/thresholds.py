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
and vanishing orders, compatible families, restricted delta_{k,m}) reads
one integer score table of the level.  With L the lcm of the denominators of
G, each point z/k of the idealized level ambient ∩ Z^n/k scores
k L G(z/k) = min_i(L grad_i . z + k L c_i), an exact int; that level is
scored and sorted once per (model, G, k).  It is scored by columns, one pass
per piece over the transposed points (``ConcavePL.scaled_values``), and
ranked by one sort of point indices keyed by score alone: the level's points
are strictly increasing, so the stable sort of the indices taken from last
to first breaks score ties toward the lexicographically larger point without
comparing points (``_score_level``).  Delta_k's table is the same table
minus the level's gaps, read off it in one order-preserving pass (on a level
without gaps it is the same table).  The model keeps both with the rest of
its current level only.  Results are the same Fractions as scoring G(z/k)
directly.

Everything here is a pure query over immutable models and valuations (the
level slot never changes a result). Because a model keeps one level, a sweep
that asks several questions of each level should loop over k outermost. Ties
are always broken deterministically (lexicographically larger point,
lexicographically smaller label), making reductions order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, compress
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import (
    AffineFunctional,
    ConcavePL,
    ConvexBody,
    _int_form,
    _int_reduce,
    first_coordinate_transform,
    max_transform,
    rat,
    superlevel,
    volume,
)
from .lattice import PointCloud
from .series import GradedSeriesModel

DEFAULT_TOL = Fraction(1, 10**9)

INFINITE = math.inf  # sentinel ratio when S_{k,m} = 0


@dataclass(frozen=True)
class ValuationModel:
    """A valuation presented by its log discrepancy A > 0 (supplied data, never
    computed here) and its concave transform G on the ambient body."""

    label: str
    A: Fraction
    G: ConcavePL

    @staticmethod
    def divisorial(label: str, ambient: ConvexBody, A=1) -> "ValuationModel":
        """The canonical divisorial convention: G is the first coordinate."""
        return ValuationModel(label, rat(A), first_coordinate_transform(ambient))

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("log discrepancy A must be positive")


@dataclass(frozen=True)
class JumpingVector:
    """Non-increasing vanishing orders at one level (values are k * G(x))."""

    k: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        # tied neighbours share one Fraction, which needs no comparison
        if any(a is not b and a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("jumping values must be non-increasing")

    @classmethod
    def _sorted(cls, k: int, values: tuple[Fraction, ...]) -> "JumpingVector":
        """The vector of values already non-increasing, as a score table's
        are, built without the order check of ``__post_init__``."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "k", k)
        object.__setattr__(vec, "values", values)
        return vec

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class TailSpec:
    """A solved quantile: position, top-atom mass, and certification data."""

    tau: Fraction
    quantile: Fraction
    atom_at_top: Fraction
    exact: bool = True
    bracket: Optional[tuple[Fraction, Fraction]] = None


@dataclass(frozen=True)
class FamilyMeasure:
    """Uniform empirical measure on a compatible family (atoms in R^n)."""

    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def mean(self) -> tuple[Fraction, ...]:
        n = len(self.atoms[0][0])
        return tuple(
            sum((p[i] * w for p, w in self.atoms), Fraction(0)) for i in range(n)
        )


# ---------------------------------------------------------------------------
# jumping numbers
# ---------------------------------------------------------------------------

_LevelScores = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]


def _table(L: int, scores: Iterable[int], points: Iterable[tuple[int, ...]]) -> _LevelScores:
    """(L, scores, points, prefix) of scores and points in table order."""
    scores = tuple(scores)
    return L, scores, tuple(points), tuple(accumulate(scores, initial=0))


def _score_level(model: GradedSeriesModel, g: ConcavePL, k: int) -> _LevelScores:
    """(L, scores, points, prefix) of the idealized level ambient ∩ Z^n/k:
    scores[i] = k L G(points[i]/k) in descending order, ties lexicographically
    larger point first (the deterministic tie-break used everywhere), and
    prefix[m] = scores[0] + ... + scores[m-1].

    The level is scored by columns (``ConcavePL.scaled_values``) and ranked by
    one sort of point indices keyed by score alone.  A level's points are
    strictly increasing (``PointCloud``), so the indices go in from last to
    first and the stable descending sort leaves tied scores in that order:
    lexicographically larger point first, with no point ever compared."""
    points = model.idealized_body(k).points
    scores = g.scaled_values(points, k)
    order = sorted(range(len(points) - 1, -1, -1), key=scores.__getitem__, reverse=True)
    return _table(g.integer_form[0], map(scores.__getitem__, order),
                  map(points.__getitem__, order))


def _level_scores(model: GradedSeriesModel, g: ConcavePL, k: int,
                  ideal: bool = False) -> _LevelScores:
    """The score table of ambient ∩ Z^n/k if ideal, else of Delta_k, kept by
    the model with the rest of level k.  The idealized level is scored once
    (``_score_level``); Delta_k's table is that table minus the gaps, which
    keeps the order, so only the prefix sums are summed again."""
    if not ideal:
        model._check_level(k)
    table = model._at_level(k, (g, True), lambda: _score_level(model, g, k))
    if ideal or not (gaps := model._level_gaps(k)):
        return table
    return model._at_level(k, (g, False), lambda: _without_gaps(table, gaps))


def _without_gaps(table: _LevelScores, gaps: frozenset[tuple[int, ...]]) -> _LevelScores:
    """The rows of a score table whose point is not a gap, in table order."""
    L, scores, points, _ = table
    kept = [z not in gaps for z in points]
    return _table(L, compress(scores, kept), compress(points, kept))


def _jumping_vector(model: GradedSeriesModel, v: ValuationModel, k: int,
                    ideal: bool) -> JumpingVector:
    L, scores, _, _ = _level_scores(model, v.G, k, ideal)
    # one Fraction per distinct score, shared by the points that tie on it
    value = {s: Fraction(s, L) for s in set(scores)}
    return JumpingVector._sorted(k, tuple(map(value.__getitem__, scores)))


def jumping_numbers(model: GradedSeriesModel, v: ValuationModel, k: int) -> JumpingVector:
    """Non-increasing sort of {k G(x) : x in Delta_k}."""
    return _jumping_vector(model, v, k, ideal=False)


def idealized_jumping(model: GradedSeriesModel, v: ValuationModel, k: int) -> JumpingVector:
    """Non-increasing sort of {k G(x) : x in ambient ∩ Z^n/k}; length D_k."""
    return _jumping_vector(model, v, k, ideal=True)


def jumping_head(model: GradedSeriesModel, v: ValuationModel, k: int) -> tuple[Fraction, ...]:
    """The three largest jumping numbers of level k (fewer if d_k < 3), read
    off the score table without a ``JumpingVector``."""
    L, scores, _, _ = _level_scores(model, v.G, k)
    return tuple(Fraction(s, L) for s in scores[:3])


def _top_average(model: GradedSeriesModel, v: ValuationModel, k: int, m: int,
                 ideal: bool) -> Fraction:
    L, scores, _, prefix = _level_scores(model, v.G, k, ideal)
    if not 1 <= m <= len(scores):
        raise ValueError(f"m={m} out of range [1, {len(scores)}]")
    return Fraction(prefix[m], L * k * m)


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
    """(S0, sigma, quantum_S0, quantum_sigma) with attribute access."""

    S0 = property(lambda s: s[0])
    sigma = property(lambda s: s[1])
    quantum_S0 = property(lambda s: s[2])
    quantum_sigma = property(lambda s: s[3])


def S0_and_sigma(model: GradedSeriesModel, v: ValuationModel,
                 k: Optional[int] = None) -> VanishingOrders:
    """Maximal and minimal vanishing orders: max/min of G over the ambient body,
    plus the level-k quantum variants j_{k,1}/k and j_{k,d_k}/k when k is given."""
    s0 = max_transform(model.ambient, v.G)
    sigma = min(v.G(x) for x in model.ambient.vertices)
    q_s0 = q_sigma = None
    if k is not None:
        L, scores, _, _ = _level_scores(model, v.G, k)
        q_s0 = Fraction(scores[0], L * k)
        q_sigma = Fraction(scores[-1], L * k)
    return VanishingOrders((s0, sigma, q_s0, q_sigma))


# ---------------------------------------------------------------------------
# continuous ccdf / quantile machinery
# ---------------------------------------------------------------------------

class _Ccdf(NamedTuple):
    """The ccdf of G on an ambient body: its maximum s0 and vertex minimum
    sigma, the ambient volume, the top atom F(s0) = vol{G >= s0} / vol, the
    candidate breakpoints and one (lo, hi, coefficients) piece per candidate
    interval."""

    s0: Fraction
    sigma: Fraction
    vol: Fraction
    atom: Fraction
    breaks: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction, tuple[Fraction, ...]], ...]


@lru_cache(maxsize=128)
def _ccdf_data(ambient: ConvexBody, g: ConcavePL) -> _Ccdf:
    """Breakpoints and per-piece polynomials of F(t) = |{G >= t}| / |ambient|.

    Candidate breakpoints are the t-values where n+1 of the constraint
    hyperplanes in (x, t)-space meet in a point: a superset of the true
    combinatorial-change values.  The volume can only change polynomial at
    the t-value of a vertex of the hypograph {(x, t) : x in ambient,
    t <= G(x)}, so a candidate whose point satisfies every constraint is a
    real breakpoint.  One polynomial of degree <= n is fitted exactly per
    interval between real breakpoints, and every candidate interval inside
    it carries that polynomial.

    Each fit reuses the values of F it already knows.  G >= sigma on the
    ambient, so F = 1 on [0, sigma]: an interval there is the constant
    (1,), with no volume.  A concave G is constant on no open set below its
    maximum, so F is continuous on [0, s0) and left-continuous at s0; a fit
    on [a, b] takes F(a) from the fit before it (or 1 at a <= sigma) and
    F(s0) is the top atom, measured once.  So each fitted interval measures
    n new superlevel volumes, and the last one n - 1 besides the atom.
    """
    n = ambient.dim
    vol = volume(ambient)
    if vol == 0:
        raise ValueError("ambient body must be full-dimensional")
    s0 = max_transform(ambient, g)
    sigma = min(g(x) for x in ambient.vertices)

    def ccdf(t: Fraction) -> Fraction:
        return volume(superlevel(ambient, g, t)) / vol

    atom = Fraction(1) if s0 <= sigma else ccdf(s0)  # s0 = sigma: G is constant
    # rows (a, b) of the constraints a . (x, t) <= b, all scaled by one
    # common denominator to integers, which changes no solution
    _, rows = _int_form([(*h.normal, 0, h.offset) for h in ambient.halfspaces]
                        + [(*(-c for c in f.gradient), 1, f.constant) for f in g.pieces])
    cuts = {Fraction(0), s0, min(sigma, s0)}
    real = set(cuts)
    for combo in combinations(rows, n + 1):
        _, pivots, red, d = _int_reduce(combo)
        if pivots != list(range(n + 1)):
            continue
        t = Fraction(red[n][-1], d)
        if not 0 <= t <= s0:
            continue
        # the point (x, t) where the n+1 hyperplanes meet is xt / d, with d > 0
        xt = [r[-1] for r in red]
        cuts.add(t)
        if all(sum(map(mul, r[:-1], xt)) <= r[-1] * d for r in rows):
            real.add(t)
    breaks = sorted(c for c in cuts if 0 <= c <= s0)
    real_breaks = sorted(c for c in real if 0 <= c <= s0)
    next_real = dict(zip(real_breaks, real_breaks[1:]))
    pieces = []
    coeffs: tuple[Fraction, ...] = ()
    for lo, hi in zip(breaks, breaks[1:]):
        if lo in next_real:  # 0 is real, so the first interval starts a fit
            a, b = lo, next_real[lo]
            if b <= sigma:
                coeffs = (Fraction(1),)
            else:
                # F(a) is measured only at a = 0 with sigma < 0 (G < 0 somewhere)
                fa = Fraction(1) if a <= sigma else _poly_eval(coeffs, a) if coeffs else ccdf(a)
                inner = n - 1 if b == s0 else n
                ts = [a] + [a + (b - a) * Fraction(j, inner + 1) for j in range(1, inner + 1)]
                vals = [fa] + [ccdf(t) for t in ts[1:]]
                if b == s0:
                    ts.append(s0)
                    vals.append(atom)
                coeffs = _newton(ts, vals)
        pieces.append((lo, hi, coeffs))
    return _Ccdf(s0, sigma, vol, atom, tuple(breaks), tuple(pieces))


def _newton(ts: list[Fraction], vals: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the polynomial of degree < len(ts) through
    (ts[i], vals[i]), trailing zeros dropped: divided differences, then the
    Newton form expanded by Horner's rule, O(m^2) Fraction operations."""
    m = len(ts)
    dd = list(vals)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (ts[i] - ts[i - j])
    # p = dd[0] + (t - ts[0]) (dd[1] + (t - ts[1]) (... + (t - ts[m-2]) dd[m-1]))
    coeffs = [dd[-1]]
    for i in range(m - 2, -1, -1):
        coeffs = ([dd[i] - ts[i] * coeffs[0]]
                  + [below - ts[i] * c for below, c in zip(coeffs, coeffs[1:])] + [coeffs[-1]])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
    """Largest rational root of P(t) = tau in [lo, hi], for deg <= 2, else None."""
    if len(coeffs) > 3:
        return None
    c = list(coeffs) + [Fraction(0)] * (3 - len(coeffs))
    a2, a1, a0 = c[2], c[1], c[0] - tau
    roots: list[Fraction] = []
    if a2 == 0:
        if a1 == 0:
            return hi if a0 == 0 else None
        roots = [-a0 / a1]
    else:
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return None
        pq = disc.numerator * disc.denominator
        r = math.isqrt(pq)
        if r * r != pq:
            return None  # irrational roots: caller bisects
        sq = Fraction(r, disc.denominator)
        roots = [(-a1 + sq) / (2 * a2), (-a1 - sq) / (2 * a2)]
    valid = [t for t in roots if lo <= t <= hi]
    return max(valid) if valid else None


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

    Exact when the crossing piece has a rational root (always for linear
    pieces, for quadratics with square discriminant); otherwise bisected to a
    certified bracket of width <= tol, in integers (``_bisect``). tau <=
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
    """``quantile`` for a checked tau in [0, 1] and tol > 0."""
    s0, _, _, atom, _, pieces = _ccdf_data(ambient, g)
    if tau <= atom:
        return TailSpec(tau, s0, atom, exact=True)
    for lo, hi, coeffs in reversed(pieces):
        if _poly_eval(coeffs, lo) < tau:
            continue
        root = _exact_poly_root(coeffs, tau, lo, hi)
        if root is not None:
            return TailSpec(tau, root, atom, exact=True)
        a, b = _bisect(coeffs, tau, lo, hi, tol)  # P(a) >= tau > P(b)
        return TailSpec(tau, (a + b) / 2, atom, exact=False, bracket=(a, b))
    raise ValueError(f"F on [0, {s0}] never reaches tau={tau}: "
                     f"G is negative on part of the ambient, so F(0) < tau")


def quantum_quantile(model: GradedSeriesModel, v: ValuationModel, k: int, tau) -> Fraction:
    """Largest t with #{x in Delta_k : G(x) >= t} >= floor(tau d_k), i.e.
    j_{k, floor(tau d_k)} / k; the empty constraint floor = 0 yields j_{k,1}/k."""
    tau = rat(tau)
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    L, scores, _, _ = _level_scores(model, v.G, k)
    m = math.floor(tau * len(scores))
    idx = 0 if m == 0 else m - 1
    return Fraction(scores[idx], L * k)


def S_tau(model: GradedSeriesModel, v: ValuationModel, tau,
          tol=DEFAULT_TOL) -> Fraction:
    """Tail expectation: the average of G over the quantile superlevel body.

    Read off the ccdf F by the layer-cake identity
    E[G | G >= q] = q + (∫_q^{s0} F(t) dt) / F(q), integrated exactly on the
    ccdf pieces, so no body is built.  Exact whenever the quantile is exact;
    otherwise certified to within tol.
    """
    tau = rat(tau)
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    s0, _, _, _, _, pieces = _ccdf_data(model.ambient, v.G)
    if tau == 0:
        return s0
    spec = quantile(model, v, tau, tol)
    if spec.quantile == s0:
        return s0
    # the candidate intervals of one fit share its coefficients; merged (exact,
    # as integration is additive), each fit is integrated once per tail mean
    fits: list[tuple[Fraction, Fraction, tuple[Fraction, ...]]] = []
    for lo, hi, coeffs in pieces:
        if fits and fits[-1][2] == coeffs:
            fits[-1] = (fits[-1][0], hi, coeffs)
        else:
            fits.append((lo, hi, coeffs))

    def tail_mean(q: Fraction) -> Fraction:
        above = [(max(lo, q), hi, c) for lo, hi, c in fits if hi > q]
        if not above:  # q = s0: the tail is the top level set, where G = s0
            return s0
        area = sum(_poly_integral(c, lo, hi) for lo, hi, c in above)
        return q + area / _poly_eval(above[0][2], q)

    if spec.exact:
        return tail_mean(spec.quantile)
    a, b = spec.bracket
    # the bracket lies inside the ccdf piece that quantile bisected, and stays there
    coeffs = next(c for lo, hi, c in pieces if lo <= a and b <= hi)
    lo_val, hi_val = tail_mean(a), tail_mean(b)
    for _ in range(256):
        if hi_val - lo_val <= tol:
            break
        # shrink the quantile bracket; the tail mean is monotone in q
        mid = (a + b) / 2
        if _poly_eval(coeffs, mid) >= tau:
            a = mid
            lo_val = tail_mean(a)
        else:
            b = mid
            hi_val = tail_mean(b)
    return (lo_val + hi_val) / 2


# ---------------------------------------------------------------------------
# compatible families
# ---------------------------------------------------------------------------

def select_compatible_family(model: GradedSeriesModel, v: ValuationModel,
                             k: int, m: int) -> PointCloud:
    """The m points of Delta_k with the largest G-values (ties: lex-larger
    first); families are nested in m by construction."""
    _, _, points, _ = _level_scores(model, v.G, k)
    if not 1 <= m <= len(points):
        raise ValueError(f"m={m} out of range [1, {len(points)}]")
    return PointCloud(k, tuple(sorted(points[:m])))


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

def _restricted_min(pairs: list[tuple[str, Fraction]]):
    """Min of A/S ratios; zero-S entries count as the +inf sentinel and are
    excluded unless every entry is infinite. Lexicographic label tie-break."""
    finite = [(val, label) for label, val in pairs if val is not None]
    if not finite:
        labels = sorted(label for label, _ in pairs)
        return INFINITE, labels[0] if labels else None
    best = min(val for val, _ in finite)
    label = min(label for val, label in finite if val == best)
    return best, label


def delta_km_restricted(model: GradedSeriesModel, family: Sequence[ValuationModel],
                        k: int, m: int):
    """min over the family of A(v)/S_{k,m}(v): an UPPER bound on the
    Grassmannian threshold delta_{k,m} (which is an infimum over all
    divisorial valuations, unreachable from any finite family)."""
    if not family:
        raise ValueError("valuation family must be nonempty")
    pairs = []
    for v in family:
        s = S_km(model, v, k, m)
        pairs.append((v.label, None if s == 0 else v.A / s))
    return _restricted_min(pairs)


def delta_tau_restricted(model: GradedSeriesModel, family: Sequence[ValuationModel],
                         tau, tol=DEFAULT_TOL):
    """min over the family of A(v)/S_tau(v); tau = 0 uses S0. Upper bound on
    the limiting threshold, as for delta_km_restricted."""
    if not family:
        raise ValueError("valuation family must be nonempty")
    tau = rat(tau)
    pairs = []
    for v in family:
        s = S0_and_sigma(model, v).S0 if tau == 0 else S_tau(model, v, tau, tol)
        pairs.append((v.label, None if s == 0 else v.A / s))
    return _restricted_min(pairs)


def valuation_from_json(data: dict, ambient: ConvexBody) -> ValuationModel:
    pieces = [
        AffineFunctional.make([rat(c) for c in p["grad"]], rat(p["const"]))
        for p in data["G"]["pieces"]
    ]
    return ValuationModel(str(data["label"]), rat(data["A"]),
                          ConcavePL.make(pieces, ambient))
