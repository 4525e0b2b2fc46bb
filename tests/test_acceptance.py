"""Acceptance suite: the ten gate criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its runtime (run with ``-s`` or
``pytest -rA`` to see them). Tolerances are pinned here, in the tests, and all
comparisons are exact rational arithmetic except the documented rate fits.

Convention for the rate windows: the C/k (or C k^{-1/n}) envelopes are asserted
over the entire sweep; the convergence exponent is fitted on the upper half of
the sweep (burn-in discarded). Sequences that sit exactly at their limit at
every level pass the envelope with C = 0 and report the -inf sentinel instead
of a finite exponent (no finite-rate window can apply to an exactly-converged
sequence); the pass line records which branch fired.
"""

import math
import time
from fractions import Fraction as F


from okbodies.geometry import (
    AffineFunctional,
    ConcavePL,
    apex_cone,
    first_coordinate_transform,
    hull,
    scale_translate,
    superlevel,
    volume,
)
from okbodies.lattice import analytic_count_constant, count
from okbodies.series import (
    CanonicalCurveModel,
    GENUS3_CANONICAL_PATTERNS,
    PLANE_QUARTIC_GAP_SEQUENCES,
    ToricModel,
    gap_sequences_of_genus,
    genus3_canonical_model,
    plane_quartic_model,
    top_column_gap_model,
)
from okbodies.thresholds import (
    S0_and_sigma,
    S_km,
    S_tau,
    ValuationModel,
    ccdf_continuous,
    delta_km_restricted,
    empirical_family_measure,
    idealized_jumping,
    jumping_numbers,
)
from okbodies.estimates import (
    NEG_INF,
    QUARTIC_LEVEL_SETS,
    rate_fit,
    sub_body_sampler,
    verify_maxp1,
    verify_S_two_sided_sweeps,
    verify_uniform_ehrhart,
    make_m_rule,
)

RATE_WINDOW = (-1.3, -0.8)


def report(number: int, description: str, ok: bool, t0: float, budget: float,
           note: str = "") -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    extra = f" [{note}]" if note else ""
    print(f"ACCEPTANCE {number:2d} {status}  {description} "
          f"({elapsed:.2f}s / budget {budget:.0f}s){extra}")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def tail_half(samples):
    ks = [k for k, _ in samples]
    mid = (min(ks) + max(ks)) / 2
    return [(k, v) for k, v in samples if k >= mid]


def fit_or_exact(samples, limit):
    """(exponent, 'window'|'exact') under the exact-convergence convention."""
    errs = [abs(v - limit) for _, v in samples]
    if all(e == 0 for e in errs):
        return NEG_INF, "exact"
    return rate_fit(tail_half(samples), limit).exponent, "window"


def in_rate_window(samples, limit):
    exp, kind = fit_or_exact(samples, limit)
    if kind == "exact":
        return True, "exact convergence (error = 0 at every k, -inf sentinel)"
    ok = RATE_WINDOW[0] <= exp <= RATE_WINDOW[1]
    return ok, f"exponent {exp:.3f}"


# ---------------------------------------------------------------------------
# 1. figure-level reproduction (exact, < 1 s)
# ---------------------------------------------------------------------------

def test_acceptance_01_figure_reproduction():
    t0 = time.time()
    ok = True
    for kind in PLANE_QUARTIC_GAP_SEQUENCES:
        model = plane_quartic_model(kind)
        for k in range(1, 6):
            got = frozenset(z[0] for z in model.discrete_body(k).points)
            ok &= got == QUARTIC_LEVEL_SETS[kind][k]
    for kind, pattern in GENUS3_CANONICAL_PATTERNS.items():
        model = genus3_canonical_model(kind)
        for k in (1, 2):
            got = frozenset(z[0] for z in model.discrete_body(k).points)
            ok &= got == frozenset(pattern[k])
    report(1, "quartic k<=5 and canonical g=3 k<=2 dot patterns reproduce exactly",
           ok, t0, 1.0)


# ---------------------------------------------------------------------------
# 2. weierstrass identities (exact, < 30 s)
# ---------------------------------------------------------------------------

def test_acceptance_02_weierstrass_identities():
    t0 = time.time()
    ok = True
    total = 0
    for g in range(1, 9):
        for gaps in gap_sequences_of_genus(g):
            total += 1
            from okbodies.series import CurveDivisorModel

            model = CurveDivisorModel(g, gaps)
            ok &= tuple(n for n, _ in model.recover_gaps()) == gaps
    for g in (2, 3, 5):
        model = CanonicalCurveModel(g)
        rows = model.gap_table(50)
        ok &= rows[0].diff == g - 1
        ok &= all(r.diff == g for r in rows[1:])
    # max-gap equality g/k iff the pattern is generic at that level
    for kind, pattern in GENUS3_CANONICAL_PATTERNS.items():
        model = genus3_canonical_model(kind)
        for k in (1, 2):
            _, _, diff = model.max_gap_stat(k)
            bound = F(3, k) if k >= 2 else F(2)
            generic = set(pattern[k]) == set(range(model.d_k(k)))
            ok &= diff <= bound and (diff == bound) == generic
    generic = CanonicalCurveModel(3)
    for k in range(2, 51):
        ok &= generic.max_gap_stat(k)[2] == F(3, k)
    report(2, f"gap round trip over all {total} semigroups g<=8; "
              "D_k-d_k = g (k>=2) and g-1 (k=1); max-gap = g/k iff generic",
           ok, t0, 30.0)


# ---------------------------------------------------------------------------
# 3. counting and translation identities (exact, < 60 s)
# ---------------------------------------------------------------------------

def test_acceptance_03_counting_and_translation():
    t0 = time.time()
    import random

    rng = random.Random(2024)
    ok = True
    box2 = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    box3 = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    for idx in range(100):
        n = 2 if idx % 2 == 0 else 3
        K = box2 if n == 2 else box3
        sampler = sub_body_sampler(K, F(1, 50), seed=idx, points=5 + n)
        body = sampler(1)[0]
        for _ in range(3):
            k = rng.randrange(1, 21)
            ell = rng.randrange(1, 21)
            rescaled = scale_translate(body, F(k, ell))
            if count(body, k) != count(rescaled, ell):
                ok = False
        # translation identity on the apex cone over the top vertex
        a = min(v[0] for v in body.vertices)
        b = max(v[0] for v in body.vertices)
        if a == b:
            continue
        apex = max(v for v in body.vertices if v[0] == b)
        cone = apex_cone(body, a, b, apex)
        g = first_coordinate_transform(cone)
        t = a + F(rng.randrange(1, 8), 8) * (b - a)
        if t >= b:
            continue
        cut = superlevel(cone, g, t)
        lam = (b - a) / (b - t)
        shift = tuple((t - a) / (b - t) * c for c in apex)
        if scale_translate(cut, lam) != scale_translate(cone, 1, shift):
            ok = False
    report(3, "counting claim and cone translation identity on 100 seeded "
              "polytopes (n=2,3), k,l <= 20", ok, t0, 60.0)


# ---------------------------------------------------------------------------
# 4. explicit lattice lower bound (exact, < 120 s)
# ---------------------------------------------------------------------------

def test_acceptance_04_lower_bound_constant():
    t0 = time.time()
    ok = True
    failures = 0
    box2 = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    box3 = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    for idx in range(100):
        n = 2 if idx % 2 == 0 else 3
        K = box2 if n == 2 else box3
        body = sub_body_sampler(K, F(1, 20), seed=1000 + idx, points=5 + n)(1)[0]
        c = analytic_count_constant(body)
        vol = volume(body)
        k0 = math.floor(c) + 1
        for k in range(k0, 61):
            if k <= c:
                continue
            if count(body, k) < (1 - c / k) * vol * F(k) ** n:
                failures += 1
                ok = False
    report(4, "count >= (1 - n^{3/2}/(2 r k)) |P| k^n on 100 seeded bodies, "
              f"all k in (C, 60]: {failures} failures", ok, t0, 120.0)


# ---------------------------------------------------------------------------
# 5. uniform Ehrhart stability (< 120 s)
# ---------------------------------------------------------------------------

def test_acceptance_05_uniform_ehrhart():
    t0 = time.time()
    rep = verify_uniform_ehrhart(range(1, 41), seed=0)
    lower = max(r["normalized"] for r in rep.rows if r["k"] <= 20)
    upper = max(r["normalized"] for r in rep.rows if r["k"] > 20)
    ok = rep.passed and upper <= 2 * lower
    report(5, "200 sub-bodies of the square, |P| >= 1/10: "
              f"sup disc/k over (20,40] = {float(upper):.3f} <= "
              f"2 x {float(lower):.3f} over [1,20]", ok, t0, 120.0)


# ---------------------------------------------------------------------------
# 6. sandwich and monotonicity suite (exact, < 120 s)
# ---------------------------------------------------------------------------

def bundled_models():
    """(name, model, valuation, k_max, superadditive) for the bundled zoo."""
    seg = ToricModel(hull([(0,), (1,)]))
    simp = ToricModel(hull([(0, 0), (1, 0), (0, 1)]))
    p2 = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
    out = [
        ("segment", seg, ValuationModel.divisorial("p", seg.ambient), 40, True),
        ("simplex", simp, ValuationModel.divisorial("e1", simp.ambient), 40, True),
        ("p2", p2, ValuationModel.divisorial("D1", p2.ambient), 40, True),
        ("canonical_g3", CanonicalCurveModel(3), None, 40, True),
        ("top_column", top_column_gap_model(), None, 40, True),
    ]
    for kind in PLANE_QUARTIC_GAP_SEQUENCES:
        out.append((f"quartic_{kind}", plane_quartic_model(kind), None, 40, True))
    for kind in GENUS3_CANONICAL_PATTERNS:
        out.append((f"pattern_{kind}", genus3_canonical_model(kind), None, 2,
                    False))  # patterns are declared only through k = 2
    from okbodies.series import p1xp1_model

    out.append(("p1xp1", p1xp1_model(False), None, 2, True))
    out.append(("p1xp1_ram", p1xp1_model(True), None, 2, True))
    resolved = []
    for name, model, v, k_max, super_add in out:
        if v is None:
            v = ValuationModel.divisorial("p", model.ambient)
        resolved.append((name, model, v, k_max, super_add))
    return resolved


def test_acceptance_06_sandwich_and_monotonicity():
    t0 = time.time()
    failures = []
    for name, model, v, k_max, super_add in bundled_models():
        levels = [k for k in range(1, k_max + 1) if model.has_level(k)]
        if name in ("p2", "simplex"):
            levels = [k for k in levels if k <= 25 or k % 5 == 0]
        j_prefix = {}
        for k in levels:
            j = jumping_numbers(model, v, k).values
            i = idealized_jumping(model, v, k).values
            d, D = len(j), len(i)
            if any(j[l] > i[l] for l in range(d)):
                failures.append((name, k, "entrywise j <= i"))
            if any(j[d - l] < i[D - l] for l in range(1, d + 1)):
                failures.append((name, k, "tail j >= i"))
            pj = [F(0)]
            for x in j:
                pj.append(pj[-1] + x)
            pi = [F(0)]
            for x in i:
                pi.append(pi[-1] + x)
            s_vals = [pj[m] / (k * m) for m in range(1, d + 1)]
            sb_vals = [pi[m] / (k * m) for m in range(1, D + 1)]
            if any(a < b for a, b in zip(s_vals, s_vals[1:])):
                failures.append((name, k, "S_km monotone in m"))
            if any(a < b for a, b in zip(sb_vals, sb_vals[1:])):
                failures.append((name, k, "Sbar_km monotone in m"))
            j_prefix[k] = (pj, d)
        if super_add:
            for k in levels:
                for kp in levels:
                    if k + kp not in j_prefix:
                        continue
                    pj_k, d_k = j_prefix[k]
                    pj_kp, _ = j_prefix[kp]
                    pj_s, d_s = j_prefix[k + kp]
                    if pj_k[1] + pj_kp[1] > pj_s[1]:
                        failures.append((name, (k, kp), "fekete"))
                    for m in {1, max(1, d_k // 2), d_k}:
                        if m > d_s or m > d_k:
                            continue
                        # (k+k') S_{k+k',m} >= k S_{k,m} + k' S_{k',1}, times m
                        if pj_k[m] + m * pj_kp[1] > pj_s[m]:
                            failures.append((name, (k, kp, m), "joint superadditivity"))
        # Brunn concavity of the slice-length profile (2-D ambient bodies)
        n = model.ambient.dim
        if n == 2:
            from okbodies.geometry import coordinate_projection, slice_volume

            p1 = coordinate_projection(2)
            xs = sorted({w[0] for w in model.ambient.vertices})
            grid = sorted(set(xs) | {(a + b) / 2 for a, b in zip(xs, xs[1:])})
            lengths = [slice_volume(model.ambient, p1, t) for t in grid]
            for a in range(1, len(grid) - 1):
                if grid[a] - grid[a - 1] == grid[a + 1] - grid[a]:
                    if 2 * lengths[a] < lengths[a - 1] + lengths[a + 1]:
                        failures.append((name, a, "slice-profile concavity"))
        # concavity of the ccdf root and the volume lower bound (2-D and 1-D)
        vo = S0_and_sigma(model, v)
        if vo.S0 > 0:
            grid = [vo.S0 * F(j, 12) for j in range(13)]
            f = [ccdf_continuous(model, v, t) for t in grid]
            for a in range(1, 12):
                lhs = 4 * f[a] if n == 2 else 2 * f[a]
                rhs = f[a - 1] + f[a + 1]
                if n == 1:
                    if lhs < rhs:
                        failures.append((name, a, "ccdf concavity"))
                else:
                    gap = lhs - rhs
                    if gap < 0 or gap * gap < 4 * f[a - 1] * f[a + 1]:
                        failures.append((name, a, "ccdf^(1/2) concavity"))
                if f[a] < (1 - grid[a] / vo.S0) ** n:
                    failures.append((name, a, "volume lower bound"))
    ok = not failures
    report(6, "sandwich, monotonicity, superadditivity, concavity: "
              f"{len(failures)} failures across bundled models (k <= 40)",
           ok, t0, 120.0, note=str(failures[:3]) if failures else "")


# ---------------------------------------------------------------------------
# 7. S_tau exactness and convergence (< 180 s)
# ---------------------------------------------------------------------------

def test_acceptance_07_S_tau_exact_and_convergence():
    t0 = time.time()
    seg = ToricModel(hull([(0,), (1,)]))
    vseg = ValuationModel.divisorial("p", seg.ambient)
    simp = ToricModel(hull([(0, 0), (1, 0), (0, 1)]))
    vsimp = ValuationModel.divisorial("e1", simp.ambient)
    ok = True
    notes = []
    for tau in (F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1)):
        ok &= S_tau(seg, vseg, tau) == 1 - tau / 2
    ok &= S_tau(simp, vsimp, F(1, 4)) == F(2, 3)
    for name, model, v, kmax in (("1d", seg, vseg, 100), ("2d", simp, vsimp, 40)):
        for tau in (F(1, 4), F(1, 2), F(1)):
            limit = S_tau(model, v, tau, tol=F(1, 10**18))
            samples = []
            for k in range(1, kmax + 1):
                d = model.d_k(k)
                m = min(d, max(1, math.ceil(tau * d)))
                samples.append((k, S_km(model, v, k, m)))
            env_c = max(abs(val - limit) * k for k, val in samples)
            ok &= env_c < 10  # fitted C finite (and small)
            good, why = in_rate_window(samples, limit)
            ok &= good
            notes.append(f"{name} tau={tau}: C={float(env_c):.2f}, {why}")
    report(7, "S_tau exact values and |S_km - S_tau| <= C/k with rate in window",
           ok, t0, 180.0, note="; ".join(notes))


# ---------------------------------------------------------------------------
# 8. delta rate (< 180 s)
# ---------------------------------------------------------------------------

def test_acceptance_08_delta_rate():
    t0 = time.time()
    p2 = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
    fam = [
        ValuationModel("D1", F(1), first_coordinate_transform(p2.ambient)),
        ValuationModel("D2", F(1),
                       ConcavePL.make([AffineFunctional.make((0, 1), 0)], p2.ambient)),
        ValuationModel("D3", F(1),
                       ConcavePL.make([AffineFunctional.make((-1, -1), 3)], p2.ambient)),
    ]
    deltas = [(k, delta_km_restricted(p2, fam, k, p2.d_k(k))[0]) for k in range(1, 41)]
    env_c = max(abs(v - 1) * k for k, v in deltas)
    ok = env_c < 10
    good, why1 = in_rate_window(deltas, F(1))
    ok &= good

    can = CanonicalCurveModel(3)
    vcan = ValuationModel.divisorial("p", can.ambient)
    alpha_limit = F(1) / S0_and_sigma(can, vcan).S0  # = 1/4
    alphas = [(k, delta_km_restricted(can, [vcan], k, 1)[0]) for k in range(2, 61)]
    ok &= max(abs(v - alpha_limit) * k for k, v in alphas) < 10
    exp, kind = fit_or_exact(alphas, alpha_limit)
    ok &= kind == "window" and -1.15 <= exp <= -0.9  # "approximately -1"
    report(8, "restricted delta_{k,dk} on anticanonical P^2 -> 1 and "
              "alpha_k on canonical g=3 -> 1/4 at rate ~ 1/k",
           ok, t0, 180.0,
           note=f"P2: C={float(env_c):.2f}, {why1}; alpha exp={exp:.3f}")


# ---------------------------------------------------------------------------
# 9. blow-up inequality chain (< 120 s)
# ---------------------------------------------------------------------------

def test_acceptance_09_maxp1_chain():
    t0 = time.time()
    can = CanonicalCurveModel(3)
    vcan = ValuationModel.divisorial("p", can.ambient)
    top = top_column_gap_model()
    vtop = ValuationModel.divisorial("e1", top.ambient)
    rep1 = verify_maxp1(can, range(1, 61), iota=0)
    rep2 = verify_maxp1(top, range(1, 61), iota=1)
    ok = rep1.passed and rep2.passed
    # single fitted C across both models: (gap*k)^n <= C^n * plus_count
    cn = max(rep1.fitted["C_pow_n"], rep2.fitted["C_pow_n"])
    for rep, n in ((rep1, 1), (rep2, 2)):
        for row in rep.rows:
            if row["gap"] > 0:
                ok &= (row["gap"] * row["k"]) ** n <= cn * row["plus_count"]
    # tau = 0 collapsing lower bound (Case-2 envelope) on the same models
    for model, v in ((can, vcan), (top, vtop)):
        rep = verify_S_two_sided_sweeps(model, v, [(0, make_m_rule("one"))], range(2, 61))[0]
        ok &= rep.passed
    report(9, "quantum-max blow-up bound with one fitted C across models and "
              "tau=0 collapsing envelope", ok, t0, 120.0,
           note=f"C^n = {float(cn):.3f}")


# ---------------------------------------------------------------------------
# 10. empirical-measure moments (< 60 s)
# ---------------------------------------------------------------------------

def test_acceptance_10_empirical_measure():
    t0 = time.time()
    simp = ToricModel(hull([(0, 0), (1, 0), (0, 1)]))
    v = ValuationModel.divisorial("e1", simp.ambient)
    tau = F(1, 4)
    target = (F(2, 3), F(1, 6))  # barycenter of the quarter-tail body
    devs = {}
    for k in (20, 40):
        m = math.ceil(tau * simp.d_k(k))
        mean = empirical_family_measure(simp, v, k, m).mean()
        devs[k] = sum((a - b) ** 2 for a, b in zip(mean, target))
    ok = devs[40] <= F(1, 400)  # euclidean distance <= 0.05
    ok &= devs[40] <= devs[20]
    report(10, "compatible-family first moments at tau=1/4 within 0.05 of the "
               "tail barycenter at k=40, improving from k=20",
           ok, t0, 60.0,
           note=f"dist(40)={float(devs[40]) ** 0.5:.4f}, "
                f"dist(20)={float(devs[20]) ** 0.5:.4f}")
