"""The four benchmark workloads.

Each workload is built from ``--seed`` alone (``__init__`` is the set-up the
benchmark times as ``setup_s``), runs one timed pass of ops through the
public API (``run``), and serializes every exact output as ``p/q`` strings
(``outputs``) so that it can be digested and compared.  ``check_op`` holds
the cheap per-op invariants run on every pass; ``full_check`` holds the costly
ones, run on the first pass of each benchmark run.

All library calls go through module attributes (``geo.hull``, ``th.S_tau``,
...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from fractions import Fraction
from time import perf_counter

import okbodies.cli as cli
import okbodies.estimates as est
import okbodies.geometry as geo
import okbodies.lattice as lat
import okbodies.series as ser
import okbodies.thresholds as th

# The reference orientation of the inputs; expected.json is recorded at it.
DEFAULT_SEED = 0


def q(x) -> str:
    """Exact p/q text of a rational, an int or a vector of them."""
    if isinstance(x, (tuple, list)):
        return ",".join(q(c) for c in x)
    if isinstance(x, Fraction):
        return geo.rat_str(x)
    return str(x)


class OpLog:
    """Start and end time, and output (or error), of each op of a timed pass."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.results: list = []
        self.errors: list = []

    def op(self, fn, *args):
        t0 = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failed op is counted, the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.spans.append((t0, perf_counter()))
        self.results.append(result)
        self.errors.append(error)


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class CubeSymmetry:
    """y = T(x) with y_i = x_p(i), or 1 - x_p(i) where reflected: a symmetry
    of the unit cube [0, 1]^n that maps Z^n/k onto itself and preserves
    volumes and Euclidean distances.  ``back`` undoes it, so that outputs can
    be compared in the reference frame.  Seed DEFAULT_SEED gives the
    identity."""

    def __init__(self, rng: random.Random, n: int, seed: int, permute: bool):
        identity = seed == DEFAULT_SEED
        self.perm = list(range(n)) if identity or not permute else rng.sample(range(n), n)
        self.flip = [0] * n if identity else [rng.randrange(2) for _ in range(n)]

    def point(self, x):
        return tuple(1 - x[p] if f else x[p] for p, f in zip(self.perm, self.flip))

    def back(self, y):
        x = [None] * len(y)
        for yi, p, f in zip(y, self.perm, self.flip):
            x[p] = 1 - yi if f else yi
        return tuple(x)

    def linear(self, a, b):
        """(a', b') with a . x + b = a' . T(x) + b'."""
        a2 = [-a[p] if f else a[p] for p, f in zip(self.perm, self.flip)]
        return a2, b + sum(a[p] for p, f in zip(self.perm, self.flip) if f)

    def halfspace(self, h):
        a, b = self.linear(h.normal, -h.offset)
        return geo.HalfSpace.make(a, -b)

    def halfspace_back(self, h):
        a = [None] * len(h.normal)
        for ai, p, f in zip(h.normal, self.perm, self.flip):
            a[p] = -ai if f else ai
        return geo.HalfSpace.make(a, h.offset + sum(a[p] for p, f in zip(self.perm, self.flip) if f))

    def body_text(self, body) -> str:
        """Vertices and halfspaces of a body, mapped back and sorted."""
        verts = ";".join(q(v) for v in sorted(self.back(v) for v in body.vertices))
        hs = ";".join(f"{q(h.normal)}<={q(h.offset)}"
                      for h in sorted(self.halfspace_back(h) for h in body.halfspaces))
        return f"{verts}#{hs}"


# ---------------------------------------------------------------------------
# lattice-lowerbound
# ---------------------------------------------------------------------------

class LatticeLowerbound:
    """Criterion-04 shape: count(P, k) >= (1 - C/k)|P|k^n for every k in (C, 60].

    The bodies are the first criterion-04 sub-bodies of the unit square and
    cube (sampler seeds 1000 + i, 2-D and 3-D alternating).  The workload seed
    reflects each body in a seeded set of axes (x_i -> 1 - x_i).  Reflections
    preserve Z^n/k, volumes and inscribed balls, so C, |P| and every count are
    the same for every seed and are checked against the recorded digests on
    all of them; the slab scan meets the bodies in another orientation but
    with the same slab widths, so the work per op does not depend on the
    seed.  (Permuting axes would change the slab widths, and with them the
    work per op.)

    The counts run in one fixed shuffled order, the same for every seed.  No
    two counts share work, so the order changes no op; but run body by body,
    the sub-millisecond 2-D counts would be bunched into three stretches of
    a few milliseconds each, and the host's speed jitters by about 10 % from
    one millisecond to the next.  Spread over the pass, they sample that
    jitter independently and their median latency holds still.
    """

    name = "lattice-lowerbound"
    N_BODIES = 6
    K_MAX = 60

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        unit = {n: geo.hull([tuple(c) for c in _cube_corners(n)]) for n in (2, 3)}
        self.bodies = []
        for i in range(self.N_BODIES):
            n = 2 if i % 2 == 0 else 3
            body = est.sub_body_sampler(unit[n], Fraction(1, 20), seed=1000 + i,
                                        points=5 + n)(1)[0]
            sym = CubeSymmetry(rng, n, seed, permute=False)
            self.bodies.append(geo.hull([sym.point(v) for v in body.vertices]))

    def run(self, log: OpLog, workdir: str) -> None:
        self.meta = []  # (body index, k, C, |P|, n) per op
        for i, body in enumerate(self.bodies):
            c = lat.analytic_count_constant(body)
            vol = geo.volume(body)
            self.meta += [(i, k, c, vol, body.dim) for k in range(math.floor(c) + 1, self.K_MAX + 1)]
        random.Random(self.name).shuffle(self.meta)
        for i, k, *_ in self.meta:
            log.op(lat.count, self.bodies[i], k)

    def outputs(self, log: OpLog) -> list[str]:
        return [f"{i}|{k}|{q(c)}|{q(vol)}|{cnt}"
                for (i, k, c, vol, _), cnt in zip(self.meta, log.results)]

    def check_op(self, idx: int, result) -> str | None:
        _, k, c, vol, n = self.meta[idx]
        bound = (1 - c / k) * vol * Fraction(k) ** n
        return None if result >= bound else f"count {result} < bound {bound}"

    def full_check(self, log: OpLog, workdir: str) -> dict[int, str]:
        return {}


def _cube_corners(n: int):
    return [[(m >> i) & 1 for i in range(n)] for m in range(2 ** n)]


# ---------------------------------------------------------------------------
# threshold-sweep
# ---------------------------------------------------------------------------

P2_TRIANGLE = ((0, 0), (3, 0), (0, 3))
# D1 = x, D2 = y, D3 = 3 - x - y: the toric boundary of anticanonical P^2.
P2_FAMILY = (("D1", (1, 0), 0), ("D2", (0, 1), 0), ("D3", (-1, -1), 3))


class ThresholdSweep:
    """``okbodies thresholds`` on anticanonical P^2 with the D1/D2/D3 family,
    tau = 1/2, m_rule = ceil_tau, k = 1..K_MAX: the same calls in the same
    order as ``cli.cmd_thresholds``.  One op is one level k (all its rows).

    The workload seed moves the triangle and the family by y = A x with A a
    permutation matrix (the identity or the swap of the axes).  Such a map
    is a bijection of Z^2/k that preserves volume, and each G is composed
    with its inverse, so every jumping number, S value, quantile and delta
    -- hence every CSV row -- is the same for every seed and is checked
    against the recorded digests.  (Sign flips, shears and integral
    translations preserve Z^2/k too, but in trials a triangle moved out of
    the positive quadrant made a pass 3-12 % slower, and denser gradients and
    larger coordinates made the Fraction scoring up to 20 % slower, which
    spreads the run time across seeds.)
    """

    name = "threshold-sweep"
    K_MAX = 14
    TAU = "1/2"
    M_RULE = "ceil_tau"
    TOL = "1/1000000000"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        a = ((1, 0), (0, 1))
        if seed != DEFAULT_SEED:
            a = rng.choice((((1, 0), (0, 1)), ((0, 1), (1, 0))))

        def move(v):  # y = A v; A is orthogonal, so G(A^-1 y) = (A g) . y + c
            return [sum(a[i][j] * v[j] for j in range(2)) for i in range(2)]

        self.model_json = {"backend": "toric", "polytope": {
            "dim": 2, "vertices": [[str(c) for c in move(v)] for v in P2_TRIANGLE]}}
        self.family_json = [
            {"label": label, "A": "1", "G": {"pieces": [
                {"grad": [str(c) for c in move(grad)], "const": str(const)}]}}
            for label, grad, const in P2_FAMILY
        ]
        # the CLI's own input path
        self.model = ser.model_from_json(self.model_json)
        self.family = [th.valuation_from_json(v, self.model.ambient) for v in self.family_json]
        self.tau = geo.rat(self.TAU)
        self.tol = geo.rat(self.TOL)
        self.m_rule = est.make_m_rule(self.M_RULE, tau=self.tau)

    def run(self, log: OpLog, workdir: str) -> None:
        model, family = self.model, self.family
        self.s_tau = {v.label: th.S_tau(model, v, self.tau, self.tol) for v in family}
        self.levels = []
        for k in range(1, self.K_MAX + 1):
            self.levels.append(k)
            log.op(self._level, k)

    def _level(self, k: int) -> list[list[str]]:
        model, family = self.model, self.family
        if not model.has_level(k):
            return []
        m = self.m_rule(model.d_k(k), k)
        delta, argmin = th.delta_km_restricted(model, family, k, m)
        delta_str = "inf" if delta == float("inf") else geo.rat_str(delta)
        rows = []
        for v in sorted(family, key=lambda v: v.label):
            jv = th.jumping_numbers(model, v, k)
            rows.append([
                str(k), str(m), v.label, "|".join(geo.rat_str(x) for x in jv.values[:3]),
                geo.rat_str(th.S_km(model, v, k, m)),
                geo.rat_str(th.Sbar_km(model, v, k, min(m, model.D_k(k)))),
                geo.rat_str(th.quantum_quantile(model, v, k, self.tau)),
                geo.rat_str(self.s_tau[v.label]),
                delta_str, argmin or "",
            ])
        return rows

    @staticmethod
    def csv_text(rows: list[list[str]]) -> str:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        return buf.getvalue()

    def outputs(self, log: OpLog) -> list[str]:
        return [self.csv_text(rows) for rows in log.results]

    def check_op(self, idx: int, result) -> str | None:
        if len(result) != len(self.family):
            return f"{len(result)} rows for {len(self.family)} valuations"
        return None

    def full_check(self, log: OpLog, workdir: str) -> dict[int, str]:
        """The j <= i sandwich per level, and byte equality with the CLI CSV."""
        bad: dict[int, str] = {}
        for idx, k in enumerate(self.levels):
            for v in self.family:
                jv = th.jumping_numbers(self.model, v, k).values
                iv = th.idealized_jumping(self.model, v, k).values
                if len(jv) > len(iv) or any(j > i for j, i in zip(jv, iv)):
                    bad[idx] = f"j <= i sandwich fails for {v.label} at k={k}"
        paths = {name: os.path.join(workdir, name)
                 for name in ("model.json", "family.json", "thresholds.csv")}
        with open(paths["model.json"], "w") as fh:
            json.dump(self.model_json, fh)
        with open(paths["family.json"], "w") as fh:
            json.dump(self.family_json, fh)
        argv = ["thresholds", "--in", paths["model.json"], "--valuations", paths["family.json"],
                "--tau", self.TAU, "--m-rule", self.M_RULE, "--k-max", str(self.K_MAX),
                "--tol", self.TOL, "--out", paths["thresholds.csv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            return {idx: f"okbodies thresholds exited {rc}" for idx in range(len(self.levels))}
        with open(paths["thresholds.csv"], newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        by_level: dict[str, str] = {}
        for line in lines[1:]:
            key = line.split(",", 1)[0]
            by_level[key] = by_level.get(key, "") + line
        for idx, (k, rows) in enumerate(zip(self.levels, log.results)):
            if rows is not None and by_level.get(str(k), "") != self.csv_text(rows):
                bad[idx] = f"rows of level {k} differ from the okbodies thresholds CSV"
        return bad


# ---------------------------------------------------------------------------
# geometry-bodies
# ---------------------------------------------------------------------------

class GeometryBodies:
    """Rational point clouds in the unit cube (3-D N=20, 4-D N=16).  One op
    per cloud: hull, volume, barycenter, Chebyshev ball and a chain of
    three halfspace cuts through the cloud's mean; in 3-D also the volume of
    the cut body and quantile/S_tau of a 3-piece concave G on a simplex of
    cloud points.  One more op takes the Minkowski sum of a small 3-D body
    with a cube.  No lattice work runs.

    Three of the five ops are light (3-D N=20) and two heavy (the 4-D cloud
    and the Minkowski sum, a 32-point 3-D hull), so the median op is the
    slowest light cloud rather than whichever of two unlike ops happens to
    be faster.

    The clouds, cuts and G are drawn once, in a reference frame.  The
    workload seed moves each cloud (and its cuts, simplex and G) by a seeded
    symmetry of the cube: an axis permutation with reflections.  Outputs are
    mapped back to the reference frame before they are digested, so they are
    checked against the recorded digests on every seed, while the hull, the
    clipping and the triangulations meet the points in another order.  (The
    Chebyshev center is not unique, so only the radius is digested; the ball
    is certified on every seed.)  Fresh random clouds per seed spread the
    median op latency across seeds by up to 30 % in trials.

    G lives on a simplex rather than on the hull, and only in 3-D: the ccdf
    set-up in ``thresholds`` tries every (n+1)-subset of facet and piece
    hyperplanes and takes n+1 superlevel volumes per interval, which costs
    10-20 s on a 20-facet 3-D hull and 1-6 s on a 4-D simplex, and would
    drown the hull and clipping work this workload is for.  A 4-D cut body
    has 40-70 vertices, and its volume re-hulls every facet (3-4 s), so it
    is not taken.
    """

    name = "geometry-bodies"
    CLOUDS = ((3, 20), (3, 20), (3, 20), (4, 16))
    MINKOWSKI = 1
    DENOM = 32
    EPS = Fraction(1, 16)
    TAU = Fraction(1, 2)

    def __init__(self, seed: int):
        ref = _rng(self.name, "reference")
        rng = _rng(self.name, seed)
        self.clouds = []
        for n, size in self.CLOUDS:
            sym = CubeSymmetry(rng, n, seed, permute=True)
            pts = _full_dim_points(ref, n, size, self.DENOM)
            mean = tuple(sum(p[i] for p in pts) / size for i in range(n))
            cuts = []
            for _ in range(3):
                w = [0] * n
                while not any(w):
                    w = [ref.randrange(-2, 3) for _ in range(n)]
                offset = sum(wi * mi for wi, mi in zip(w, mean)) + Fraction(1, 16)
                cuts.append(sym.halfspace(geo.HalfSpace.make(w, offset)))
            cloud = {"points": [sym.point(p) for p in pts], "cuts": cuts, "sym": sym,
                     "model": None}
            if n == 3:
                simplex = geo.hull([sym.point(p) for p in _independent_subset(pts, n)])
                pieces = [tuple(ref.randrange(-2, 3) for _ in range(n)) for _ in range(3)]
                lift = -min(sum(g * x for g, x in zip(grad, sym.back(v)))
                            for grad in pieces for v in simplex.vertices) + Fraction(1, 4)
                G = geo.ConcavePL.make(
                    [geo.AffineFunctional.make(*sym.linear(g, lift)) for g in pieces], simplex)
                cloud["model"] = ser.ToricModel(simplex)
                cloud["valuation"] = th.ValuationModel("G", Fraction(1), G)
            self.clouds.append(cloud)
        self.small = []
        for _ in range(self.MINKOWSKI):
            sym = CubeSymmetry(rng, 3, seed, permute=True)
            pts = _independent_subset(_full_dim_points(ref, 3, 4, 8), 3)
            self.small.append((geo.hull([sym.point(p) for p in pts]), sym))

    def run(self, log: OpLog, workdir: str) -> None:
        for cloud in self.clouds:
            log.op(self._cloud, cloud)
        for body, _ in self.small:
            log.op(self._minkowski, body)

    def _cloud(self, cloud) -> dict:
        body = geo.hull(cloud["points"])
        out = {"hull": body, "volume": geo.volume(body), "barycenter": geo.barycenter(body),
               "ball": geo.chebyshev_ball(body)}
        cut = body
        for h in cloud["cuts"]:
            cut = geo.intersect_halfspace(cut, h)
        out["cut"] = cut
        if cloud["model"] is not None:
            out["cut_volume"] = geo.volume(cut)
            out["quantile"] = th.quantile(cloud["model"], cloud["valuation"], self.TAU)
            out["S_tau"] = th.S_tau(cloud["model"], cloud["valuation"], self.TAU)
        return out

    def _minkowski(self, body) -> dict:
        summed = geo.minkowski_cube(body, self.EPS)
        return {"body": body, "sum": summed, "volume": geo.volume(summed)}

    def outputs(self, log: OpLog) -> list[str]:
        syms = [c["sym"] for c in self.clouds] + [sym for _, sym in self.small]
        out = []
        for res, sym in zip(log.results, syms):
            if res is None:
                out.append("error")
            elif "sum" in res:
                out.append(f"{sym.body_text(res['sum'])}|{q(res['volume'])}")
            else:
                fields = [
                    sym.body_text(res["hull"]), q(res["volume"]), q(sym.back(res["barycenter"])),
                    q(res["ball"][1]), sym.body_text(res["cut"]),
                ]
                if "quantile" in res:
                    spec = res["quantile"]
                    fields += [q(res["cut_volume"]), q(spec.quantile), q(spec.atom_at_top),
                               str(spec.exact), q(res["S_tau"])]
                out.append("|".join(fields))
        return out

    def check_op(self, idx: int, res) -> str | None:
        if "sum" in res:
            corners = _cube_corners(3)
            allowed = {tuple(v[i] + (2 * c[i] - 1) * self.EPS for i in range(3))
                       for v in res["body"].vertices for c in corners}
            if not set(res["sum"].vertices) <= allowed:
                return "Minkowski vertex is not a vertex + cube corner"
            if res["volume"] <= geo.volume(res["body"]):
                return "Minkowski sum does not grow the volume"
            return None
        body, (center, radius) = res["hull"], res["ball"]
        if not set(body.vertices) <= set(self.clouds[idx]["points"]):
            return "hull vertex is not an input point"
        if not body.contains(res["barycenter"]):
            return "barycenter outside the hull"
        for h in body.halfspaces:
            slack = h.offset - h.value(center)
            if slack < 0 or slack * slack < radius * radius * sum(c * c for c in h.normal):
                return "Chebyshev ball leaves the hull"
        cut = res["cut"]
        if not all(h.contains(v) for h in cut.halfspaces for v in cut.vertices):
            return "a cut-body vertex violates a cut-body halfspace"
        if "quantile" in res:
            if not 0 < res["cut_volume"] <= res["volume"]:
                return "cut chain grew the body or emptied it"
            spec, s_tau = res["quantile"], res["S_tau"]
            g = self.clouds[idx]["valuation"].G
            s0 = geo.max_transform(g.domain, g)
            if not 0 <= spec.quantile <= s0 or not spec.quantile - th.DEFAULT_TOL <= s_tau <= s0:
                return "quantile or S_tau outside [0, S0]"
        return None

    def full_check(self, log: OpLog, workdir: str) -> dict[int, str]:
        """``validate_body`` on each hull.  It re-hulls the vertices twice, which
        the cut bodies (up to ~70 vertices in 4-D) cannot afford; check_op
        covers those."""
        bad = {}
        for idx, res in enumerate(log.results[:len(self.clouds)]):
            if res is not None:
                try:
                    geo.validate_body(res["hull"])
                except geo.GeometryError as exc:
                    bad[idx] = f"validate_body: {exc}"
        return bad


def _full_dim_points(rng: random.Random, n: int, size: int, denom: int):
    while True:
        pts = [tuple(Fraction(rng.randrange(denom + 1), denom) for _ in range(n))
               for _ in range(size)]
        if len(set(pts)) == size and len(_independent_subset(pts, n)) == n + 1:
            return pts


def _independent_subset(pts, n: int):
    """The first n + 1 affinely independent points (greedy), or fewer."""
    chosen, basis = [pts[0]], []
    for p in pts[1:]:
        vec = [p[i] - pts[0][i] for i in range(n)]
        for b, piv in basis:  # reduce against the echelon basis
            if vec[piv]:
                f = vec[piv] / b[piv]
                vec = [x - f * y for x, y in zip(vec, b)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is not None:
            basis.append((vec, piv))
            chosen.append(p)
            if len(chosen) == n + 1:
                break
    return chosen


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    """``okbodies verify <suite> --k-max K_MAX --out <dir>`` for each of the
    nine suites, in the order ``verify all`` runs them.  One op is one suite.

    The suites' inputs are bundled in the CLI, and this is the command the
    ROADMAP defines as end to end, so it runs with the CLI's default sampler
    seed: the workload seed does not change it.  Passing the workload seed
    on as ``--seed`` would resample the ehrhart, lowerbound and concave
    suites and change how much work they do.
    """

    name = "verify-all"
    K_MAX = 12

    def __init__(self, seed: int):
        self.suites = [s for s in cli.SUITES if s != "all"]

    def run(self, log: OpLog, workdir: str) -> None:
        self.workdir = workdir
        for suite in self.suites:
            log.op(self._suite, suite)

    def _suite(self, suite: str) -> dict:
        out_dir = os.path.join(self.workdir, suite)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["verify", suite, "--k-max", str(self.K_MAX), "--out", out_dir])
        return {"rc": rc, "stdout": stdout.getvalue(), "dir": out_dir}

    def outputs(self, log: OpLog) -> list[str]:
        out = []
        for res in log.results:
            if res is None:
                out.append("error")
                continue
            parts = [f"rc={res['rc']}", res["stdout"]]
            for name in sorted(os.listdir(res["dir"])):
                with open(os.path.join(res["dir"], name)) as fh:
                    parts.append(f"{name}\n{fh.read()}")
            out.append("\n".join(parts))
        return out

    def check_op(self, idx: int, res) -> str | None:
        if res["rc"] != 0:
            return f"verify {self.suites[idx]} exited {res['rc']}"
        with open(os.path.join(res["dir"], "summary.json")) as fh:
            if json.load(fh).get("passed") is not True:
                return f"verify {self.suites[idx]} did not pass"
        return None

    def full_check(self, log: OpLog, workdir: str) -> dict[int, str]:
        return {}


WORKLOADS = {w.name: w for w in (LatticeLowerbound, ThresholdSweep, GeometryBodies, VerifyAll)}
