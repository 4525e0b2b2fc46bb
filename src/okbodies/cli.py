"""Command-line front end.

Subcommands: ``body`` (polytope report), ``series`` (discrete bodies and gap
tables), ``thresholds`` (per-level invariant sweeps), ``verify`` (the bundled
verification suites). Rationals are p/q strings end to end; floats appear only
in rate-fit fields and are marked approximate.

Exit codes: 0 success, 1 domain error, 2 input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .geometry import (
    AffineFunctional,
    ConcavePL,
    GeometryError,
    barycenter,
    body_from_json,
    chebyshev_ball,
    first_coordinate_transform,
    hull,
    rat,
    rat_str,
    read_int,
    volume,
)
from .lattice import count, first_axis_bound, prefix_bound, slab_bound
from .series import (
    CanonicalCurveModel,
    LevelError,
    ModelError,
    ToricModel,
    model_from_json,
    top_column_gap_model,
)
from .thresholds import (
    DEFAULT_TOL,
    INFINITE,
    S_km,
    S_tau,
    Sbar_km,
    ValuationModel,
    _point_free_frame,
    delta_km_restricted,
    jumping_head,
    quantum_quantile,
    valuation_from_json,
)
from . import estimates

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3

# Most 2-D slabs ``body --k`` may count (``lattice.slab_bound``).  A slab of
# a 4-D unit cube takes about 10 us on a 2-vCPU host, so the largest count
# allowed there takes about 10 s (k = 10^4 would take about 17 min).
MAX_COUNT_SLABS = 10**6

# Most ambient points ``series`` may enumerate and print, or ``thresholds``
# may score, summed over their levels.  The 3-D unit cube allows ``series
# --k-max 43`` (980,099 points; --k-max 40 lists about 0.74 M points in about
# 3 s on a 2-vCPU host), and P^2 allows ``thresholds --k-max 86`` for a
# multi-piece G (987,710).  It also bounds the integer prefixes the
# enumeration walks to list them (``lattice.prefix_bound``), which a thin or
# flat ambient can make far more than its points, and the columns or slabs
# read for a one-piece G (``_check_series_size``).
MAX_ENUM_POINTS = 10**6

SUITES = ("ehrhart", "lowerbound", "concave", "cones", "maxp1",
          "stwosided", "deltarate", "endpoints", "weierstrass", "all")


class InputError(Exception):
    pass


def _int_at_least(lo: int):
    """argparse type: an integer >= lo, so bad bounds exit 2 at parse time."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {lo}")
        return value
    return integer


def _rational(text: str) -> Fraction:
    """argparse type: a rational p/q."""
    try:
        return rat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational p/q") from None


def _unit_rational(text: str) -> Fraction:
    """argparse type: a rational p/q in [0, 1]."""
    value = _rational(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return value


def _positive_rational(text: str) -> Fraction:
    """argparse type: a rational p/q > 0."""
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _json_int(text: str) -> int:
    """json ``parse_int``: an integer of more digits than an input may have is
    bad input, not malformed JSON."""
    try:
        return read_int(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_body(path: str):
    data = _load_json(path)
    try:
        return body_from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _load_model(path: str):
    data = _load_json(path)
    try:
        return model_from_json(data)
    except ModelError:
        raise  # domain-level rejection (e.g. non-semigroup gaps): exit 1
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _load_family(path: str, ambient):
    data = _load_json(path)
    if isinstance(data, dict):
        data = [data]
    if not data:
        raise InputError("valuation family is empty")
    try:
        family = [valuation_from_json(v, ambient) for v in data]
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    seen = set()
    for v in family:  # results are keyed by label: a repeat would overwrite a row
        if v.label in seen:
            raise InputError(f"duplicate valuation label {v.label!r}")
        seen.add(v.label)
    return family


def _dump_json(data, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# body
# ---------------------------------------------------------------------------

def cmd_body(args) -> int:
    body = _load_body(args.infile)
    if args.k is not None and (slabs := slab_bound(body, args.k)) > MAX_COUNT_SLABS:
        raise InputError(f"--k {args.k} needs {slabs} slab counts, "
                         f"above the limit of {MAX_COUNT_SLABS}")
    out = {
        "dim": body.dim,
        "vertices": len(body.vertices),
        "volume": rat_str(volume(body)),
    }
    # a flat body has no barycenter or inscribed ball: with --k it reports
    # its volume 0 and its count, and without it is a domain error
    if args.k is None or body.is_full_dim():
        center, radius = chebyshev_ball(body)
        out["barycenter"] = [rat_str(c) for c in barycenter(body)]
        out["chebyshev_center"] = [rat_str(c) for c in center]
        out["chebyshev_radius_lb"] = rat_str(radius)
    if args.k is not None:
        out["k"] = args.k
        out["count"] = count(body, args.k)
    _dump_json(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _check_series_size(model, ks: range, what: str, family=None) -> None:
    """Raise InputError, before any point is enumerated, when the levels in ks
    (``what`` names them: the flag or spec they come from) hold more than
    MAX_ENUM_POINTS ambient points in all, or when listing them would walk
    more than MAX_ENUM_POINTS integer prefixes (``lattice.prefix_bound``),
    or when counting them would sum more than MAX_COUNT_SLABS 2-D slabs.
    Each level's slab bound is at least 1, so the slab pass ends within
    MAX_COUNT_SLABS + 1 levels, even on a body too thin to hold a slab at
    most levels.

    With the family of ``thresholds``, the columns or slabs of each frame
    (``thresholds._point_free_frame``) count against MAX_ENUM_POINTS, and a
    level's points and prefixes only if some valuation has no frame.

    Both passes walk ``model.levels_in(ks)``, so a model with few levels in
    a long range is not stepped through every k of it.  The slab pass stops
    as soon as no later level can pass the slab limit, so a long range whose
    levels are one slab each is not summed to its end; the point pass then
    stops at the level that passes the point limit.
    """
    body = model.ambient
    levels = model.levels_in(ks)
    # slab_bound is non-decreasing in k, so no level in ks has more slabs
    cap = slab_bound(body, levels[-1]) if levels else 0
    slabs = 0
    for i, k in enumerate(levels):
        slabs += slab_bound(body, k)
        if slabs > MAX_COUNT_SLABS:
            raise InputError(f"{what} needs more than {MAX_COUNT_SLABS} "
                             f"slab counts to size")
        if slabs + (len(levels) - 1 - i) * cap <= MAX_COUNT_SLABS:
            break  # no later level can pass the slab limit
    columns = points = prefixes = 0
    for k in levels:
        size = count(body, k)
        frames = [_point_free_frame(body, v.G, k, size) for v in family or ()] or [None]
        columns += sum(first_axis_bound(f, k) for f in frames if f is not None)
        if columns > MAX_ENUM_POINTS:
            raise InputError(f"{what} reads more than {MAX_ENUM_POINTS} columns or slabs "
                             f"(the limit is passed at level {k})")
        if None not in frames:
            continue
        points += size
        prefixes += prefix_bound(body, k)
        if points > MAX_ENUM_POINTS:
            raise InputError(f"{what} lists more than {MAX_ENUM_POINTS} points "
                             f"(the limit is passed at level {k})")
        if prefixes > MAX_ENUM_POINTS:
            raise InputError(f"{what} walks more than {MAX_ENUM_POINTS} lattice prefixes "
                             f"to list its points (the limit is passed at level {k})")


def cmd_series(args) -> int:
    model = _load_model(args.infile)
    k_max = args.k_max
    _check_series_size(model, range(1, k_max + 1), f"--k-max {k_max}")
    header = ["k", "d_k", "D_k", "diff", "delta_k_points", "gap_points"]
    rows = []
    for row in model.gap_table(k_max):
        body = model.discrete_body(row.k)
        gaps = model.gap_set(row.k)
        rows.append([
            str(row.k), str(row.d_k), str(row.D_k), str(row.diff),
            ";".join(",".join(str(c) for c in z) for z in body.points),
            ";".join(",".join(str(c) for c in z) for z in gaps.points),
        ])
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def cmd_thresholds(args) -> int:
    model = _load_model(args.infile)
    family = _load_family(args.valuations, model.ambient)
    try:
        if args.sweep:
            tau, m_rule, k_iter = estimates.sweep_from_json(_load_json(args.sweep))
        else:
            if args.k_min > args.k_max:
                raise InputError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
            tau = args.tau
            m_rule = estimates.make_m_rule(args.m_rule, tau=tau)
            k_iter = range(args.k_min, args.k_max + 1)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    _check_series_size(model, k_iter, f"the sweep k_range [{k_iter.start}, {k_iter.stop - 1}]"
                       if args.sweep else f"--k-max {args.k_max}",
                       family)
    header = ["k", "m_k", "label", "j_head", "S_km", "Sbar_km",
              "quantum_quantile", "S_tau", "delta_km", "delta_argmin"]
    rows = []
    s_tau_by_label = {v.label: S_tau(model, v, tau, args.tol) for v in family}
    for k in model.levels_in(k_iter):
        d, D = model.d_k(k), model.D_k(k)
        if not d:  # no m to choose, and every query of the level would raise
            raise LevelError(f"Delta_{k} is empty")
        m = m_rule(d, k)
        delta, argmin = delta_km_restricted(model, family, k, m)
        delta_str = "inf" if delta == INFINITE else rat_str(delta)
        for v in sorted(family, key=lambda v: v.label):
            head = "|".join(rat_str(x) for x in jumping_head(model, v, k))
            rows.append([
                str(k), str(m), v.label, head,
                rat_str(S_km(model, v, k, m)),
                rat_str(Sbar_km(model, v, k, min(m, D))),
                rat_str(quantum_quantile(model, v, k, tau)),
                rat_str(s_tau_by_label[v.label]),
                delta_str, argmin or "",
            ])
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_reports(suite: str, k_max: int, seed: int):
    square = estimates.UNIT_SQUARE
    simplex = hull([(0, 0), (1, 0), (0, 1)])
    segment = ToricModel(hull([(0,), (1,)]))
    v_seg = ValuationModel.divisorial("p", segment.ambient)
    simplex_model = ToricModel(simplex)
    v_simp = ValuationModel.divisorial("e1", simplex)
    canonical = CanonicalCurveModel(3)
    v_can = ValuationModel.divisorial("p", canonical.ambient)

    if suite == "ehrhart":
        yield estimates.verify_uniform_ehrhart(range(1, min(k_max, 40) + 1), seed)
    elif suite == "lowerbound":
        yield estimates.verify_lower_bound_constant(square, range(1, k_max + 1))
        yield estimates.verify_lower_bound_constant(simplex, range(1, k_max + 1))
        for i, body in enumerate(estimates.suite_sampler(seed)(10)):
            rep = estimates.verify_lower_bound_constant(body, range(1, k_max + 1))
            rep.name = f"lower_bound_constant[seeded {i}]"
            yield rep
    elif suite == "concave":
        yield estimates.verify_concave_sum_bound(range(1, min(k_max, 30) + 1), seed)
    elif suite == "cones":
        yield estimates.verify_cone_counts(
            simplex, 0, 1, (1, 0), range(2, min(k_max, 40) + 1))
        yield estimates.verify_cone_counts(
            square, Fraction(1, 4), Fraction(3, 4), (Fraction(3, 4), 0),
            range(2, min(k_max, 40) + 1))
    elif suite == "maxp1":
        yield estimates.verify_maxp1(canonical, range(1, k_max + 1), iota=0)
        yield estimates.verify_maxp1(top_column_gap_model(), range(1, k_max + 1), iota=1)
    elif suite == "stwosided":
        sweeps = [(tau, estimates.make_m_rule("ceil_tau", tau))
                  for tau in (Fraction(1, 4), Fraction(1, 2), Fraction(1))]
        on_segment = estimates.verify_S_two_sided_sweeps(
            segment, v_seg, sweeps, range(1, k_max + 1))
        on_simplex = estimates.verify_S_two_sided_sweeps(
            simplex_model, v_simp, sweeps, range(1, min(k_max, 40) + 1))
        for pair in zip(on_segment, on_simplex):
            yield from pair
    elif suite == "deltarate":
        p2 = ToricModel(hull([(0, 0), (3, 0), (0, 3)]))
        fam = _coordinate_family(p2)
        yield estimates.verify_delta_rate(
            p2, fam, 1, estimates.make_m_rule("dk"), range(1, min(k_max, 40) + 1))
        yield estimates.verify_delta_rate(
            canonical, [v_can], 0, estimates.make_m_rule("one"), range(2, k_max + 1))
    elif suite == "endpoints":
        yield estimates.verify_endpoint_limits(segment, v_seg, range(2, k_max + 1))
        yield estimates.verify_endpoint_limits(
            simplex_model, v_simp, range(2, min(k_max, 40) + 1))
    elif suite == "weierstrass":
        yield estimates.verify_weierstrass(k_max=max(k_max, 10))
    elif suite == "all":
        for name in SUITES[:-1]:
            yield from _suite_reports(name, k_max, seed)
    else:
        raise InputError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")


def _coordinate_family(model):
    amb = model.ambient
    s = max(v[0] for v in amb.vertices)
    return [
        ValuationModel("D1", Fraction(1), first_coordinate_transform(amb)),
        ValuationModel("D2", Fraction(1),
                       ConcavePL.make([AffineFunctional.make((0, 1), 0)], amb)),
        ValuationModel("D3", Fraction(1),
                       ConcavePL.make([AffineFunctional.make((-1, -1), s)], amb)),
    ]


def cmd_verify(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    index = []
    for i, report in enumerate(_suite_reports(args.suite, args.k_max, args.seed)):
        tag = f"{i:02d}_{report.name.replace(' ', '_').replace('[', '_').replace(']', '')}"
        index.append({"report": tag, "passed": report.passed})
        if out_dir:
            _dump_json(report.to_json(), str(out_dir / f"{tag}.json"))
            header, rows = report.csv_rows()
            if header:
                _write_csv(str(out_dir / f"{tag}.csv"), header, rows)
        if not report.passed:
            failures.append(report)
    summary = {
        "suite": args.suite,
        "k_max": args.k_max,
        "seed": args.seed,
        "reports": index,
        "passed": not failures,
    }
    if out_dir:
        _dump_json(summary, str(out_dir / "summary.json"))
    _dump_json(summary, None)
    if failures:
        for rep in failures:
            for a in rep.assertions:
                if not a.passed:
                    print(f"FAILED [{rep.name}] {a.name}: "
                          f"{json.dumps(estimates._jsonify(a.witness))}",
                          file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okbodies",
        description="Exact computations on discrete Okounkov bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_body = sub.add_parser("body", help="volume/barycenter/inscribed-ball report")
    p_body.add_argument("--in", dest="infile", required=True, help="polytope JSON")
    p_body.add_argument("--k", type=_int_at_least(1), default=None, help="also count Z^n/k points")
    p_body.add_argument("--out", default=None, help="write JSON here (default stdout)")
    p_body.set_defaults(func=cmd_body)

    p_series = sub.add_parser("series", help="discrete bodies, gap sets, gap table")
    p_series.add_argument("--in", dest="infile", required=True, help="model JSON")
    p_series.add_argument("--k-max", dest="k_max", type=_int_at_least(1), default=10)
    p_series.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_series.set_defaults(func=cmd_series)

    p_thr = sub.add_parser("thresholds", help="per-level threshold sweep")
    p_thr.add_argument("--in", dest="infile", required=True, help="model JSON")
    p_thr.add_argument("--valuations", required=True, help="valuation family JSON")
    p_thr.add_argument("--tau", type=_unit_rational, default="1",
                       help="volume quantile p/q in [0, 1]")
    p_thr.add_argument("--m-rule", dest="m_rule", default="ceil_tau",
                       choices=["one", "ceil_tau", "dk", "dk_minus_sqrt"])
    p_thr.add_argument("--k-min", dest="k_min", type=_int_at_least(1), default=1)
    p_thr.add_argument("--k-max", dest="k_max", type=_int_at_least(1), default=20)
    p_thr.add_argument("--tol", type=_positive_rational, default=DEFAULT_TOL,
                       help="quantile bisection tolerance p/q > 0")
    p_thr.add_argument("--sweep", default=None,
                       help="sweep spec JSON (overrides --tau/--m-rule/--k-min/--k-max)")
    p_thr.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_thr.set_defaults(func=cmd_thresholds)

    p_ver = sub.add_parser("verify", help="run a bundled verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    # the cones, endpoints and deltarate sweeps start at k = 2
    p_ver.add_argument("--k-max", dest="k_max", type=_int_at_least(2), default=40)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None, help="report directory")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handlers
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): no error, like a filter dying
        # of SIGPIPE; stdout goes to devnull so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (InputError, OSError) as exc:  # OSError: an unreadable --in or unwritable --out
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
