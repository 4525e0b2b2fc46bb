"""End-to-end CLI tests: exit codes, output formats, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import okbodies
from okbodies.cli import SUITES, main
from okbodies.geometry import (HalfSpace, body_from_json, hull, intersect_halfspace, rat, rat_str,
                               validate_body)
from oracles import oracle_box, oracle_count

SIMPLEX_JSON = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
SEGMENT_MODEL = {"backend": "toric", "polytope": {"dim": 1, "vertices": [["0"], ["1"]]}}
HYPERFLEX_MODEL = {"backend": "curve", "genus": 3, "gaps": [1, 2, 5]}
VSEG = [{"label": "p", "A": "1", "G": {"pieces": [{"grad": ["1"], "const": "0"}]}}]


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_body_reports_volume_and_count(tmp_path, capsys):
    infile = write(tmp_path, "simplex.json", SIMPLEX_JSON)
    assert main(["body", "--in", infile, "--k", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["volume"] == "1/2"
    assert out["count"] == 66
    assert out["barycenter"] == ["1/3", "1/3"]


def test_body_square_volume(tmp_path, capsys):
    infile = write(tmp_path, "square.json",
                   {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    assert main(["body", "--in", infile]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["volume"] == "1" and out["chebyshev_radius_lb"] == "1/2"


def test_body_rectangle_chebyshev_center(tmp_path, capsys):
    # every point of the segment [1/2, 3/2] x {1/2} is a Chebyshev center of
    # [0, 2] x [0, 1]; the LP's pivot path from the vertex centroid picks (1, 1/2)
    infile = write(tmp_path, "rectangle.json",
                   {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "1"], ["2", "1"]]})
    assert main(["body", "--in", infile]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["chebyshev_center"] == ["1", "1/2"] and out["chebyshev_radius_lb"] == "1/2"


def test_body_malformed_rational_exit2(tmp_path, capsys):
    infile = write(tmp_path, "bad.json", {"dim": 1, "vertices": [["1/0"]]})
    assert main(["body", "--in", infile]) == 2
    assert "error" in capsys.readouterr().err


def test_body_degenerate_exit1(tmp_path, capsys):
    infile = write(tmp_path, "seg.json", {"dim": 2, "vertices": [["0", "0"], ["1", "1"]]})
    assert main(["body", "--in", infile]) == 1


@pytest.mark.parametrize("vertices", [
    [(0, 0), (2, 1)],  # a segment in R^2
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],  # a unit square at z = 1
    [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)],  # a 3-polytope
])
def test_body_counts_a_flat_body(tmp_path, capsys, vertices):
    """``body --k`` on a flat body reports its volume 0 and its count, with no
    barycenter or inscribed ball."""
    infile = write(tmp_path, "flat.json", {"dim": len(vertices[0]),
                                           "vertices": [[str(c) for c in v] for v in vertices]})
    assert main(["body", "--in", infile, "--k", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"dim": len(vertices[0]), "vertices": len(vertices), "volume": "0",
                   "k": 9, "count": oracle_count(hull(vertices), 9)}


@pytest.mark.parametrize("n, size", [(3, 150), (4, 40)])
def test_body_on_large_rational_cloud(tmp_path, capsys, n, size):
    rng = random.Random(size)
    pts = [[f"{rng.randrange(0, 97)}/{rng.choice((96, 97))}" for _ in range(n)]
           for _ in range(size)]
    infile = write(tmp_path, "cloud.json", {"dim": n, "vertices": pts})
    assert main(["body", "--in", infile]) == 0
    body = hull(pts)
    assert json.loads(capsys.readouterr().out)["vertices"] == len(body.vertices)
    validate_body(body)


def test_body_missing_file_exit2(capsys):
    assert main(["body", "--in", "/nonexistent/x.json"]) == 2


def test_series_hyperflex_row(tmp_path, capsys):
    infile = write(tmp_path, "m.json", HYPERFLEX_MODEL)
    assert main(["series", "--in", infile, "--k-max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("k,d_k,D_k,diff")
    assert lines[5].startswith("5,3,6,3")


def test_series_toric_all_diffs_zero(tmp_path, capsys):
    infile = write(tmp_path, "m.json", SEGMENT_MODEL)
    assert main(["series", "--in", infile, "--k-max", "30"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == 30
    assert all(line.split(",")[3] == "0" for line in lines)


def test_series_rejects_non_semigroup_exit1(tmp_path, capsys):
    infile = write(tmp_path, "m.json", {"backend": "curve", "genus": 2, "gaps": [2, 3]})
    assert main(["series", "--in", infile]) == 1


# SHA-256 of the ``series --k-max 8`` CSV, one model per backend, recorded
# before every backend stated only its gap sets; any change to Delta_k, d_k,
# D_k or the gap sets of these models changes a digest.
SERIES_GOLDEN = {
    "curve-hyperflex": (
        {"backend": "curve", "genus": 3, "gaps": [1, 2, 5]},
        "fbaa0d673344ddd01c0d83bf9bb8554a30532ae6ccd8879286a0ae079efc27cd"),
    "canonical-flex": (
        {"backend": "canonical", "genus": 3, "per_k_gaps": {"1": [2, 4], "2": [5, 7, 8]}},
        "85e972e45cff6dbedf30f687410659aad6d467f4d38b93a1e233ec48ad75a522"),
    "synthetic-p1xp1": (
        {"backend": "synthetic", "polytope": {"dim": 2, "vertices": [
            ["0", "0"], ["1/2", "0"], ["1/2", "1"], ["0", "3"]]},
         "per_k_gaps": {"1": [], "2": [[1, 2]]}, "levels": [1, 2]},
        "ae58328c16cdc2d4d20d2fbe06286d344b3e63c206fa74a202aeb3aa885ae257"),
    "toric-simplex": (
        {"backend": "toric", "polytope": SIMPLEX_JSON},
        "30c7f4ba0320b9b53139907419aa9673845f2258066cab09519f185d7e920405"),
}


@pytest.mark.parametrize("name", sorted(SERIES_GOLDEN))
def test_series_golden_digest(tmp_path, name):
    data, digest = SERIES_GOLDEN[name]
    out = tmp_path / "series.csv"
    assert main(["series", "--in", write(tmp_path, "model.json", data),
                 "--k-max", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_all_digests(out_dir, capsys, k_max: int) -> dict[str, str]:
    """The SHA-256 of stdout and of every report file of ``verify all --out``."""
    assert main(["verify", "all", "--k-max", str(k_max), "--out", str(out_dir)]) == 0
    got = {"<stdout>": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    got.update((f.name, sha256_of(f)) for f in out_dir.iterdir())
    return got


def test_verify_all_golden_digests(tmp_path, capsys):
    """``verify all --k-max 12 --out``: the digests recorded in
    ``golden/verify_all_k12.json``. Every change that should leave the reports
    alone must keep them byte-identical."""
    golden = json.loads((Path(__file__).parent / "golden" / "verify_all_k12.json").read_text())
    assert verify_all_digests(tmp_path, capsys, 12) == golden


def test_verify_all_k40_golden_digests(tmp_path, capsys):
    """``verify all --k-max 40 --out``: the digests recorded in
    ``golden/verify_all_k40.json`` before the lattice constraints and the
    sub-body sampler cleared denominators once per body.  It holds the
    uniform Ehrhart sweep's 8,000 counts (200 sub-bodies, k <= 40)."""
    golden = json.loads((Path(__file__).parent / "golden" / "verify_all_k40.json").read_text())
    assert verify_all_digests(tmp_path, capsys, 40) == golden


def test_verify_all_writes_the_single_suite_reports(tmp_path, capsys):
    """``verify all --out`` writes each single-suite run's report files,
    byte for byte, renumbered in suite order."""
    from okbodies.cli import SUITES

    def run(suite):
        out = tmp_path / suite
        assert main(["verify", suite, "--k-max", "4", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        tags = [r["report"] for r in json.loads((out / "summary.json").read_text())["reports"]]
        return out, tags

    whole, whole_tags = run("all")
    want = {}
    tags = []
    for suite in SUITES[:-1]:
        out, suite_tags = run(suite)
        for tag in suite_tags:
            renumbered = f"{len(tags):02d}{tag[2:]}"
            tags.append(renumbered)
            for f in out.glob(f"{tag}.*"):
                want[renumbered + f.suffix] = f.read_bytes()
    assert whole_tags == tags
    got = {f.name: f.read_bytes() for f in whole.iterdir() if f.name != "summary.json"}
    assert got == want


P2_MODEL = {"backend": "toric", "polytope": {"dim": 2, "vertices": [["0", "0"], ["3", "0"],
                                                                   ["0", "3"]]}}
P2_FAMILY = [{"label": label, "A": "1", "G": {"pieces": [{"grad": grad, "const": const}]}}
             for label, grad, const in (("D1", ["1", "0"], "0"), ("D2", ["0", "1"], "0"),
                                        ("D3", ["-1", "-1"], "3"))]
# min(x, y): a two-piece G, whose score tables score the listed points
MIN_XY = [{"label": "min", "A": "1", "G": {"pieces": [{"grad": ["1", "0"], "const": "0"},
                                                      {"grad": ["0", "1"], "const": "0"}]}}]


def test_thresholds_p2_golden_digest(tmp_path, monkeypatch):
    """The anticanonical P^2 thresholds CSV (D1/D2/D3, tau 1/2, k <= 12), recorded
    before the model kept one level at a time.  Its j_head column reads the
    score table, so no ``JumpingVector`` is built."""
    import okbodies.thresholds as thresholds

    def no_vector(*args):
        raise AssertionError("JumpingVector built")

    monkeypatch.setattr(thresholds, "JumpingVector", no_vector)
    out = tmp_path / "p2.csv"
    assert main(["thresholds", "--in", write(tmp_path, "p2.json", P2_MODEL),
                 "--valuations", write(tmp_path, "family.json", P2_FAMILY), "--tau", "1/2",
                 "--m-rule", "ceil_tau", "--k-max", "12", "--out", str(out)]) == 0
    assert sha256_of(out) == "8ecea78fb52e32b2ad30767ed37a72334009705aedaec7934ddaed7780c0acad"


HYPERFLEX_FAMILY = [
    {"label": "p", "A": "1", "G": {"pieces": [{"grad": ["1"], "const": "0"}]}},
    {"label": "tent", "A": "2", "G": {"pieces": [{"grad": ["1"], "const": "0"},
                                                 {"grad": ["-1"], "const": "1"}]}},
]
# The unit square with gaps at levels 1..6; (k, k) tops min(x, y) at levels
# 1, 4 and 6, and (3, 4), (4, 3), (3, 6), (6, 3) tie with other points.
GAPPED_SQUARE_MODEL = {
    "backend": "synthetic",
    "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    "per_k_gaps": {"1": [[1, 1]], "2": [[1, 1], [2, 1]], "3": [[0, 0]],
                   "4": [[4, 4], [3, 4], [4, 3], [2, 2]], "5": [],
                   "6": [[6, 6], [3, 3], [3, 6], [6, 3], [0, 6]]}}
# min(x, y) and min(x + y, 1): two pieces each, with many tied scores
GAPPED_SQUARE_FAMILY = [
    {"label": "min", "A": "1", "G": {"pieces": [{"grad": ["1", "0"], "const": "0"},
                                                {"grad": ["0", "1"], "const": "0"}]}},
    {"label": "cap", "A": "3/2", "G": {"pieces": [{"grad": ["1", "1"], "const": "0"},
                                                  {"grad": ["0", "0"], "const": "1"}]}},
]
# SHA-256 of the ``thresholds`` CSV of two models with gaps, recorded before
# Delta_k's score table was read off the idealized one.  Every S_tau is exact.
THRESHOLDS_GAP_GOLDEN = {
    "curve-hyperflex": (
        HYPERFLEX_MODEL, HYPERFLEX_FAMILY,
        ["--tau", "1/2", "--m-rule", "ceil_tau", "--k-max", "12"],
        "50348ee0f929efaa1c941dc985aab2d413d7766e3bca143cd94ca310a52c1061"),
    "synthetic-square": (
        GAPPED_SQUARE_MODEL, GAPPED_SQUARE_FAMILY, ["--tau", "1/4", "--m-rule", "ceil_tau"],
        "4472cfd56d29a521c51242c9e218687fa086c56f5128dab9e23445fb81a06858"),
    "synthetic-square-dk": (
        GAPPED_SQUARE_MODEL, GAPPED_SQUARE_FAMILY, ["--tau", "1", "--m-rule", "dk_minus_sqrt"],
        "1c5a49df2a6fe053a39735ff87029c04f48e64c7d2325b6d77b61693c267d703"),
}


@pytest.mark.parametrize("name", sorted(THRESHOLDS_GAP_GOLDEN))
def test_thresholds_gap_model_golden_digest(tmp_path, name):
    model, family, options, digest = THRESHOLDS_GAP_GOLDEN[name]
    out = tmp_path / "thresholds.csv"
    assert main(["thresholds", "--in", write(tmp_path, "model.json", model),
                 "--valuations", write(tmp_path, "family.json", family), *options,
                 "--out", str(out)]) == 0
    assert sha256_of(out) == digest


def test_thresholds_segment_sweep(tmp_path, capsys):
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    vals = write(tmp_path, "v.json", VSEG)
    assert main(["thresholds", "--in", model, "--valuations", vals,
                 "--tau", "1/2", "--k-max", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    s_col = header.index("S_km")
    from fractions import Fraction as F

    last = lines[-1].split(",")
    assert abs(F(last[s_col]) - F(3, 4)) <= F(1, 50)  # converging to 3/4


def test_thresholds_empty_family_exit2(tmp_path, capsys):
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    vals = write(tmp_path, "v.json", [])
    assert main(["thresholds", "--in", model, "--valuations", vals]) == 2


def test_thresholds_m_rule_one(tmp_path, capsys):
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    vals = write(tmp_path, "v.json", VSEG)
    assert main(["thresholds", "--in", model, "--valuations", vals,
                 "--m-rule", "one", "--k-max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    s_col = lines[0].split(",").index("S_km")
    # m=1: S_{k,1} = 1 at every level (alpha_k column)
    assert all(line.split(",")[s_col] == "1" for line in lines[1:])


def test_thresholds_of_zero_G_score_zero(tmp_path, capsys):
    """G = 0 on the unit square: every score is 0, and with S_tau = 0 the
    restricted delta is infinite."""
    model = write(tmp_path, "m.json", {"backend": "toric", "polytope": {
        "dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}})
    vals = write(tmp_path, "v.json", [{"label": "zero", "A": "1", "G": {
        "pieces": [{"grad": ["0", "0"], "const": "0"}]}}])
    assert main(["thresholds", "--in", model, "--valuations", vals,
                 "--tau", "1/2", "--k-max", "4"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["k"] for row in rows] == ["1", "2", "3", "4"]
    for row in rows:
        assert set(row["j_head"].split("|")) == {"0"}
        assert all(row[c] == "0" for c in ("S_km", "Sbar_km", "quantum_quantile", "S_tau"))
        assert row["delta_km"] == "inf"


def test_thresholds_one_valuation_object_reads_as_a_family_of_one(tmp_path, capsys):
    """A ``--valuations`` file that holds one JSON object is the family of
    that one valuation: the same CSV as the one-element list."""
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    outputs = []
    for name, family in (("list.json", VSEG), ("object.json", VSEG[0])):
        vals = write(tmp_path, name, family)
        assert main(["thresholds", "--in", model, "--valuations", vals,
                     "--tau", "1/2", "--k-max", "6"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 6


def test_thresholds_sweep_constant_m_rule_caps_m_at_d(tmp_path, capsys):
    """A sweep spec with ``"m_rule": "constant", "const": 3`` takes
    m_k = min(d_k, 3) at every level."""
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    vals = write(tmp_path, "v.json", VSEG)
    sweep = write(tmp_path, "sweep.json",
                  {"tau": "1/2", "m_rule": "constant", "const": 3, "k_range": [1, 6]})
    assert main(["thresholds", "--in", model, "--valuations", vals, "--sweep", sweep]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    # d_k = k + 1 on the unit segment
    assert [(int(r["k"]), int(r["m_k"])) for r in rows] == [
        (k, min(k + 1, 3)) for k in range(1, 7)]


@pytest.mark.parametrize("sweep, message", [
    ({"tau": "1/2", "m_rule": "half", "k_range": [1, 2]}, "unknown m-rule 'half'"),
    ({"tau": "1/2", "k_range": [5, 2]}, "bad k_range [5, 2]"),
])
def test_thresholds_bad_sweep_spec_exits2_with_one_line(tmp_path, capsys, sweep, message):
    """An unknown ``m_rule`` and a ``k_range`` whose start exceeds its end
    are input errors: exit 2 with one stderr line and no traceback."""
    model = write(tmp_path, "m.json", SEGMENT_MODEL)
    vals = write(tmp_path, "v.json", VSEG)
    path = write(tmp_path, "sweep.json", sweep)
    assert _exit_code(["thresholds", "--in", model, "--valuations", vals,
                       "--sweep", path]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {message}\n"
    assert "Traceback" not in err


def test_verify_weierstrass_passes(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "weierstrass", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True


def test_verify_reports_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "cones", "--k-max", "15", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["verify", "cones", "--k-max", "15", "--out", str(out2)]) == 0
    for p1 in sorted(out1.iterdir()):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_verify_lowerbound_suite(tmp_path):
    assert main(["verify", "lowerbound", "--k-max", "25", "--out",
                 str(tmp_path / "rep")]) == 0


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "mystery"])


def test_verify_failure_exits_3_with_witness(tmp_path, capsys, monkeypatch):
    from okbodies import cli, estimates

    def failing_suite(suite, k_max, seed):
        rep = estimates.SweepReport("rigged", {"seed": seed})
        rep.check("always fails", False, {"k": 1})
        yield rep

    monkeypatch.setattr(cli, "_suite_reports", failing_suite)
    assert main(["verify", "weierstrass", "--out", str(tmp_path / "r")]) == 3
    captured = capsys.readouterr()
    assert "FAILED [rigged] always fails" in captured.err
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["passed"] is False


def test_thresholds_multi_valuation_family(tmp_path, capsys):
    model = write(tmp_path, "p2.json", {
        "backend": "toric",
        "polytope": {"dim": 2, "vertices": [["0", "0"], ["3", "0"], ["0", "3"]]},
    })
    vals = write(tmp_path, "fam.json", [
        {"label": "D1", "A": "1", "G": {"pieces": [{"grad": ["1", "0"], "const": "0"}]}},
        {"label": "D2", "A": "1", "G": {"pieces": [{"grad": ["0", "1"], "const": "0"}]}},
        {"label": "D3", "A": "1", "G": {"pieces": [{"grad": ["-1", "-1"], "const": "3"}]}},
    ])
    assert main(["thresholds", "--in", model, "--valuations", vals,
                 "--tau", "1", "--m-rule", "dk", "--k-max", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    d_col = header.index("delta_km")
    a_col = header.index("delta_argmin")
    assert len(lines) == 1 + 4 * 3  # one row per (k, valuation)
    assert all(line.split(",")[d_col] == "1" for line in lines[1:])
    assert all(line.split(",")[a_col] == "D1" for line in lines[1:])


def test_body_writes_to_file(tmp_path, capsys):
    infile = write(tmp_path, "simplex.json", SIMPLEX_JSON)
    out = tmp_path / "report.json"
    assert main(["body", "--in", infile, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["volume"] == "1/2"


def test_verify_cones_single_level_regression(tmp_path):
    # one level in the slice sweep leaves the upper half empty
    assert main(["verify", "cones", "--k-max", "2"]) == 0
    assert main(["verify", "all", "--k-max", "2", "--out", str(tmp_path / "r")]) == 0
    # one to three levels per half: the two-halves proxy is recorded as passed
    for suite, k_max in (("cones", 5), ("cones", 6), ("cones", 7), ("stwosided", 2),
                         ("all", 5)):
        assert main(["verify", suite, "--k-max", str(k_max)]) == 0, (suite, k_max)
    report = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert report["passed"]
    short = [a for f in sorted((tmp_path / "r").glob("*_S_two_sided.json"))
             for a in json.loads(f.read_text())["assertions"] if a["witness"]]
    assert short and all(a["passed"] and a["witness"]["reason"] ==
                         "fewer than 4 levels in a half" for a in short)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejections
        return exc.code


SIMPLEX5_JSON = {"dim": 5, "vertices": [["0"] * 5] + [
    ["1" if j == i else "0" for j in range(5)] for i in range(5)]}
THRESHOLDS = ["thresholds", "--in", "{segment}", "--valuations", "{vseg}"]
SIMPLEX_MODEL = {"backend": "toric", "polytope": SIMPLEX_JSON}


def valuation(label, *grad, const="0"):
    return {"label": label, "A": "1", "G": {"pieces": [{"grad": list(grad), "const": const}]}}


@pytest.mark.parametrize("argv", [
    ["body", "--in", "{simplex}", "--k", "0"],
    ["body", "--in", "{simplex5}"],
    ["series", "--in", "{segment}", "--k-max", "0"],
    THRESHOLDS + ["--k-min", "0"],
    THRESHOLDS + ["--k-max", "0"],
    THRESHOLDS + ["--k-min", "5", "--k-max", "2"],
    THRESHOLDS + ["--tau", "2"],
    THRESHOLDS + ["--tau=-1/2"],
    THRESHOLDS + ["--tau", "1/0"],
    THRESHOLDS + ["--sweep", "{sweep}"],
    ["verify", "lowerbound", "--k-max", "0"],
    ["verify", "cones", "--k-max", "1"],
    ["verify", "ehrhart", "--jobs", "2"],  # the removed option is an input error
    ["verify", "ehrhart", "--k-max", "two"],
    THRESHOLDS + ["--tol", "0"],
    THRESHOLDS + ["--tol=-1"],
    THRESHOLDS + ["--tol", "abc"],
    # gradients of the wrong length, and a repeated label, in a P^2 family
    ["thresholds", "--in", "{p2}", "--valuations", "{vshort}"],
    ["thresholds", "--in", "{p2}", "--valuations", "{vlong}"],
    ["thresholds", "--in", "{p2}", "--valuations", "{vdup}", "--tau", "1/2"],
    # given halfspace normals of the wrong length, on a body and in a toric model
    ["body", "--in", "{hlong}"],
    ["body", "--in", "{hshort}"],
    ["series", "--in", "{toric_hlong}"],
    # a non-integer or boolean dimension, and a boolean coordinate
    ["body", "--in", "{dim_float}"],
    ["body", "--in", "{dim_bool}"],
    ["body", "--in", "{coord_bool}"],
    # JSON integer fields given as floats or booleans
    ["series", "--in", "{gap_float}", "--k-max", "2"],
    ["thresholds", "--in", "{p2}", "--valuations", "{vp2}", "--sweep", "{k_range_float}"],
    ["series", "--in", "{genus_float}"],
    # synthetic gap vectors shorter and longer than the polytope's dim
    ["series", "--in", "{gap_short}", "--k-max", "2"],
    ["series", "--in", "{gap_long}", "--k-max", "2"],
    # level keys and levels below 1 (exit 0, 0 and 1 before they were checked)
    ["series", "--in", "{key_zero}", "--k-max", "2"],
    ["series", "--in", "{levels_nonpositive}", "--k-max", "2"],
    ["series", "--in", "{canonical_key_zero}", "--k-max", "2"],
])
def test_cli_bounds_exit2(tmp_path, capsys, argv):
    hlong = dict(SIMPLEX_JSON, halfspaces=[{"normal": [1, 1, 1], "offset": "1"}])
    inputs = {"simplex": SIMPLEX_JSON, "simplex5": SIMPLEX5_JSON, "segment": SEGMENT_MODEL,
              "vseg": VSEG, "sweep": {"tau": "3/2"}, "p2": SIMPLEX_MODEL,
              "vshort": [valuation("D1", "1")], "vlong": [valuation("D1", "1", "0", "0")],
              "vdup": [valuation("D", "1", "0"), valuation("D", "1", "1")],
              "hlong": hlong,
              "hshort": dict(SIMPLEX_JSON, halfspaces=[{"normal": [1], "offset": "1"}]),
              "toric_hlong": {"backend": "toric", "polytope": hlong},
              "dim_float": {"dim": 2.7, "vertices": SIMPLEX_JSON["vertices"]},
              "dim_bool": {"dim": True, "vertices": [["0"], ["1"]]},
              "coord_bool": {"dim": 2, "vertices": [["0", "0"], [True, "0"], ["0", "1"]]},
              "gap_float": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                            "per_k_gaps": {"1": [[0.5, 0]]}},
              "vp2": [valuation("D1", "1", "0")],
              "k_range_float": {"tau": "1/2", "k_range": [1.9, True]},
              "genus_float": {"backend": "curve", "genus": 3.7, "gaps": [1, 2, True]},
              "gap_short": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                            "per_k_gaps": {"2": [[1]]}},
              "gap_long": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                           "per_k_gaps": {"2": [[1, 0, 0]]}},
              "key_zero": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                           "per_k_gaps": {"0": [[0, 0]]}},
              "levels_nonpositive": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                                     "per_k_gaps": {"1": [[0, 0]]}, "levels": [-3, 0]},
              "canonical_key_zero": {"backend": "canonical", "genus": 3,
                                     "per_k_gaps": {"0": []}}}
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in inputs.items()}
    assert _exit_code([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("backend", ["synthetic", "canonical"])
@pytest.mark.parametrize("per_k_gaps", [
    {"01": []}, {"+1": []}, {" 2 ": []}, {"1_0": []}, {"-1": []}, {"1.0": []},
    # "01" named level 1 too, and silently replaced the gaps of "1"
    {"1": [], "01": []},
])
def test_noncanonical_level_key_exit2(tmp_path, capsys, backend, per_k_gaps):
    model = {"backend": backend, "per_k_gaps": per_k_gaps}
    model.update({"polytope": SIMPLEX_JSON} if backend == "synthetic" else {"genus": 3})
    assert main(["series", "--in", write(tmp_path, "m.json", model), "--k-max", "2"]) == 2
    err = capsys.readouterr().err
    assert "per_k_gaps key" in err and "Traceback" not in err


def test_benchmark_arguments_still_parse():
    from okbodies.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["thresholds", "--in", "m.json", "--valuations", "v.json",
                              "--tau", "1/2", "--m-rule", "ceil_tau", "--k-max", "14"])
    assert args.tau == 1 / 2 and args.k_max == 14
    for suite in ("ehrhart", "cones", "all"):
        assert parser.parse_args(["verify", suite, "--k-max", "12"]).k_max == 12


def test_python_dash_m_runs_the_cli():
    """``python -m okbodies`` from a source checkout, without the console script."""
    src = str(Path(okbodies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "okbodies", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: okbodies")
    unknown = run("verify", "nosuch")
    assert unknown.returncode == 2 and "invalid choice: 'nosuch'" in unknown.stderr


def test_closed_stdout_pipe_exits_0_quietly(tmp_path):
    """A reader that takes one line and closes the pipe (``| head -1``) ends
    the command with exit 0 and an empty stderr, not an input error.  The
    P^2 series to k = 30 is about 240 kB, more than a pipe holds, so the
    command is still writing when the pipe closes."""
    src = str(Path(okbodies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    model = write(tmp_path, "p2.json", P2_MODEL)
    proc = subprocess.Popen([sys.executable, "-m", "okbodies", "series", "--in", model,
                             "--k-max", "30"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "k,d_k,D_k,diff,delta_k_points,gap_points\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""  # no "input error:" line and no traceback


CUBE4_JSON = {"dim": 4, "vertices": [[str((i >> b) & 1) for b in range(4)] for i in range(16)]}


def test_body_count_above_slab_limit_exits2_before_counting(tmp_path, capsys, monkeypatch):
    import okbodies.cli as cli

    def no_work(*args):
        raise AssertionError("work started")

    infile = write(tmp_path, "cube4.json", CUBE4_JSON)
    # k = 999 needs 1000^2 slab counts, the limit
    assert cli.MAX_COUNT_SLABS == 1000 ** 2
    monkeypatch.setattr(cli, "count", no_work)
    monkeypatch.setattr(cli, "chebyshev_ball", no_work)
    assert main(["body", "--in", infile, "--k", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --k 1000 needs 1002001 slab counts")
    assert "Traceback" not in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "count", lambda body, k: -1)  # the real count takes seconds
    assert main(["body", "--in", infile, "--k", "999"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == -1
    # a 2-D body is one slab at any k, so it has no limit
    monkeypatch.undo()
    assert main(["body", "--in", write(tmp_path, "simplex.json", SIMPLEX_JSON),
                 "--k", str(10**12)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == (10**12 + 1) * (10**12 + 2) // 2


def body_text(body) -> str:
    """Every vertex, every halfspace and its tight vertex indices, one per line."""
    lines = [",".join(rat_str(c) for c in v) for v in body.vertices]
    for h, t in zip(body.halfspaces, body.incidence()):
        lines.append(f"{h.normal} <= {rat_str(h.offset)} at {sorted(t)}")
    return "\n".join(lines) + "\n"


def clip_chain(body, seed):
    """Three seeded cuts of a body: the first through a vertex, the others
    between two vertices' values."""
    rng = random.Random(seed)
    chain = []
    for i in range(3):
        normal = [rng.randrange(-3, 4) for _ in range(body.dim)]
        normal[rng.randrange(body.dim)] = rng.choice((-1, 1)) * rng.randrange(1, 4)
        values = [sum(c * x for c, x in zip(normal, v)) for v in body.vertices]
        offset = rng.choice(values) if i == 0 else (rng.choice(values) + rng.choice(values)) / 2
        body = intersect_halfspace(body, HalfSpace.make(normal, offset))
        chain.append(body)
    return chain


# SHA-256 of ``okbodies body`` on a seeded rational cloud and on the last body
# of a seeded clip chain of its hull, and of ``body_text`` of the hull and of
# every clipped body, recorded before the hull and the clip took integer rows.
BODY_GOLDEN = {
    (3, 24, 5): {
        "shapes": "7190e4dfceda785a7d6f370fc06ac8a861b6d3618e611e7581f8ef908b82077e",
        "cloud": "ebb2663a42a0d2b20c39f7d40ba58720135e6b4ae92f84c0840e2eceae06a344",
        "clipped": "d8b3fea721dc9f9c0a3631a27904419c94463283b525a0f26dad205de42b4306"},
    (4, 16, 6): {
        "shapes": "e6694b5f79187efa2b2dbacdd9cb720d14e75868b11a9b1aad5b13fa09a006ba",
        "cloud": "6015225ccda63acaa63721e06918aaf749f05d0b0190db30ce6775d88063a5b0",
        "clipped": "16e008cefd167cf24644c20fc031df49ea2fdb05572c507ccd3e8bbbe29781d0"},
}


def body_digests(tmp_path, capsys, n, size, seed) -> dict[str, str]:
    rng = random.Random(seed)
    pts = [[f"{rng.randrange(0, 61)}/{rng.choice((12, 20, 30))}" for _ in range(n)]
           for _ in range(size)]
    body = hull(pts)
    chain = clip_chain(body, seed)
    got = {"shapes": sha256_text("".join(body_text(b) for b in [body, *chain]))}
    for name, vertices in (("cloud", pts), ("clipped", chain[-1].vertices)):
        infile = write(tmp_path, f"{name}.json",
                       {"dim": n, "vertices": [[rat_str(rat(c)) for c in v] for v in vertices]})
        assert main(["body", "--in", infile]) == 0
        got[name] = sha256_text(capsys.readouterr().out)
    return got


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("shape", sorted(BODY_GOLDEN))
def test_body_and_clip_golden_digests(tmp_path, capsys, shape):
    assert body_digests(tmp_path, capsys, *shape) == BODY_GOLDEN[shape]


CUBE3_MODEL = {"backend": "toric", "polytope": {
    "dim": 3, "vertices": [[str((i >> b) & 1) for b in range(3)] for i in range(8)]}}


def test_series_above_point_limit_exits2_before_enumerating(tmp_path, capsys, monkeypatch):
    import okbodies.cli as cli
    import okbodies.series as series

    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    infile = write(tmp_path, "cube3.json", CUBE3_MODEL)
    assert cli.MAX_ENUM_POINTS == 10**6
    # the unit cube has (k + 1)^3 points at level k: 980,099 up to 43, 1,071,224 up to 44
    assert sum((k + 1) ** 3 for k in range(1, 44)) <= cli.MAX_ENUM_POINTS
    assert sum((k + 1) ** 3 for k in range(1, 45)) > cli.MAX_ENUM_POINTS
    monkeypatch.setattr(series, "enumerate_points", no_enumeration)
    assert main(["series", "--in", infile, "--k-max", "44"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --k-max 44 lists more than 1000000 points")
    assert "Traceback" not in err
    # the slab guard answers before any count: 1,005,719 slabs of the 4-D cube up to 143
    monkeypatch.setattr(cli, "count", no_enumeration)
    cube4 = write(tmp_path, "cube4.json", {"backend": "toric", "polytope": CUBE4_JSON})
    assert main(["series", "--in", cube4, "--k-max", "143"]) == 2
    assert "slab counts" in capsys.readouterr().err
    monkeypatch.undo()
    out = tmp_path / "series.csv"
    assert main(["series", "--in", infile, "--k-max", "43", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 44 and rows[-1].startswith(f"43,{44 ** 3},{44 ** 3},0,")


def test_size_check_is_one_pass_that_stops_at_the_point_limit(monkeypatch):
    import okbodies.cli as cli
    import okbodies.lattice as lattice
    import okbodies.series as series

    calls = []

    def counting(body, k):
        calls.append(k)
        return lattice.slab_bound(body, k)

    monkeypatch.setattr(cli, "slab_bound", counting)
    segment = series.model_from_json(SEGMENT_MODEL)
    # the unit segment has k + 1 points at level k: 998,990 up to 1412, 1,000,404
    # up to 1413; its 10^6 levels are one slab each, the limit, so no level
    # can pass the slab limit and the slabs are not summed to level 10^6
    with pytest.raises(cli.InputError, match="passed at level 1413"):
        cli._check_series_size(segment, range(1, 10**6 + 1), "--k-max 1000000")
    assert len(calls) <= 1413


def test_size_check_counts_levels_that_stop_below_the_last_k(tmp_path, capsys, monkeypatch):
    import okbodies.series as series

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(series, "enumerate_points", no_work)
    # the one level of the cube, 300, holds 301^3 = 27,270,901 points; the 1,000
    # levels after it that are not levels keep the slab pass open past it
    cube = write(tmp_path, "cube.json", {"backend": "synthetic", "levels": [300],
                                         "polytope": {"dim": 3, "vertices": [
                                             [str((i >> b) & 1) for b in range(3)]
                                             for i in range(8)]}})
    assert main(["series", "--in", cube, "--k-max", "1300"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: --k-max 1300 lists more than 1000000 points "
        "(the limit is passed at level 300)")
    # one slab per level: the slab pass runs to about level 10^6, past level 1500
    square = write(tmp_path, "square.json", {"backend": "synthetic", "levels": [1500],
                                             "polytope": {"dim": 2, "vertices": [
                                                 ["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}})
    family = write(tmp_path, "family.json", MIN_XY)
    sweep = write(tmp_path, "sweep.json", {"tau": "1/2", "k_range": [1, 2 * 10**6]})
    assert main(["thresholds", "--in", square, "--valuations", family, "--sweep", sweep]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: the sweep k_range [1, 2000000] lists more than 1000000 points "
        "(the limit is passed at level 1500)")


def test_thresholds_above_point_limit_exits2_before_enumerating(tmp_path, capsys, monkeypatch):
    import okbodies.cli as cli
    import okbodies.series as series

    def no_work(*args):
        raise AssertionError("work started")

    model = write(tmp_path, "p2.json", P2_MODEL)
    # the two-piece G scores the listed points (a one-piece family lists none:
    # test_thresholds_of_one_piece_families_bound_columns_not_points)
    family = write(tmp_path, "family.json", P2_FAMILY + MIN_XY)
    monkeypatch.setattr(series, "enumerate_points", no_work)
    monkeypatch.setattr(cli, "S_tau", no_work)
    # P^2 has (3k + 1)(3k + 2)/2 points at level k: 987,710 up to 86, 1,022,163 up to 87
    assert main(["thresholds", "--in", model, "--valuations", family, "--k-max", "87"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --k-max 87 lists more than 1000000 points "
                          "(the limit is passed at level 87)")
    assert "Traceback" not in err
    sweep = write(tmp_path, "sweep.json", {"tau": "1/2", "k_range": [40, 100]})
    assert main(["thresholds", "--in", model, "--valuations", family, "--sweep", sweep]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: the sweep k_range [40, 100] lists more than 1000000 points")
    # the slab guard answers before any count: 1,005,719 slabs of the 4-D cube up to 143
    monkeypatch.setattr(cli, "count", no_work)
    cube4 = write(tmp_path, "cube4.json", {"backend": "toric", "polytope": CUBE4_JSON})
    x1 = write(tmp_path, "x1.json", [{"label": "x1", "A": "1", "G": {"pieces": [
        {"grad": ["1", "0", "0", "0"], "const": "0"}]}}])
    assert main(["thresholds", "--in", cube4, "--valuations", x1, "--k-max", "143"]) == 2
    assert "--k-max 143 needs more than 1000000 slab counts" in capsys.readouterr().err
    monkeypatch.undo()
    # the edge, checked without running the sweep
    p2 = series.model_from_json(P2_MODEL)
    cli._check_series_size(p2, range(1, 87), "--k-max 86")
    with pytest.raises(cli.InputError, match="passed at level 87"):
        cli._check_series_size(p2, range(1, 88), "--k-max 87")


def test_thresholds_of_one_piece_families_bound_columns_not_points(tmp_path, capsys,
                                                                   monkeypatch):
    """A one-piece G on a full-dimensional 2-D or 3-D ambient is read off the
    first-axis counts of its frame, so ``thresholds`` lists no point and
    bounds those columns (2-D) or slabs (3-D), summed over the levels and
    valuations, by MAX_ENUM_POINTS.  P^2 with D1/D2/D3 reads 3 (3k + 1)
    columns at level k, and the unit cube with x1 + x2 + x3 reads 3k + 1
    slabs: past the edge both exit 2 before any work, and the edge passes
    the check (not run)."""
    import okbodies.cli as cli
    import okbodies.lattice as lattice
    import okbodies.series as series
    import okbodies.thresholds as thresholds

    def no_work(*args):
        raise AssertionError("work started")

    columns = [sum(3 * (3 * k + 1) for k in range(1, K + 1)) for K in (470, 471)]
    slabs = [sum(3 * k + 1 for k in range(1, K + 1)) for K in (815, 816)]
    assert columns == [997_575, 1_001_817] and slabs == [998_375, 1_000_824]
    p2, family = write(tmp_path, "p2.json", P2_MODEL), write(tmp_path, "f.json", P2_FAMILY)
    cube = write(tmp_path, "cube.json", CUBE3_MODEL)
    diagonal = write(tmp_path, "diagonal.json", [valuation("s", "1", "1", "1")])
    with monkeypatch.context() as mp:
        for module, name in ((series, "enumerate_points"), (series, "_first_axis_counts"),
                             (thresholds, "_first_axis_counts"), (cli, "S_tau")):
            mp.setattr(module, name, no_work)
        for infile, vfile, k in ((p2, family, 471), (cube, diagonal, 816)):
            assert main(["thresholds", "--in", infile, "--valuations", vfile,
                         "--k-max", str(k)]) == 2
            assert capsys.readouterr().err == (
                f"input error: --k-max {k} reads more than 1000000 columns or slabs "
                f"(the limit is passed at level {k})\n")
    for model_json, family_json, k in ((P2_MODEL, P2_FAMILY, 470),
                                       (CUBE3_MODEL, [valuation("s", "1", "1", "1")], 815)):
        model = series.model_from_json(model_json)
        family = [thresholds.valuation_from_json(v, model.ambient) for v in family_json]
        size = lattice.count(model.ambient, k)
        frames = [thresholds._point_free_frame(model.ambient, v.G, k, size) for v in family]
        assert all(lattice.first_axis_bound(f, k) == 3 * k + 1 for f in frames)
        cli._check_series_size(model, range(1, k + 1), f"--k-max {k}", family)
        with pytest.raises(cli.InputError, match=f"passed at level {k + 1}"):
            cli._check_series_size(model, range(1, k + 2), f"--k-max {k + 1}", family)
    # the limit itself passes: P^2 reads 3 (4 + 7 + 10) = 63 columns up to level 3
    p2_model = series.model_from_json(P2_MODEL)
    family = [thresholds.valuation_from_json(v, p2_model.ambient) for v in P2_FAMILY]
    monkeypatch.setattr(cli, "MAX_ENUM_POINTS", 63)
    cli._check_series_size(p2_model, range(1, 4), "--k-max 3", family)
    monkeypatch.setattr(cli, "MAX_ENUM_POINTS", 62)
    with pytest.raises(cli.InputError, match="passed at level 3"):
        cli._check_series_size(p2_model, range(1, 4), "--k-max 3", family)


# sha256 of ``thresholds --tau 1/2 --k-max 20`` on the 4-D unit cube with x1
# and x1 + x2 + x3 + x4, as written when every level was listed and scored
CUBE4_K20_DIGEST = "31c2f5c700096e5562cb91def008a086385bac1e70366e7852b0d2c844bff9e6"


def test_thresholds_of_the_4d_cube_read_slabs_not_points(tmp_path, capsys, monkeypatch):
    """A one-piece G on a full-dimensional 4-D ambient is read off the slab
    totals of its frame: the unit cube reads (k + 1)^2 slabs for x1 and
    (4k + 1)(k + 1) for x1 + x2 + x3 + x4 at level k, 994,838 in all up to
    level 83 and 1,030,708 up to 84.  So ``thresholds`` lists no point: up
    to level 20 it writes the CSV of the listed levels, at --k-max 30, past
    the point limit (level 21), it exits 0, and at --k-max 84 it exits 2
    before any table or S_tau is computed."""
    import okbodies.cli as cli
    import okbodies.lattice as lattice
    import okbodies.series as series
    import okbodies.thresholds as thresholds

    def no_work(*args):
        raise AssertionError("work started")

    family_json = [valuation("x1", "1", "0", "0", "0"), valuation("sum", "1", "1", "1", "1")]
    model = series.model_from_json({"backend": "toric", "polytope": CUBE4_JSON})
    family = [thresholds.valuation_from_json(v, model.ambient) for v in family_json]
    for k in (1, 2, 7, 83):
        size = lattice.count(model.ambient, k)
        frames = [thresholds._point_free_frame(model.ambient, v.G, k, size) for v in family]
        assert [lattice.first_axis_bound(f, k) for f in frames] == [(k + 1) ** 2,
                                                                   (4 * k + 1) * (k + 1)]
    slabs = [sum((k + 1) ** 2 + (4 * k + 1) * (k + 1) for k in range(1, K + 1)) for K in (83, 84)]
    assert slabs == [994_838, 1_030_708]
    cube4 = write(tmp_path, "cube4.json", {"backend": "toric", "polytope": CUBE4_JSON})
    vfile = write(tmp_path, "family.json", family_json)
    out = tmp_path / "cube4.csv"
    with monkeypatch.context() as mp:
        mp.setattr(lattice, "_numerators", no_work)
        for k in (20, 30):
            assert main(["thresholds", "--in", cube4, "--valuations", vfile, "--tau", "1/2",
                         "--k-max", str(k), "--out", str(out)]) == 0
            if k == 20:
                assert hashlib.sha256(out.read_bytes()).hexdigest() == CUBE4_K20_DIGEST
    assert len(out.read_text().splitlines()) == 1 + 2 * 30
    for module, name in ((series, "enumerate_points"), (series, "_first_axis_counts"),
                         (thresholds, "_first_axis_counts"), (cli, "S_tau")):
        monkeypatch.setattr(module, name, no_work)
    assert main(["thresholds", "--in", cube4, "--valuations", vfile, "--k-max", "84"]) == 2
    assert capsys.readouterr().err == ("input error: --k-max 84 reads more than 1000000 "
                                       "columns or slabs (the limit is passed at level 84)\n")


def test_thresholds_on_an_empty_level_names_it(tmp_path, capsys):
    """A level whose points are all gaps has no m to choose: ``thresholds``
    exits 1 naming the empty Delta_k, not an m the user never gave."""
    model = write(tmp_path, "m.json", {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                                       "per_k_gaps": {"1": [[0, 0], [1, 0], [0, 1]], "2": []}})
    family = write(tmp_path, "v.json", [valuation("x", "1", "0")])
    assert main(["thresholds", "--in", model, "--valuations", family, "--k-max", "2"]) == 1
    assert capsys.readouterr().err == "model error: Delta_1 is empty\n"


# the rank-3 body on x3 = x0 - x1 + 2 x2 + 1/3 over the unit cube of (x0, x1,
# x2): its flat holds lattice points only at the levels 3 | k, (k + 1)^3 of them
FLAT4_POLYTOPE = {"dim": 4, "vertices": [
    [str(x0), str(x1), str(x2), f"{3 * (x0 - x1 + 2 * x2) + 1}/3"]
    for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)]}


def test_series_sizes_a_flat_ambient_by_its_chart_image(tmp_path, capsys, monkeypatch):
    """``count`` walks the slabs of a flat body's chart image, so the slab
    bound is the image's: k + 1 per level for the rank-3 ambient above, whose
    image, a unimodular image of the unit cube, has width 1 on its first
    axis, not the (k + 1)^2 of the body's box on its first two axes.  With the slab limit between the two sums to level 6 (27 and
    139), the ambient sizes and lists its levels; one slab below the image's
    sum it exits 2 before any count."""
    import okbodies.cli as cli
    import okbodies.lattice as lattice
    from okbodies.geometry import body_from_json

    ambient = body_from_json(FLAT4_POLYTOPE)
    assert [lattice.slab_bound(ambient, k) for k in range(1, 7)] == [2, 3, 4, 5, 6, 7]
    assert sum((k + 1) ** 2 for k in range(1, 7)) == 139
    infile = write(tmp_path, "flat4.json", {"backend": "toric", "polytope": FLAT4_POLYTOPE})
    monkeypatch.setattr(cli, "MAX_COUNT_SLABS", 27)
    out = tmp_path / "flat4.csv"
    assert main(["series", "--in", infile, "--k-max", "6", "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [(int(row[0]), int(row[2])) for row in rows] == [
        (1, 0), (2, 0), (3, 4 ** 3), (4, 0), (5, 0), (6, 7 ** 3)]
    monkeypatch.setattr(cli, "MAX_COUNT_SLABS", 26)
    monkeypatch.setattr(cli, "count", lambda *args: pytest.fail("counting started"))
    assert main(["series", "--in", infile, "--k-max", "6"]) == 2
    assert "needs more than 26 slab counts" in capsys.readouterr().err


def test_size_check_counts_a_level_without_slabs_as_one(tmp_path, capsys, monkeypatch):
    """A 3-D ambient 10^-30 wide on its first axis has no slab at any level
    below about 10^29, and a slab pass that summed its exact slab counts,
    0 at each level, walked every level of ``--k-max 10**12``.  The slab
    bound is at least 1, so the pass exits 2 at the level after the limit."""
    import okbodies.cli as cli
    import okbodies.lattice as lattice

    calls = []

    def counting(body, k):
        calls.append((k, lattice.slab_bound(body, k)))
        return calls[-1][1]

    lo, hi = f"{10**30 + 1}/{3 * 10**30}", f"{10**30 + 2}/{3 * 10**30}"
    thin = {"dim": 3, "vertices": [[lo, "0", "0"], [hi, "0", "0"], [lo, "1", "0"], [lo, "0", "1"]]}
    infile = write(tmp_path, "thin.json", {"backend": "toric", "polytope": thin})
    monkeypatch.setattr(cli, "MAX_COUNT_SLABS", 1000)
    monkeypatch.setattr(cli, "slab_bound", counting)
    assert main(["series", "--in", infile, "--k-max", str(10**12)]) == 2
    assert "needs more than 1000 slab counts" in capsys.readouterr().err
    assert calls[0] == (10**12, 1) and calls[1:] == [(k, 1) for k in range(1, 1002)]


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=6)
BROKEN = st.one_of(st.sampled_from(["1/0", "0x1", "1.5", "", "x", "1/2/3", "--1"]),
                   st.floats(-2, 2), st.booleans(), st.none())
# huge and tiny: 10^-30 wide bodies hold no slab at most levels
HUGE = st.sampled_from([10**30, -10**30, f"{10**40}/3", f"-{10**25}/7", f"1/{10**30}"])


@st.composite
def fuzz_polytope(draw):
    """Polytope JSON in dimensions 1-4: hulls of small rationals (full or,
    with few points, flat), hulls on a random flat of every rank r < n, and
    broken inputs: bad numbers, huge and tiny values, vertices of the wrong
    length or none, and a wrong ``dim``."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["full", "flat", "broken", "huge", "shape"]))
    if kind == "flat":
        r = draw(st.integers(0, n - 1))
        base = draw(st.lists(SMALL, min_size=n, max_size=n))
        steps = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                              min_size=r, max_size=r))
        ts = draw(st.lists(st.lists(SMALL, min_size=r, max_size=r), min_size=1, max_size=6))
        vertices = [[rat_str(b + sum(t * step[i] for t, step in zip(tt, steps)))
                     for i, b in enumerate(base)] for tt in ts]
    else:
        number = {"broken": st.one_of(SMALL.map(rat_str), BROKEN),
                  "huge": st.one_of(SMALL.map(rat_str), HUGE)}.get(kind, SMALL.map(rat_str))
        size = st.integers(max(0, n - 1), n + 1) if kind == "shape" else st.just(n)
        vertices = draw(st.lists(size.flatmap(lambda m: st.lists(number, min_size=m, max_size=m)),
                                 min_size=0 if kind == "shape" else 1, max_size=7))
    dim = n
    if kind == "shape" and draw(st.booleans()):
        dim = draw(st.sampled_from([0, 5, -1, "2", 2.0, True]))
    return {"dim": dim, "vertices": vertices}


def _reference_count(body, k):
    """``oracle_count`` (a closed form in 1-D), or None where the oracle's
    walk over the prefixes of the body's own box, on all but its last two
    axes, would pass 10^4 prefixes (a flat body's chart image can be small
    where that box is huge)."""
    box = [max(0, math.floor(k * hi) - math.ceil(k * lo) + 1) for lo, hi in oracle_box(body)]
    if body.dim == 1:
        return box[0]
    return oracle_count(body, k) if math.prod(box[:-2]) <= 10**4 else None


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(fuzz_polytope(), st.sampled_from(["body", "series"]),
       st.one_of(st.integers(1, 12), st.sampled_from([-1, 0, 200, 201, 10**6, 10**12])))
def test_cli_fuzz_body_and_series_exit_codes(polytope, command, k):
    """``body --k`` and ``series --k-max`` on fuzzed polytope JSON (a toric
    model for ``series``), with the slab and point limits lowered so that
    every accepted input is small: the CLI returns 0, 1 or 2, never raises
    and prints no traceback, and every count it reports on an accepted input
    equals ``oracle_count`` (a closed form in 1-D) where the oracle's walk
    is small, and on ``series`` the points it lists."""
    import okbodies.cli as cli

    data = polytope if command == "body" else {"backend": "toric", "polytope": polytope}
    flag = "--k" if command == "body" else "--k-max"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_COUNT_SLABS", 200)
        mp.setattr(cli, "MAX_ENUM_POINTS", 2000)
        infile = write(Path(tmp), "in.json", data)
        with redirect_stdout(out), redirect_stderr(err):
            code = _exit_code([command, "--in", infile, flag, str(k)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        body = body_from_json(polytope)
        if command == "body":
            counts = {k: json.loads(out.getvalue())["count"]}
        else:
            rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
            assert [int(row[0]) for row in rows] == list(range(1, k + 1))
            assert all(int(row[2]) == len(row[4].split(";")) - (not row[4]) for row in rows)
            counts = {int(row[0]): int(row[2]) for row in rows}
        for level, counted in counts.items():
            assert _reference_count(body, level) in (counted, None)


def test_series_and_thresholds_walk_only_the_models_levels(tmp_path, capsys, monkeypatch):
    """A synthetic model with few levels in a range of 10^12 is walked level by
    level, not k by k: ``has_level`` raises after a few thousand calls, so a
    loop that steps through the range fails instead of running for hours.
    The slab early stop caps the levels left, not the k left, so a level far
    out still passes the slab limit (exit 2) before any level is built."""
    import okbodies.series as series

    has_level, calls = series.SyntheticModel.has_level, []

    def counted(self, k):
        calls.append(k)
        if len(calls) > 5000:
            raise AssertionError("a loop steps through every k of the range")
        return has_level(self, k)

    monkeypatch.setattr(series.SyntheticModel, "has_level", counted)
    big = str(10**12)
    infile = write(tmp_path, "one.json", {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                                          "levels": [1], "per_k_gaps": {"1": [[1, 0]]}})
    vfile = write(tmp_path, "v.json", [valuation("e1", "1", "0")])
    assert main(["series", "--in", infile, "--k-max", big]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1:] == [["1", "2", "3", "1", "0,0;0,1", "1,0"]]
    assert main(["thresholds", "--in", infile, "--valuations", vfile, "--k-max", big]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in rows[1:]] == ["1"]
    tetra = {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]]}  # 2-D bodies count without slabs
    far = write(tmp_path, "far.json", {"backend": "synthetic", "polytope": tetra,
                                       "levels": [1, 2, 10**11]})
    vfile = write(tmp_path, "v3.json", [valuation("e1", "1", "0", "0")])
    monkeypatch.setattr(series, "enumerate_points", lambda *args: pytest.fail("enumeration started"))
    for argv in (["series", "--in", far, "--k-max", big],
                 ["thresholds", "--in", far, "--valuations", vfile, "--k-max", big]):
        assert main(argv) == 2
        assert "slab counts to size" in capsys.readouterr().err
    assert len(calls) < 100


@pytest.mark.parametrize("levels", [
    {}, {"levels": []}, {"per_k_gaps": {}}, {"levels": [], "per_k_gaps": {"1": [[1, 0]]}},
])
def test_synthetic_model_without_levels_exits2(tmp_path, capsys, monkeypatch, levels):
    """A synthetic model with no level, from absent keys, an empty ``levels``
    list or an empty ``per_k_gaps`` object, is an input error (exit 2) that
    names both keys: ``series`` lists nothing and ``thresholds`` computes no
    ``S_tau`` for it (exit 0 with a bare header before)."""
    import okbodies.cli as cli

    monkeypatch.setattr(cli, "S_tau", lambda *args: pytest.fail("S_tau ran"))
    infile = write(tmp_path, "bare.json", {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                                           **levels})
    vfile = write(tmp_path, "v.json", [valuation("e1", "1", "0")])
    for argv in (["series", "--in", infile, "--k-max", "5"],
                 ["thresholds", "--in", infile, "--valuations", vfile, "--k-max", "5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: a synthetic model needs at least one level")
        assert "'levels'" in captured.err and "'per_k_gaps'" in captured.err


# full-dimensional ambients, which most fuzzed polytopes are not: a
# simplex in each dimension, and 3-D bodies 10^-30 thin and 10^9 long
THRESHOLD_AMBIENTS = [
    {"dim": n, "vertices": [["0"] * n] + [[s if j == i else "0" for j in range(n)]
                                          for i in range(n)]}
    for n in (1, 2, 3, 4) for s in ("1", "3/2")] + [
    {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", f"1/{10**30}"]]},
    {"dim": 3, "vertices": [["0", "0", "0"], [str(10**9), "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]}]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.one_of(fuzz_polytope(), st.sampled_from(THRESHOLD_AMBIENTS)),
       st.one_of(st.none(), st.lists(
           st.one_of(st.integers(-1, 14), st.sampled_from([10**6, 10**12])), max_size=5)),
       st.one_of(st.integers(1, 12), st.sampled_from([0, 200, 10**6, 10**12])),
       st.integers(1, 3))
def test_cli_fuzz_thresholds_exit_codes(polytope, levels, k_max, k_min):
    """``thresholds`` on fuzzed polytope JSON as a toric model (``levels`` is
    None) or as a synthetic model with the drawn ``levels``, up to
    ``--k-max`` 10^12, with the slab and point limits lowered: the CLI returns
    0, 1 or 2, never raises and prints no traceback, and an accepted run
    lists only levels of the model, each once per valuation."""
    import okbodies.cli as cli

    data = {"backend": "toric", "polytope": polytope}
    if levels is not None:
        data = {"backend": "synthetic", "polytope": polytope, "levels": levels}
    n = polytope["dim"] if type(polytope["dim"]) is int and 1 <= polytope["dim"] <= 4 else 2
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_COUNT_SLABS", 200)
        mp.setattr(cli, "MAX_ENUM_POINTS", 2000)
        infile = write(Path(tmp), "in.json", data)
        vfile = write(Path(tmp), "v.json", [valuation("a", *["1"] + ["0"] * (n - 1), const="2"),
                                             valuation("b", *["-1/2"] * n, const="4")])
        with redirect_stdout(out), redirect_stderr(err):
            code = _exit_code(["thresholds", "--in", infile, "--valuations", vfile,
                               "--k-min", str(k_min), "--k-max", str(k_max)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        ks = [int(row[0]) for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]]
        expect = range(k_min, k_max + 1)
        if levels is not None:
            expect = sorted({k for k in levels if k_min <= k <= k_max})
        assert ks == [k for k in expect for _ in "ab"]


def test_size_check_bounds_the_prefixes_the_enumeration_walks(tmp_path, capsys, monkeypatch):
    """A long ambient too thin to hold points still makes the enumeration
    walk every integer prefix of its box: a sliver 10^9 long under y = 1/3 +
    10^-12 holds no point at level 1 but walks 10^9 + 1 rows, and exits 2
    before any enumeration.  A flat ambient is walked in its chart: the
    plane x2 = x0 + x1 + 1/3 over [0, 10^4]^2 walks the 10^4 + 1 prefixes of
    its image's first axis at level 1, not the 10^8 of its own box, and
    holds no point at levels 1 and 2, which it lists at once."""
    import okbodies.lattice as lattice
    import okbodies.series as series
    from okbodies.geometry import body_from_json

    side, tiny = 10**4, f"{10**12 + 3}/{3 * 10**12}"
    sliver = {"dim": 2, "vertices": [["0", "1/3"], [str(10**9), "1/3"], ["0", tiny]]}
    plane = {"dim": 3, "vertices": [[str(x0), str(x1), f"{3 * (x0 + x1) + 1}/3"]
                                    for x0 in (0, side) for x1 in (0, side)]}
    assert lattice.count(body_from_json(sliver), 1) == 0
    assert lattice.prefix_bound(body_from_json(sliver), 1) == 10**9 + 1
    assert lattice.prefix_bound(body_from_json(plane), 1) == side + 1
    assert lattice.prefix_bound(body_from_json(FLAT4_POLYTOPE), 1) == 2 + 2 * 4
    with monkeypatch.context() as mp:
        mp.setattr(series, "enumerate_points", lambda *args: pytest.fail("enumeration started"))
        infile = write(tmp_path, "sliver.json", {"backend": "toric", "polytope": sliver})
        assert main(["series", "--in", infile, "--k-max", "2"]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: --k-max 2 walks more than 1000000 lattice prefixes to list its points "
            "(the limit is passed at level 1)")
    infile = write(tmp_path, "plane.json", {"backend": "toric", "polytope": plane})
    assert main(["series", "--in", infile, "--k-max", "2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1:] == [["1", "0", "0", "0", "", ""], ["2", "0", "0", "0", "", ""]]


@pytest.mark.parametrize("argv, message", [
    (["series", "--in", "{array_model}", "--k-max", "2"], "a model must be a JSON object"),
    (["thresholds", "--in", "{array_model}", "--valuations", "{vp2}"],
     "a model must be a JSON object"),
    (["series", "--in", "{canonical_array_gaps}", "--k-max", "2"],
     "per_k_gaps must be a JSON object keyed by level"),
    (["series", "--in", "{synthetic_array_gaps}", "--k-max", "2"],
     "per_k_gaps must be a JSON object keyed by level"),
    (["thresholds", "--in", "{p2}", "--valuations", "{vp2}", "--sweep", "{array_sweep}"],
     "a sweep spec must be a JSON object"),
    # strings where arrays belong (read as their characters before: exit 0)
    (["body", "--in", "{string_vertices}"], "vertex '00' is not a JSON array"),
    (["body", "--in", "{string_vertex_list}"], "vertices '003003' is not a JSON array"),
    (["body", "--in", "{string_normal}"], "halfspace normal '11' is not a JSON array"),
    (["series", "--in", "{toric_string_vertices}", "--k-max", "2"],
     "vertex '00' is not a JSON array"),
    (["thresholds", "--in", "{p2}", "--valuations", "{string_grad}"],
     "gradient '10' is not a JSON array"),
    (["thresholds", "--in", "{p2}", "--valuations", "{string_pieces}"],
     "pieces '' is not a JSON array"),
])
def test_non_object_json_exits2_with_one_line(tmp_path, capsys, argv, message):
    """A model whose top level is an array, ``per_k_gaps`` given as an array
    (canonical and synthetic) and a sweep spec whose top level is an array
    are input errors (an ``AttributeError`` traceback before): exit 2 with
    one line that names the expected object.  So are a string given for the
    vertices, a vertex, a halfspace normal, G's pieces or a gradient, which
    was read as the sequence of its characters."""
    inputs = {"array_model": [SIMPLEX_MODEL], "p2": SIMPLEX_MODEL,
              "vp2": [valuation("D1", "1", "0")],
              "canonical_array_gaps": {"backend": "canonical", "genus": 3,
                                       "per_k_gaps": [[3, 4]]},
              "synthetic_array_gaps": {"backend": "synthetic", "polytope": SIMPLEX_JSON,
                                       "per_k_gaps": [[[1, 0]]]},
              "array_sweep": [{"tau": "1/2", "k_range": [1, 2]}],
              "string_vertices": {"dim": 2, "vertices": ["00", "30", "03"]},
              "string_vertex_list": {"dim": 2, "vertices": "003003"},
              "string_normal": dict(SIMPLEX_JSON, halfspaces=[{"normal": "11", "offset": "1"}]),
              "toric_string_vertices": {"backend": "toric",
                                        "polytope": {"dim": 2, "vertices": ["00", "30", "03"]}},
              "string_grad": [{"label": "D1", "A": "1",
                               "G": {"pieces": [{"grad": "10", "const": "0"}]}}],
              "string_pieces": [{"label": "D1", "A": "1", "G": {"pieces": ""}}]}
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in inputs.items()}
    assert _exit_code([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 3 ", "+1", " 1 / -2 ", "1/-2", "1 /2", "1/",
                                  "/2", "", "-", "1/2/3", "1.5", "1e3", "0x1", "3\n", "--1"])
def test_sloppy_rational_strings_exit2(tmp_path, capsys, text):
    """A number string must be p or p/q in ASCII digits, p with an optional
    minus sign: in body vertices, a thresholds gradient and --tau, anything
    else is an input error (``int`` read underscores, spaces, "+" and
    non-ASCII digits before: exit 0)."""
    body = write(tmp_path, "body.json", {"dim": 2, "vertices": [["0", "0"], [text, "0"], ["0", "1"]]})
    model = write(tmp_path, "p2.json", SIMPLEX_MODEL)
    family = write(tmp_path, "v.json", [valuation("D1", text, "0")])
    vp2 = write(tmp_path, "vp2.json", [valuation("D1", "1", "0")])
    for argv in (["body", "--in", body],
                 ["thresholds", "--in", model, "--valuations", family, "--k-max", "2"]):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert _exit_code(["thresholds", "--in", model, "--valuations", vp2, f"--tau={text}"]) == 2
    assert "is not a rational p/q" in capsys.readouterr().err


# JSON values that are not objects: arrays, strings, numbers, booleans and null
NON_OBJECT = st.one_of(
    st.lists(st.one_of(st.integers(-1, 4), st.sampled_from(["1", "dim", "grad"]), st.none(),
                       st.lists(st.integers(0, 2), max_size=2)), max_size=3),
    st.sampled_from(["", "1/2", "dim", "vertices", "pieces", "dim vertices", "{}"]),
    st.integers(-2, 3), st.sampled_from([0.5, -1.0, 1e300]), st.booleans(), st.none())
# where a non-object goes: the model document, its polytope, its per_k_gaps
# and one of their values, the valuation family, one valuation, its G, G's
# pieces and one piece, the sweep spec and its k_range
NON_OBJECT_SLOTS = ["model", "polytope", "per_k_gaps", "gaps", "family", "valuation",
                    "G", "pieces", "piece", "sweep", "k_range"]
FUZZ_MODELS = {
    "toric": {"backend": "toric", "polytope": SIMPLEX_JSON},
    "synthetic": {"backend": "synthetic", "polytope": SIMPLEX_JSON, "per_k_gaps": {"1": [[1, 0]]}},
    "canonical": {"backend": "canonical", "genus": 3, "per_k_gaps": {"1": [3, 4]}},
}


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FUZZ_MODELS)), st.sampled_from(NON_OBJECT_SLOTS), NON_OBJECT,
       st.sampled_from(["series", "thresholds"]))
def test_cli_fuzz_non_object_json_exit_codes(backend, slot, value, command):
    """``series`` and ``thresholds --sweep`` on model, valuation and sweep
    JSON with one object (or one value of an object) replaced by an array, a
    string, a number, a boolean or null: the CLI returns 0, 1, 2 or 3, never
    raises and prints no traceback, and a failing run prints one error
    line."""
    model = json.loads(json.dumps(FUZZ_MODELS[backend]))
    piece = {"grad": ["1"] + ["0"] * (1 if backend != "canonical" else 0), "const": "0"}
    v = {"label": "e1", "A": "1", "G": {"pieces": [piece]}}
    docs = {"model": model, "family": [v], "sweep": {"tau": "1/2", "k_range": [1, 2]}}
    if slot in ("model", "family", "sweep"):
        docs[slot] = value
    elif slot in ("polytope", "per_k_gaps"):
        model[slot] = value
    elif slot == "gaps":
        model["per_k_gaps"] = {"1": value}
    elif slot == "valuation":
        docs["family"] = [value]
    elif slot == "G":
        v["G"] = value
    elif slot == "pieces":
        v["G"]["pieces"] = value
    elif slot == "piece":
        v["G"]["pieces"] = [value]
    else:
        docs["sweep"]["k_range"] = value
    if slot in ("family", "valuation", "G", "pieces", "piece", "sweep", "k_range"):
        command = "thresholds"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: write(Path(tmp), f"{name}.json", doc) for name, doc in docs.items()}
        argv = [command, "--in", paths["model"], "--k-max", "2"]
        if command == "thresholds":
            argv = argv[:3] + ["--valuations", paths["family"], "--sweep", paths["sweep"]]
        with redirect_stdout(out), redirect_stderr(err):
            code = _exit_code(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert len(lines) == (code != 0), lines
    assert not lines or lines[0].split(":")[0] in (
        "input error", "domain error", "model error", "geometry error")


@pytest.mark.parametrize("suite", SUITES)
def test_cli_fuzz_verify_exit_codes(suite):
    """``verify`` on every suite at --k-max 2, 3 and 5 and seeds 0, 1 and 2,
    in-process: the CLI returns 0 or 3, never raises and prints no
    traceback, and its summary passes exactly when it returns 0."""
    for k_max in (2, 3, 5):
        for seed in (0, 1, 2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = _exit_code(["verify", suite, "--k-max", str(k_max), "--seed", str(seed)])
            assert code in (0, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert json.loads(out.getvalue())["passed"] is (code == 0)


UNREADABLE_JSON = {
    "huge_int": ('{"dim": 1, "vertices": [[' + "1" * 5001 + '], [0]]}').encode(),
    "not_utf8": b'\xff\xfe{"dim": 1, "vertices": [[0], [1]]}',
    "deep": b"[" * 100000 + b"]" * 100000,
    "directory": None,
}


@pytest.mark.parametrize("slot", ["body", "valuations", "sweep"])
@pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
def test_unreadable_json_exits2_with_one_line(tmp_path, capsys, slot, content):
    """A JSON file with an integer past the 4300-digit input limit, bytes that
    are not UTF-8, nesting past the recursion limit, or a directory in its
    place is an input error in every slot that reads a file (a domain error
    or a traceback before): exit 2 with one line."""
    bad = tmp_path / "bad.json"
    if UNREADABLE_JSON[content] is None:
        bad.mkdir()
    else:
        bad.write_bytes(UNREADABLE_JSON[content])
    model = write(tmp_path, "p2.json", SIMPLEX_MODEL)
    family = write(tmp_path, "v.json", [valuation("D1", "1", "0")])
    argv = {"body": ["body", "--in", str(bad)],
            "valuations": ["thresholds", "--in", model, "--valuations", str(bad)],
            "sweep": ["thresholds", "--in", model, "--valuations", family,
                      "--sweep", str(bad)]}[slot]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_long_exact_results_print_and_long_inputs_exit2(tmp_path, capsys):
    """The triangle (0,0), (1/q,0), (0,1/q), q = 10^2200 + 1, has volume
    1/(2 q^2), whose denominator has 4401 digits: ``body`` prints it and
    exits 0 (a domain error from the interpreter's 4300-digit limit on
    int/str conversion before), and leaves that limit as it was.  An input
    integer of more than 4300 digits, in a "p/q" string, a JSON number or a
    ``per_k_gaps`` key, is still refused with exit 2, now with the
    library's own message."""
    q = "1" + "0" * 2199 + "1"
    triangle = write(tmp_path, "t.json", {"dim": 2, "vertices": [
        ["0", "0"], [f"1/{q}", "0"], ["0", f"1/{q}"]]})
    limit = sys.get_int_max_str_digits()
    assert main(["body", "--in", triangle]) == 0
    assert sys.get_int_max_str_digits() == limit
    # 2 q^2 = 2 10^4400 + 4 10^2200 + 2
    assert json.loads(capsys.readouterr().out)["volume"] == f"1/2{'0' * 2199}4{'0' * 2199}2"
    long = "1" * 4301
    for vertex in ([f'"{long}"', '"0"'], [long, "0"], [f'"1/{long}"', '"0"']):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "vertices": [[0, 0], [%s], [0, 1]]}' % ", ".join(vertex))
        assert _exit_code(["body", "--in", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "input error: an input integer has 4301 digits, more than the limit of 4300\n")
    model = write(tmp_path, "m.json", {"backend": "synthetic", "polytope": {
        "dim": 1, "vertices": [["0"], ["1"]]}, "per_k_gaps": {long: []}})
    assert _exit_code(["series", "--in", model, "--k-max", "2"]) == 2
    assert capsys.readouterr().err == (
        "input error: an input integer has 4301 digits, more than the limit of 4300\n")


@pytest.mark.parametrize("command", ["body", "series", "thresholds", "verify"])
def test_unwritable_out_exits2_with_one_line(tmp_path, capsys, command):
    """``--out`` naming a directory (a file for ``verify``, which writes a
    directory) is an input error: exit 2 with one line, no traceback."""
    taken = tmp_path / "taken"
    if command == "verify":
        taken.write_text("")
    else:
        taken.mkdir()
    model = write(tmp_path, "p2.json", SIMPLEX_MODEL)
    argv = {"body": ["body", "--in", write(tmp_path, "s.json", SIMPLEX_JSON)],
            "series": ["series", "--in", model, "--k-max", "2"],
            "thresholds": ["thresholds", "--in", model, "--k-max", "2", "--valuations",
                           write(tmp_path, "v.json", [valuation("D1", "1", "0")])],
            "verify": ["verify", "weierstrass", "--k-max", "2"]}[command]
    assert _exit_code(argv + ["--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
