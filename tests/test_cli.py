"""CLI subcommands: exit codes, report envelopes, CSV output, determinism."""

import hashlib
import json
import os
import stat
import tracemalloc

import pytest

import ifsconj.cli as cli
from ifsconj import __version__
from ifsconj.cli import main
from ifsconj.config import MAX_COUNT


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


CONJ_DOC = {
    "f": {"kind": "linear", "k": 0.25},
    "g": {"kind": "linear", "k": 0.5},
    "bridge": "power-law",
    "anchor": 1.0,
}


def test_verify_fixture_passes(tmp_path):
    inp = write(tmp_path, "conj.json", CONJ_DOC)
    out = str(tmp_path / "report.json")
    code = main(["verify", "--input", inp, "--output", out, "--tolerance", "1e-9"])
    assert code == 0
    rep = read_report(out)
    assert rep["report"]["verdict"] == "pass"
    assert rep["report"]["residual_sup"] <= 1e-9
    assert rep["version"]
    assert rep["config"]["bridge"] == "power-law"


def test_output_file_mode_follows_umask(tmp_path):
    inp = write(tmp_path, "conj.json", CONJ_DOC)
    out = str(tmp_path / "report.json")
    old = os.umask(0o022)
    try:
        assert main(["verify", "--input", inp, "--output", out]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o644


def test_conjugacy_emits_homeomorphism_description(tmp_path):
    inp = write(tmp_path, "conj.json", CONJ_DOC)
    out = str(tmp_path / "report.json")
    assert main(["conjugacy", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["orientation"] == "direct"
    assert rep["report"]["interval"] == "(0,1)"


def test_conjugacy_csv_columns(tmp_path):
    inp = write(tmp_path, "conj.json", CONJ_DOC)
    out = str(tmp_path / "report.csv")
    assert main(["conjugacy", "--input", inp, "--output", out, "--format", "csv"]) == 0
    header = open(out).readline().strip()
    assert header == "x,h_x,residual"


def test_obstruction_exit_code(tmp_path):
    doc = {"f": {"kind": "linear", "k": 2.0}, "g": {"kind": "linear", "k": 0.5}}
    inp = write(tmp_path, "bad-pair.json", doc)
    out = str(tmp_path / "report.json")
    code = main(["conjugacy", "--input", inp, "--output", out])
    assert code == 2
    rep = read_report(out)
    assert rep["report"]["verdict"] == "obstructed"
    assert rep["report"]["obstruction"] == "attract-repel-mismatch"


@pytest.mark.parametrize("doc", [
    CONJ_DOC,
    {"f": {"kind": "linear", "k": 0.5}, "g": {"kind": "linear", "k": -0.5}},
], ids=["report", "obstruction"])
@pytest.mark.parametrize("target, error", [
    ("no-such-dir/report.json", "[Errno 2] No such file or directory"),
    ("a-dir", "[Errno 21] Is a directory"),  # fails at the rename of the temporary file
])
def test_unwritable_output_exit_1_names_output(tmp_path, capsys, doc, target, error):
    inp = write(tmp_path, "in.json", doc)
    (tmp_path / "a-dir").mkdir()
    out = str(tmp_path / target)
    assert main(["conjugacy", "--input", inp, "--output", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ifsconj conjugacy: {error}: {out!r}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["a-dir", "in.json"]


# "10" and 2.5 ended in a TypeError traceback, and true ran as n = 1
@pytest.mark.parametrize("n", ["10", 2.5, True, None])
def test_orbit_mistyped_n_exit_1(tmp_path, capsys, n):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}],
        "sequence": {"type": "periodic", "pattern": [1]},
        "x0": 1.0,
        "n": n,
    }
    inp = write(tmp_path, "orbit.json", doc)
    assert main(["orbit", "--input", inp]) == 1
    captured = capsys.readouterr()
    assert captured.err == "ifsconj orbit: document.n must be an integer\n"
    assert captured.out == ""


def test_missing_input_exit_1(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path / "nope.json")]) == 1
    assert "No such file" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"f": {"kind": "linear", }')
    assert main(["verify", "--input", str(p)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unknown_field_exit_1(tmp_path, capsys):
    doc = dict(CONJ_DOC)
    doc["extra"] = 1
    inp = write(tmp_path, "extra.json", doc)
    assert main(["verify", "--input", inp]) == 1
    assert "extra" in capsys.readouterr().err


def test_orbit_command(tmp_path):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 0.25}],
        "sequence": {"type": "explicit", "symbols": [1, 2, 1]},
        "x0": 8.0,
        "n": 3,
    }
    inp = write(tmp_path, "orbit.json", doc)
    out = str(tmp_path / "orbit-report.json")
    assert main(["orbit", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["final"] == pytest.approx(0.5)
    assert rep["report"]["effective_slope"] == pytest.approx(0.0625)


def test_orbit_zero_slope_after_overflow(tmp_path, capsys):
    # the slope product overflows before it meets the zero slope; the report
    # gives the exact product 0.0 (it was nan) and no warning reaches stderr
    doc = {
        "maps": [{"kind": "linear", "k": 0.0}, {"kind": "linear", "k": 1e200}],
        "sequence": {"type": "explicit", "symbols": [2, 2, 1]},
        "x0": 1.0,
        "n": 3,
    }
    inp = write(tmp_path, "orbit.json", doc)
    out = str(tmp_path / "orbit-report.json")
    assert main(["orbit", "--input", inp, "--output", out]) == 0
    assert '"effective_slope": 0.0' in open(out).read()
    assert capsys.readouterr().err == ""


def test_orbit_csv(tmp_path):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 0.25}],
        "sequence": {"type": "periodic", "pattern": [1, 2]},
        "x0": 8.0,
    }
    inp = write(tmp_path, "orbit.json", doc)
    out = str(tmp_path / "orbit.csv")
    assert main(["orbit", "--input", inp, "--output", out, "--format", "csv",
                 "--n-max", "4"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "step,symbol,value"
    assert len(lines) == 5


def test_linearize_command(tmp_path):
    doc = {
        "maps": [
            {"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1},
            {"kind": "linear", "k": 0.25},
        ]
    }
    inp = write(tmp_path, "lin.json", doc)
    out = str(tmp_path / "lin-report.json")
    assert main(["linearize", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["slopes"] == [0.5, 0.25]
    assert rep["report"]["hg_case"] == "case1-same-interval"


def test_linearize_boundary_slope_exit_2(tmp_path):
    doc = {
        "maps": [
            {
                "kind": "linear+lipschitz",
                "k": 0.7,
                "perturbation": {"shape": "rational", "amplitude": 0.3, "lipschitz": 0.3},
            }
        ]
    }
    inp = write(tmp_path, "boundary.json", doc)
    assert main(["linearize", "--input", inp, "--output", str(tmp_path / "o.json")]) == 2


def test_multidim_boundary_entry_exit_2(tmp_path):
    # a boundary entry is reported as such, not as a pooled interval mix
    doc = {
        "dimension": 2,
        "maps": [{"diag": [1.0, 0.5]}],
        "g_maps": [{"diag": [1.0, 0.5]}],
        "sequence": {"type": "explicit", "symbols": [1]},
    }
    inp = write(tmp_path, "boundary.json", doc)
    out = str(tmp_path / "o.json")
    assert main(["multidim", "--input", inp, "--output", out]) == 2
    rep = read_report(out)
    assert rep["config"] == {"input": doc}
    assert rep["report"] == {
        "verdict": "obstructed",
        "reason": "F[1] has boundary diagonal entry 1.0 in coordinate 1",
        "obstruction": None,
    }


def test_non_finite_slope_exit_1_names_field(tmp_path, capsys):
    inp = tmp_path / "nan.json"
    inp.write_text('{"f": {"kind": "linear", "k": NaN}, "g": {"kind": "linear", "k": 0.5}}')
    assert main(["conjugacy", "--input", str(inp)]) == 1
    assert capsys.readouterr().err == "ifsconj conjugacy: f.k must be finite\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("family", ["maps", "g_maps"])
def test_multidim_non_finite_diagonal_exit_1_names_field(tmp_path, capsys, family, value):
    doc = {**COMPONENTWISE_DOC, family: [{"diag": [0.5, 0.3]}, {"diag": [0.25, value]}]}
    inp = write(tmp_path, "diag.json", doc)
    assert main(["multidim", "--input", inp]) == 1
    assert capsys.readouterr().err == (
        f"ifsconj multidim: {family}[1].diag must be finite\n"
    )


@pytest.mark.parametrize("field", ["k", "b"])
def test_attractor_non_finite_affine_exit_1_names_field(tmp_path, capsys, field):
    doc = {**ATTRACTOR_DOC, "maps": [{"kind": "affine", "k": 0.5, "b": 0.1, field: float("nan")}]}
    inp = write(tmp_path, "affine.json", doc)
    assert main(["attractor", "--input", inp]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ifsconj attractor: maps[0].{field} must be finite\n"
    assert captured.out == ""


def test_classify_command(tmp_path):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 2.0}],
        "sequence": {"type": "sparse-density", "special_index": 2, "rule": "perfect-squares"},
        "x0": 1.0,
        "epsilon": 0.1,
    }
    inp = write(tmp_path, "fate.json", doc)
    out = str(tmp_path / "fate-report.json")
    assert main(["classify", "--input", inp, "--output", out, "--n-max", "400"]) == 0
    rep = read_report(out)
    assert rep["report"]["predicted_fate"] == "converges-to-zero"
    assert rep["report"]["n2"] == 20


def test_classify_csv(tmp_path):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 2.0}],
        "sequence": {"type": "periodic", "pattern": [1, 2]},
        "x0": 1.0,
        "epsilon": 0.1,
    }
    inp = write(tmp_path, "fate.json", doc)
    out = str(tmp_path / "fate.csv")
    assert main(["classify", "--input", inp, "--output", out, "--format", "csv",
                 "--n-max", "50"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "n,n1,n2,ratio,orbit_F,orbit_G,bound"
    assert len(lines) == 51


def test_multidim_similarity(tmp_path):
    doc = {
        "dimension": 2,
        "maps": [{"diag": [0.5, 0.25]}],
        "sequence": {"type": "explicit", "symbols": [1, 1]},
        "n": 2,
        "x": [1.0, 2.0],
        "similarity": {"A": [[1.0, 1.0], [0.0, 1.0]]},
    }
    inp = write(tmp_path, "sim.json", doc)
    out = str(tmp_path / "sim-report.json")
    assert main(["multidim", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["route"] == "similarity"
    assert rep["report"]["max_residual"] <= 1e-12


def test_multidim_componentwise(tmp_path):
    doc = {
        "dimension": 2,
        "maps": [{"diag": [0.5, 0.3]}, {"diag": [0.25, 0.6]}],
        "g_maps": [{"diag": [0.4, 0.2]}, {"diag": [0.35, 0.5]}],
        "sequence": {"type": "explicit", "symbols": [1, 2]},
        "n": 2,
    }
    inp = write(tmp_path, "cw.json", doc)
    out = str(tmp_path / "cw-report.json")
    assert main(["multidim", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["residual"] <= 1e-8


def test_multidim_componentwise_dimension_6(tmp_path):
    # 17**6 = 2.4e7 box points; the residual is taken on the 17 axis points
    doc = {
        "dimension": 6,
        "maps": [{"diag": [0.5, 0.3, 0.7, 0.2, 0.6, 0.4]}, {"diag": [0.25, 0.6, 0.1, 0.8, 0.3, 0.5]}],
        "g_maps": [{"diag": [0.4, 0.2, 0.6, 0.3, 0.5, 0.7]}, {"diag": [0.35, 0.5, 0.2, 0.9, 0.1, 0.4]}],
        "sequence": {"type": "explicit", "symbols": [1, 2, 2]},
        "n": 3,
    }
    inp = write(tmp_path, "cw6.json", doc)
    out = str(tmp_path / "cw6-report.json")
    assert main(["multidim", "--input", inp, "--output", out]) == 0
    rep = read_report(out)
    assert rep["report"]["grid_per_axis"] == 17
    assert rep["report"]["residual"] <= 1e-8


def test_multidim_rejects_both_routes(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "maps": [{"diag": [0.5, 0.25]}],
        "g_maps": [{"diag": [0.4, 0.2]}],
        "sequence": {"type": "explicit", "symbols": [1]},
        "similarity": {"A": [[1.0, 0.0], [0.0, 1.0]]},
    }
    inp = write(tmp_path, "both.json", doc)
    assert main(["multidim", "--input", inp]) == 1
    assert "similarity" in capsys.readouterr().err


def test_multidim_singular_matrix_exit_1(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "maps": [{"diag": [0.5, 0.25]}],
        "sequence": {"type": "explicit", "symbols": [1]},
        "similarity": {"A": [[1.0, 1.0], [1.0, 1.0]]},
    }
    inp = write(tmp_path, "singular.json", doc)
    assert main(["multidim", "--input", inp]) == 1


def test_multidim_similarity_overflow_exit_1(tmp_path, capsys):
    # 1e200 * 1e200 * 0 is nan on both sides; the residual was reported as
    # "nan" with exit 0, after four RuntimeWarnings
    doc = {
        "dimension": 2,
        "maps": [{"diag": [1e200, 0.5]}, {"diag": [0.0, 0.25]}],
        "sequence": {"type": "explicit", "symbols": [1, 1, 2]},
        "n": 3,
        "x": [1.0, 1.0],
        "similarity": {"A": [[1.0, 0.0], [0.0, 1.0]]},
    }
    inp = write(tmp_path, "overflow.json", doc)
    assert main(["multidim", "--input", inp]) == 1
    assert capsys.readouterr().err == (
        "ifsconj multidim: a side of the similarity residual at n=3 is not finite\n"
    )


HUGE_SLOPE_MAPS = [{"kind": "linear", "k": 1e308}, {"kind": "linear", "k": 0.5}]


def test_distance_of_a_huge_slope_leaks_no_warning(tmp_path):
    # k*x overflows on the grid; the pair of equal huge slopes differs by
    # inf - inf there, so its distance and the family's are nan (the other
    # pairs' are inf). pytest turns a leaked RuntimeWarning into a failure
    doc = {"maps": HUGE_SLOPE_MAPS, "g_maps": [{"kind": "linear", "k": 1e308}, {"kind": "linear", "k": 0.4}]}
    inp = write(tmp_path, "huge.json", doc)
    for fmt in ("json", "csv"):
        out = str(tmp_path / f"distance.{fmt}")
        assert main(["distance", "--input", inp, "--output", out, "--format", fmt]) == 0
    report = read_report(str(tmp_path / "distance.json"))["report"]
    assert report["d0"] == report["d1"] == "nan"
    assert report["argmax_pair"] == [1, 1]


def test_attractor_of_a_huge_slope_exits_1_without_a_warning(tmp_path, capsys):
    # sup |f'| = 1e308 is read from the map, not estimated on a grid where
    # k*x overflows
    doc = {"maps": HUGE_SLOPE_MAPS, "iterations": 100, "seed": 1, "burn_in": 10, "x0": 0.5}
    inp = write(tmp_path, "huge.json", doc)
    assert main(["attractor", "--input", inp]) == 1
    assert capsys.readouterr().err == "ifsconj attractor: map 1 is not contractive on the interval\n"


def test_audit_of_a_huge_slope_leaks_no_warning(tmp_path):
    inp = write(tmp_path, "huge.json", {"maps": HUGE_SLOPE_MAPS})
    out = str(tmp_path / "audit.json")
    assert main(["audit", "--input", inp, "--output", out]) == 0
    assert read_report(out)["report"]["verdict"] == "hyperbolic"


@pytest.mark.parametrize("maps, message", [
    (HUGE_SLOPE_MAPS, "probe requires the maps of F in one slope interval"),
    ([{"kind": "linear", "k": 1e308}, {"kind": "linear", "k": 2.0}],
     "no admissible perturbation within delta=0.01 after 400 attempts"),
])
def test_probe_of_a_huge_slope_leaks_no_warning(tmp_path, capsys, maps, message):
    inp = write(tmp_path, "huge.json", {"maps": maps})
    assert main(["probe", "--input", inp, "--trials", "4"]) == 1
    assert capsys.readouterr().err == f"ifsconj probe: {message}\n"


@pytest.mark.parametrize("x", [["a", 1.0], [1.0, True], [1.0, 2.0, 3.0]])
def test_multidim_bad_x_names_the_field(tmp_path, capsys, x):
    doc = {
        "dimension": 2,
        "maps": [{"diag": [0.5, 0.25]}],
        "sequence": {"type": "explicit", "symbols": [1, 1]},
        "x": x,
        "similarity": {"A": [[1.0, 1.0], [0.0, 1.0]]},
    }
    inp = write(tmp_path, "bad-x.json", doc)
    assert main(["multidim", "--input", inp]) == 1
    assert capsys.readouterr().err == (
        "ifsconj multidim: document.x must be a list of 2 numbers\n"
    )


def test_distance_command(tmp_path):
    doc = {
        "maps": [{"kind": "linear", "k": 0.5}],
        "g_maps": [{"kind": "linear", "k": 0.6}],
    }
    inp = write(tmp_path, "dist.json", doc)
    out = str(tmp_path / "dist-report.json")
    assert main(["distance", "--input", inp, "--output", out, "--level", "1"]) == 0
    rep = read_report(out)
    assert rep["report"]["d1"] == pytest.approx(10.0 / 3.0 + 0.1, abs=1e-9)


def test_audit_exit_codes(tmp_path):
    good = write(tmp_path, "good.json", {"maps": [{"kind": "linear", "k": 0.5}]})
    assert main(["audit", "--input", good, "--output", str(tmp_path / "g.json")]) == 0
    bad = write(
        tmp_path,
        "bad.json",
        {
            "maps": [
                {
                    "kind": "linear+lipschitz",
                    "k": 0.7,
                    "perturbation": {
                        "shape": "rational",
                        "amplitude": 0.3,
                        "lipschitz": 0.3,
                    },
                }
            ]
        },
    )
    out = str(tmp_path / "b.json")
    assert main(["audit", "--input", bad, "--output", out]) == 2
    rep = read_report(out)
    assert rep["report"]["verdict"] == "non-hyperbolic"


def test_probe_command(tmp_path):
    doc = {"maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 0.25}]}
    inp = write(tmp_path, "probe.json", doc)
    out = str(tmp_path / "probe-report.json")
    assert main(
        ["probe", "--input", inp, "--output", out, "--delta", "0.01",
         "--trials", "10", "--seed", "42"]
    ) == 0
    rep = read_report(out)
    assert rep["report"]["pass_fraction"] == 1.0


def test_attractor_csv_and_determinism(tmp_path):
    doc = {
        "maps": [
            {"kind": "affine", "k": 0.3333333333333333, "b": 0.0},
            {"kind": "affine", "k": 0.3333333333333333, "b": 0.6666666666666666},
        ],
        "allow_affine": True,
        "iterations": 2000,
        "burn_in": 100,
        "x0": 0.5,
    }
    inp = write(tmp_path, "attr.json", doc)
    out1 = str(tmp_path / "a1.csv")
    out2 = str(tmp_path / "a2.csv")
    assert main(["attractor", "--input", inp, "--output", out1, "--format", "csv",
                 "--seed", "5"]) == 0
    assert main(["attractor", "--input", inp, "--output", out2, "--format", "csv",
                 "--seed", "5"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_json_reports_byte_identical(tmp_path):
    inp = write(tmp_path, "conj.json", CONJ_DOC)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    main(["verify", "--input", inp, "--output", out1])
    main(["verify", "--input", inp, "--output", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


# 0.3x + 0.5 sin(x) fixes only 0, where its slope is 0.8, but decreases near pi
NON_MONOTONE_MAP = {"kind": "linear+lipschitz", "k": 0.3,
                    "perturbation": {"shape": "sine", "amplitude": 0.5, "lipschitz": 0.5}}


def test_probe_mixed_intervals_exits_1(tmp_path, capsys):
    doc = {"maps": [{"kind": "linear", "k": -0.5}, {"kind": "linear", "k": 0.4}]}
    inp = write(tmp_path, "mixed.json", doc)
    assert main(["probe", "--input", inp, "--trials", "6", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "ifsconj probe: probe requires the maps of F in one slope interval\n"
    assert captured.out == ""


# the slope test runs before the audit's verdict: a slope of -1, a
# non-hyperbolic fixed point at 0, exited 1 with the audit's HypothesisError
@pytest.mark.parametrize("k, reason", [
    (-1.0, "a slope of magnitude 0 or 1 has no interval class"),
    (0.0, "a slope of magnitude 0 or 1 has no interval class"),
    (1.0, "f(x) - x vanishes identically on a subinterval; "
          "a continuum of fixed points is never hyperbolic"),
])
def test_probe_boundary_slope_exits_2(tmp_path, capsys, k, reason):
    inp = write(tmp_path, "boundary.json", {"maps": [{"kind": "linear", "k": k}]})
    assert main(["probe", "--input", inp]) == 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert report == {"obstruction": None, "reason": reason, "verdict": "obstructed"}


def test_probe_csv_unsupported(tmp_path, capsys):
    doc = {"maps": [{"kind": "linear", "k": 0.5}]}
    inp = write(tmp_path, "p.json", doc)
    code = main(["probe", "--input", inp, "--format", "csv", "--trials", "1"])
    assert code == 1
    assert "CSV" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, extra, message", [
    ("distance",
     {"maps": [{"kind": "linear", "k": 0.5}],
      "g_maps": [{"kind": "linear", "k": 0.4}, NON_MONOTONE_MAP]},
     [], "map is not strictly monotone on the working interval"),
    ("probe",
     {"maps": [{"kind": "linear", "k": 0.5}, NON_MONOTONE_MAP]},
     ["--trials", "3"], "no admissible perturbation within delta=0.01 after 300 attempts"),
])
def test_non_monotone_map_exits_1(tmp_path, capsys, command, doc, extra, message):
    inp = write(tmp_path, "in.json", doc)
    assert main([command, "--input", inp, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ifsconj {command}: {message}\n"
    assert captured.out == ""


# -- reports pinned across commits ------------------------------------------

ATTRACTOR_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.4,
         "perturbation": {"shape": "sine", "amplitude": 0.2, "lipschitz": 0.2}},
        {"kind": "linear+lipschitz", "k": -0.3,
         "perturbation": {"shape": "rational", "amplitude": 0.1, "lipschitz": 0.1}},
        {"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1},
        {"kind": "affine", "k": 0.3333333333333333, "b": 0.6666666666666666},
    ],
    "allow_affine": True,
    "iterations": 3000,
    "burn_in": 100,
    "x0": 0.5,
    "seed": 7,
}
ORBIT_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.6,
         "perturbation": {"shape": "sine", "amplitude": 0.3, "lipschitz": 0.3}},
        {"kind": "smooth", "name": "rational-quadratic", "k": -0.5, "c": 0.1},
    ],
    "sequence": {"type": "bernoulli", "p": 0.3, "seed": 4},
    "x0": 1.5,
    "n": 500,
}
CLASSIFY_DOC = {
    "maps": [{"kind": "linear", "k": 0.5}, {"kind": "linear", "k": 2.0}],
    "sequence": {"type": "sparse-density", "special_index": 2, "rule": "perfect-squares"},
    "x0": 1.0,
    "epsilon": 0.1,
}
DISTANCE_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.5,
         "perturbation": {"shape": "sine", "amplitude": 0.1, "lipschitz": 0.1}},
        {"kind": "smooth", "name": "rational-quadratic", "k": 0.4, "c": 0.06},
    ],
    "g_maps": [
        {"kind": "linear", "k": 0.45},
        {"kind": "linear+lipschitz", "k": -0.5,
         "perturbation": {"shape": "rational", "amplitude": 0.05, "lipschitz": 0.05}},
        {"kind": "smooth", "name": "rational-quadratic", "k": 0.55, "c": 0.05},
    ],
}
# the bump pushes the first map's slope to 0 near x = pi, so some jittered
# candidates are not monotone and the probe draws more often than it has trials
# the orbit overflows at step 526, so 475 trajectory cells, the final value and
# the effective slope are inf
DIVERGING_DOC = {
    "maps": [{"kind": "linear", "k": 3.0}, {"kind": "linear", "k": 5.0}],
    "sequence": {"type": "bernoulli", "p": 0.5, "seed": 4},
    "x0": 1.0,
    "n": 1000,
}
PROBE_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.3,
         "perturbation": {"shape": "sine", "amplitude": 0.3, "lipschitz": 0.3}},
        {"kind": "linear", "k": 0.5},
    ],
}
LINEARIZE_DOC = {
    "maps": [
        {"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1},
        {"kind": "linear+lipschitz", "k": 0.3,
         "perturbation": {"shape": "sine", "amplitude": 0.1, "lipschitz": 0.1}},
        {"kind": "linear", "k": 0.25},
    ],
}
AUDIT_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.4,
         "perturbation": {"shape": "sine", "amplitude": 0.2, "lipschitz": 0.2}},
        {"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1},
    ],
}
# the rational bump puts a fixed-point derivative on the unit boundary
AUDIT_NON_HYPERBOLIC_DOC = {
    "maps": [
        {"kind": "linear+lipschitz", "k": 0.7,
         "perturbation": {"shape": "rational", "amplitude": 0.3, "lipschitz": 0.3}},
        {"kind": "linear", "k": 0.5},
    ],
}
# no "x": the similarity route samples 256 points from the default seed
SIMILARITY_DOC = {
    "dimension": 2,
    "maps": [{"diag": [0.5, 0.25]}, {"diag": [0.4, 0.3]}],
    "sequence": {"type": "bernoulli", "p": 0.5, "seed": 3},
    "n": 6,
    "similarity": {"A": [[1.0, 1.0], [0.0, 1.0]]},
}
COMPONENTWISE_DOC = {
    "dimension": 2,
    "maps": [{"diag": [0.5, 0.3]}, {"diag": [0.25, 0.6]}],
    "g_maps": [{"diag": [0.4, 0.2]}, {"diag": [0.35, 0.5]}],
    "sequence": {"type": "explicit", "symbols": [1, 2]},
    "n": 2,
}
# opposite orientations: the report is an obstruction with exit code 2
OBSTRUCTION_DOC = {"f": {"kind": "linear", "k": 0.5}, "g": {"kind": "linear", "k": -0.5}}
# the affine Cantor system at the size of the benchmark's large attractor runs
ATTRACTOR_LARGE_DOC = {
    "maps": [
        {"kind": "affine", "k": 0.3333333333333333, "b": 0.0},
        {"kind": "affine", "k": 0.3333333333333333, "b": 0.6666666666666666},
    ],
    "allow_affine": True,
    "iterations": 60000,
    "burn_in": 100,
    "x0": 0.5,
    "seed": 11,
}

# sha256 of each report: attractor, orbit and classify recorded before the
# orbit kernels were rewritten, distance and probe before the stability
# distances shared per-map grid data, conjugacy and verify before the
# fundamental-domain walk took blind steps, orbit-diverging before the slope
# product stopped warning of its overflow, linearize, audit, multidim,
# obstruction and the large conjugacy and attractor reports before reports
# were emitted a column at a time; the version field is blanked so that a
# version bump alone changes nothing
PINNED_REPORTS = {
    ("attractor", "json"): "fa62c5b0db35231a5e53b59376412b991dee388ff1a3367915157cfb1dca34a0",
    ("attractor", "csv"): "49832eb0e222617b8ee149143f83c6e54ccc6759c16e337ece4573e15b6c7627",
    ("orbit", "json"): "aae6b25ea263e4e24ae88ea5ff6b8077332dc956bee021669cce21b2a049821f",
    ("orbit", "csv"): "1cdd073da0028db4aae237d2740ece401668e5fbde072ca95d1199d6a3352091",
    ("classify", "json"): "fa52e144686c74e1e0b1dbac6a3bab9c00a591ed65743f3bb541b5a1dfe7c6b9",
    ("classify", "csv"): "e8f94fe781f0991c82382264a556d74ee5c8a3327cc3cb9002a3d1ae551be429",
    # re-pinned when the inverse took Newton steps in place of bisection: d0
    # 45.15474951837845 -> 45.15474951837848, whose exact value (a 40-digit
    # root) is 45.1547495183784728; d1 46.084902150562876 -> ...904
    ("distance-level0", "json"): "6dd92d897db58d0c61a664133fa31183e53f9b179e369542cf3831f032bad543",
    ("distance-level0", "csv"): "3f75d5d19a64095a3041d2b4a194701449c4d8caa7b0bcbb473aacf2ddb3304e",
    ("distance-level1", "json"): "99c3a89d7620d1191f42187cee550ff72e5e6d6244eceedb2b836211bcd05673",
    ("distance-level1", "csv"): "3f75d5d19a64095a3041d2b4a194701449c4d8caa7b0bcbb473aacf2ddb3304e",
    # re-pinned when the monotonicity check began to read f' at its extrema:
    # a candidate with f'(pi) = -3e-7 is now redrawn (attempts 12 -> 13)
    ("probe", "json"): "89578e53d0749ebee390be34b955c46150ad8ca0bf309b85133c589c3c135016",
    ("conjugacy", "json"): "9cfbcc2f5a50eb3c78756386fac4306893411967d1fef80cd88873f118d65a80",
    ("conjugacy", "csv"): "b6718a9705ea9dcf71bfa28d6e9831241b5cd1e9421870b3097d76c17173ebf9",
    ("verify", "json"): "92fa9635eed46d36d650228f498a9b27a613424b4bb52bc5b21e91cf88795b88",
    ("verify", "csv"): "b6718a9705ea9dcf71bfa28d6e9831241b5cd1e9421870b3097d76c17173ebf9",
    ("conjugacy-deep", "json"): "951cf167b7b17c9e4f9d1c40ced5007c74a69b1199f25e41d7791cbbe746a3ac",
    ("conjugacy-deep", "csv"): "35e09ed6b6a85ab9a8ad34c0e7ef555615a38d40e94005030614bac7867fe1a1",
    ("verify-deep", "json"): "8828ab34a485581a215518eec7200f9fd51827663f6709fd23a390dc6ed57ce3",
    ("verify-deep", "csv"): "35e09ed6b6a85ab9a8ad34c0e7ef555615a38d40e94005030614bac7867fe1a1",
    ("orbit-diverging", "json"): "d309999d672ef3e0327cc0460a18c149a0b050522df42611c770108ec4def387",
    ("orbit-diverging", "csv"): "1605e6ffd5798c20de665b6535668bda982245dfb8576d7b2e0f9a557cda7899",
    ("linearize", "json"): "fe80dd70fc6f9c73749753c4e001227db300725c30d1bf485a70b4dae2d782d3",
    ("audit", "json"): "c195de4cb6de2dbeb76b7e668051a52964d6bf478c689bfbb6cddd19ce177cb0",
    ("audit", "csv"): "c646256d2a2975e356056f034df18b228f0dbb31837244b34b24fe99a4db5587",
    ("audit-non-hyperbolic", "json"): "a0cb747cae395dd1b5103bb257beba897dc8fde664df7f16bba0ae2b638804b1",
    ("audit-non-hyperbolic", "csv"): "6ca866c5dafda22e8395e60e05d9a46dd972658ec37414cab67ee5cb25ce2ad8",
    ("multidim-similarity", "json"): "8529ad51f5ad6ab591fda0ba3301b9c7f138be008a920b0cc52291360cc50560",
    ("multidim-similarity", "csv"): "ef3e7cb02ae0df1df0e069f166ee997aa9fdb701b8be7641b476dcebd0937574",
    ("multidim-componentwise", "json"): "4c2efa48b436e2f9ecf3fb816adf914dd2f56933be48f416da1b6d32db5539e3",
    ("multidim-componentwise", "csv"): "3472a1af00ef7098ec1aa8a1ec04951115e6f3dedcd9b70d4ea774a12c8895c1",
    # re-pinned when the obstruction report's config embedded the parsed
    # document in place of the --input path
    ("obstruction", "json"): "0e10394cb555f4830b5764a5e5cc88e5025a1e945601bfcd8e8b6cb1a010a509",
    ("conjugacy-large", "csv"): "17a7f62a8a6e50b985d1e7fa79d2dff14ee76bc0937d96c62ebef7dc8ec60a9f",
    ("attractor-large", "json"): "77791f80a1997cdd9f0761c79c054e02ea290cda93c1e0a4b37c82de8189f138",
}
# case -> (subcommand, document, extra arguments)
PINNED_INPUTS = {
    "attractor": ("attractor", ATTRACTOR_DOC, []),
    "orbit": ("orbit", ORBIT_DOC, []),
    "classify": ("classify", CLASSIFY_DOC, ["--n-max", "400"]),
    "distance-level0": ("distance", DISTANCE_DOC, ["--level", "0"]),
    "distance-level1": ("distance", DISTANCE_DOC, ["--level", "1"]),
    "probe": ("probe", PROBE_DOC, ["--delta", "0.01", "--trials", "10", "--seed", "4"]),
    "conjugacy": ("conjugacy", CONJ_DOC, []),
    "verify": ("verify", CONJ_DOC, []),
    # orbits of up to 1e100 walk about 160 steps into the fundamental domain
    "conjugacy-deep": ("conjugacy", CONJ_DOC, ["--radius", "1e100", "--grid", "2001"]),
    "verify-deep": ("verify", CONJ_DOC, ["--radius", "1e100", "--grid", "2001"]),
    "orbit-diverging": ("orbit", DIVERGING_DOC, []),
    "linearize": ("linearize", LINEARIZE_DOC, []),
    "audit": ("audit", AUDIT_DOC, []),
    "audit-non-hyperbolic": ("audit", AUDIT_NON_HYPERBOLIC_DOC, []),
    "multidim-similarity": ("multidim", SIMILARITY_DOC, []),
    "multidim-componentwise": ("multidim", COMPONENTWISE_DOC, []),
    "obstruction": ("conjugacy", OBSTRUCTION_DOC, []),
    "conjugacy-large": ("conjugacy", CONJ_DOC, ["--grid", "20001"]),
    "attractor-large": ("attractor", ATTRACTOR_LARGE_DOC, []),
}
# cases whose report comes with an exit code other than 0
PINNED_EXIT_CODES = {"audit-non-hyperbolic": 2, "obstruction": 2}


def report_digest(tmp_path, case, fmt):
    command, doc, extra = PINNED_INPUTS[case]
    inp = write(tmp_path, f"{case}.json", doc)
    out = str(tmp_path / f"{case}-report.{fmt}")
    code = main([command, "--input", inp, "--output", out, "--format", fmt, *extra])
    assert code == PINNED_EXIT_CODES.get(case, 0)
    text = open(out, "rb").read()
    text = text.replace(f'"version": "{__version__}"'.encode(), b'"version": ""')
    return hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("case, fmt", list(PINNED_REPORTS), ids="-".join)
def test_report_bytes_pinned(tmp_path, case, fmt):
    assert report_digest(tmp_path, case, fmt) == PINNED_REPORTS[case, fmt]


# every size a document or a flag gives is refused above MAX_COUNT before the
# library is called: "n": 1e9 in an orbit document was killed for memory
HUGE = 10**9
OVERSIZED = {
    "orbit-n": ("orbit", {**ORBIT_DOC, "n": HUGE}, [], "document.n"),
    "orbit-n-max": ("orbit", ORBIT_DOC, ["--n-max", str(HUGE)], "--n-max"),
    "classify-n-max": ("classify", CLASSIFY_DOC, ["--n-max", str(HUGE)], "--n-max"),
    "multidim-n": ("multidim", {**COMPONENTWISE_DOC, "n": HUGE}, [], "document.n"),
    "multidim-n-max": ("multidim", SIMILARITY_DOC, ["--n-max", str(HUGE)], "--n-max"),
    "conjugacy-grid": ("conjugacy", CONJ_DOC, ["--grid", str(HUGE)], "--grid"),
    "verify-grid": ("verify", CONJ_DOC, ["--grid", str(HUGE)], "--grid"),
    "distance-grid": ("distance", DISTANCE_DOC, ["--grid", str(HUGE)], "--grid"),
    "probe-trials": ("probe", PROBE_DOC, ["--trials", str(HUGE)], "--trials"),
    "attractor-iterations": ("attractor", {**ATTRACTOR_DOC, "iterations": HUGE}, [],
                             "document.iterations"),
}
LIBRARY_CALLS = ("orbit_trajectory", "effective_slope", "classify_sequence_fate",
                 "componentwise_conjugacy", "componentwise_residual", "similarity_conjugacy",
                 "build_linear_conjugacy", "verify_conjugacy", "ifs_distance",
                 "perturbation_probe", "chaos_game")


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_counts_exit_1_before_any_allocation(tmp_path, capsys, monkeypatch, case):
    command, doc, flags, field = OVERSIZED[case]
    for name in LIBRARY_CALLS:
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran"))
    inp = write(tmp_path, "doc.json", doc)
    tracemalloc.start()
    try:
        code = main([command, "--input", inp, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == f"ifsconj {command}: {field} must be at most {MAX_COUNT}\n"
    assert peak < 1 << 20


# a grid below 2 is refused before the library is called; --grid 1 used to
# report a one-point distance, and --grid 0 failed inside numpy
@pytest.mark.parametrize("grid", ["1", "0", "-3"])
@pytest.mark.parametrize("command, doc", [("distance", DISTANCE_DOC), ("verify", CONJ_DOC),
                                          ("conjugacy", CONJ_DOC)])
def test_grid_below_two_exits_1_naming_the_flag(tmp_path, capsys, monkeypatch, command, doc, grid):
    for name in LIBRARY_CALLS:
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran"))
    inp = write(tmp_path, "doc.json", doc)
    assert main([command, "--input", inp, "--grid", grid]) == 1
    assert capsys.readouterr().err == f"ifsconj {command}: --grid must be at least 2\n"


# -- flags: each subcommand accepts only the flags it reads ------------------

COMMON_FLAGS = {"--input", "--output", "--format"}
READ_FLAGS = {
    "conjugacy": {"--grid", "--tolerance", "--radius"},
    "verify": {"--grid", "--tolerance", "--radius"},
    "orbit": {"--radius", "--n-max"},
    "classify": {"--radius", "--n-max"},
    "linearize": {"--radius"},
    "audit": {"--radius"},
    "multidim": {"--seed", "--radius", "--n-max"},
    "distance": {"--grid", "--radius", "--level"},
    "probe": {"--seed", "--radius", "--delta", "--trials"},
    "attractor": {"--seed", "--radius"},
}
ALL_FLAGS = set().union(*READ_FLAGS.values())
COMMAND_DOCS = {
    "conjugacy": CONJ_DOC, "verify": CONJ_DOC, "orbit": ORBIT_DOC, "classify": CLASSIFY_DOC,
    "linearize": LINEARIZE_DOC, "audit": AUDIT_DOC, "multidim": COMPONENTWISE_DOC,
    "distance": DISTANCE_DOC, "probe": PROBE_DOC, "attractor": ATTRACTOR_DOC,
}
# every library call of a handler, each replaced by a failure below
HANDLER_CALLS = LIBRARY_CALLS + ("linear_part", "hyperbolicity_audit")


@pytest.fixture
def no_library(monkeypatch):
    for name in HANDLER_CALLS:
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran"))


def subcommand_flags():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, cli.argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_each_subcommand_accepts_the_flags_it_reads():
    assert subcommand_flags() == {name: COMMON_FLAGS | flags for name, flags in READ_FLAGS.items()}
    assert sum(map(len, subcommand_flags().values())) == 54


# all 8 flags were accepted by all 10 subcommands, so a flag nothing read
# (orbit --grid 5) ran as if it were absent
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READ_FLAGS for flag in sorted(ALL_FLAGS - READ_FLAGS[command])
])
def test_an_unread_flag_exits_1(tmp_path, capsys, no_library, command, flag):
    inp = write(tmp_path, "doc.json", COMMAND_DOCS[command])
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp, flag, "1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"ifsconj: error: unrecognized arguments: {flag} 1\n")
    assert captured.out == ""


# argparse exited 2, the code of a mathematical obstruction
@pytest.mark.parametrize("argv, message", [
    (["orbit", "--bogus", "1"], "ifsconj: error: unrecognized arguments: --bogus 1"),
    ([], "ifsconj: error: the following arguments are required: command"),
    (["verify", "--grid", "abc"], "ifsconj verify: error: argument --grid: invalid int value: 'abc'"),
    (["distance", "--level", "2"], "ifsconj distance: error: argument --level: invalid choice: 2"),
])
def test_usage_errors_exit_1(capsys, no_library, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["probe", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code in (0, None)
    assert capsys.readouterr().out


# a flag's rule runs before the handler: the input document is never read,
# so a missing one does not hide the flag's error ("--flag=-inf", as argparse
# reads "-inf" alone as an option)
def flag_refused(tmp_path, capsys, command, flag, value, message):
    code = main([command, "--input", str(tmp_path / "absent.json"), f"{flag}={value}"])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (1, f"ifsconj {command}: {flag} {message}\n", "")


# --radius 0 gave audit a one-point grid, "a continuum of fixed points" with
# exit 2, and --radius inf leaked "invalid value encountered in cos"
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("command", list(READ_FLAGS))
def test_radius_must_be_positive_and_finite(tmp_path, capsys, command, value):
    flag_refused(tmp_path, capsys, command, "--radius", value, "must be positive and finite")


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize("command", list(READ_FLAGS))
def test_domain_radius_must_be_positive_and_finite(tmp_path, capsys, no_library, command, value):
    inp = write(tmp_path, "doc.json", {**COMMAND_DOCS[command], "domain": {"R": value}})
    assert main([command, "--input", inp]) == 1
    assert capsys.readouterr().err == f"ifsconj {command}: domain.R must be positive and finite\n"


# a nan or negative tolerance gave the verdict fail with exit 2
@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("command", ["conjugacy", "verify"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, value):
    flag_refused(tmp_path, capsys, command, "--tolerance", value, "must be finite and non-negative")


@pytest.mark.parametrize("value", ["0", "-0.01", "nan", "inf"])
def test_delta_must_be_positive_and_finite(tmp_path, capsys, value):
    flag_refused(tmp_path, capsys, "probe", "--delta", value, "must be positive and finite")


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in READ_FLAGS.items()
    for flag in sorted(flags & {"--grid", "--n-max", "--trials"})
])
def test_counts_are_at_most_max_count(tmp_path, capsys, command, flag):
    flag_refused(tmp_path, capsys, command, flag, str(MAX_COUNT + 1), f"must be at most {MAX_COUNT}")


def test_classify_orbit_of_zero_past_the_float_range(tmp_path, capsys):
    # inf * 0 made the linear part's orbit and the bound nan, with a leaked
    # RuntimeWarning (a traceback under -W error::RuntimeWarning)
    doc = {**CLASSIFY_DOC, "maps": HUGE_SLOPE_MAPS[::-1], "x0": 0.0,
           "sequence": {"type": "periodic", "pattern": [1, 2]}}
    inp = write(tmp_path, "zero.json", doc)
    assert main(["classify", "--input", inp, "--n-max", "50"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["final_orbit_g"] == report["final_bound"] == report["final_orbit_f"] == 0.0
