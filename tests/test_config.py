"""Strict JSON document parsing."""

import math

import pytest

from ifsconj import config
from ifsconj.attractor import AffineMap
from ifsconj.errors import SchemaError
from ifsconj.sequences import (
    BernoulliSequence,
    ExplicitSequence,
    PeriodicSequence,
    SparseDensitySequence,
)


def test_parse_linear_map():
    m = config.parse_map({"kind": "linear", "k": 0.5})
    assert m.is_linear and m.k == 0.5


def test_parse_lipschitz_map():
    m = config.parse_map(
        {
            "kind": "linear+lipschitz",
            "k": 0.5,
            "perturbation": {"shape": "sine", "amplitude": 0.2, "lipschitz": 0.2},
        }
    )
    assert m.slope_at_zero == pytest.approx(0.7)


def test_parse_smooth_map():
    m = config.parse_map({"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1})
    assert m.kind == "smooth"


def test_unknown_field_rejected_with_name():
    with pytest.raises(SchemaError) as err:
        config.parse_map({"kind": "linear", "k": 0.5, "slope": 1})
    assert "slope" in str(err.value)


def test_missing_field_rejected():
    with pytest.raises(SchemaError) as err:
        config.parse_map({"kind": "linear"})
    assert err.value.field == "map.k"


@pytest.mark.parametrize("obj, field", [
    ({"kind": "linear", "k": float("nan")}, "f.k"),
    ({"kind": "linear", "k": float("inf")}, "f.k"),
    ({"kind": "smooth", "name": "rational-quadratic", "k": -float("inf"), "c": 0.1}, "f.k"),
    ({"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": float("nan")}, "f.c"),
    ({"kind": "linear+lipschitz", "k": float("nan"),
      "perturbation": {"shape": "sine", "amplitude": 0.1, "lipschitz": 0.1}}, "f.k"),
    ({"kind": "linear+lipschitz", "k": 0.5,
      "perturbation": {"shape": "sine", "amplitude": float("nan"), "lipschitz": 0.1}},
     "f.perturbation.amplitude"),
])
def test_non_finite_map_coefficient_names_its_field(obj, field):
    with pytest.raises(SchemaError, match=f"^{field} must be finite$") as err:
        config.parse_map(obj, "f")
    assert err.value.field == field


def test_bad_kind_rejected():
    with pytest.raises(SchemaError):
        config.parse_map({"kind": "cubic", "k": 0.5})


def test_affine_gate():
    with pytest.raises(SchemaError):
        config.parse_map({"kind": "affine", "k": 0.3, "b": 0.1})
    m = config.parse_map({"kind": "affine", "k": 0.3, "b": 0.1}, allow_affine=True)
    assert isinstance(m, AffineMap)
    for key in ("k", "b"):
        obj = {"kind": "affine", "k": 0.3, "b": 0.1, key: float("nan")}
        with pytest.raises(SchemaError, match=f"^f.{key} must be finite$") as err:
            config.parse_map(obj, "f", allow_affine=True)
        assert err.value.field == f"f.{key}"


def test_parse_sequences():
    assert isinstance(
        config.parse_sequence({"type": "explicit", "symbols": [1, 2, 1]}),
        ExplicitSequence,
    )
    assert isinstance(
        config.parse_sequence({"type": "periodic", "pattern": [1, 2]}),
        PeriodicSequence,
    )
    assert isinstance(
        config.parse_sequence({"type": "bernoulli", "p": 0.5, "seed": 7}),
        BernoulliSequence,
    )
    assert isinstance(
        config.parse_sequence(
            {"type": "sparse-density", "special_index": 2, "rule": "perfect-squares"}
        ),
        SparseDensitySequence,
    )


def test_sequence_unknown_field():
    with pytest.raises(SchemaError) as err:
        config.parse_sequence({"type": "periodic", "pattern": [1, 2], "length": 5})
    assert "length" in str(err.value)


def test_sequence_bad_rule():
    with pytest.raises(SchemaError):
        config.parse_sequence(
            {"type": "sparse-density", "special_index": 2, "rule": "primes"}
        )


def test_parse_domain():
    assert config.parse_domain({"R": 10.0}) == 10.0
    with pytest.raises(SchemaError):
        config.parse_domain({"R": -1.0})
    with pytest.raises(SchemaError):
        config.parse_domain({"radius": 1.0})


# domain.R and --radius share one rule; an infinite R reached linspace
@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_domain_radius_must_be_positive_and_finite(r):
    with pytest.raises(SchemaError, match=r"^domain\.R must be positive and finite$"):
        config.parse_domain({"R": r})


@pytest.mark.parametrize("value, ok", [
    (1e-300, True), (5e-324, True), (1e308, True),
    (0.0, False), (-0.0, False), (-1.0, False), (math.inf, False), (math.nan, False),
])
def test_positive_finite(value, ok):
    if ok:
        assert config.positive_finite(value, "--delta") == value
    else:
        with pytest.raises(SchemaError, match="^--delta must be positive and finite$"):
            config.positive_finite(value, "--delta")


@pytest.mark.parametrize("value, ok", [
    (0.0, True), (-0.0, True), (1e-9, True), (1e308, True),
    (-5e-324, False), (-1.0, False), (math.inf, False), (math.nan, False),
])
def test_finite_non_negative(value, ok):
    if ok:
        assert config.finite_non_negative(value, "--tolerance") == value
    else:
        with pytest.raises(SchemaError, match="^--tolerance must be finite and non-negative$"):
            config.finite_non_negative(value, "--tolerance")


def test_parse_diagonal_maps():
    maps = config.parse_diagonal_maps([{"diag": [0.5, 0.25]}], 2)
    assert maps[0].diag == (0.5, 0.25)
    with pytest.raises(SchemaError):
        config.parse_diagonal_maps([{"diag": [0.5]}], 2)
    with pytest.raises(SchemaError):
        config.parse_diagonal_maps([{"diag": [0.5, 0.2], "name": "A"}], 2)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SchemaError, match=r"^maps\[0\]\.diag must be finite$") as err:
            config.parse_diagonal_maps([{"diag": [bad, 0.5]}], 2)
        assert err.value.field == "maps[0].diag"


def test_parse_matrix():
    A = config.parse_matrix([[1, 0], [0, 1]], 2, "similarity.A")
    assert A == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(SchemaError):
        config.parse_matrix([[1, 0]], 2, "similarity.A")


def test_load_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"maps": [,]}')
    with pytest.raises(SchemaError) as err:
        config.load_json(str(bad))
    assert "line 1" in str(err.value)


def test_numbers_reject_booleans():
    with pytest.raises(SchemaError):
        config.parse_map({"kind": "linear", "k": True})


@pytest.mark.parametrize("kind, good, bad", [
    (int, [0, -3, 2**70], [True, 2.0, "1", None, [1]]),
    (float, [0, 2.5, -1e308], [False, "2.5", None, {}]),
    (bool, [True, False], [0, 1.0, "true"]),
    (str, ["x"], [1, True, None]),
    (list, [[], [1]], [{}, "[]"]),
    (dict, [{}], [[], True]),
])
def test_check_keys_enforces_declared_types(kind, good, bad):
    for v in good:
        config.check_keys({"a": v}, "doc", {"a": kind})
        config.check_keys({"a": v}, "doc", {}, {"a": kind})
    for v in bad:
        with pytest.raises(SchemaError, match=r"^doc\.a must be ") as err:
            config.check_keys({"a": v}, "doc", {}, {"a": kind})
        assert err.value.field == "doc.a"
