"""Strict JSON document parsing."""

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


def test_bad_kind_rejected():
    with pytest.raises(SchemaError):
        config.parse_map({"kind": "cubic", "k": 0.5})


def test_affine_gate():
    with pytest.raises(SchemaError):
        config.parse_map({"kind": "affine", "k": 0.3, "b": 0.1})
    m = config.parse_map({"kind": "affine", "k": 0.3, "b": 0.1}, allow_affine=True)
    assert isinstance(m, AffineMap)


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


def test_parse_diagonal_maps():
    maps = config.parse_diagonal_maps([{"diag": [0.5, 0.25]}], 2)
    assert maps[0].diag == (0.5, 0.25)
    with pytest.raises(SchemaError):
        config.parse_diagonal_maps([{"diag": [0.5]}], 2)
    with pytest.raises(SchemaError):
        config.parse_diagonal_maps([{"diag": [0.5, 0.2], "name": "A"}], 2)


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
