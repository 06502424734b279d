"""Strict JSON parsing for IFS, sequence and domain documents.

Field names are fixed; unknown fields are rejected and every schema error
names the offending field. Examples:

    {"maps": [{"kind": "linear", "k": 0.5}],
     "sequence": {"type": "periodic", "pattern": [1, 2]},
     "domain": {"R": 10.0}}

    {"kind": "linear+lipschitz", "k": 0.5,
     "perturbation": {"shape": "sine", "amplitude": 0.2, "lipschitz": 0.2}}

    {"kind": "smooth", "name": "rational-quadratic", "k": 0.5, "c": 0.1}
"""

from __future__ import annotations

import json
import math

from .attractor import AffineMap
from .catalog import Perturbation, linear, linear_plus_lipschitz, smooth
from .defaults import DEFAULT_RADIUS
from .errors import SchemaError
from .multidim import DiagonalMap
from .sequences import (
    BernoulliSequence,
    ExplicitSequence,
    PeriodicSequence,
    SparseDensitySequence,
    SymbolSequence,
)


# the largest count a document field or a flag may give for n, --n-max,
# --grid, iterations or --trials: each sizes arrays of that length
MAX_COUNT = 1_000_000


def bounded_count(value: int, field: str, least: int | None = None) -> int:
    """value, or SchemaError naming field when it is above MAX_COUNT or
    below least."""
    if value > MAX_COUNT:
        raise SchemaError(f"{field} must be at most {MAX_COUNT}", field=field)
    if least is not None and value < least:
        raise SchemaError(f"{field} must be at least {least}", field=field)
    return value


def positive_finite(value: float, field: str) -> float:
    """value, or SchemaError naming field unless 0 < value < inf: the rule of
    a radius (--radius, domain.R) and of --delta."""
    if not 0 < value < math.inf:
        raise SchemaError(f"{field} must be positive and finite", field=field)
    return value


def finite_non_negative(value: float, field: str) -> float:
    """value, or SchemaError naming field unless 0 <= value < inf."""
    if not 0 <= value < math.inf:
        raise SchemaError(f"{field} must be finite and non-negative", field=field)
    return value


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean",
    str: "a string", list: "a list", dict: "an object",
}


def _check_type(v, kind: type, field: str):
    # a bool is neither an int nor a float here, and an int is a valid float
    if isinstance(v, bool):
        ok = kind is bool
    else:
        ok = isinstance(v, (int, float) if kind is float else kind)
    if not ok:
        raise SchemaError(f"{field} must be {_TYPE_NAMES[kind]}", field=field)


def check_keys(obj, ctx: str, required: dict, optional: dict = {}):
    """Check the field names of obj and the JSON type each field declares."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} must be an object", field=ctx)
    for key, v in obj.items():
        kind = required.get(key, optional.get(key))
        if kind is None:
            raise SchemaError(f"unknown field {ctx}.{key}", field=f"{ctx}.{key}")
        _check_type(v, kind, f"{ctx}.{key}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {ctx}.{key}", field=f"{ctx}.{key}")


def number_field(obj, ctx: str, key: str) -> float:
    _check_type(obj[key], float, f"{ctx}.{key}")
    return float(obj[key])


def _finite_field(obj, ctx: str, key: str) -> float:
    """A number field that is a map coefficient, so it must be finite."""
    v = number_field(obj, ctx, key)
    if not math.isfinite(v):
        raise SchemaError(f"{ctx}.{key} must be finite", field=f"{ctx}.{key}")
    return v


def int_field(obj, ctx: str, key: str) -> int:
    _check_type(obj[key], int, f"{ctx}.{key}")
    return obj[key]


def int_list_field(obj, ctx: str, key: str) -> list[int]:
    v = obj[key]
    if not isinstance(v, list) or not v or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in v
    ):
        raise SchemaError(
            f"{ctx}.{key} must be a nonempty list of integers", field=f"{ctx}.{key}"
        )
    return v


def parse_perturbation(obj, ctx: str = "perturbation") -> Perturbation:
    check_keys(obj, ctx, {"shape": str, "amplitude": float, "lipschitz": float})
    shape = obj["shape"]
    if shape not in ("sine", "rational"):
        raise SchemaError(f"{ctx}.shape must be 'sine' or 'rational'", field=f"{ctx}.shape")
    try:
        return Perturbation(shape, _finite_field(obj, ctx, "amplitude"), number_field(obj, ctx, "lipschitz"))
    except ValueError as exc:
        raise SchemaError(f"{ctx}: {exc}", field=ctx) from exc


def parse_map(obj, ctx: str = "map", allow_affine: bool = False):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{ctx}.kind is required", field=f"{ctx}.kind")
    kind = obj["kind"]
    try:
        if kind == "linear":
            check_keys(obj, ctx, {"kind": str, "k": float})
            return linear(_finite_field(obj, ctx, "k"))
        if kind == "linear+lipschitz":
            check_keys(obj, ctx, {"kind": str, "k": float, "perturbation": dict})
            pert = parse_perturbation(obj["perturbation"], f"{ctx}.perturbation")
            return linear_plus_lipschitz(_finite_field(obj, ctx, "k"), pert)
        if kind == "smooth":
            check_keys(obj, ctx, {"kind": str, "name": str, "k": float, "c": float})
            return smooth(_finite_field(obj, ctx, "k"), _finite_field(obj, ctx, "c"), obj["name"])
        if kind == "affine":
            if not allow_affine:
                raise SchemaError(
                    f"{ctx}: affine maps are only allowed in attractor documents",
                    field=f"{ctx}.kind",
                )
            check_keys(obj, ctx, {"kind": str, "k": float, "b": float})
            return AffineMap(_finite_field(obj, ctx, "k"), _finite_field(obj, ctx, "b"))
    except ValueError as exc:
        raise SchemaError(f"{ctx}: {exc}", field=ctx) from exc
    raise SchemaError(f"{ctx}.kind {kind!r} not recognized", field=f"{ctx}.kind")


def parse_maps(obj, ctx: str = "maps", allow_affine: bool = False) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{ctx} must be a nonempty list", field=ctx)
    return [parse_map(m, f"{ctx}[{i}]", allow_affine) for i, m in enumerate(obj)]


def parse_sequence(obj, ctx: str = "sequence", alphabet=(1, 2)) -> SymbolSequence:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"{ctx}.type is required", field=f"{ctx}.type")
    t = obj["type"]
    alphabet = tuple(alphabet)
    try:
        if t == "explicit":
            check_keys(obj, ctx, {"type": str, "symbols": list})
            return ExplicitSequence(tuple(int_list_field(obj, ctx, "symbols")), alphabet)
        if t == "periodic":
            check_keys(obj, ctx, {"type": str, "pattern": list})
            return PeriodicSequence(tuple(int_list_field(obj, ctx, "pattern")), alphabet)
        if t == "bernoulli":
            check_keys(obj, ctx, {"type": str, "p": float, "seed": int})
            return BernoulliSequence(number_field(obj, ctx, "p"), int_field(obj, ctx, "seed"), alphabet[:2])
        if t == "sparse-density":
            check_keys(obj, ctx, {"type": str, "special_index": int, "rule": str})
            rule = obj["rule"]
            if rule not in ("perfect-squares", "powers-of-two"):
                raise SchemaError(
                    f"{ctx}.rule must be 'perfect-squares' or 'powers-of-two'",
                    field=f"{ctx}.rule",
                )
            return SparseDensitySequence(int_field(obj, ctx, "special_index"), rule, alphabet[:2])
    except ValueError as exc:
        raise SchemaError(f"{ctx}: {exc}", field=ctx) from exc
    raise SchemaError(f"{ctx}.type {t!r} not recognized", field=f"{ctx}.type")


def parse_domain(obj, ctx: str = "domain") -> float:
    check_keys(obj, ctx, {"R": float})
    return positive_finite(number_field(obj, ctx, "R"), f"{ctx}.R")


def parse_diagonal_maps(obj, dimension: int, ctx: str = "maps") -> list[DiagonalMap]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{ctx} must be a nonempty list", field=ctx)
    out = []
    for i, entry in enumerate(obj):
        mctx = f"{ctx}[{i}]"
        check_keys(entry, mctx, {"diag": list})
        diag = parse_vector(entry["diag"], dimension, f"{mctx}.diag")
        if not all(map(math.isfinite, diag)):
            raise SchemaError(f"{mctx}.diag must be finite", field=f"{mctx}.diag")
        out.append(DiagonalMap(tuple(diag)))
    return out


def _is_vector(obj, dimension: int) -> bool:
    return isinstance(obj, list) and len(obj) == dimension and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    )


def parse_vector(obj, dimension: int, ctx: str) -> list[float]:
    if not _is_vector(obj, dimension):
        raise SchemaError(f"{ctx} must be a list of {dimension} numbers", field=ctx)
    return [float(v) for v in obj]


def parse_matrix(obj, dimension: int, ctx: str) -> list[list[float]]:
    if not (isinstance(obj, list) and len(obj) == dimension
            and all(_is_vector(row, dimension) for row in obj)):
        raise SchemaError(f"{ctx} must be a {dimension}x{dimension} matrix", field=ctx)
    return [[float(v) for v in row] for row in obj]


def domain_radius(doc: dict, default: float = DEFAULT_RADIUS) -> float:
    if "domain" in doc:
        return parse_domain(doc["domain"])
    return default
