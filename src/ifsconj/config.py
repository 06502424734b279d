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


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def check_keys(obj, ctx: str, required: dict, optional: dict = {}):
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx} must be an object", field=ctx)
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown field {ctx}.{key}", field=f"{ctx}.{key}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {ctx}.{key}", field=f"{ctx}.{key}")


def number_field(obj, ctx: str, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{ctx}.{key} must be a number", field=f"{ctx}.{key}")
    return float(v)


def int_field(obj, ctx: str, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{ctx}.{key} must be an integer", field=f"{ctx}.{key}")
    return v


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
        return Perturbation(shape, number_field(obj, ctx, "amplitude"), number_field(obj, ctx, "lipschitz"))
    except ValueError as exc:
        raise SchemaError(f"{ctx}: {exc}", field=ctx) from exc


def parse_map(obj, ctx: str = "map", allow_affine: bool = False):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{ctx}.kind is required", field=f"{ctx}.kind")
    kind = obj["kind"]
    try:
        if kind == "linear":
            check_keys(obj, ctx, {"kind": str, "k": float})
            return linear(number_field(obj, ctx, "k"))
        if kind == "linear+lipschitz":
            check_keys(obj, ctx, {"kind": str, "k": float, "perturbation": dict})
            pert = parse_perturbation(obj["perturbation"], f"{ctx}.perturbation")
            return linear_plus_lipschitz(number_field(obj, ctx, "k"), pert)
        if kind == "smooth":
            check_keys(obj, ctx, {"kind": str, "name": str, "k": float, "c": float})
            return smooth(number_field(obj, ctx, "k"), number_field(obj, ctx, "c"), obj["name"])
        if kind == "affine":
            if not allow_affine:
                raise SchemaError(
                    f"{ctx}: affine maps are only allowed in attractor documents",
                    field=f"{ctx}.kind",
                )
            check_keys(obj, ctx, {"kind": str, "k": float, "b": float})
            return AffineMap(number_field(obj, ctx, "k"), number_field(obj, ctx, "b"))
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
    r = number_field(obj, ctx, "R")
    if not r > 0:
        raise SchemaError(f"{ctx}.R must be positive", field=f"{ctx}.R")
    return r


def parse_diagonal_maps(obj, dimension: int, ctx: str = "maps") -> list[DiagonalMap]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{ctx} must be a nonempty list", field=ctx)
    out = []
    for i, entry in enumerate(obj):
        mctx = f"{ctx}[{i}]"
        check_keys(entry, mctx, {"diag": list})
        diag = entry["diag"]
        if (
            not isinstance(diag, list)
            or len(diag) != dimension
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in diag)
        ):
            raise SchemaError(
                f"{mctx}.diag must be a list of {dimension} numbers",
                field=f"{mctx}.diag",
            )
        out.append(DiagonalMap(tuple(float(v) for v in diag)))
    return out


def parse_matrix(obj, dimension: int, ctx: str) -> list[list[float]]:
    ok = isinstance(obj, list) and len(obj) == dimension
    if ok:
        for row in obj:
            if not isinstance(row, list) or len(row) != dimension or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
            ):
                ok = False
                break
    if not ok:
        raise SchemaError(f"{ctx} must be a {dimension}x{dimension} matrix", field=ctx)
    return [[float(v) for v in row] for row in obj]


def domain_radius(doc: dict, default: float = DEFAULT_RADIUS) -> float:
    if "domain" in doc:
        return parse_domain(doc["domain"])
    return default
