"""Command-line front door.

Each subcommand reads a JSON document, dispatches to the library and emits a
report (JSON by default, CSV where a per-row table makes sense). Exit codes
distinguish outcomes so shell pipelines can branch on them:

    0   success / pass verdict
    1   usage, schema or numeric error
    2   verified mathematical obstruction (non-conjugate, non-hyperbolic,
        failed residual verdict)

Reports embed the package version and the fully resolved configuration, and
are byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, config
from .attractor import chaos_game
from .catalog import ScalarMap
from .conjugacy import (
    BRIDGE_LINEAR,
    build_linear_conjugacy,
    verify_conjugacy,
)
from .defaults import DEFAULT_RADIUS
from .errors import IfsConjError, ObstructionError, SchemaError
from .ifs import IfsDescriptor, effective_slope, orbit_trajectory
from .linearize import classify_sequence_fate, linear_part
from .multidim import (
    SimilarityIfs,
    componentwise_conjugacy,
    componentwise_residual,
    similarity_conjugacy,
)
from .stability import hyperbolicity_audit, ifs_distance, perturbation_probe

SCHEMA_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ifsconj-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the report the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, command: str, resolved: dict, report: dict, csv_table=None) -> None:
    if args.format == "csv":
        if csv_table is None:
            raise SchemaError(f"{command} has no CSV representation; use --format json")
        header, rows = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_jsonable(v) for v in row])
        text = buf.getvalue()
    else:
        envelope = {
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": _jsonable(resolved),
            "report": _jsonable(report),
        }
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _load_doc(args) -> dict:
    if args.input is None:
        raise SchemaError("--input is required for this subcommand")
    doc = config.load_json(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    return doc


def _radius(args, doc: dict) -> float:
    if args.radius is not None:
        return args.radius
    return config.domain_radius(doc)


def _linear_slope(mp, name: str) -> float:
    if not isinstance(mp, ScalarMap) or not mp.is_linear:
        raise SchemaError(f"{name} must be a linear map for this subcommand", field=name)
    return mp.k


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (resolved_config, report, csv, exit_code)
# ---------------------------------------------------------------------------

def _build_and_verify(args):
    """Parse an {f, g} document, build h and verify it on the grid.

    Returns (resolved_config, h, verification, csv, exit_code); the
    conjugacy and verify handlers differ only in the report they make.
    """
    doc = _load_doc(args)
    config.check_keys(
        doc,
        "document",
        {"f": dict, "g": dict},
        {"bridge": str, "anchor": float, "domain": dict},
    )
    f = config.parse_map(doc["f"], "f")
    g = config.parse_map(doc["g"], "g")
    bridge = doc.get("bridge", BRIDGE_LINEAR)
    if bridge not in ("linear", "power-law"):
        raise SchemaError("bridge must be 'linear' or 'power-law'", field="bridge")
    anchor = float(doc.get("anchor", 1.0))
    radius = _radius(args, doc)
    resolved = {
        "f": doc["f"],
        "g": doc["g"],
        "bridge": bridge,
        "anchor": anchor,
        "radius": radius,
        "grid": args.grid,
        "tolerance": args.tolerance,
    }
    h = build_linear_conjugacy(_linear_slope(f, "f"), _linear_slope(g, "g"), anchor, bridge)
    rep = verify_conjugacy(f, g, h, args.grid, args.tolerance, radius)
    csv_table = (
        ["x", "h_x", "residual"],
        list(zip(rep.grid, rep.h_values, rep.residuals)),
    )
    return resolved, h, rep, csv_table, 0 if rep.passed else 2


def _run_conjugacy(args):
    resolved, h, rep, csv_table, code = _build_and_verify(args)
    report = {
        "k": h.k,
        "m": h.m,
        "anchor": h.anchor,
        "bridge": h.bridge,
        "orientation": h.orientation,
        "interval": h.interval_tag,
        "residual_sup": rep.residual_sup,
        "verdict": rep.verdict,
    }
    return resolved, report, csv_table, code


def _run_verify(args):
    resolved, _, rep, csv_table, code = _build_and_verify(args)
    report = {
        "residual_sup": rep.residual_sup,
        "tolerance": rep.tolerance,
        "verdict": rep.verdict,
        "worst_point": rep.worst_point,
        "grid_size": len(rep.grid),
    }
    return resolved, report, csv_table, code


def _scalar_ifs_doc(args, extra_required=None, extra_optional=None, need_sequence=True):
    doc = _load_doc(args)
    required = {"maps": list}
    optional = {"domain": dict, "label": str}
    if need_sequence:
        required["sequence"] = dict
    required.update(extra_required or {})
    optional.update(extra_optional or {})
    config.check_keys(doc, "document", required, optional)
    maps = config.parse_maps(doc["maps"])
    F = IfsDescriptor(tuple(maps), label=doc.get("label", ""))
    sigma = None
    if need_sequence:
        sigma = config.parse_sequence(doc["sequence"], alphabet=F.alphabet)
    radius = _radius(args, doc)
    return doc, F, sigma, radius


def _run_orbit(args):
    doc, F, sigma, radius = _scalar_ifs_doc(
        args, extra_required={"x0": float}, extra_optional={"n": int}
    )
    n = args.n_max if args.n_max is not None else doc.get("n")
    if n is None:
        raise SchemaError("orbit needs document field 'n' or flag --n-max", field="n")
    x0 = config.number_field(doc, "document", "x0")
    traj = orbit_trajectory(F, sigma, n, x0)
    syms = sigma.prefix(n)
    report = {
        "n": n,
        "x0": x0,
        "final": float(traj[-1]),
        "trajectory": traj,
        "symbols": syms,
    }
    if F.is_linear:
        report["effective_slope"] = effective_slope(F, sigma, n)
    resolved = {"input": doc, "radius": radius, "n": n}
    csv_table = (
        ["step", "symbol", "value"],
        list(zip(range(1, n + 1), syms, traj)),
    )
    return resolved, report, csv_table, 0


def _run_linearize(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    lp = linear_part(F)
    report = {
        "slopes": lp.slopes,
        "interval_tags": list(lp.interval_tags),
        "hg_case": lp.hg_case,
    }
    resolved = {"input": doc, "radius": radius}
    return resolved, report, None, 0


def _run_classify(args):
    doc, F, sigma, radius = _scalar_ifs_doc(
        args, extra_required={"x0": float, "epsilon": float}
    )
    n_max = args.n_max if args.n_max is not None else 400
    x0 = config.number_field(doc, "document", "x0")
    eps = config.number_field(doc, "document", "epsilon")
    rep = classify_sequence_fate(F, sigma, n_max, x0, eps)
    report = {
        "predicted_fate": rep.predicted_fate,
        "lyapunov_sum": rep.lyapunov_sum,
        "margin": rep.margin,
        "n1": int(rep.n1[-1]),
        "n2": int(rep.n2[-1]),
        "final_ratio": float(rep.ratio_trajectory[-1]),
        "final_orbit_f": float(rep.orbit_f_abs[-1]),
        "final_orbit_g": float(rep.orbit_g_abs[-1]),
        "final_bound": float(rep.bound[-1]),
    }
    resolved = {"input": doc, "n_max": n_max, "radius": radius}
    csv_table = (
        ["n", "n1", "n2", "ratio", "orbit_F", "orbit_G", "bound"],
        list(
            zip(
                rep.ns,
                rep.n1,
                rep.n2,
                rep.ratio_trajectory,
                rep.orbit_f_abs,
                rep.orbit_g_abs,
                rep.bound,
            )
        ),
    )
    return resolved, report, csv_table, 0


def _run_multidim(args):
    doc = _load_doc(args)
    config.check_keys(
        doc,
        "document",
        {"dimension": int, "maps": list, "sequence": dict},
        {
            "g_maps": list,
            "similarity": dict,
            "n": int,
            "x": list,
            "bridge": str,
            "anchor": float,
            "per_coordinate": bool,
            "domain": dict,
        },
    )
    m = config.int_field(doc, "document", "dimension")
    base = config.parse_diagonal_maps(doc["maps"], m, "maps")
    sigma = config.parse_sequence(doc["sequence"], alphabet=tuple(range(1, len(base) + 1)))
    n = args.n_max if args.n_max is not None else doc.get("n", 5)
    radius = _radius(args, doc)
    resolved = {"input": doc, "n": n, "radius": radius, "seed": args.seed}

    if "similarity" in doc and "g_maps" in doc:
        raise SchemaError(
            "give either 'similarity' or 'g_maps', not both", field="similarity"
        )
    if "similarity" in doc:
        config.check_keys(doc["similarity"], "similarity", {"A": list})
        A = config.parse_matrix(doc["similarity"]["A"], m, "similarity.A")
        S = SimilarityIfs(tuple(base), np.array(A))
        if "x" in doc:
            xs = [np.asarray(doc["x"], dtype=float)]
        else:
            rng = np.random.default_rng(args.seed or 0)
            xs = list(rng.uniform(-radius, radius, size=(256, m)))
        residuals = []
        warning = None
        for X in xs:
            out = similarity_conjugacy(S, sigma, n, np.asarray(X))
            residuals.append(out.residual)
            warning = warning or out.conditioning_warning
        report = {
            "route": "similarity",
            "max_residual": max(residuals),
            "samples": len(xs),
            "conditioning_warning": warning,
        }
        csv_table = (["sample", "residual"], list(enumerate(residuals)))
        return resolved, report, csv_table, 0

    if "g_maps" not in doc:
        raise SchemaError(
            "multidim needs either 'similarity' or 'g_maps'", field="g_maps"
        )
    other = config.parse_diagonal_maps(doc["g_maps"], m, "g_maps")
    h = componentwise_conjugacy(
        base,
        other,
        sigma,
        n,
        bridge=doc.get("bridge", BRIDGE_LINEAR),
        anchor=float(doc.get("anchor", 1.0)),
        per_coordinate=bool(doc.get("per_coordinate", False)),
    )
    grid_per_axis = 17 if m >= 3 else 33
    residual = componentwise_residual(base, other, h, sigma, n, grid_per_axis, radius)
    report = {
        "route": "componentwise",
        "residual": residual,
        "grid_per_axis": grid_per_axis,
        "components": [
            {"k": c.k, "m": c.m, "orientation": c.orientation} for c in h.components
        ],
    }
    csv_table = (["sample", "residual"], [(0, residual)])
    return resolved, report, csv_table, 0


def _run_distance(args):
    doc = _load_doc(args)
    config.check_keys(
        doc, "document", {"maps": list, "g_maps": list}, {"domain": dict, "label": str}
    )
    F = IfsDescriptor(tuple(config.parse_maps(doc["maps"])))
    G = IfsDescriptor(tuple(config.parse_maps(doc["g_maps"], "g_maps")))
    radius = _radius(args, doc)
    rep = ifs_distance(F, G, args.level, args.grid, radius)
    report = {
        "level": args.level,
        "d0": rep.d0,
        "d1": rep.d1,
        "argmax_pair": list(rep.argmax_pair) if rep.argmax_pair else None,
        "identical": rep.identical,
    }
    csv_table = None
    if rep.argmax_pair is not None:
        f = F.maps[rep.argmax_pair[0] - 1]
        g = G.maps[rep.argmax_pair[1] - 1]
        xs = np.linspace(-radius, radius, args.grid)
        vgap = np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))
        dgap = np.abs(np.asarray(f.derivative(xs)) - np.asarray(g.derivative(xs)))
        csv_table = (["x", "value_gap", "derivative_gap"], list(zip(xs, vgap, dgap)))
    resolved = {"input": doc, "level": args.level, "grid": args.grid, "radius": radius}
    return resolved, report, csv_table, 0


def _run_audit(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    audit = hyperbolicity_audit(F, radius)
    per_map = []
    rows = []
    for i, records in enumerate(audit.records):
        entries = []
        for r in records:
            entries.append(
                {
                    "fixed_point": r.point,
                    "derivative": r.derivative,
                    "margin": r.margin,
                    "verdict": r.verdict,
                }
            )
            rows.append((i + 1, r.point, r.derivative, r.margin, r.verdict))
        per_map.append(entries)
    report = {
        "fixed_points": per_map,
        "all_hyperbolic": audit.all_hyperbolic,
        "verdict": "hyperbolic" if audit.all_hyperbolic else "non-hyperbolic",
    }
    resolved = {"input": doc, "radius": radius}
    csv_table = (["map", "fixed_point", "derivative", "margin", "verdict"], rows)
    return resolved, report, csv_table, 0 if audit.all_hyperbolic else 2


def _run_probe(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    rep = perturbation_probe(F, args.delta, args.trials, args.seed or 0, radius)
    report = {
        "delta": rep.delta,
        "trials": rep.trials,
        "passes": rep.passes,
        "pass_fraction": rep.pass_fraction,
        "attempts": rep.attempts,
    }
    resolved = {
        "input": doc,
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed or 0,
        "radius": radius,
    }
    return resolved, report, None, 0


def _run_attractor(args):
    doc = _load_doc(args)
    config.check_keys(
        doc,
        "document",
        {"maps": list, "iterations": int, "burn_in": int, "x0": float},
        {"allow_affine": bool, "seed": int, "domain": dict},
    )
    allow_affine = bool(doc.get("allow_affine", False))
    maps = config.parse_maps(doc["maps"], allow_affine=allow_affine)
    iterations = config.int_field(doc, "document", "iterations")
    burn_in = config.int_field(doc, "document", "burn_in")
    x0 = config.number_field(doc, "document", "x0")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    radius = _radius(args, doc)
    sample = chaos_game(
        maps, iterations, burn_in, seed, x0, allow_affine=allow_affine, radius=radius
    )
    report = {
        "iterations": iterations,
        "burn_in": burn_in,
        "seed": seed,
        "count": len(sample.points),
        "points": sample.points,
    }
    resolved = {"input": doc, "seed": seed, "radius": radius}
    csv_table = (["x"], [(p,) for p in sample.points])
    return resolved, report, csv_table, 0


HANDLERS = {
    "conjugacy": _run_conjugacy,
    "verify": _run_verify,
    "orbit": _run_orbit,
    "linearize": _run_linearize,
    "classify": _run_classify,
    "multidim": _run_multidim,
    "distance": _run_distance,
    "audit": _run_audit,
    "probe": _run_probe,
    "attractor": _run_attractor,
}

_CSV_NOTES = {
    "conjugacy": "CSV columns: x, h_x, residual",
    "verify": "CSV columns: x, h_x, residual",
    "orbit": "CSV columns: step, symbol, value",
    "classify": "CSV columns: n, n1, n2, ratio, orbit_F, orbit_G, bound",
    "multidim": "CSV columns: sample, residual",
    "distance": "CSV columns: x, value_gap, derivative_gap (argmax pair)",
    "audit": "CSV columns: map, fixed_point, derivative, margin, verdict",
    "attractor": "CSV columns: one point per row",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsconj",
        description=(
            "Numerically construct and verify topological conjugacies for "
            "iterated function systems on the line and R^m."
        ),
        epilog="Exit codes: 0 pass, 1 usage/numeric error, 2 mathematical obstruction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "conjugacy": "build a conjugacy between two linear maps and sample it",
        "verify": "check the conjugacy equation residual for a map pair",
        "orbit": "compose an orbit along a symbol sequence",
        "linearize": "slopes at zero, interval tags and applicable case",
        "classify": "ratio/decay fate analysis for mixed-slope families",
        "multidim": "componentwise or similarity conjugacy residuals in R^m",
        "distance": "C0/C1 cross-pair distance between two families",
        "audit": "fixed-point hyperbolicity audit",
        "probe": "sample nearby families and report the conjugate fraction",
        "attractor": "chaos-game attractor sampling",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text + ". " + _CSV_NOTES.get(name, "JSON report only."),
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.add_argument("--input", help="path to the JSON input document")
        p.add_argument("--output", help="report file path (atomic write); stdout if omitted")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--grid", type=int, default=1001, help="grid points per check")
        p.add_argument("--tolerance", type=float, default=1e-8, help="residual tolerance")
        p.add_argument("--radius", type=float, default=None,
                       help=f"working interval half-width (default from document, else {DEFAULT_RADIUS})")
        p.add_argument("--n-max", dest="n_max", type=int, default=None,
                       help="composition depth override")
        if name == "distance":
            p.add_argument("--level", type=int, choices=(0, 1), default=1)
        if name == "probe":
            p.add_argument("--delta", type=float, default=0.01, help="admissible C1 distance")
            p.add_argument("--trials", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved, report, csv_table, code = HANDLERS[args.command](args)
        _emit(args, args.command, resolved, report, csv_table)
        return code
    except SchemaError as exc:
        print(f"ifsconj {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ifsconj {args.command}: {exc}", file=sys.stderr)
        return 1
    except ObstructionError as exc:
        obstruction = {
            "verdict": "obstructed",
            "reason": str(exc),
            "obstruction": getattr(exc, "obstruction", None),
        }
        args.format = "json"  # obstruction reports have no row form
        _emit(args, args.command, {"input": args.input}, obstruction, None)
        return 2
    except IfsConjError as exc:
        print(f"ifsconj {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"ifsconj {args.command}: {exc}", file=sys.stderr)
        return 1


def main_entry():  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
