"""Command-line front door.

Each subcommand reads a JSON document, dispatches to the library and emits a
report (JSON by default, CSV where a per-row table makes sense). COMMANDS
declares each subcommand once: its handler, help text, CSV header and the
flags it reads, which are all the flags it accepts besides --input, --output
and --format. FLAGS declares each flag once, with its argparse options and
its validity rule; the rules of a subcommand's flags run before its handler.
Exit codes distinguish outcomes so shell pipelines can branch on them:

    0   success / pass verdict
    1   usage, schema or numeric error (an unknown flag, a flag the
        subcommand does not read, a flag value its rule refuses)
    2   verified mathematical obstruction (non-conjugate, non-hyperbolic,
        failed residual verdict)

Reports embed the package version and the fully resolved configuration, and
are byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
        # one finiteness check per array; only non-finite cells need repr
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            return [_jsonable(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ifsconj-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the report the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        # name the report, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, command: str, resolved: dict, report: dict, csv_table=None) -> None:
    if args.format == "csv":
        if csv_table is None:
            raise SchemaError(f"{command} has no CSV representation; use --format json")
        header, columns = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        # csv writes float("inf") as inf, the repr the JSON path gives it
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
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


def _count(args, doc: dict, default):
    """The composition depth: --n-max, else the document's n, else default."""
    if args.n_max is not None:
        return args.n_max
    if "n" in doc:
        return config.bounded_count(doc["n"], "document.n")
    return default


def _linear_slope(mp, name: str) -> float:
    if not isinstance(mp, ScalarMap) or not mp.is_linear:
        raise SchemaError(f"{name} must be a linear map for this subcommand", field=name)
    return mp.k


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (resolved_config, report, CSV columns or
# None, exit_code), the columns in the order of its header in COMMANDS
# ---------------------------------------------------------------------------

def _build_and_verify(args):
    """Parse an {f, g} document, build h and verify it on the grid.

    Returns (resolved_config, h, verification, columns, exit_code); the
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
    resolved = {"f": doc["f"], "g": doc["g"], "bridge": bridge, "anchor": anchor,
                "radius": radius, "grid": args.grid, "tolerance": args.tolerance}
    h = build_linear_conjugacy(_linear_slope(f, "f"), _linear_slope(g, "g"), anchor, bridge)
    rep = verify_conjugacy(f, g, h, args.grid, args.tolerance, radius)
    return resolved, h, rep, (rep.grid, rep.h_values, rep.residuals), 0 if rep.passed else 2


def _run_conjugacy(args):
    resolved, h, rep, columns, code = _build_and_verify(args)
    report = {"k": h.k, "m": h.m, "anchor": h.anchor, "bridge": h.bridge,
              "orientation": h.orientation, "interval": h.interval_tag,
              "residual_sup": rep.residual_sup, "verdict": rep.verdict}
    return resolved, report, columns, code


def _run_verify(args):
    resolved, _, rep, columns, code = _build_and_verify(args)
    report = {"residual_sup": rep.residual_sup, "tolerance": rep.tolerance, "verdict": rep.verdict,
              "worst_point": rep.worst_point, "grid_size": len(rep.grid)}
    return resolved, report, columns, code


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
    n = _count(args, doc, None)
    if n is None:
        raise SchemaError("orbit needs document field 'n' or flag --n-max", field="n")
    x0 = config.number_field(doc, "document", "x0")
    traj = orbit_trajectory(F, sigma, n, x0)
    syms = sigma.prefix(n)
    report = {"n": n, "x0": x0, "final": float(traj[-1]), "trajectory": traj, "symbols": syms}
    if F.is_linear:
        report["effective_slope"] = effective_slope(F, sigma, n)
    resolved = {"input": doc, "radius": radius, "n": n}
    return resolved, report, (range(1, n + 1), syms, traj), 0


def _run_linearize(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    lp = linear_part(F)
    report = {"slopes": lp.slopes, "interval_tags": list(lp.interval_tags), "hg_case": lp.hg_case}
    return {"input": doc, "radius": radius}, report, None, 0


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
    columns = (rep.ns, rep.n1, rep.n2, rep.ratio_trajectory, rep.orbit_f_abs,
               rep.orbit_g_abs, rep.bound)
    return resolved, report, columns, 0


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
    n = _count(args, doc, 5)
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
            xs = [np.array(config.parse_vector(doc["x"], m, "document.x"))]
        else:
            rng = np.random.default_rng(args.seed or 0)
            xs = list(rng.uniform(-radius, radius, size=(256, m)))
        residuals = []
        warning = None
        for X in xs:
            out = similarity_conjugacy(S, sigma, n, np.asarray(X))
            residuals.append(out.residual)
            warning = warning or out.conditioning_warning
        report = {"route": "similarity", "max_residual": max(residuals), "samples": len(xs),
                  "conditioning_warning": warning}
        return resolved, report, (range(len(residuals)), residuals), 0

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
    report = {"route": "componentwise", "residual": residual, "grid_per_axis": grid_per_axis,
              "components": [{"k": c.k, "m": c.m, "orientation": c.orientation}
                             for c in h.components]}
    return resolved, report, ([0], [residual]), 0


def _run_distance(args):
    doc = _load_doc(args)
    config.check_keys(
        doc, "document", {"maps": list, "g_maps": list}, {"domain": dict, "label": str}
    )
    F = IfsDescriptor(tuple(config.parse_maps(doc["maps"])))
    G = IfsDescriptor(tuple(config.parse_maps(doc["g_maps"], "g_maps")))
    radius = _radius(args, doc)
    rep = ifs_distance(F, G, args.level, args.grid, radius)
    report = {"level": args.level, "d0": rep.d0, "d1": rep.d1, "identical": rep.identical,
              "argmax_pair": list(rep.argmax_pair) if rep.argmax_pair else None}
    columns = None
    if rep.argmax_pair is not None:
        f = F.maps[rep.argmax_pair[0] - 1]
        g = G.maps[rep.argmax_pair[1] - 1]
        xs = np.linspace(-radius, radius, args.grid)
        with np.errstate(over="ignore", invalid="ignore"):  # as ifs_distance
            vgap = np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))
            dgap = np.abs(np.asarray(f.derivative(xs)) - np.asarray(g.derivative(xs)))
        columns = (xs, vgap, dgap)
    resolved = {"input": doc, "level": args.level, "grid": args.grid, "radius": radius}
    return resolved, report, columns, 0


def _run_audit(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    audit = hyperbolicity_audit(F, radius)
    rows = [(i, r.point, r.derivative, r.margin, r.verdict)
            for i, records in enumerate(audit.records, 1) for r in records]
    per_map = [[{"fixed_point": r.point, "derivative": r.derivative, "margin": r.margin,
                 "verdict": r.verdict} for r in records] for records in audit.records]
    report = {"fixed_points": per_map, "all_hyperbolic": audit.all_hyperbolic,
              "verdict": "hyperbolic" if audit.all_hyperbolic else "non-hyperbolic"}
    # no fixed points: no columns, so the table is its header alone
    columns = list(zip(*rows))
    return {"input": doc, "radius": radius}, report, columns, 0 if audit.all_hyperbolic else 2


def _run_probe(args):
    doc, F, _, radius = _scalar_ifs_doc(args, need_sequence=False)
    rep = perturbation_probe(F, args.delta, args.trials, args.seed or 0, radius)
    report = {"delta": rep.delta, "trials": rep.trials, "passes": rep.passes,
              "pass_fraction": rep.pass_fraction, "attempts": rep.attempts}
    resolved = {"input": doc, "delta": args.delta, "trials": args.trials,
                "seed": args.seed or 0, "radius": radius}
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
    iterations = config.bounded_count(
        config.int_field(doc, "document", "iterations"), "document.iterations"
    )
    burn_in = config.int_field(doc, "document", "burn_in")
    x0 = config.number_field(doc, "document", "x0")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    radius = _radius(args, doc)
    sample = chaos_game(
        maps, iterations, burn_in, seed, x0, allow_affine=allow_affine, radius=radius
    )
    report = {"iterations": iterations, "burn_in": burn_in, "seed": seed,
              "count": len(sample.points), "points": sample.points}
    resolved = {"input": doc, "seed": seed, "radius": radius}
    return resolved, report, (sample.points,), 0


_H_COLUMNS = ("x", "h_x", "residual")
# name -> (handler, help text, CSV header or None for a JSON-only report, the
# flags the handler reads)
COMMANDS = {
    "conjugacy": (_run_conjugacy, "build a conjugacy between two linear maps and sample it",
                  _H_COLUMNS, ("--grid", "--tolerance", "--radius")),
    "verify": (_run_verify, "check the conjugacy equation residual for a map pair",
               _H_COLUMNS, ("--grid", "--tolerance", "--radius")),
    "orbit": (_run_orbit, "compose an orbit along a symbol sequence",
              ("step", "symbol", "value"), ("--radius", "--n-max")),
    "linearize": (_run_linearize, "slopes at zero, interval tags and applicable case",
                  None, ("--radius",)),
    "classify": (_run_classify, "ratio/decay fate analysis for mixed-slope families",
                 ("n", "n1", "n2", "ratio", "orbit_F", "orbit_G", "bound"),
                 ("--radius", "--n-max")),
    "multidim": (_run_multidim, "componentwise or similarity conjugacy residuals in R^m",
                 ("sample", "residual"), ("--seed", "--radius", "--n-max")),
    "distance": (_run_distance, "C0/C1 cross-pair distance between two families",
                 ("x", "value_gap", "derivative_gap"), ("--grid", "--radius", "--level")),
    "audit": (_run_audit, "fixed-point hyperbolicity audit",
              ("map", "fixed_point", "derivative", "margin", "verdict"), ("--radius",)),
    "probe": (_run_probe, "sample nearby families and report the conjugate fraction",
              None, ("--seed", "--radius", "--delta", "--trials")),
    "attractor": (_run_attractor, "chaos-game attractor sampling",
                  ("x",), ("--seed", "--radius")),
}

# flag -> (argparse options, validity rule or None); a rule takes the parsed
# value and the flag and raises SchemaError naming the flag
FLAGS = {
    "--input": ({"help": "path to the JSON input document"}, None),
    "--output": ({"help": "report file path (atomic write); stdout if omitted"}, None),
    "--format": ({"choices": ("json", "csv"), "default": "json"}, None),
    "--seed": ({"type": int, "help": "seed override"}, config.non_negative),
    "--grid": ({"type": int, "default": 1001, "help": "grid points per check"},
               functools.partial(config.bounded_count, least=2)),
    "--tolerance": ({"type": float, "default": 1e-8, "help": "residual tolerance"},
                    config.finite_non_negative),
    "--radius": ({"type": float, "help": "working interval half-width "
                  f"(default from document, else {DEFAULT_RADIUS})"}, config.positive_finite),
    "--n-max": ({"type": int, "help": "composition depth override"},
                functools.partial(config.bounded_count, least=1)),
    "--level": ({"type": int, "choices": (0, 1), "default": 1}, None),
    "--delta": ({"type": float, "default": 0.01, "help": "admissible C1 distance"},
                config.positive_finite),
    "--trials": ({"type": int, "default": 50}, functools.partial(config.bounded_count, least=0)),
}
_COMMON_FLAGS = ("--input", "--output", "--format")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1, as the epilog says; 2 is an obstruction
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifsconj",
        description=(
            "Numerically construct and verify topological conjugacies for "
            "iterated function systems on the line and R^m."
        ),
        epilog="Exit codes: 0 pass, 1 usage/numeric error, 2 mathematical obstruction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, header, flags) in COMMANDS.items():
        note = f"CSV columns: {', '.join(header)}." if header else "JSON report only."
        p = sub.add_parser(name, help=help_text, description=f"{help_text}. {note}",
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag in (*_COMMON_FLAGS, *flags):
            p.add_argument(flag, **FLAGS[flag][0])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, header, flags = COMMANDS[args.command]
    try:
        for flag in flags:
            value, rule = getattr(args, flag[2:].replace("-", "_")), FLAGS[flag][1]
            if rule is not None and value is not None:
                rule(value, flag)
        try:
            resolved, report, columns, code = run(args)
        except ObstructionError as exc:
            # the handler raised before it resolved its configuration
            resolved, columns, code = {"input": _load_doc(args)}, None, 2
            report = {
                "verdict": "obstructed",
                "reason": str(exc),
                "obstruction": getattr(exc, "obstruction", None),
            }
            args.format = "json"  # obstruction reports have no row form
        _emit(args, args.command, resolved, report, None if columns is None else (header, columns))
        return code
    except (IfsConjError, OSError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"ifsconj {args.command}: {exc}", file=sys.stderr)
        return 1


def main_entry():  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
