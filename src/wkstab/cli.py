"""Command-line interface.

One executable, subcommand style:

    wkstab info|lext|futaki|check|check-fano|check-fano-total|threshold|probe|sweep

Inputs are JSON (a file path, ``-`` for stdin, or an inline ``{...}`` literal)
with exact rationals only.  Reports are JSON by default (``--text`` for a
human-readable rendering) and always name the sign convention in use.  Exit
codes: 0 certified/completed, 2 refuted, 3 inconclusive, 1 input or usage
error.  For ``check``, ``check-fano``, ``check-fano-total`` and ``sweep``,
refuted means the sufficient condition fails at an exact point, which does
not by itself destabilize; only ``probe`` exits 2 with an exact
destabilizer.  ``sweep`` runs every row: a row whose input or check
raises is reported with verdict ``Error`` and its message, and any such row
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import jsonio
from .exact import format_point, rat
from .futaki import (
    FutakiNotVanishing,
    SingularMomentMatrix,
    extremal_affine,
    futaki_character,
    stability_weight,
)
from .jsonio import InputError
from .measure import volume
from .polytope import PolytopeError, monotone_point
from .probe import crease_family, probe
from .stability import (
    HypothesisViolatedOnBracket,
    VERDICT_CERTIFIED,
    VERDICT_FAILS,
    _fano_evaluator,
    base_point_candidates,
    check_fano_fiber,
    check_fano_total,
    check_fibration,
    default_base_point,
    threshold_c,
)
from .weights import (
    Convention,
    Fibration,
    NonpositiveWeight,
    NotFanoFibration,
    NotMonotoneFiber,
)

_RUNTIME_ERRORS = (
    InputError,
    PolytopeError,
    NonpositiveWeight,
    NotMonotoneFiber,
    NotFanoFibration,
    HypothesisViolatedOnBracket,
    FutakiNotVanishing,
    SingularMomentMatrix,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the report contract
    reserves 2 for refutations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _x0_arg(text: str) -> tuple:
    try:
        return tuple(rat(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f'bad point {text!r}; write rationals like "1/2,-3"'
        ) from exc


def _load_input(source: str):
    if source.lstrip().startswith("{"):
        return jsonio.loads(source)
    if source == "-":
        return jsonio.loads(sys.stdin.read())
    path = Path(source)
    if not path.exists():
        raise InputError("<input>", f"no such file: {source}")
    return jsonio.loads(_file_io("<input>", source, path.read_text))


def _file_io(where: str, path: str, action):
    """action(), with a file it cannot read or write reported as an
    InputError at *where* that names the path."""
    try:
        return action()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(where, f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _convention(args) -> Convention:
    return Convention.LEGACY if args.legacy_sign else Convention.CANONICAL


def _fibration(args) -> Fibration:
    return jsonio.fibration_from_json(_load_input(args.input), _convention(args))


def _emit(args, data: dict, text_lines: Callable[[], list[str]]) -> None:
    out = jsonio.dumps(data) if args.format == "json" else "\n".join(text_lines()) + "\n"
    if args.out:
        _file_io("--out", args.out, lambda: Path(args.out).write_text(out))
    else:
        sys.stdout.write(out)


def _fmt(x) -> str:
    return str(jsonio.rational_to_json(x))


def _verdict_exit(verdict: str) -> int:
    """The one verdict order: 0 certified, 2 refuted, 3 anything else; a
    smaller code is a better verdict."""
    return {VERDICT_CERTIFIED: 0, VERDICT_FAILS: 2}.get(verdict, 3)


def _emit_report(args, report) -> int:
    data = jsonio.report_to_json(report)
    _emit(args, data, lambda: _report_lines(data))
    return _verdict_exit(report.verdict)


def _report_lines(data: dict) -> list[str]:
    lines = [
        f"verdict:    {data['verdict']}",
        f"method:     {data['method']} (depth {data['depth']})",
        f"convention: {data['convention']}",
    ]
    if data.get("x0") is not None:
        lines.append(f"x0:         ({', '.join(map(str, data['x0']))})")
    if data.get("margin") is not None:
        lines.append(f"margin:     {data['margin']}")
    if data.get("witness"):
        w = data["witness"]
        lines.append(f"witness:    value {w['value']} at ({', '.join(map(str, w['point']))})")
    if data.get("vertex_values"):
        vals = [Fraction(str(e["value"])) for e in data["vertex_values"]]
        lines.append(f"minimum vertex value: {_fmt(min(vals))}")
        for e in data["vertex_values"]:
            lines.append(
                f"  vertex ({', '.join(map(str, e['vertex']))}): {e['value']}"
            )
    for key, val in sorted(data.get("notes", {}).items()):
        lines.append(f"{key}: {val}")
    return lines


# ---------------------------------------------------------------- commands


def _cmd_info(args) -> int:
    node = _load_input(args.input)
    conv = _convention(args)
    data: dict = {"convention": conv.value}
    if isinstance(node, dict) and ("fiber" in node or "factors" in node):
        fib = jsonio.fibration_from_json(node, conv)
        P = fib.fiber
        data["fibration"] = {
            "factors": [
                {
                    "n": f.n,
                    "s": jsonio.rational_to_json(f.s),
                    "c": jsonio.rational_to_json(f.c),
                    "p": [jsonio.rational_to_json(g) for g in f.p.gradient],
                }
                for f in fib.factors
            ],
            "total_dim": fib.total_dim,
            "v_degree": fib.v.degree(),
            "w_base_degree": fib.w_base.degree(),
            "normalized_inequality": list(fib.normalized_inequality()),
        }
    else:
        P = jsonio.polytope_from_json(node)
    mono = monotone_point(P)
    data["polytope"] = jsonio.polytope_to_json(P)
    data["polytope"]["volume"] = jsonio.rational_to_json(volume(P))
    data["polytope"]["simple"] = P.is_simple()
    data["polytope"]["monotone"] = (
        None
        if mono is None
        else {"x0": jsonio.point_to_json(mono[0]), "t": jsonio.rational_to_json(mono[1])}
    )
    _emit(args, data, lambda: _info_lines(data))
    return 0


def _info_lines(data: dict) -> list[str]:
    lines = [f"convention: {data['convention']}"]
    if "fibration" in data:
        fd = data["fibration"]
        lines.append(f"total dim Y: {fd['total_dim']}; factors: {len(fd['factors'])}")
        lines.append(
            "normalized inequality c_a > sum p_ai: "
            + ", ".join(map(str, fd["normalized_inequality"]))
        )
    P, mono = data["polytope"], data["polytope"]["monotone"]
    lines.append(f"dim: {P['dim']}; facets: {len(P['labels'])}; vertices: {len(P['vertices'])}")
    lines.append(f"volume: {P['volume']}; simple (Delzant-type): {P['simple']}")
    lines.append(
        "monotone: none"
        if mono is None
        else f"monotone: x0 = {format_point(mono['x0'])}, t = {mono['t']}"
    )
    return lines + [f"  vertex {format_point(vtx)}" for vtx in P["vertices"]]


def _cmd_lext(args) -> int:
    sol = extremal_affine(_fibration(args))
    _emit(args, jsonio.extremal_to_json(sol), lambda: [
        f"l_ext: gradient ({', '.join(map(_fmt, sol.l_ext.gradient))}), "
        f"constant {_fmt(sol.l_ext.constant)}",
        f"constant function: {sol.is_constant}",
        f"convention: {sol.convention.value}",
    ])
    return 0


def _cmd_futaki(args) -> int:
    fib = _fibration(args)
    char = futaki_character(fib)
    data = {
        "character": [jsonio.rational_to_json(x) for x in char],
        "vanishes": all(x == 0 for x in char),
        "convention": fib.convention.value,
    }
    _emit(args, data, lambda: [
        f"futaki character: ({', '.join(_fmt(x) for x in char)})",
        f"vanishes (l_ext constant): {data['vanishes']}",
        f"convention: {fib.convention.value}",
    ])
    return 0


def _cmd_check(args) -> int:
    fib = _fibration(args)
    if args.x0_sweep:
        reports = [
            (x0, check_fibration(fib, x0=x0, max_depth=args.max_depth))
            for x0 in base_point_candidates(fib.fiber)
        ]
        best = min((r for _, r in reports), key=lambda r: _verdict_exit(r.verdict))
        data = {
            "verdict": best.verdict,
            "convention": fib.convention.value,
            "x0_sweep": [jsonio.report_to_json(r) for _, r in reports],
        }
        _emit(args, data, lambda: [
            f"x0 sweep over {len(reports)} base points:",
            *(f"  x0 = {format_point(x0)}: {r.verdict}" for x0, r in reports),
            f"best verdict: {best.verdict}",
            f"convention: {fib.convention.value}",
        ])
        return _verdict_exit(best.verdict)
    if args.x0 is not None and len(args.x0) != fib.dim:
        raise InputError("--x0", f"expected {fib.dim} coordinates, got {len(args.x0)}")
    return _emit_report(args, check_fibration(fib, x0=args.x0, max_depth=args.max_depth))


def _cmd_check_fano(args) -> int:
    fib = _fibration(args)
    report = check_fano_fiber(fib, max_depth=args.max_depth)
    if args.csv:
        _write_condition_csv(args.csv, fib, args.csv_samples)
    return _emit_report(args, report)


def _write_condition_csv(path: str, fib, samples: int) -> None:
    """Plot-ready table: condition value along each segment x0 -> vertex."""
    value = _fano_evaluator(fib, extremal_affine(fib).l_ext)
    x0 = fib.fano_fiber[0]
    with _file_io("--csv", path, lambda: open(path, "w", newline="")) as fh:
        writer = csv.writer(fh)
        coords = [f"x{i+1}" for i in range(fib.dim)]
        writer.writerow(["segment_vertex", "step"] + coords + ["condition_value"])
        for vi, vtx in enumerate(fib.fiber.vertices):
            for k in range(samples + 1):
                s = Fraction(k, samples)
                pt = tuple(x0[i] + s * (vtx[i] - x0[i]) for i in range(fib.dim))
                try:
                    val = value(pt)
                except NonpositiveWeight:
                    continue
                writer.writerow(
                    [vi, str(s)] + [str(c) for c in pt] + [str(val)]
                )


def _cmd_check_fano_total(args) -> int:
    return _emit_report(args, check_fano_total(_fibration(args)))


def _cmd_threshold(args) -> int:
    make_fib, _fiber = jsonio.fibration_template_from_json(
        _load_input(args.input), _convention(args)
    )
    res = threshold_c(make_fib, args.lo, args.hi, tol=args.tol)
    _emit(args, jsonio.threshold_to_json(res), lambda: [
        f"threshold bracket: [{_fmt(res.low)}, {_fmt(res.high)}]"
        + (f" (exact {_fmt(res.exact)})" if res.exact is not None else ""),
        f"certified for larger c: {res.certified}",
        f"condition value at c_hi: {_fmt(res.value_at_hi)}",
        f"hypothesis floor c_lo: {_fmt(res.floor)}",
        f"convention: {res.convention.value}",
        *(
            f"  vertex {format_point(e.vertex)}: {e.kind} "
            + (f"[{_fmt(e.low)}, {_fmt(e.high)}]" if e.exact is None else _fmt(e.exact))
            + f" (num deg {e.num_degree}, den deg {e.den_degree})"
            for e in res.per_vertex
        ),
    ])
    return 0 if res.certified else 3


def _cmd_probe(args) -> int:
    fib = _fibration(args)
    w = stability_weight(fib)
    x0 = default_base_point(fib.fiber)
    family = crease_family(fib.fiber, x0, args.resolution)
    report = probe(
        fib.fiber,
        fib.v,
        w,
        family,
        verify_futaki=fib.convention is Convention.CANONICAL,
    )
    data = jsonio.probe_to_json(report, fib.v, w)
    data["convention"] = fib.convention.value
    data["resolution"] = args.resolution
    _emit(args, data, lambda: [
        f"creases tried: {report.n_creases} (resolution {args.resolution})",
        "min ratio F(f)/|f|_L1: "
        + ("n/a" if report.min_ratio is None else _fmt(report.min_ratio)),
        f"destabilizer found: {report.found_destabilizer}",
        "note: positive min ratio is evidence only (L1 surrogate), "
        "negative F(f) is an exact refutation",
        f"convention: {fib.convention.value}",
    ] + [
        f"destabilizer crease: h = ({', '.join(map(_fmt, d.h.gradient))}).x + {_fmt(d.h.constant)}"
        for d in (report.destabilizer,) if d is not None
    ])
    return 2 if report.found_destabilizer else 0


def _substitute(node, binding: dict, path: str):
    if isinstance(node, str) and node.startswith("$"):
        try:
            value = binding[node[1:]]
        except KeyError:
            raise InputError(path, f"unbound placeholder {node}") from None
        return jsonio.rational_to_json(value)
    if isinstance(node, list):
        return [_substitute(x, binding, f"{path}[{i}]") for i, x in enumerate(node)]
    if isinstance(node, dict):
        return {k: _substitute(v, binding, f"{path}.{k}") for k, v in node.items()}
    return node


def _placeholders(template) -> set[str]:
    """The $name placeholders a template names, read by a _substitute pass two
    frames deeper than any row's, so a template too deep for a row raises here."""
    names: dict = defaultdict(Fraction)
    try:
        _substitute(template, names, "sweep.template")
    except RecursionError:
        raise InputError("sweep.template", "nested too deeply") from None
    return set(names)


def _check_used(name: str, used: set[str], path: str) -> str:
    if name not in used:
        raise InputError(path, f"no ${name} in the template uses this variable")
    return name


def _sweep_rows(node) -> list[dict]:
    used = _placeholders(node["template"])
    if "rows" in node:
        rows_node = node["rows"]
        if not isinstance(rows_node, list):
            raise InputError("sweep.rows", "expected a list of binding objects")
        rows = []
        for i, row in enumerate(rows_node):
            if not isinstance(row, dict):
                raise InputError(f"sweep.rows[{i}]", "expected an object")
            rows.append(
                {
                    _check_used(k, used, f"sweep.rows[{i}].{k}"):
                    jsonio.rational_from_json(v, f"sweep.rows[{i}].{k}")
                    for k, v in row.items()
                }
            )
        return rows
    if "grid" in node:
        grid_node = node["grid"]
        if not isinstance(grid_node, dict):
            raise InputError("sweep.grid", "expected an object of value lists")
        names = sorted(grid_node)
        axes = []
        for name in names:
            vals = grid_node[_check_used(name, used, f"sweep.grid.{name}")]
            if not isinstance(vals, list):
                raise InputError(f"sweep.grid.{name}", "expected a list")
            axes.append(
                [
                    jsonio.rational_from_json(v, f"sweep.grid.{name}[{i}]")
                    for i, v in enumerate(vals)
                ]
            )
        rows = [{}]
        for name, vals in zip(names, axes):
            rows = [dict(r, **{name: v}) for r in rows for v in vals]
        return rows
    raise InputError("sweep", "need either 'rows' or 'grid'")


VERDICT_ERROR = "Error"  # a sweep row whose input or check raised

_SWEEP_RUNNERS = {
    "check-fano": check_fano_fiber,
    "check": check_fibration,
    "check-fano-total": check_fano_total,
}


def _cmd_sweep(args) -> int:
    node = _load_input(args.input)
    if not isinstance(node, dict) or "template" not in node:
        raise InputError("sweep", "expected an object with a 'template' key")
    for key in node:
        if key not in ("template", "rows", "grid", "run"):
            raise InputError("sweep", f"unknown key {key!r}")
    run = node.get("run", "check-fano")
    if not isinstance(run, str) or run not in _SWEEP_RUNNERS:
        raise InputError(
            "sweep.run", f"unknown command {run!r} (choose from {sorted(_SWEEP_RUNNERS)})"
        )
    runner = _SWEEP_RUNNERS[run]
    conv = _convention(args)
    rows = _sweep_rows(node)
    out_rows = []
    for binding in rows:
        row = {"bindings": {k: jsonio.rational_to_json(v) for k, v in sorted(binding.items())}}
        try:
            concrete = _substitute(node["template"], binding, "sweep.template")
            fib = jsonio.fibration_from_json(concrete, conv, path="sweep.template")
            report = runner(fib)
        except _RUNTIME_ERRORS as exc:
            row.update(verdict=VERDICT_ERROR, error=str(exc), margin=None, witness=None)
        else:
            fields = jsonio.report_to_json(report)
            row.update((key, fields[key]) for key in ("verdict", "margin", "witness"))
        out_rows.append(row)
    data = {
        "command": run,
        "convention": conv.value,
        "n_rows": len(out_rows),
        "rows": out_rows,
    }
    if args.csv:
        _write_sweep_csv(args.csv, out_rows)
    verdicts = {r["verdict"] for r in out_rows}
    _emit(args, data, lambda: [
        f"sweep: {len(rows)} rows, command {run}, convention {conv.value}",
        *(f"  {', '.join(f'{k}={v}' for k, v in r['bindings'].items())}: {r['verdict']}"
          + (f" ({r['error']})" if "error" in r else "") for r in out_rows),
    ])
    if VERDICT_ERROR in verdicts:
        return 1
    return min({_verdict_exit(v) for v in verdicts} - {0}, default=0)


def _write_sweep_csv(path: str, rows: list[dict]) -> None:
    names = sorted({k for r in rows for k in r["bindings"]})
    with _file_io("--csv", path, lambda: open(path, "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["verdict", "margin", "error"])
        for r in rows:
            writer.writerow(
                [str(r["bindings"].get(n, "")) for n in names]
                + [r["verdict"], "" if r["margin"] is None else str(r["margin"]),
                   r.get("error", "")]
            )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wkstab",
        description="Exact sufficient-condition checks for weighted uniform "
        "K-stability of labelled polytopes (fibration weights).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("input", help="JSON file path, '-' for stdin, or inline '{...}'")
        sp.add_argument(
            "--legacy-sign",
            action="store_true",
            help="use the legacy sign convention of the original programs "
            "(default: canonical, fixed by the Fano normalization)",
        )
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json", default="json"
        )
        fmt.add_argument("--text", dest="format", action="store_const", const="text")
        sp.add_argument("--out", help="write the report to this file instead of stdout")

    sp = sub.add_parser("info", help="describe a polytope or fibration")
    common(sp)
    sp.set_defaults(func=_cmd_info)

    sp = sub.add_parser("lext", help="solve for the extremal affine function")
    common(sp)
    sp.set_defaults(func=_cmd_lext)

    sp = sub.add_parser("futaki", help="the obstruction to a constant l_ext")
    common(sp)
    sp.set_defaults(func=_cmd_futaki)

    sp = sub.add_parser("check", help="per-cone sufficient condition")
    common(sp)
    sp.add_argument(
        "--max-depth", type=int, default=6,
        help="Bernstein node budget: as many nodes as a barycentric subdivision "
        "this deep, spent on longest-edge bisection",
    )
    base = sp.add_mutually_exclusive_group()
    base.add_argument(
        "--x0", type=_x0_arg, default=None,
        help='interior base point, e.g. "0,1/2" (default: monotone '
        "point, else vertex centroid)",
    )
    base.add_argument(
        "--x0-sweep", action="store_true",
        help="try the centroid and all cell barycenters as x0",
    )
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("check-fano", help="vertex condition for monotone fibers")
    common(sp)
    sp.add_argument("--max-depth", type=int, default=6)
    sp.add_argument("--csv", help="also write (point, condition value) samples as CSV")
    sp.add_argument("--csv-samples", type=int, default=50)
    sp.set_defaults(func=_cmd_check_fano)

    sp = sub.add_parser(
        "check-fano-total", help="sup l_ext <= 2(dim Y + 1) for anticanonical data"
    )
    common(sp)
    sp.set_defaults(func=_cmd_check_fano_total)

    sp = sub.add_parser("threshold", help="smallest certified class offset c")
    common(sp)
    sp.add_argument("--lo", type=_rational, required=True, help="bracket floor c_lo")
    sp.add_argument("--hi", type=_rational, required=True, help="bracket ceiling c_hi")
    sp.add_argument("--tol", type=_rational, default=Fraction(1, 100))
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("probe", help="crease destabilizer search")
    common(sp)
    sp.add_argument("--resolution", type=int, default=3)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("sweep", help="run a check over a parameter grid")
    common(sp)
    sp.add_argument("--csv", help="also write one CSV row per grid point")
    sp.set_defaults(func=_cmd_sweep)

    return parser


def _parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, rel, low in (
        ("max_depth", ">=", 0),
        ("csv_samples", ">=", 1),
        ("tol", ">", 0),
    ):
        value = getattr(args, name, None)
        if value is not None and not (value > low if rel == ">" else value >= low):
            parser.error(f"--{name.replace('_', '-')} must be {rel} {low}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
