"""JSON input/output with exact rationals.

Rational numbers travel as JSON integers or "a/b" strings; decimal literals
are rejected at parse time (floats cannot faithfully carry the exact data the
solvers need), and so is input nested past the recursion limit.  Parse
errors carry the field path of the offending node.  Serialization is
deterministic: sorted keys and a two-space indent, the bytes of
json.dumps(obj, sort_keys=True, indent=2), written by dumps in one pass over
the report tree (json.dumps runs its pure-Python encoder when given an
indent); a report carries no float, and dumps rejects one.

Fibers are interned: polytope_from_json returns one shared LabelledPolytope
per distinct exact label tuple (the standard_simplex shorthand is keyed by
its labels too), kept in polytope._interned, the bounded LRU that
polytope.standard_fiber_polytope also reads.  A fiber node parsed before is
found before its labels are parsed: _PARSED_LABELS, bounded like the
intern table, keeps each parsed label tuple under the shorthand's validated
(l, t) or under a key of the label list's raw JSON values, so a repeated
node costs no AffineFunc and no label hash; a node whose values are not all
JSON ints and strings is parsed every time.  So every command, sweep row
and threshold template that names a fiber already parsed or built in this
process reuses its vertices, its integer vertex record, its facet cells,
its moment record and its monotone point instead of building them again.
Sharing is safe: the polytope is immutable, and its derived slots,
``cleared``, written only by polytope._vertex_record, ``facet_cells``,
written only by polytope._facet_cells, ``moments``, written only by
measure._fill (a refill to a higher degree keeps every lower moment), and
``monotone``, written only by polytope.monotone_point, hold exact values
fixed by the labels.  Exceptions are not cached, so bad input raises on every parse; a
label set that cuts out no polytope raises an InputError at
``<path>.labels``.  from_halfspaces itself is not cached: library callers
get a fresh polytope and an empty record from it.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exact import AffineFunc, Polynomial, rat
from .futaki import ExtremalSolution
from .polytope import (
    _INTERNED_FIBERS, LabelledPolytope, PolytopeError, _interned, _standard_labels,
)
from .probe import Crease, ProbeReport
from .stability import StabilityReport, ThresholdResult
from .weights import BASE_PRESETS, BaseFactor, Convention, Fibration, fibration


class InputError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _reject_float(text: str):
    raise InputError(
        "<number>",
        f"decimal literal {text!r} is not accepted; write an exact rational "
        'as an integer or an "a/b" string',
    )


def loads(text: str):
    try:
        return json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_float
        )
    except json.JSONDecodeError as exc:
        raise InputError("<input>", f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's int-conversion digit limit
        raise InputError("<input>", str(exc)) from exc
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise InputError("<input>", "invalid JSON: nested too deeply") from None


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", written in one pass
    (given an indent, json.dumps runs the standard library's pure-Python
    encoder).  obj is a tree of dicts with str keys, lists or tuples, strs,
    ints, bools and None; anything else, floats included, raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, newline: str, out: list[str]) -> None:
    """Append x's JSON text to out; newline (with the indent) starts each
    of its lines after the first."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write(x[key], inner, out)
            sep = ","
        out.append(newline + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner, sep = newline + "  ", "["
        for item in x:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(newline + "]" if x else "[]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def rational_to_json(x: Fraction):
    if type(x) is not Fraction:  # a report's values already are
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_json(node, path: str) -> Fraction:
    if isinstance(node, bool):
        raise InputError(path, "expected a rational, got a boolean")
    if isinstance(node, (int, str)):
        try:
            return rat(node)
        except ValueError as exc:
            raise InputError(path, str(exc)) from exc
    raise InputError(path, f"expected a rational (int or 'a/b'), got {type(node).__name__}")


def _expect(node, typ, path: str, what: str):
    if not isinstance(node, typ) or isinstance(node, bool):
        raise InputError(path, f"expected {what}, got {type(node).__name__}")
    return node


def _expect_keys(node: dict, path: str, required, optional=()):
    for key in required:
        if key not in node:
            raise InputError(path, f"missing required key {key!r}")
    for key in node:
        if key not in required and key not in optional:
            raise InputError(path, f"unknown key {key!r}")


def point_to_json(pt) -> list:
    return [rational_to_json(x) for x in pt]


def point_from_json(node, path: str):
    _expect(node, list, path, "a point (list of rationals)")
    return tuple(rational_from_json(x, f"{path}[{i}]") for i, x in enumerate(node))


def affine_to_json(f: AffineFunc) -> dict:
    return {
        "gradient": [rational_to_json(g) for g in f.gradient],
        "constant": rational_to_json(f.constant),
    }


def affine_from_json(node, path: str) -> AffineFunc:
    _expect(node, dict, path, "an affine function object")
    _expect_keys(node, path, ("gradient", "constant"))
    grad = _expect(node["gradient"], list, f"{path}.gradient", "a list")
    gradient = [
        rational_from_json(g, f"{path}.gradient[{i}]") for i, g in enumerate(grad)
    ]
    constant = rational_from_json(node["constant"], f"{path}.constant")
    return AffineFunc(gradient, constant)


def polytope_to_json(P: LabelledPolytope) -> dict:
    return {
        "dim": P.dim,
        "labels": [affine_to_json(L) for L in P.labels],
        "vertices": [point_to_json(v) for v in P.vertices],
    }


#: Label tuples of the fibers parsed so far, by the key of their JSON node
#: (_labels_key, or (l, t) for the standard_simplex shorthand), least
#: recently used first; bounded like polytope._interned.
_PARSED_LABELS: OrderedDict = OrderedDict()


def polytope_from_json(node, path: str = "polytope") -> LabelledPolytope:
    """The fiber *node* describes, shared with every earlier parse of the same
    exact labels in this process (see the module docstring)."""
    _expect(node, dict, path, "a polytope object")
    if "standard_simplex" in node:
        _expect_keys(node, path, ("standard_simplex",))
        body = _expect(
            node["standard_simplex"], dict, f"{path}.standard_simplex", "an object"
        )
        _expect_keys(body, f"{path}.standard_simplex", ("l", "t"))
        ell = _expect(body["l"], int, f"{path}.standard_simplex.l", "an integer")
        t = rational_from_json(body["t"], f"{path}.standard_simplex.t")
        if ell < 1 or t <= 0:
            raise InputError(f"{path}.standard_simplex", "need l >= 1 and t > 0")
        return _fiber((ell, t), lambda: _standard_labels(ell, t), path)
    # "vertices" is derived data: accepted on input (round-trips) but ignored.
    _expect_keys(node, path, ("dim", "labels"), optional=("vertices",))
    return _fiber(_labels_key(node), lambda: _parse_labels(node, path), path)


def _labels_key(node: dict):
    """(dim, (*gradient, constant) per label) of a label-given fiber node
    whose every value there is an exact int or str, else None: equal keys
    are equal nodes, up to the ignored "vertices"."""
    dim, labels = node["dim"], node["labels"]
    if type(dim) is not int or type(labels) is not list:
        return None
    key = [dim]
    for L in labels:
        if type(L) is not dict or len(L) != 2 or type(L.get("gradient")) is not list:
            return None
        item = (*L["gradient"], L.get("constant"))
        if any(type(x) is not int and type(x) is not str for x in item):
            return None
        key.append(item)
    return tuple(key)


def _fiber(key, parse, path: str) -> LabelledPolytope:
    """_interned(labels) for the labels stored under key, or else for
    parse()'s, stored under key (when not None) only once they cut out a
    polytope, so that a bad node raises on every parse."""
    labels = _PARSED_LABELS.get(key)
    if labels is not None:
        _PARSED_LABELS.move_to_end(key)
        return _interned(labels)
    labels = parse()
    try:
        P = _interned(labels)
    except PolytopeError as exc:  # unbounded, empty-interior or redundant labels
        raise InputError(f"{path}.labels", str(exc)) from exc
    if key is not None:
        _PARSED_LABELS[key] = labels
        if len(_PARSED_LABELS) > _INTERNED_FIBERS:
            _PARSED_LABELS.popitem(last=False)
    return P


def _parse_labels(node: dict, path: str) -> tuple[AffineFunc, ...]:
    dim = _expect(node["dim"], int, f"{path}.dim", "an integer")
    if dim < 1:
        raise InputError(f"{path}.dim", f"need dim >= 1, got {dim}")
    labels_node = _expect(node["labels"], list, f"{path}.labels", "a list")
    if not labels_node:
        raise InputError(f"{path}.labels", "at least one label is required")
    labels = [
        affine_from_json(L, f"{path}.labels[{j}]") for j, L in enumerate(labels_node)
    ]
    for j, L in enumerate(labels):
        if L.dim != dim:
            raise InputError(
                f"{path}.labels[{j}]", f"gradient length {L.dim} != dim {dim}"
            )
    return tuple(labels)


VAR_MARKER = "var"


def _dimension_from_json(node, path: str) -> int:
    n = _expect(node, int, path, "an integer")
    if n < 1:
        raise InputError(path, f"need n >= 1, got {n}")
    return n


def _offset_from_json(node, path: str) -> Fraction:
    """A factor's c; the "var" of a threshold template reads as 0."""
    return Fraction(0) if node == VAR_MARKER else rational_from_json(node, path)


def _factor_from_json(node, dim: int, path: str, allow_var: bool):
    """Returns (BaseFactor, c_is_var: bool).  Each of n, s and c comes from
    the node, else from its preset; fields are read in the order n, s, p, c."""
    _expect(node, dict, path, "a factor object")
    _expect_keys(node, path, (), optional=("preset", "n", "s", "c", "p"))
    preset = None
    if "preset" in node:
        name = _expect(node["preset"], str, f"{path}.preset", "a string")
        if name not in BASE_PRESETS:
            known = ", ".join(sorted(BASE_PRESETS))
            raise InputError(f"{path}.preset", f"unknown preset {name!r} (known: {known})")
        preset = BASE_PRESETS[name]

    def field(key, attr, read, kind=""):
        if key in node:
            return read(node[key], f"{path}.{key}")
        value = getattr(preset, attr, None)
        if value is None:
            raise InputError(path, f"missing {key!r} (or a {kind}'preset' providing it)")
        return value

    n = field("n", "n", _dimension_from_json)
    s = field("s", "s", rational_from_json)
    grad = [0] * dim
    if "p" in node:
        pnode = _expect(node["p"], list, f"{path}.p", "a list of rationals")
        grad = [rational_from_json(g, f"{path}.p[{i}]") for i, g in enumerate(pnode)]
        if len(grad) != dim:
            raise InputError(f"{path}.p", f"expected {dim} entries, got {len(grad)}")
    c = field("c", "index", _offset_from_json, "Fano ")
    c_is_var = node.get("c") == VAR_MARKER
    if c_is_var and not allow_var:
        raise InputError(f"{path}.c", '"var" is only allowed in threshold templates')
    return BaseFactor(n=n, s=s, c=c, p=AffineFunc(grad, 0)), c_is_var


def fibration_from_json(
    node, convention: Convention, path: str = "fibration"
) -> Fibration:
    fiber, factors, _ = _fibration_parts(node, path, allow_var=False)
    return fibration(fiber, factors, convention)


def fibration_template_from_json(node, convention: Convention, path: str = "fibration"):
    """Parse a fibration with exactly one factor's c marked "var"; returns
    (make_fib, fiber) with make_fib(c) building the concrete fibration."""
    fiber, factors, var_index = _fibration_parts(node, path, allow_var=True)
    if var_index is None:
        raise InputError(
            f"{path}.factors", 'threshold templates need one factor with "c": "var"'
        )

    def make_fib(c: Fraction) -> Fibration:
        concrete = list(factors)
        concrete[var_index] = dataclasses.replace(factors[var_index], c=c)
        return fibration(fiber, concrete, convention)

    return make_fib, fiber


def _fibration_parts(node, path: str, allow_var: bool):
    _expect(node, dict, path, "a fibration object")
    _expect_keys(node, path, ("fiber", "factors"))
    fiber = polytope_from_json(node["fiber"], f"{path}.fiber")
    factors_node = _expect(node["factors"], list, f"{path}.factors", "a list")
    factors = []
    var_index = None
    for a, fnode in enumerate(factors_node):
        factor, is_var = _factor_from_json(
            fnode, fiber.dim, f"{path}.factors[{a}]", allow_var
        )
        if is_var:
            if var_index is not None:
                raise InputError(
                    f"{path}.factors[{a}].c", 'only one factor may set "c": "var"'
                )
            var_index = a
        factors.append(factor)
    return fiber, factors, var_index


def _witness_to_json(witness):
    if witness is None:
        return None
    pt, value = witness
    return {"point": point_to_json(pt), "value": rational_to_json(value)}


def report_to_json(report: StabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "method": report.method,
        "depth": report.depth,
        "convention": report.convention.value,
        "x0": None if report.x0 is None else point_to_json(report.x0),
        "witness": _witness_to_json(report.witness),
        "margin": None if report.margin is None else rational_to_json(report.margin),
        "per_cone": [
            {
                "facet": o.facet,
                "cell": o.cell,
                "method": o.method,
                "status": o.status,
                "value": None if o.value is None else rational_to_json(o.value),
                "witness": _witness_to_json(o.witness),
                "depth": o.depth,
            }
            for o in report.per_cone
        ],
        "vertex_values": [
            {"vertex": point_to_json(vtx), "value": rational_to_json(val)}
            for vtx, val in report.vertex_values
        ],
        "notes": {k: v for k, v in report.notes},
    }


def extremal_to_json(sol: ExtremalSolution) -> dict:
    return {
        "l_ext": affine_to_json(sol.l_ext),
        "constant": sol.is_constant,
        "convention": sol.convention.value,
    }


def threshold_to_json(res: ThresholdResult) -> dict:
    return {
        "low": rational_to_json(res.low),
        "high": rational_to_json(res.high),
        "exact": None if res.exact is None else rational_to_json(res.exact),
        "certified": res.certified,
        "value_at_hi": rational_to_json(res.value_at_hi),
        "floor": rational_to_json(res.floor),
        "tol": rational_to_json(res.tol),
        "convention": res.convention.value,
        "per_vertex": [
            {
                "vertex": point_to_json(e.vertex),
                "low": rational_to_json(e.low),
                "high": rational_to_json(e.high),
                "exact": None if e.exact is None else rational_to_json(e.exact),
                "kind": e.kind,
                "tail_positive": e.tail_positive,
                "num_degree": e.num_degree,
                "den_degree": e.den_degree,
            }
            for e in res.per_vertex
        ],
    }


def _crease_to_json(crease: Crease | None):
    if crease is None:
        return None
    return {
        "h": affine_to_json(crease.h),
        "positive_vertices": [point_to_json(v) for v in crease.positive.vertices],
    }


def probe_to_json(report: ProbeReport, v: Polynomial, w: Polynomial) -> dict:
    out = {
        "n_creases": report.n_creases,
        "min_ratio": None
        if report.min_ratio is None
        else rational_to_json(report.min_ratio),
        "argmin": _crease_to_json(report.argmin),
        "destabilizer": _crease_to_json(report.destabilizer),
        "found_destabilizer": report.found_destabilizer,
        "norm": "L1 surrogate for the J-norm (up to an uncomputed constant); "
        "a positive min_ratio is evidence, not a stability certificate",
    }
    if report.argmin is not None:
        out["argmin"]["df_value"] = rational_to_json(report.argmin.df_value(v, w))
        out["argmin"]["l1_norm"] = rational_to_json(report.argmin.l1_norm())
    return out

