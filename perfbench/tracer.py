"""Outside-in span tracer for the wkstab layers.

The tracer never edits the library.  ``install`` looks up each traced
function on its defining module (or class, for methods) and replaces it with
a timing wrapper at every place that holds the same object: the defining
module, every ``wkstab.*`` module that copied the name at import
(``futaki.integrate``, ``probe.clip``, ``stability.certify_nonnegative``,
...), the package namespace, and module-level dicts such as the CLI's sweep
runner table.  Modules are resolved through ``sys.modules`` because the
package attribute ``wkstab.probe`` is the ``probe`` function, not the module.
``uninstall`` puts every original object back.

Spans are kept in memory as flat lists and summarised (or written out) when
the run ends.  A span's self time is its duration minus the durations of its
traced children; children never overlap because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, qualified name) of every traced entry point.  ``Class.method``
#: names are patched on the class.  Names missing from the library (a later
#: refactor may delete some) are skipped and report zero calls.
TRACED = (
    ("exact", "Polynomial.compose_affine"),
    ("exact", "solve_square"),
    ("exact", "solve_general"),
    ("polytope", "from_halfspaces"),
    ("polytope", "triangulate"),
    ("polytope", "triangulate_facet"),
    ("polytope", "clip"),
    ("polytope", "cone_decomposition"),
    ("measure", "integrate"),
    ("measure", "integrate_boundary"),
    ("measure", "integrate_simplex"),
    ("measure", "integrate_facet_cell"),
    ("weights", "fibration"),
    ("futaki", "solve_extremal"),
    ("futaki", "assert_futaki_vanishes"),
    ("bernstein", "certify_nonnegative"),
    ("bernstein", "bernstein_coefficients"),
    ("univariate", "reconstruct_rational"),
    ("univariate", "fit_rational"),
    ("univariate", "isolate_roots"),
    ("stability", "check_fano_fiber"),
    ("stability", "check_general"),
    ("stability", "threshold_c"),
    ("probe", "crease_family"),
    ("probe", "probe"),
    ("jsonio", "loads"),
    ("jsonio", "dumps"),
    ("jsonio", "fibration_from_json"),
    ("cli", "main"),
)

#: Traced for the probe's moment counters only; no calls/self_ms metric.
AUXILIARY = (
    ("probe", "Crease.interior_moment"),
    ("probe", "Crease.boundary_moment"),
)

LAYERS = (
    "exact",
    "polytope",
    "measure",
    "weights",
    "futaki",
    "bernstein",
    "univariate",
    "stability",
    "probe",
    "jsonio",
    "cli",
)

def metric_name(module: str, qualname: str) -> str:
    """Public name of a traced function: ``exact.compose_affine`` is
    ``Polynomial.compose_affine``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


# Span record layout: one list per span.
SID, PARENT, OP, NAME, START, END, CHILD_TIME, N_CHILDREN, STATUS, RESULT = range(10)

#: What a span keeps of its function's return value, for the counters.
_KEEP = {
    "bernstein.certify_nonnegative": lambda r: (r.status, r.depth_used),
    "probe.crease_family": len,
}

_MOMENT_SPANS = ("probe.Crease.interior_moment", "probe.Crease.boundary_moment")


class Tracer:
    """Records one span per call into a traced function while installed.

    Set ``op_id`` before each benchmark op; spans carry it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._patches: list[tuple] = []  # (owner, key, original, is_dict)
        self._samples: set = set()  # (op_id, x) seen by threshold samplers

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, qualname in TRACED + AUXILIARY:
            mod = sys.modules.get(f"wkstab.{module}")
            if mod is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if (module, qualname) in TRACED:
                name = metric_name(module, qualname)
            else:
                name = f"{module}.{qualname}"
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is not None:
                    self._patch(owner, attr, original, self._wrap(name, original), False)
                continue
            original = mod.__dict__.get(attr)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for owner, key, is_dict in _binding_sites(original):
                self._patch(owner, key, original, wrapper, is_dict)

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    @property
    def patches(self) -> list[tuple]:
        """(owner, key, original, is_dict) for every replaced binding."""
        return list(self._patches)

    def _patch(self, owner, key, original, wrapper, is_dict: bool) -> None:
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        keep = _KEEP.get(name)
        sampled = name == "univariate.reconstruct_rational"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), None if parent is None else parent[SID],
                    tracer.op_id, name, 0.0, 0.0, 0.0, 0, "ok", None]
            spans.append(span)
            if parent is not None:
                parent[N_CHILDREN] += 1
            if sampled and args:
                args = (tracer._counting_sampler(args[0]),) + args[1:]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[STATUS] = type(exc).__name__
                raise
            finally:
                span[END] = end = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_TIME] += end - span[START]
            if keep is not None:
                span[RESULT] = keep(result)
            return result

        return wrapper

    def _counting_sampler(self, sample):
        seen = self._samples
        op = self.op_id

        def counted(x):
            seen.add((op, x))
            return sample(x)

        return counted

    # -------------------------------------------------------------- output

    def summary(self, factors=None) -> dict:
        """Per-function calls/self_ms, layer self-time shares and counters.

        ``factors`` maps an op id to the factor its times are scaled by.
        """
        factors = factors or {}

        def scale(span):
            return factors.get(span[OP], 1.0)

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            name = span[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + _self_seconds(span) * scale(span)
        out: dict[str, float] = {}
        for module, qualname in TRACED:
            name = metric_name(module, qualname)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_ms"] = 1000.0 * self_s.get(name, 0.0)
        total = sum(self_s.values())
        for layer in LAYERS:
            mine = sum(t for n, t in self_s.items() if n.split(".", 1)[0] == layer)
            out[f"layer.{layer}.self_share"] = mine / total if total > 0 else 0.0
        owned = self._owned_seconds(scale)
        for layer in LAYERS:
            out[f"layer.{layer}.share"] = owned.get(layer, 0.0) / total if total > 0 else 0.0
        out.update(self._counters())
        return out

    def _owned_seconds(self, scale) -> dict:
        """Self time per layer, with each ``exact`` kernel span's self time
        given to the nearest traced caller outside ``exact``: the work a
        layer does, counting the exact-arithmetic kernels it calls."""
        owned: dict[str, float] = {}
        spans = self.spans
        for span in spans:
            layer = span[NAME].split(".", 1)[0]
            up = span
            while layer == "exact" and up[PARENT] is not None:
                up = spans[up[PARENT]]
                layer = up[NAME].split(".", 1)[0]
            owned[layer] = owned.get(layer, 0.0) + _self_seconds(span) * scale(span)
        return owned

    def _counters(self) -> dict:
        nodes = {"certified": 0, "refuted": 0, "inconclusive": 0}
        max_depth = creases = clip_fail = lookups = computed = 0
        for span in self.spans:
            name = span[NAME]
            if name == "bernstein.certify_nonnegative" and span[RESULT] is not None:
                status, depth = span[RESULT]
                nodes[status] = nodes.get(status, 0) + 1
                max_depth = max(max_depth, depth)
            elif name == "probe.crease_family" and span[RESULT] is not None:
                creases += span[RESULT]
            elif name == "polytope.clip" and span[STATUS] == "EmptyInterior":
                parent = span[PARENT]
                if parent is not None and self.spans[parent][NAME] == "probe.crease_family":
                    clip_fail += 1
            elif name in _MOMENT_SPANS:
                lookups += 1
                computed += span[N_CHILDREN] > 0
        # a crease pair is kept (both clips succeed) or dropped at one failing clip
        attempts = creases + clip_fail
        return {
            "bernstein.nodes_certified": nodes["certified"],
            "bernstein.nodes_refuted": nodes["refuted"],
            "bernstein.nodes_inconclusive": nodes["inconclusive"],
            "bernstein.max_depth": max_depth,
            "univariate.samples": len(self._samples),
            "probe.creases": creases,
            "probe.crease_yield": creases / attempts if attempts else 0.0,
            "probe.moment_lookups": lookups,
            "probe.moments_computed": computed,
            "probe.moment_hit_ratio": (lookups - computed) / lookups if lookups else 0.0,
        }

    def write_spans(self, fh) -> None:
        """One JSON object per span, in start order, to a text file."""
        for span in self.spans:
            fh.write(json.dumps({
                "id": span[SID], "parent": span[PARENT], "op": span[OP],
                "name": span[NAME], "start": span[START], "end": span[END],
                "status": span[STATUS],
            }) + "\n")


def _self_seconds(span) -> float:
    return (span[END] - span[START]) - span[CHILD_TIME]


def _binding_sites(original):
    """Every (owner, key, is_dict) in wkstab's modules that holds *original*."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "wkstab" or modname.startswith("wkstab.")):
            continue
        for key, val in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            if val is original:
                yield mod, key, False
            elif type(val) is dict:
                for dkey, dval in list(val.items()):
                    if dval is original:
                        yield val, dkey, True
