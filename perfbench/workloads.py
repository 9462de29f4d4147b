"""The four seeded benchmark workloads and their correctness checks.

Every workload is a fixed instance list made from ``--seed`` and run by one
closed-loop caller (no threads): the next op starts when the previous one
returns.  Ops go through the entry points users call: ``wkstab.cli.main`` with
stdout captured (class-grid, threshold, certify) or the library functions the
tests use (probe).  Library names are looked up on their modules at call time,
so the outside-in tracer sees every call.

Why each workload exists, and which layers it loads or bypasses:

* ``class-grid`` - many small ``check-fano`` calls over one shared fiber,
  always above the Fano-hypothesis floor so the vertex route answers.  Time
  goes to ``futaki.solve_extremal`` -> ``measure`` -> ``compose_affine`` and
  to rebuilding the fiber on every row; ``bernstein``, ``univariate`` and
  ``probe`` are never reached.  A per-fiber moment table should show here.
* ``threshold`` - a few long ``threshold`` calls, each ~25 extremal solves on
  one fiber with a varying weight plus rational reconstruction and Sturm
  isolation in ``univariate``.  A symbolic threshold solve should show here.
* ``certify`` - general-route ``check`` calls in a near-boundary band of c on
  six fibers, where Bernstein subdivision does most of the work and some
  answers stay Inconclusive.  Moment-table and threshold changes should not
  move it; a better certifier should move ``ops_per_s`` and ``decided_share``.
* ``probe`` - the library crease probe: families built with ``clip`` once per
  fiber per pass, then one ``probe`` per weight pair.  Many small clipped
  polytopes are integrated once each, the opposite reuse pattern from
  class-grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mod(name: str):
    # ``wkstab.probe`` the attribute is a function; the module is in sys.modules.
    return importlib.import_module(f"wkstab.{name}")


@dataclass
class Outcome:
    """One op's result: canonical report bytes, whether the answer was
    decisive, an error text when the op failed, and data for the checks."""

    report: bytes
    decided: bool
    error: str | None = None
    data: object = None


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _mod("cli").main(list(argv))
    return code, out.getvalue() + err.getvalue()


def _cli_outcome(argv, decided_codes) -> Outcome:
    code, text = _call_cli(argv)
    error = None if code in (0, 2, 3) else f"exit {code}: {text.strip()[-200:]}"
    return Outcome(f"{code}\n{text}".encode(), code in decided_codes, error, (code, text))


def _frac(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _positivity_floor(vertices, p) -> F:
    """Largest -p(v) over the fiber vertices: p + c > 0 needs c above it."""
    return max(-sum(F(pi) * vi for pi, vi in zip(p, v)) for v in vertices)


def _fano_floor(monotone, p, n: int, s) -> F:
    """Smallest c with p(x0) + c >= t s / (2 n) at the monotone point (x0, t)."""
    x0, t = monotone
    return t * F(s) / (2 * n) - sum(F(pi) * xi for pi, xi in zip(p, x0))


def _symmetric_twists(vertices, p) -> list:
    """Integer linear forms whose vertex values are a permutation of p's: the
    twists equivalent to p under the linear symmetries of a simplex fiber."""
    solve = _mod("exact").solve_square
    values = [sum(F(pi) * vi for pi, vi in zip(p, v)) for v in vertices]
    dim = len(p)
    basis = [list(v) for v in vertices[:dim]]
    out = set()
    for perm in itertools.permutations(values):
        q = solve(basis, list(perm[:dim]))
        if q is None or any(x.denominator != 1 for x in q):
            continue
        if all(sum(qi * vi for qi, vi in zip(q, v)) == val for v, val in zip(vertices, perm)):
            out.add(tuple(int(x) for x in q))
    return sorted(out)


def _fiber_geometry(node: dict):
    P = _mod("jsonio").polytope_from_json(node)
    return P.vertices, _mod("polytope").monotone_point(P)


def _polytope_node(labels) -> dict:
    return {
        "dim": len(labels[0][0]),
        "labels": [{"gradient": list(g), "constant": _frac(c)} for g, c in labels],
    }


def _simplex_labels(dim: int, t: int) -> tuple:
    """Labels x_i + t and t - sum x_i of the scaled standard simplex."""
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return tuple((g, t) for g in unit) + ((tuple([-1] * dim), t),)


def _unit_labels(gradients) -> tuple:
    return tuple((tuple(g), 1) for g in gradients)


TRIANGLE = {"standard_simplex": {"l": 2, "t": 1}}

#: Fibers of the certify band: name -> (labels, --max-depth, s values).  The
#: depth caps keep barycentric subdivision, (k+1)! children per level, within
#: seconds per op; the cube keeps only s = 36, where it answers at depth <= 1.
CERTIFY_FIBERS = {
    "triangle": (_simplex_labels(2, 1), 3, (36, 48, 60)),
    "triangle-t2": (_simplex_labels(2, 2), 3, (36, 48, 60)),
    "square": (_unit_labels([(1, 0), (-1, 0), (0, 1), (0, -1)]), 3, (36, 48, 60)),
    "hexagon": (
        _unit_labels([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]), 3, (36, 48, 60),
    ),
    "simplex3": (_simplex_labels(3, 1), 1, (36, 48, 60)),
    "cube": (
        _unit_labels([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
        1,
        (36,),
    ),
}


class Workload:
    name = ""

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def begin_pass(self, instances):
        """Per-pass state, built inside the timed region (default: none)."""
        return None

    def run(self, inst, state) -> Outcome:
        raise NotImplementedError

    def check(self, instances, outcomes) -> list[str]:
        """Independent checks on the first pass; returns failure messages."""
        return []


# ------------------------------------------------------------------ class-grid


@dataclass(frozen=True)
class FanoRow:
    I: int
    p: tuple
    c: F
    legacy: bool
    c05: bool
    argv: tuple


class ClassGrid(Workload):
    name = "class-grid"
    EXTRA_ROWS = 20

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        vertices, monotone = _fiber_geometry(TRIANGLE)
        rows = []
        # the 60 (I, p1 <= p2) points of acceptance criterion c05, each at one
        # of its two certified offsets c in {7 p2, 7 p2 + 1}
        for I in range(1, 5):
            for p2 in range(1, 6):
                for p1 in range(1, p2 + 1):
                    c = F(7 * p2 + rng.randrange(2))
                    rows.append(self._row(I, (p1, p2), c, False, True))
        for _ in range(self.EXTRA_ROWS):
            I = rng.randint(1, 4)
            p2 = rng.randint(0, 5)
            p = (rng.randint(0, p2), p2)
            # above both floors on a quarter grid: vertex positivity (strict)
            # and the Fano hypothesis (so the vertex route answers)
            lo = max(_positivity_floor(vertices, p) + F(1, 4), _fano_floor(monotone, p, 3, 6 * I))
            c = F(int(lo * 4 + F(3, 4)), 4) + F(rng.randint(0, 40), 4)
            rows.append(self._row(I, p, c, rng.random() < 0.5, False))
        return rows

    @staticmethod
    def _row(I, p, c, legacy, c05):
        node = {
            "fiber": TRIANGLE,
            "factors": [{"n": 3, "s": 6 * I, "c": _frac(c), "p": list(p)}],
        }
        argv = ("check-fano", json.dumps(node)) + (("--legacy-sign",) if legacy else ())
        return FanoRow(I, p, c, legacy, c05, argv)

    def run(self, inst, state):
        return _cli_outcome(inst.argv, (0, 2))

    def check(self, instances, outcomes):
        wk = importlib.import_module("wkstab")
        conv = _mod("weights").Convention
        fails = []
        refuted = []
        for row, out in zip(instances, outcomes):
            if out.error:
                continue
            code, text = out.data
            rep = json.loads(text)
            if row.c05 and rep["verdict"] != "CertifiedSufficient":
                fails.append(f"c05 point {row} not certified: {rep['verdict']}")
            if rep["verdict"] == "ConditionFails":
                refuted.append((row, rep))
        for row, rep in refuted:
            fib = self._fibration(wk, conv, row)
            pt = tuple(F(x) for x in rep["witness"]["point"])
            want = F(rep["witness"]["value"])
            got = wk.condition_value_fano(fib, wk.extremal_affine(fib).l_ext, pt)
            if not (got == want < 0):
                fails.append(f"witness of {row} re-evaluates to {got}, report says {want}")
        # the c03 cone identity on a few seeded rows, with a random test function
        rng = random.Random(f"{self.name}/cones/{len(instances)}")
        for row in rng.sample(list(instances), min(3, len(instances))):
            fib = self._fibration(wk, conv, row)
            w = wk.stability_weight(fib)
            f = _random_poly(wk, rng, fib.dim)
            x0 = fib.fano_fiber[0]
            lhs = wk.df_via_cones(fib.fiber, x0, fib.v, w, f)
            rhs = wk.df_invariant(fib.fiber, fib.v, w, f)
            if lhs != rhs:
                fails.append(f"cone identity fails on {row}: {lhs} != {rhs}")
        return fails

    @staticmethod
    def _fibration(wk, conv, row):
        return wk.projective_bundle(
            [list(row.p)], [(3, 6 * row.I)], [row.c], t=1,
            convention=conv.LEGACY if row.legacy else conv.CANONICAL,
        )


def _random_poly(wk, rng, dim, degree=2):
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if rng.random() < 0.7:
                terms[(a, b)] = F(rng.randint(-9, 9), rng.randint(1, 4))
    terms[(0, 0)] = F(rng.randint(1, 9))
    return wk.Polynomial(dim, terms)


# ------------------------------------------------------------------- threshold


@dataclass(frozen=True)
class Template:
    p: tuple
    s: int
    lo: F
    hi: F
    frozen: str | None  # name of the tests/_frozen.py threshold it must bracket
    argv: tuple


class Threshold(Workload):
    name = "threshold"
    SEEDED = 1
    # twists whose vertex values have degree ~10 in c, like the c07b ones,
    # each sent in a seeded presentation equivalent under the fiber's symmetries
    P_BASES = ((1, 2), (2, 4))
    S_CHOICES = (12, 18, 24, 30, 36)

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        templates = [
            self._template((1, 2), 24, F(4), F(9), "THRESHOLD_CANONICAL_S24"),
            self._template((1, 2), 18, F(4), F(10), "THRESHOLD_CANONICAL_S18"),
        ]
        vertices, monotone = _fiber_geometry(TRIANGLE)
        for _ in range(self.SEEDED):
            p = rng.choice(_symmetric_twists(vertices, rng.choice(self.P_BASES)))
            s = rng.choice(self.S_CHOICES)
            # c_lo: the larger of the Fano-hypothesis floor and the first
            # integer strictly above the vertex-positivity floor
            lo = max(_fano_floor(monotone, p, 3, s), _positivity_floor(vertices, p) + 1)
            templates.append(self._template(p, s, lo, lo + 12, None))
        return templates

    @staticmethod
    def _template(p, s, lo, hi, frozen):
        node = {"fiber": TRIANGLE, "factors": [{"n": 3, "s": s, "c": "var", "p": list(p)}]}
        argv = ("threshold", json.dumps(node), "--lo", _frac(lo), "--hi", _frac(hi))
        return Template(p, s, lo, hi, frozen, argv)

    def run(self, inst, state):
        return _cli_outcome(inst.argv, (0,))

    def check(self, instances, outcomes):
        frozen = _frozen_values()
        fails = []
        for tpl, out in zip(instances, outcomes):
            if out.error or tpl.frozen is None:
                continue
            rep = json.loads(out.data[1])
            want = frozen[tpl.frozen]
            low, high = F(rep["low"]), F(rep["high"])
            if not (rep["certified"] and low <= want <= high and high - low <= F(1, 100)):
                fails.append(f"{tpl.frozen} = {want} outside certified bracket [{low}, {high}]")
        return fails


def _frozen_values() -> dict:
    """The frozen thresholds, read from the test suite's pinned values."""
    spec = importlib.util.spec_from_file_location("_frozen", ROOT / "tests" / "_frozen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {k: getattr(module, k) for k in ("THRESHOLD_CANONICAL_S24", "THRESHOLD_CANONICAL_S18")}


# --------------------------------------------------------------------- certify


@dataclass(frozen=True)
class CertifyCase:
    fiber: str
    labels: tuple  # ((gradient, constant), ...)
    p: tuple
    s: int
    c: F
    argv: tuple


class Certify(Workload):
    name = "certify"
    # c = positivity floor + k/32: two points spread over the band k = 1..24
    BAND = (6, 18)

    def generate(self, seed):
        """Each (fiber, s, k) cell once per pass, twisted along the last
        coordinate, in a seeded order.  The set stays fixed: presentations
        that are equivalent under the fibers' symmetries (label order, twist
        direction) change the Bernstein work per op by up to 1.7x on the
        3-simplex and the hexagon, which moved the median op time by 14%
        from seed to seed."""
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for fname, (labels, depth, s_values) in CERTIFY_FIBERS.items():
            dim = len(labels[0][0])
            vertices, _ = _fiber_geometry(_polytope_node(labels))
            p = tuple(int(j == dim - 1) for j in range(dim))
            floor = _positivity_floor(vertices, p)
            for s in s_values:
                for k in self.BAND:
                    cases.append(self._case(fname, labels, depth, p, s, floor + F(k, 32)))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _case(fname, labels, depth, p, s, c):
        node = {
            "fiber": _polytope_node(labels),
            "factors": [{"n": 3, "s": s, "c": _frac(c), "p": list(p)}],
        }
        argv = ("check", json.dumps(node), "--max-depth", str(depth))
        return CertifyCase(fname, labels, p, s, c, argv)

    def run(self, inst, state):
        return _cli_outcome(inst.argv, (0, 2))

    def check(self, instances, outcomes):
        wk = importlib.import_module("wkstab")
        fails = []
        for case, out in zip(instances, outcomes):
            if out.error:
                continue
            rep = json.loads(out.data[1])
            if rep["verdict"] != "ConditionFails":
                continue
            # rebuilt through the library, independent of the CLI's parser
            P = wk.from_halfspaces([wk.AffineFunc(g, c) for g, c in case.labels])
            fib = wk.fibration(P, [wk.base_factor(3, case.s, case.c, list(case.p), P.dim)])
            w = wk.stability_weight(fib)
            x0 = tuple(F(x) for x in rep["x0"])
            pt = tuple(F(x) for x in rep["witness"]["point"])
            value = F(rep["witness"]["value"])
            if not any(
                wk.condition_poly_general(P, x0, j, fib.v, w)(pt) == value < 0
                for j in range(P.n_facets)
            ):
                fails.append(f"witness {pt} of {case.fiber} s={case.s} c={case.c} "
                             f"makes no cone polynomial equal {value}")
        return fails


# ----------------------------------------------------------------------- probe


@dataclass(frozen=True)
class ProbeCase:
    kind: str  # "c05" | "anticanonical" | "rank-one" | "refuted"
    fiber: str  # "triangle" | "interval"
    params: tuple


class Probe(Workload):
    name = "probe"
    RESOLUTION = 3
    RANK_ONE_PAIRS = 3
    FILL = (1, 1, 2, 14)  # (I, p1, p2, c): the c05 pair that fills the moments

    def generate(self, seed):
        rng = random.Random(f"{self.name}/{seed}")
        # the first triangle pair fills the family's moments: a fixed generic
        # c05 point.  Then one c05 pair per stratum of s = 6 I and of the
        # twist size p2 (which sets c ~ 7 p2), so every seed probes weight
        # pairs of the same sizes.
        cases = [ProbeCase("c05", "triangle", self.FILL)]
        for I in range(1, 5):
            for band in ((1, 2), (3, 4), (5,)):
                p2 = rng.choice(band)
                p1 = rng.randint(1, p2)
                cases.append(ProbeCase("c05", "triangle", (I, p1, p2, 7 * p2 + rng.randrange(2))))
        cases.append(ProbeCase("anticanonical", "triangle", ((3, 4),)))
        cases += [ProbeCase("anticanonical", "interval", (e,)) for e in ((1, 2), (3, 3))]
        cases += [
            ProbeCase("rank-one", "interval", (p,))
            for p in sorted(rng.sample(range(1, 11), self.RANK_ONE_PAIRS))
        ]
        cases.append(ProbeCase("refuted", "interval", (F(11, 10),)))
        return cases

    def begin_pass(self, instances):
        polytope = _mod("polytope")
        probe_mod = _mod("probe")
        families = {}
        for name, dim in (("triangle", 2), ("interval", 1)):
            if any(case.fiber == name for case in instances):
                P = polytope.standard_fiber_polytope(dim, 1)
                families[name] = probe_mod.crease_family(P, (F(0),) * dim, self.RESOLUTION)
        return families

    @staticmethod
    def fibration(case):
        weights = _mod("weights")
        if case.kind == "c05":
            I, p1, p2, c = case.params
            return weights.projective_bundle([[p1, p2]], [(3, 6 * I)], [c], t=1)
        if case.kind == "anticanonical":
            n, index = case.params[0]
            dim = 2 if case.fiber == "triangle" else 1
            P = _mod("polytope").standard_fiber_polytope(dim, 1)
            return weights.fano_anticanonical(P, [(n, index, None)])
        if case.kind == "rank-one":
            (p,) = case.params
            return weights.projective_bundle([[p]], [(3, -6)], [15 * p], t=1)
        (c,) = case.params
        return weights.projective_bundle([[1]], [(3, -6)], [c], t=1)

    def run(self, inst, families):
        fib = self.fibration(inst)
        w = _mod("futaki").stability_weight(fib)
        rep = _mod("probe").probe(fib.fiber, fib.v, w, families[inst.fiber])
        h = None if rep.destabilizer is None else rep.destabilizer.h
        text = f"{inst}|{rep.n_creases}|{rep.min_ratio}|{h}\n"
        return Outcome(text.encode(), rep.found_destabilizer, None, (fib, w, rep))

    def check(self, instances, outcomes):
        fails = []
        for case, out in zip(instances, outcomes):
            if out.error:
                continue
            fib, w, rep = out.data
            if case.kind != "refuted":
                if rep.found_destabilizer:
                    fails.append(f"certified instance {case} yields a destabilizer")
                continue
            d = rep.destabilizer
            if d is None:
                fails.append(f"refuted instance {case} yields no destabilizer")
            elif not (d.df_value(fib.v, w) == d.df_value_direct(fib.v, w) < 0):
                fails.append(f"destabilizer of {case} does not re-verify")
        return fails


WORKLOADS = {wl.name: wl for wl in (ClassGrid(), Threshold(), Certify(), Probe())}


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.report)
    return h.hexdigest()
