"""Bernstein-coefficient nonnegativity certificates on simplices.

Writing a polynomial p on a k-simplex in the degree-d Bernstein basis gives
coefficients b_gamma whose minimum bounds p from below on the simplex.  The
corner coefficient b_{d e_i} is the vertex value p(V_i), and the barycenter
value is sum_gamma b_gamma (d!/gamma!) / (k+1)^d.  Each node of the
certifier keeps its coefficients as integer numerators B_gamma over one
positive integer S and is decided from them alone, in this order: a
negative corner (in vertex order) or a negative barycenter value refutes
p >= 0 with that exact point; all B_gamma >= 0 certifies it with the bound
min B / S; otherwise the simplex is subdivided barycentrically and the test
recurses.  A ``Fraction`` is built only for a witness or a bound.  The
certificate is one-sided: it never certifies a false positive, and may
return "inconclusive" at the depth limit.

Only the root's numerators come from p.  They are computed in integers on
the simplex's barycentric power tree (exact._barycentric_powers, shared with
measure).  With D the lcm of the vertex coordinate denominators, each
coordinate is x_r = L_r(lambda) / D for an integer linear form L_r, and the
homogenizing form L_n = D (lambda_0 + ... + lambda_k) equals D on the
simplex.  So, with C the lcm of p's coefficient denominators and d = deg p,
every term c_a x^a is C c_a L^(a, d - |a|) / (C D^d), homogeneous of degree
d, and

    N_gamma = sum_a C c_a [lambda^gamma] L^(a, d - |a|),
    B_gamma = gamma! N_gamma,  S = d! C D^d.

A child's numerators come from its parent's by blossoming, that is by de
Casteljau's algorithm (Boudaoud, Caruso & Roy, DCG 39 (2008)).  Replacing
the vertex V_r by the mean of the vertices V_i, i in I (r in I), is one de
Casteljau pyramid over I: c^0 = B, c^s_beta = sum_{i in I}
c^(s-1)_(beta + e_i), and the new numerator of gamma is
|I|^(d - gamma_r) c^(gamma_r)_(gamma - gamma_r e_r), over S |I|^d.  The
child of the permutation pi has vertices C_j = mean(V_pi(0), ..., V_pi(j)).
It is reached by replacing V_pi(k) by the barycenter, then V_pi(k-1) by the
mean of V_pi(0..k-1), and so on down to V_pi(1); the stages a suffix of pi
determines are computed once per parent.  One walk over these stages yields
each child: a stage replaces V_r by the mean in the vertices and in the
numerators alike.  So every child is over S ((k+1)!)^d, and p never enters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from .exact import Polynomial, _barycentric_powers, _centroid, _cleared
from .polytope import Simplex

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


def bernstein_coefficients(p: Polynomial, simplex: Simplex) -> dict[tuple, Fraction]:
    """Coefficients of p on the simplex in the Bernstein basis of degree deg(p).

    Keys are exponent multi-indices gamma with |gamma| = deg(p) over the k+1
    barycentric coordinates, in ``_compositions`` order; the coefficient of
    the corner index d*e_i is exactly p(V_i).
    """
    B, S = _numerators(p, simplex)
    d = max(p.degree(), 0)
    return {gamma: Fraction(b, S) for gamma, b in zip(_levels(d, simplex.k + 1)[0][d], B)}


def _numerators(p: Polynomial, simplex: Simplex) -> tuple[list[int], int]:
    """The Bernstein numerators B (in ``_compositions`` order) of p on the
    simplex and their common denominator S > 0."""
    if p.dim != simplex.ambient_dim:
        raise ValueError("polynomial/simplex dimension mismatch")
    d = max(p.degree(), 0)
    D, power = _barycentric_powers(simplex.vertices)
    scaled_terms, C = _cleared(p.terms.values())
    N: dict[tuple, int] = {}
    for a, scaled in zip(p.terms, scaled_terms):
        for gamma, v in power(a + (d - sum(a),)).items():
            N[gamma] = N.get(gamma, 0) + scaled * v
    fact = [math.factorial(i) for i in range(d + 1)]
    B = [
        math.prod(fact[g] for g in gamma) * N.get(gamma, 0)
        for gamma in _levels(d, simplex.k + 1)[0][d]
    ]
    return B, fact[d] * C * D**d


def _compositions(d: int, parts: int):
    """All multi-indices of length ``parts`` summing to d."""
    if parts == 1:
        yield (d,)
        return
    for head in range(d + 1):
        for tail in _compositions(d - head, parts - 1):
            yield (head,) + tail


@functools.lru_cache(maxsize=64)
def _levels(d: int, parts: int):
    """The multi-indices of each total degree e = 0..d in ``_compositions``
    order, their positions, the corner positions of degree d in vertex order
    and the multinomials d!/gamma! of degree d."""
    comps = [tuple(_compositions(e, parts)) for e in range(d + 1)]
    pos = [{g: i for i, g in enumerate(level)} for level in comps]
    corners = tuple(pos[d][tuple(d if j == i else 0 for j in range(parts))] for i in range(parts))
    fact_d = math.factorial(d)
    weights = tuple(fact_d // math.prod(math.factorial(g) for g in gamma) for gamma in comps[d])
    return comps, pos, corners, weights


@functools.lru_cache(maxsize=1024)
def _stage(d: int, parts: int, r: int, members: tuple, order: tuple):
    """Tables for replacing vertex r by the mean of the vertices ``members``:
    per pyramid level below d, one getter per multi-index beta picking its
    parents beta + e_i, i in members; per output multi-index, its (level,
    position, scale).  Output gamma is read at gamma' with gamma'[order[j]] =
    gamma[j], so the last stage also puts the child's vertices in order."""
    comps, pos, _, _ = _levels(d, parts)
    steps = []
    for e in range(d - 1, -1, -1):
        steps.append([
            itemgetter(*(pos[e + 1][beta[:i] + (beta[i] + 1,) + beta[i + 1:]] for i in members))
            for beta in comps[e]
        ])
    out = []
    for gamma in comps[d]:
        staged = [0] * parts
        for j, g in zip(order, gamma):
            staged[j] = g
        t = staged[r]
        staged[r] = 0
        out.append((t, pos[d - t][tuple(staged)], len(members) ** (d - t)))
    return steps, out


def _replace(B: list[int], steps, out) -> list[int]:
    """One de Casteljau stage (see _stage) on the numerators B."""
    pyramid = [B]
    for step in steps:
        prev = pyramid[-1]
        pyramid.append([sum(pick(prev)) for pick in step])
    return [pyramid[t][i] * scale for t, i, scale in out]


def _children(simplex: Simplex, B: list[int], d: int):
    """The barycentric children (C_j = mean(V_pi(0..j)) for each pi, in
    ``itertools.permutations`` order) with their numerators over
    S ((k+1)!)^d when B is over S.  A stage replaces vertex r by the mean of
    ``members`` in the vertices and the numerators alike; the memo of suffix
    stages lives as long as this generator.  The children of a
    nondegenerate simplex are nondegenerate, so they skip the rank check."""
    parts = len(simplex.vertices)
    identity = tuple(range(parts))
    memo: dict[tuple, tuple] = {}
    for perm in itertools.permutations(identity):
        staged = simplex.vertices, B
        for m in range(parts - 1, 0, -1):
            key = perm[m:]
            if key not in memo:
                (verts, N), r = staged, perm[m]
                members = tuple(sorted(perm[: m + 1]))
                order = perm if m == 1 else identity
                mean = _centroid([verts[i] for i in members])
                memo[key] = (tuple(mean if i == r else verts[i] for i in order),
                             _replace(N, *_stage(d, parts, r, members, order)))
            staged = memo[key]
        yield Simplex._spanned(staged[0]), staged[1]


@dataclass(frozen=True)
class PositivityOutcome:
    status: str  # CERTIFIED | REFUTED | INCONCLUSIVE
    lower_bound: Fraction | None  # valid lower bound on the cell when certified
    witness: tuple | None  # (point, value) with value < 0 when refuted
    depth_used: int


def certify_nonnegative(
    p: Polynomial, simplex: Simplex, max_depth: int = 6
) -> PositivityOutcome:
    """Certify p >= 0 on the simplex, refute with an exact witness, or give up.

    Sound in both directions it decides: CERTIFIED comes with a rational lower
    bound (min Bernstein coefficient over the leaves) and REFUTED with an
    exact rational point where p < 0.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    B, S = _numerators(p, simplex)
    return _certify(B, S, simplex, max(p.degree(), 0), max_depth)


def _certify(B: list[int], S: int, simplex: Simplex, d: int, max_depth: int) -> PositivityOutcome:
    """certify_nonnegative on a node whose numerators B over S are known."""
    parts = len(simplex.vertices)
    _, _, corners, weights = _levels(d, parts)
    for vtx, c in zip(simplex.vertices, corners):
        if B[c] < 0:
            return PositivityOutcome(REFUTED, None, (vtx, Fraction(B[c], S)), 0)
    center = sum(map(mul, B, weights))
    if center < 0:
        witness = (simplex.barycenter(), Fraction(center, S * parts**d))
        return PositivityOutcome(REFUTED, None, witness, 0)
    low = min(B)
    if low >= 0:
        return PositivityOutcome(CERTIFIED, Fraction(low, S), None, 0)
    if max_depth == 0:
        return PositivityOutcome(INCONCLUSIVE, None, None, 0)
    S_child = S * math.factorial(parts) ** d
    bound: Fraction | None = None
    deepest = 0
    undecided = False
    for child, B_child in _children(simplex, B, d):
        sub = _certify(B_child, S_child, child, d, max_depth - 1)
        deepest = max(deepest, sub.depth_used + 1)
        if sub.status == REFUTED:
            return PositivityOutcome(REFUTED, None, sub.witness, deepest)
        if sub.status == INCONCLUSIVE:
            undecided = True
        elif not undecided:
            bound = sub.lower_bound if bound is None else min(bound, sub.lower_bound)
    if undecided:
        return PositivityOutcome(INCONCLUSIVE, None, None, deepest)
    return PositivityOutcome(CERTIFIED, bound, None, deepest)
