"""Bernstein-coefficient nonnegativity certificates on simplices.

Writing a polynomial on a k-simplex in the degree-d Bernstein basis gives
coefficients whose minimum bounds the polynomial from below (and whose corner
coefficients are the vertex values).  All coefficients >= 0 therefore
certifies nonnegativity; a negative vertex or barycenter value refutes it;
otherwise the simplex is subdivided barycentrically and the test recurses.
The certificate is one-sided: it never certifies a false positive, and may
return "inconclusive" at the depth limit.

The coefficients are computed in integers on the simplex's barycentric power
tree (exact._barycentric_powers, shared with measure).  With D the lcm of the
vertex coordinate denominators, each coordinate is x_r = L_r(lambda) / D for
an integer linear form L_r, and the homogenizing form L_n = D (lambda_0 +
... + lambda_k) equals D on the simplex.  So, with C the lcm of p's
coefficient denominators and d = deg p, every term c_a x^a is
C c_a L^(a, d - |a|) / (C D^d), homogeneous of degree d, and

    N_gamma = sum_a C c_a [lambda^gamma] L^(a, d - |a|),
    b_gamma = gamma! N_gamma / (d! C D^d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, _barycentric_powers, _cleared, vadd, vscale
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
    den = fact[d] * C * D**d
    return {
        gamma: Fraction(math.prod(fact[g] for g in gamma) * N.get(gamma, 0), den)
        for gamma in _compositions(d, simplex.k + 1)
    }


def _compositions(d: int, parts: int):
    """All multi-indices of length ``parts`` summing to d."""
    if parts == 1:
        yield (d,)
        return
    for head in range(d + 1):
        for tail in _compositions(d - head, parts - 1):
            yield (head,) + tail


def barycentric_subdivision(simplex: Simplex) -> list[Simplex]:
    """The (k+1)! subsimplices spanned by barycenters of nested vertex chains."""
    verts = simplex.vertices
    k = len(verts) - 1
    children = []
    for perm in itertools.permutations(range(k + 1)):
        chain = []
        acc = None
        for i, idx in enumerate(perm):
            acc = verts[idx] if acc is None else vadd(acc, verts[idx])
            chain.append(vscale(Fraction(1, i + 1), acc))
        children.append(Simplex(tuple(chain)))
    return children


@dataclass(frozen=True)
class PositivityOutcome:
    status: str  # CERTIFIED | REFUTED | INCONCLUSIVE
    lower_bound: Fraction | None  # valid lower bound on the cell when certified
    witness: tuple | None  # (point, value) with value < 0 when refuted
    depth_used: int


def _negative_sample(p: Polynomial, simplex: Simplex):
    for vtx in simplex.vertices:
        val = p(vtx)
        if val < 0:
            return vtx, val
    bary = simplex.barycenter()
    val = p(bary)
    if val < 0:
        return bary, val
    return None


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
    hit = _negative_sample(p, simplex)
    if hit is not None:
        return PositivityOutcome(REFUTED, None, hit, 0)
    coeffs = bernstein_coefficients(p, simplex)
    low = min(coeffs.values(), default=Fraction(0))
    if low >= 0:
        return PositivityOutcome(CERTIFIED, low, None, 0)
    if max_depth == 0:
        return PositivityOutcome(INCONCLUSIVE, None, None, 0)
    bound: Fraction | None = None
    deepest = 0
    undecided = False
    for child in barycentric_subdivision(simplex):
        sub = certify_nonnegative(p, child, max_depth - 1)
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
