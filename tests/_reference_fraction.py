# Frozen reference data: closed-form numerator/denominator (in c, p1, p2) of the
# cleared vertex condition value at the vertex (-1, 2) for the two-parameter
# projective-bundle family with fiber the standard triangle (t = 1), one base
# factor (n = 3, s = 24), degree form p = p1*x1 + p2*x2.  Exponent keys are
# (deg_c, deg_p1, deg_p2); values are integer coefficients.
#
# At the end: dense univariate polynomials over Fraction, and a Fraction
# reference for Bernstein coefficients, the power-tree cell moments and the
# filtered exponent list of wkstab.measure, Euclid's gcd, the sampled
# rational-function reconstruction, the Fraction Sturm sequence,
# interpolation, determinants over Q[x] and root isolation, the per-crease
# probe loop and the Fraction crease filter and stability weight, the
# rank-based from_halfspaces loop (run recession-first) and
# label-evaluating face triangulation, and the Fraction forms of the
# facet-cell Jacobian, clip and the moment-row reads, and the Fraction
# monotone-fiber path (weights, Sylvester's test by minors and a separate
# solve, the Fano hypothesis, the condition value), and the Fraction cone
# conditions g_j and concave-cone test of the general route.  Of wkstab.univariate,
# whose integer kernels these are the oracles of, only the RootLocation
# record is shared, so that located roots compare equal; the one exception is
# the integer Sturm sequence and count, and isolate_roots_full_sturm (the
# integer isolation as it was before its sign-only halving and its Descartes
# counts) on them, which run on univariate's own remainder sequence and
# integer Horner so that they check the root counts and the bisection alone.

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
import operator
from typing import Callable

from wkstab import AffineFunc, Polynomial, radial_derivative
from wkstab.bernstein import _barycentric_powers
from wkstab.exact import (
    _cleared, _cleared_points, affine_rank, det as exact_det, point, rat, solve_general,
    solve_square, vadd, vscale, vsub,
)
from wkstab.futaki import ExtremalSolution, SingularMomentMatrix, _moment_system
from wkstab.weights import NonpositiveWeight, NotMonotoneFiber
from wkstab.univariate import (
    RootLocation, _quotient, _remainders, _scaled_value, _variations,
    derivative as int_derivative,
)

REF_NUM = {
    (10, 0, 0): 12250,
    (9, 1, 0): 24500,
    (9, 0, 1): -49000,
    (8, 2, 0): -39690,
    (8, 1, 1): 127890,
    (8, 0, 2): -127890,
    (7, 3, 0): 18060,
    (7, 2, 1): 34650,
    (7, 2, 0): 132300,
    (7, 1, 2): -212310,
    (7, 1, 1): -396900,
    (7, 0, 3): 141540,
    (7, 0, 2): 396900,
    (6, 4, 0): -22470,
    (6, 3, 1): 286860,
    (6, 3, 0): 105840,
    (6, 2, 2): -615510,
    (6, 2, 1): -449820,
    (6, 1, 3): 657300,
    (6, 1, 2): 714420,
    (6, 0, 4): -328650,
    (6, 0, 3): -476280,
    (5, 5, 0): -31752,
    (5, 4, 1): 152460,
    (5, 4, 0): -11340,
    (5, 3, 2): -373212,
    (5, 3, 1): -260820,
    (5, 2, 3): 603288,
    (5, 2, 2): 601020,
    (5, 1, 4): -531720,
    (5, 1, 3): -680400,
    (5, 0, 5): 212688,
    (5, 0, 4): 340200,
    (4, 6, 0): -53376,
    (4, 5, 1): 360972,
    (4, 5, 0): 125496,
    (4, 4, 2): -921924,
    (4, 4, 1): -374220,
    (4, 3, 3): 1408632,
    (4, 3, 2): 378756,
    (4, 2, 4): -1421136,
    (4, 2, 3): -282744,
    (4, 1, 5): 860184,
    (4, 1, 4): 45360,
    (4, 0, 6): -286728,
    (4, 0, 5): -18144,
    (3, 7, 0): 22740,
    (3, 6, 1): -59520,
    (3, 6, 0): 151200,
    (3, 5, 2): -43812,
    (3, 5, 1): -420336,
    (3, 4, 3): 390936,
    (3, 4, 2): 743904,
    (3, 3, 4): -806100,
    (3, 3, 3): -728784,
    (3, 2, 5): 849456,
    (3, 2, 4): 568512,
    (3, 1, 6): -527016,
    (3, 1, 5): -244944,
    (3, 0, 7): 150576,
    (3, 0, 6): 81648,
    (2, 8, 0): -57024,
    (2, 7, 1): 230112,
    (2, 7, 0): -79056,
    (2, 6, 2): -425376,
    (2, 6, 1): 358992,
    (2, 5, 3): 571536,
    (2, 5, 2): -557280,
    (2, 4, 4): -829080,
    (2, 4, 3): 99792,
    (2, 3, 5): 906192,
    (2, 3, 4): 829440,
    (2, 2, 6): -725760,
    (2, 2, 5): -1175472,
    (2, 1, 7): 363168,
    (2, 1, 6): 843696,
    (2, 0, 8): -90792,
    (2, 0, 7): -241056,
    (1, 9, 0): 7352,
    (1, 8, 1): 18288,
    (1, 8, 0): 60048,
    (1, 7, 2): -160632,
    (1, 7, 1): -364176,
    (1, 6, 3): 349440,
    (1, 6, 2): 734832,
    (1, 5, 4): -497592,
    (1, 5, 3): -1073520,
    (1, 4, 5): 485712,
    (1, 4, 4): 1551312,
    (1, 3, 6): -329952,
    (1, 3, 5): -1732752,
    (1, 2, 7): 156096,
    (1, 2, 6): 1436400,
    (1, 1, 8): -46368,
    (1, 1, 7): -736128,
    (1, 0, 9): 10304,
    (1, 0, 8): 184032,
    (0, 10, 0): 1312,
    (0, 9, 1): -464,
    (0, 9, 0): -12096,
    (0, 8, 2): -19296,
    (0, 8, 1): 17712,
    (0, 7, 3): 41376,
    (0, 7, 2): 84240,
    (0, 6, 4): -22416,
    (0, 6, 3): -287280,
    (0, 5, 5): -7488,
    (0, 5, 4): 415152,
    (0, 4, 6): 22656,
    (0, 4, 5): -358992,
    (0, 3, 7): -25728,
    (0, 3, 6): 323568,
    (0, 2, 8): 16992,
    (0, 2, 7): -279072,
    (0, 1, 9): -7040,
    (0, 1, 8): 139968,
    (0, 0, 10): 1408,
    (0, 0, 9): -31104,
}

REF_DEN = {
    (9, 0, 0): 6125,
    (7, 2, 0): 2205,
    (7, 1, 1): -2205,
    (7, 0, 2): 2205,
    (6, 3, 0): 210,
    (6, 2, 1): -315,
    (6, 1, 2): -315,
    (6, 0, 3): 210,
    (5, 4, 0): 14175,
    (5, 3, 1): -28350,
    (5, 2, 2): 42525,
    (5, 1, 3): -28350,
    (5, 0, 4): 14175,
    (4, 5, 0): -7812,
    (4, 4, 1): 19530,
    (4, 3, 2): -7812,
    (4, 2, 3): -7812,
    (4, 1, 4): 19530,
    (4, 0, 5): -7812,
    (3, 6, 0): 24,
    (3, 5, 1): -72,
    (3, 4, 2): 4356,
    (3, 3, 3): -8592,
    (3, 2, 4): 4356,
    (3, 1, 5): -72,
    (3, 0, 6): 24,
    (2, 7, 0): 9072,
    (2, 6, 1): -31752,
    (2, 5, 2): 40824,
    (2, 4, 3): -22680,
    (2, 3, 4): -22680,
    (2, 2, 5): 40824,
    (2, 1, 6): -31752,
    (2, 0, 7): 9072,
    (1, 8, 0): -5004,
    (1, 7, 1): 20016,
    (1, 6, 2): -40320,
    (1, 5, 3): 50904,
    (1, 4, 4): -56196,
    (1, 3, 5): 50904,
    (1, 2, 6): -40320,
    (1, 1, 7): 20016,
    (1, 0, 8): -5004,
    (0, 9, 0): 688,
    (0, 8, 1): -3096,
    (0, 7, 2): 4464,
    (0, 6, 3): -1176,
    (0, 5, 4): -1224,
    (0, 4, 5): -1224,
    (0, 3, 6): -1176,
    (0, 2, 7): 4464,
    (0, 1, 8): -3096,
    (0, 0, 9): 688,
}


def eval_ref(coeffs: dict, c, p1, p2) -> Fraction:
    return sum(
        Fraction(co) * c**i * p1**j * p2**k for (i, j, k), co in coeffs.items()
    )


def ref_value(c, p1, p2) -> Fraction:
    """The reference rational function P/Q at a sample point."""
    return eval_ref(REF_NUM, c, p1, p2) / eval_ref(REF_DEN, c, p1, p2)


# Dense univariate polynomials over Fraction, as univariate kept them before
# its integer representation: coefficient tuples (index = power, no trailing
# zeros, () = 0).


def normalize(coeffs):
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p) -> int:
    return len(p) - 1


def evaluate(p, x) -> Fraction:
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p, q):
    n = max(len(p), len(q))
    return normalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def scale(p, a):
    a = rat(a)
    return normalize([a * c for c in p])


def sub(p, q):
    return add(p, scale(q, -1))


def mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def divmod_exact(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        f = rem[-1] / lead
        quo[k] = f
        for i in range(len(q)):
            rem[k + i] -= f * q[i]
    return normalize(quo), normalize(rem)


def derivative(p):
    return normalize([i * p[i] for i in range(1, len(p))])


def monic(p):
    return scale(p, Fraction(1) / p[-1]) if p else ()


@dataclass(frozen=True)
class RationalFunction:
    """num/den over Fraction, evaluated by Fraction Horner."""

    num: tuple
    den: tuple

    def __call__(self, x) -> Fraction:
        d = evaluate(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return evaluate(self.num, x) / d


# Bernstein coefficients over Fraction, as bernstein_coefficients computed
# them before its integer kernel: a barycentric pullback through
# Polynomial.compose_affine, homogenized with (sum lam_i)^(d - m).  Kept as
# the oracle the integer kernel is tested against.


def bernstein_coefficients_fraction(p: Polynomial, simplex) -> dict[tuple, Fraction]:
    verts = simplex.vertices
    k = len(verts) - 1
    if p.dim != simplex.ambient_dim:
        raise ValueError("polynomial/simplex dimension mismatch")
    d = max(p.degree(), 0)
    A = [[verts[i][r] for i in range(k + 1)] for r in range(simplex.ambient_dim)]
    q = p.compose_affine(A, [0] * simplex.ambient_dim)
    ones = Polynomial.zero(k + 1)
    for i in range(k + 1):
        ones = ones + Polynomial.variable(k + 1, i)
    by_degree: dict[int, Polynomial] = {}
    for expo, coeff in q.terms.items():
        m = sum(expo)
        by_degree.setdefault(m, Polynomial.zero(k + 1))
        by_degree[m] = by_degree[m] + Polynomial(k + 1, {expo: coeff})
    hom = Polynomial.zero(k + 1)
    for m, part in by_degree.items():
        hom = hom + part * ones ** (d - m)
    fact_d = math.factorial(d)
    # every multi-index of length k+1 summing to d, in lexicographic order
    coeffs: dict[tuple, Fraction] = {
        expo: Fraction(0)
        for expo in itertools.product(range(d + 1), repeat=k + 1)
        if sum(expo) == d
    }
    for expo, coeff in hom.terms.items():
        weight = Fraction(math.prod(math.factorial(g) for g in expo), fact_d)
        coeffs[expo] = coeff * weight
    return coeffs


# Cell moments as measure._cell_moments computed them before the series
# kernel: on the cell's barycentric power tree, D^d x^a is an integer form
# in the barycentric coordinates, read off as power(a + (0,)), and
# N_a = sum_b coeff_b * b! by Dirichlet's formula.  Kept as the oracle the
# series kernel is tested against.


def cell_moments_power_tree(verts, D_P: int, expos: list) -> list[int]:
    """[(D_P/D)^d N_a for a in expos], D the lcm of the cell's coordinate
    denominators (a divisor of D_P) and d = |a|."""
    D, Y = _cleared_points(verts)
    power = _barycentric_powers(D, Y)
    q = D_P // D
    fact = [math.factorial(i) for i in range(max(map(sum, expos), default=0) + 1)]
    out = []
    for a in expos:
        N = sum(c_b * math.prod(map(fact.__getitem__, b)) for b, c_b in power(a + (0,)).items())
        out.append(N * q ** sum(a))
    return out


# The moment fill as measure._fill ran it before it summed each facet's cell
# series: one series per cell started at 1, read off as N_a = a! [c^a],
# then added into both tables with the cell's boundary and interior integer
# weights, monomial by monomial, and each entry brought over Delta_top by
# its degree's scale.  Kept as the oracle of the per-facet fill.  It reads
# P's own vertex record and facet cells, and leaves P.moments as it is.


def fill_by_cells(P, top: int) -> tuple:
    """(D_P, J, top, inner, outer) as measure._fill builds it from scratch."""
    from wkstab.measure import _monomials, _scales
    from wkstab.polytope import _facet_cells, _vertex_record

    mons = _monomials(P.dim, top)
    index = {e: t for t, e in enumerate(mons)}
    steps = [(t, r, index[e[:r] + (e[r] - 1,) + e[r + 1:]])
             for t, e in enumerate(mons) for r in range(P.dim) if e[r]]
    fact = [math.prod(map(math.factorial, e)) for e in mons]
    D_P, U, _ = _vertex_record(P)
    cells = [([U[k] for k in cell], n, d, n * L.constant.numerator, d * L.constant.denominator)
             for L, facet in zip(P.labels, _facet_cells(P)) for cell, n, d in facet]
    J = math.lcm(*(d // math.gcd(n, d) for _, n, d, _, _ in cells),
                 *(cd // math.gcd(cn, cd) for _, _, _, cn, cd in cells))
    inner = [0] * len(mons)
    outer = [0] * len(mons)
    for rows, n, d, cn, cd in cells:
        kb, ki = n * J // d, cn * J // cd
        B = [1] + [0] * (len(mons) - 1)
        for u in rows:
            for t, r, p in steps:
                B[t] += u[r] * B[p]
        for i, N in enumerate(f * x for f, x in zip(fact, B)):
            outer[i] += kb * N
            inner[i] += ki * N
    tables = [[s[sum(e)] * N for e, N in zip(mons, table)]
              for s, table in ((_scales(P.dim, D_P, top, False), inner),
                               (_scales(P.dim, D_P, top, True), outer))]
    return (D_P, J, top, *tables)


# Exponents as measure._monomials listed them before it built each degree
# from multisets: every box exponent of itertools.product, filtered to
# degree <= d.  Kept as the oracle of the graded order.


def monomials_by_filter(dim: int, d: int) -> list[tuple]:
    return sorted(
        (e for e in itertools.product(range(d + 1), repeat=dim) if sum(e) <= d),
        key=lambda e: (sum(e), e),
    )


# Rational-function reconstruction from sampled values, as threshold_c found
# its vertex functions before the exact solve over Q[c]: numerator and
# denominator coefficients from a nullspace solve at escalating degrees,
# accepted only when they reproduce every sample plus fresh validation
# points.  Kept as the oracle the exact vertex functions are tested against.


class DegreeEscalationFailed(Exception):
    pass


def euclid_gcd_monic(p, q):
    """Euclid's algorithm over Fraction coefficients, independent of the
    library's integer remainder sequence."""
    a, b = p, q
    while b:
        a, b = b, divmod_exact(a, b)[1]
    return monic(a)


def _reduced(num, den) -> RationalFunction:
    g = euclid_gcd_monic(num, den)
    if degree(g) >= 1:
        num = divmod_exact(num, g)[0]
        den = divmod_exact(den, g)[0]
    if den and den[-1] < 0:
        num, den = scale(num, -1), scale(den, -1)
    return RationalFunction(normalize(num), normalize(den))


def _matches(cand: RationalFunction, samples) -> bool:
    return all(evaluate(cand.den, x) != 0 and cand(x) == y for x, y in samples)


def _fit(samples, m: int, n: int, validate=()) -> RationalFunction | None:
    """The first nullspace candidate that matches *samples* (as
    :func:`fit_rational`), reduced only if it also matches *validate*.

    A null vector (num, den) has num(x) = y den(x) at every fit sample, so
    wherever the unreduced den is nonzero its reduction gives the value y
    without being formed.  ``_reduced`` runs only for the accepted pair and
    where den vanishes at a sample.
    """
    rows = []
    for x, y in samples:
        xs = [Fraction(1)]
        for _ in range(max(m, n)):
            xs.append(xs[-1] * x)
        rows.append([xs[i] for i in range(m + 1)] + [-y * xs[j] for j in range(n + 1)])
    sol = solve_general(rows, [Fraction(0)] * len(rows))
    if sol is None:
        return None
    _, null = sol
    for vec in null:
        num = normalize(vec[: m + 1])
        den = normalize(vec[m + 1 :])
        if not den:
            continue
        if any(evaluate(den, x) == 0 for x, _ in samples):
            cand = _reduced(num, den)
            if not _matches(cand, samples):
                continue
            return cand if _matches(cand, validate) else None
        dens = [evaluate(den, x) for x, _ in validate]
        if 0 in dens:
            cand = _reduced(num, den)
            return cand if _matches(cand, validate) else None
        if all(evaluate(num, x) == y * d for (x, y), d in zip(validate, dens)):
            return _reduced(num, den)
        return None
    return None


def fit_rational(samples: list, m: int, n: int) -> RationalFunction | None:
    """One rational function num/den with deg num <= m, deg den <= n matching
    the samples, from the nullspace of the linearized interpolation system;
    None when no nonzero candidate matches all samples."""
    return _fit(samples, m, n)


def reconstruct_rational(
    sample: Callable[[Fraction], Fraction | None],
    degree_cap: int = 12,
    start=Fraction(0),
    step=Fraction(1),
    validation: int = 3,
) -> RationalFunction:
    """Recover the exact rational function behind a sampling callback.

    ``sample(x)`` returns the value at x, or None where the function is not
    defined/usable.  Degrees escalate (num = den = k for k = 1..degree_cap);
    a fit is accepted only if it reproduces every cached sample and
    ``validation`` extra fresh points exactly.
    """
    cache: list = []
    xs_iter = _sample_points(start, rat(step))

    def take(count: int) -> None:
        while len(cache) < count:
            x = next(xs_iter)
            y = sample(x)
            if y is not None:
                cache.append((x, y))

    for k in range(1, degree_cap + 1):
        take(2 * k + 1 + validation)
        cand = _fit(cache[: 2 * k + 1], k, k, cache[2 * k + 1 :])
        if cand is not None:
            return cand
    raise DegreeEscalationFailed(
        f"no rational function of degree up to ({degree_cap},{degree_cap}) "
        "matches the samples"
    )


def _sample_points(start: Fraction, step: Fraction):
    x = rat(start)
    while True:
        yield x
        x += step


# The classical Sturm sequence over Fraction, evaluated with `evaluate`, as
# univariate counted roots before its integer sequences.


def sturm_sequence_fraction(p) -> list:
    seq = [normalize(p), derivative(p)]
    while seq[-1]:
        r = divmod_exact(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(scale(r, -1))
    return [q for q in seq if q]


def count_roots_between_fraction(seq: list, a, b) -> int:
    def variations(x):
        signs = [evaluate(q, x) > 0 for q in seq if evaluate(q, x) != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    if evaluate(seq[0], a) == 0 or evaluate(seq[0], b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    return variations(a) - variations(b)


# ---------------------------------------------------------------------------
# Interpolation, determinants over Q[x] and root isolation in Fractions, as
# univariate computed them before its integer kernels: Newton's divided
# differences at any distinct nodes, det by Fraction evaluation at the nodes
# 0..B plus that interpolation, and bisection on the Fraction Sturm sequence
# of the squarefree part with Fraction deflation of exact roots.


def interpolate_fraction(xs, ys):
    xs = [rat(x) for x in xs]
    coef = [rat(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    p = ()
    for i in range(n - 1, -1, -1):
        p = add(mul(p, (-xs[i], Fraction(1))), (coef[i],))
    return p


def det_fraction(M):
    degs = [max(map(len, row), default=0) - 1 for row in M]
    if min(degs, default=0) < 0:
        return ()
    nodes = range(sum(degs) + 1)
    return interpolate_fraction(
        nodes, [exact_det([[evaluate(e, x) for e in row] for row in M]) for x in nodes]
    )


def isolate_roots_fraction(p, lo, hi, tol):
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if degree(p) >= 1:
        p = divmod_exact(p, euclid_gcd_monic(p, derivative(p)))[0]
    if degree(p) < 1:
        return []
    one = Fraction(1)
    for r in (lo, hi):
        while p and evaluate(p, r) == 0:
            p = divmod_exact(p, (-r, one))[0]
    roots = []
    seq = sturm_sequence_fraction(p)
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        n = count_roots_between_fraction(seq, a, b)
        if n == 0:
            continue
        if n == 1 and b - a <= tol:
            roots.append(RootLocation(a, b, None))
            continue
        mid = (a + b) / 2
        if evaluate(p, mid) == 0:
            roots.append(RootLocation(mid, mid, mid))
            p = divmod_exact(p, (-mid, one))[0]
            seq = sturm_sequence_fraction(p)
            if degree(p) < 1:
                continue
        work.append((a, mid))
        work.append((mid, b))
    return sorted(roots, key=lambda r: r.low)


# The integer Sturm sequence and its root count, as univariate counted roots
# before it counted every interval by Descartes' rule of signs: the oracle
# of univariate._count and of isolate_roots_full_sturm.


def sturm_sequence(p) -> list:
    """The Sturm sequence of p, each member a primitive integer polynomial
    (a positive multiple of the classical member)."""
    return _remainders(p, int_derivative(p))


def sign_variations_at(seq: list, x) -> int:
    x = rat(x)
    return _variations(_scaled_value(q, x) for q in seq)


def count_roots_between(seq: list, a, b) -> int:
    """Distinct real roots of seq[0] in the open interval (a, b).

    Requires nonzero values at both endpoints.
    """
    a, b = rat(a), rat(b)
    if b < a:
        raise ValueError("empty interval: b < a")
    p = seq[0]
    if _scaled_value(p, a) == 0 or _scaled_value(p, b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    return sign_variations_at(seq, a) - sign_variations_at(seq, b)


def _deflated(q, x):
    """The Sturm sequence of q / (dx - n), for a root x = n/d of q."""
    return sturm_sequence(_quotient(q, (-x.numerator, x.denominator)))


def isolate_roots_full_sturm(p, lo, hi, tol):
    """wkstab.univariate.isolate_roots on integer polynomials, as it was
    when every interval, a one-root interval too, was halved on Sturm
    counts at both of its ends."""
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    seq = sturm_sequence(p)
    if seq and degree(seq[-1]) >= 1:
        seq = sturm_sequence(_quotient(seq[0], seq[-1]))
    if not seq or degree(seq[0]) < 1:
        return []
    for r in (lo, hi):
        while _scaled_value(seq[0], r) == 0:
            seq = _deflated(seq[0], r)
    variations: dict = {}
    roots = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        for x in (a, b):
            if x not in variations:
                variations[x] = sign_variations_at(seq, x)
        n = variations[a] - variations[b]
        if n == 0:
            continue
        if n == 1 and b - a <= tol:
            roots.append(RootLocation(a, b, None))
            continue
        mid = (a + b) / 2
        if _scaled_value(seq[0], mid) == 0:
            roots.append(RootLocation(mid, mid, mid))
            seq = _deflated(seq[0], mid)
            variations.clear()
            if degree(seq[0]) < 1:
                continue
        work.append((a, mid))
        work.append((mid, b))
    return sorted(roots, key=lambda r: r.low)


# ---------------------------------------------------------------------------
# The crease probe as one Fraction ratio per crease: F(f) from df_value (the
# moment table through futaki.df_invariant) over |f|_L1, first strict minimum.


def probe_fraction(v, w, family):
    """(min_ratio, argmin, destabilizer) by the per-crease Fraction loop."""
    best = None
    for crease in family:
        norm = crease.l1_norm()
        if norm <= 0:
            continue
        ratio = crease.df_value(v, w) / norm
        if best is None or ratio < best[0]:
            best = (ratio, crease)
    if best is None:
        return None, None, None
    return best[0], best[1], best[1] if best[0] < 0 else None


# The crease family as crease_family built it before its integer offsets: one
# Fraction dot n.q per direction and grid point, and the Fraction test
# h(x0) <= 0 per offset.  And w = l_ext v - w_base as futaki formed it
# before its integer product: Fraction Polynomial arithmetic.


def crease_family_fraction(P, x0, r):
    from wkstab.exact import dot
    from wkstab.polytope import EmptyInterior, clip
    from wkstab.probe import _offset_grid, _primitive_directions

    x0 = point(x0)
    grid = _offset_grid(P, r)
    family = []
    for d in _primitive_directions(P.dim, r):
        n, m = point(d), point(-c for c in d)
        nx0 = dot(n, x0)
        for s in dict.fromkeys(dot(n, q) for q in grid):
            for g, c, keep in ((n, -s, nx0 <= s), (m, s, s <= nx0)):
                if not keep:
                    continue
                h = AffineFunc(g, c)
                try:
                    family.append((h, clip(P, h)))
                except EmptyInterior:
                    continue
    return family


def stability_weight_fraction(fib, l_ext):
    return l_ext.to_polynomial() * fib.v - fib.w_base


# ---------------------------------------------------------------------------
# from_halfspaces with the recession-ray search first: every input with a
# nonzero recession direction raises UnboundedPolytope before the vertex loop
# runs.  The Minkowski certificate must give the same polytope or the same
# exception on every input.  The loop is the rank-based one polytope used
# before faces were read off the incidence: a label cuts out a facet when its
# zero set on the vertices has affine rank dim - 1 and repeats no earlier
# label's; with drop_redundant the other labels are dropped instead of
# raising.  The face triangulation beside it evaluates every label at every
# vertex of the face and keeps the sub-faces of rank fdim - 1.


def from_halfspaces_by_rank(labels, dim, drop_redundant):
    from wkstab.polytope import EmptyInterior, LabelledPolytope, RedundantLabel, _enumerate_vertices

    verts = _enumerate_vertices(list(labels), dim)
    if not verts or affine_rank(verts) < dim:
        raise EmptyInterior("the halfspace intersection has empty interior")
    kept = {}  # facet incidence -> its label
    dropped = []
    for j, L in enumerate(labels):
        inc = tuple(i for i, v in enumerate(verts) if L(v) == 0)
        if inc in kept or affine_rank([verts[i] for i in inc]) != dim - 1:
            dropped.append(j)
        else:
            kept[inc] = j
    if dropped and not drop_redundant:
        raise RedundantLabel(dropped[0])
    return LabelledPolytope(dim, [labels[j] for j in kept.values()], verts, kept)


def from_halfspaces_recession_first(labels):
    from wkstab.polytope import RedundantLabel, UnboundedPolytope, _recession_ray

    labels = tuple(labels)
    if not labels:
        raise ValueError("at least one label is required")
    dim = labels[0].dim
    if any(L.dim != dim for L in labels):
        raise ValueError("labels have mixed dimensions")
    for j, L in enumerate(labels):
        if not any(L.gradient):
            raise RedundantLabel(j)
    ray = _recession_ray(list(labels), dim)
    if ray is not None:
        raise UnboundedPolytope(ray)
    return from_halfspaces_by_rank(labels, dim, False)


def face_triangulation_by_labels(P, face, on_labels, fdim):
    if len(face) == fdim + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    pieces = []
    seen = set()
    for k in range(P.n_facets):
        if k in on_labels:
            continue
        sub = tuple(i for i in face if P.labels[k](P.vertices[i]) == 0)
        if not sub or apex in sub or frozenset(sub) in seen:
            continue
        if affine_rank([P.vertices[i] for i in sub]) != fdim - 1:
            continue
        seen.add(frozenset(sub))
        for cell in face_triangulation_by_labels(P, sub, on_labels | {k}, fdim - 1):
            pieces.append((apex,) + cell)
    return sorted(pieces)


def triangulate_facet_by_labels(P, j):
    cells = face_triangulation_by_labels(P, P.facet_incidence[j], frozenset({j}), P.dim - 1)
    return [tuple(P.vertices[i] for i in cell) for cell in cells]


def triangulate_by_labels(P):
    cells = face_triangulation_by_labels(P, tuple(range(len(P.vertices))), frozenset(), P.dim)
    return [tuple(P.vertices[i] for i in cell) for cell in cells]


# ---------------------------------------------------------------------------
# Crease pieces as polytope and measure built and read them before the
# integer and one-minor forms: a facet cell's Jacobian as the full
# determinant |det[w_k - w_0, xi]|, clip with Fraction vertex values and
# crossings and emptiness decided by the affine rank of the piece's vertices,
# and moment rows read through a fresh exponent tuple a + b per term.


def cell_jacobian_det(verts, xi):
    """|det[w_1 - w_0, ..., w_{k} - w_0, xi]| for the cell w_0..w_k."""
    cols = [vsub(w, verts[0]) for w in verts[1:]] + [xi]
    return abs(exact_det([[c[r] for c in cols] for r in range(len(cols))]))


def clip_fraction(P, h):
    from wkstab.polytope import EmptyInterior, LabelledPolytope, RedundantLabel

    if h.dim != P.dim:
        raise ValueError("dimension mismatch in clip")
    if not any(h.gradient):
        raise RedundantLabel(P.n_facets)
    zeros = [0] * len(P.vertices)
    for j, inc in enumerate(P.facet_incidence):
        for i in inc:
            zeros[i] |= 1 << j
    on_h = 1 << P.n_facets
    hv = [h(v) for v in P.vertices]
    found = [(v, z | on_h if x == 0 else z) for v, z, x in zip(P.vertices, zeros, hv) if x >= 0]
    below = [i for i, x in enumerate(hv) if x < 0]
    above = [i for i, x in enumerate(hv) if x > 0]
    for a, b in itertools.product(below, above):
        common = zeros[a] & zeros[b]
        if any((common & z) == common for c, z in enumerate(zeros) if c != a and c != b):
            continue
        va, t = P.vertices[a], hv[a] / (hv[a] - hv[b])
        found.append((vadd(va, vscale(t, vsub(P.vertices[b], va))), common | on_h))
    found.sort()
    verts = [v for v, _ in found]
    if affine_rank(verts) < P.dim:
        raise EmptyInterior("the halfspace intersection has empty interior")
    incidence = [frozenset(i for i, (_, z) in enumerate(found) if z >> j & 1)
                 for j in range(P.n_facets + 1)]
    labels, facets = [], []
    for L, inc in zip(P.labels + (h,), incidence):
        if inc and inc not in facets and not any(inc < other for other in incidence):
            labels.append(L)
            facets.append(inc)
    return LabelledPolytope(P.dim, labels, verts, [sorted(inc) for inc in facets])


def moment_rows_by_tuple(P, requests, top):
    from wkstab.measure import _fill, _monomials, _scales, _series_tables

    D_P, J, T, *tables = _fill(P, top)
    # the record holds each numerator brought over Delta_T: take it back,
    # exactly, to the denominator of its own degree
    raw = []
    for boundary, table in zip((False, True), tables):
        s = _scales(P.dim, D_P, T, boundary)
        raw.append([divmod(x, s[sum(e)]) for e, x in zip(_monomials(P.dim, T), table)])
        assert not any(r for _, r in raw[-1])
    inner, outer = ([N for N, _ in numerators] for numerators in raw)
    index = _series_tables(P.dim, top)[0]
    rows = []
    for terms, bs, boundary in requests:
        s, table = _scales(P.dim, D_P, top, boundary), outer if boundary else inner
        terms = [(a, sum(a), c) for a, c in terms]
        rows.append([
            sum(c * s[d + e] * table[index[tuple(x + y for x, y in zip(a, b))]]
                for a, d, c in terms)
            for b, e in zip(bs, map(sum, bs))
        ])
    return rows, math.factorial(P.dim + top) * D_P**top * J


# ---------------------------------------------------------------------------
# The monotone-fiber vertex path in Fractions, as weights, futaki and
# stability ran it before their integer kernels: the product rule on Fraction
# polynomials with per-vertex Fraction positivity, Sylvester's criterion by
# one determinant per leading minor followed by a separate square solve, and
# the condition value recomputed term by term at every point.


def build_weights_fraction(fiber, factors):
    dim = fiber.dim
    v, w_base = Polynomial.constant(dim, 1), Polynomial.zero(dim)
    for a, f in enumerate(factors):
        if f.p.dim != dim:
            raise ValueError(f"factor {a}: p is a form on the wrong dimension")
        form = f.form
        for vert in fiber.vertices:
            if form(vert) <= 0:
                raise NonpositiveWeight(vert, a)
        pc = form.to_polynomial()
        low = pc ** (f.n - 1)
        high = low * pc
        v, w_base = v * high, w_base * high + v * low * f.s
    return v, w_base


def assert_positive_definite_by_minors(M):
    n = len(M)
    for i in range(n):
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise SingularMomentMatrix("moment matrix is not symmetric")
    for k in range(1, n + 1):
        minor = exact_det([row[:k] for row in M[:k]])
        if minor <= 0:
            raise SingularMomentMatrix(
                "moment matrix is not positive definite "
                "(degenerate polytope or nonpositive v)"
            )


def solve_extremal_by_minors(P, v, w_base, convention):
    M, b, den = _moment_system(P, v, w_base, convention)
    assert_positive_definite_by_minors(M)
    lam = solve_square(M, b)
    if lam is None:
        raise SingularMomentMatrix("moment system has no unique solution")
    Lam, q = _cleared(lam)
    residuals = tuple(
        Fraction(bi * q - sum(map(operator.mul, row, Lam)), q * den) for row, bi in zip(M, b)
    )
    if any(residuals):
        raise SingularMomentMatrix("extremal solution failed exact re-verification")
    return ExtremalSolution(
        l_ext=AffineFunc(lam[1:], lam[0]),
        convention=convention,
        system=(tuple(map(tuple, M)), tuple(b), den),
        solution=(tuple(Lam), q),
    )


def fano_hypothesis_failure_fraction(fib):
    """The first factor a with p_a(x0) + c_a < t s_a/(2 n_a), or None."""
    x0, t = fib.fano_fiber
    return next(
        (a for a, f in enumerate(fib.factors) if f.p(x0) + f.c < t * f.s / (2 * f.n)), None
    )


def condition_value_fano_fraction(fib, l_ext, x):
    if fib.fano_fiber is None:
        raise NotMonotoneFiber("condition_value_fano needs a monotone fiber")
    x0, t = fib.fano_fiber
    x = point(x)
    total = 2 * fib.total_dim + 2 - t * l_ext(x)
    for a, f in enumerate(fib.factors):
        u = f.p(x) + f.c
        if u <= 0:
            raise NonpositiveWeight(x, a)
        total += (t * f.s - 2 * f.n * (f.p(x0) + f.c)) / u
    return total


def cone_conditions_fraction(P, x0, v, w):
    """Every g_j = A / L_j(x0) - w/2, A = (dim + 1) v + d_x v . (x - x0), in
    facet order, by Fraction polynomial arithmetic."""
    x0 = point(x0)
    A, half_w = v * (P.dim + 1) + radial_derivative(v, x0), w * Fraction(1, 2)
    return [A * (Fraction(1) / L(x0)) - half_w for L in P.labels]


def concave_cone_indices_fraction(fib, x0):
    """Facets j with L_j(x0) s_a - 2 n_a (p_a(x0) + c_a) <= 0 for every a,
    evaluated in Fractions."""
    x0 = point(x0)
    terms = [(f.s, 2 * f.n * (f.p(x0) + f.c)) for f in fib.factors]
    return frozenset(
        j for j, L in enumerate(fib.fiber.labels) if all(L(x0) * s - e <= 0 for s, e in terms)
    )
