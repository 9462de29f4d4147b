import gc
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wkstab import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Polynomial,
    bernstein_coefficients,
    certify_nonnegative,
)
from wkstab.bernstein import PositivityOutcome, _children, _numerators
from wkstab.exact import _cleared
from wkstab.measure import _monomials
from wkstab.polytope import Simplex
from _reference_fraction import bernstein_coefficients_fraction

TRI = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
SEG = Simplex(((F(-1),), (F(1),)))


def test_constant_has_all_coefficients_equal():
    p = Polynomial.constant(2, F(7, 3))
    coeffs = bernstein_coefficients(p, TRI)
    assert set(coeffs.values()) == {F(7, 3)}
    # degree-0 polynomial: single coefficient
    assert len(coeffs) == 1


def test_affine_coefficients_are_vertex_values():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = 2 * x - y + 1
    coeffs = bernstein_coefficients(p, TRI)
    # multi-indices (1,0,0), (0,1,0), (0,0,1) give the vertex values
    assert coeffs[(1, 0, 0)] == p(TRI.vertices[0])
    assert coeffs[(0, 1, 0)] == p(TRI.vertices[1])
    assert coeffs[(0, 0, 1)] == p(TRI.vertices[2])
    # the dict is complete: every multi-index of the degree appears
    assert len(coeffs) == 3


def test_corner_coefficients_equal_vertex_values():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + x * y * 3 - y + 2
    d = p.degree()
    coeffs = bernstein_coefficients(p, TRI)
    for i, vtx in enumerate(TRI.vertices):
        corner = tuple(d if j == i else 0 for j in range(3))
        assert coeffs[corner] == p(vtx)


def _volume(simplex):
    # k! times the volume of a full-dimensional simplex: |det(V_i - V_0)|
    def det(rows):
        if not rows:
            return F(1)
        return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    v0, *rest = simplex.vertices
    return abs(det([[a - b for a, b in zip(v, v0)] for v in rest]))


def _integer_vertices(simplex):
    # the certifier's root node: the vertices as integer rows over E
    E = math.lcm(*(x.denominator for v in simplex.vertices for x in v))
    return tuple(tuple(int(x * E) for x in v) for v in simplex.vertices), E


def _node_simplex(Y, E, depth):
    # a node's vertices are its integer rows over E 2^depth
    return Simplex(tuple(tuple(F(y, E << depth) for y in v) for v in Y))


def test_subdivision_count_and_volume():
    p = Polynomial.variable(2, 0) ** 2
    Y, E = _integer_vertices(TRI)
    children = [Y_child for Y_child, _ in _children(Y, _numerators(p, TRI)[0], 2)]
    assert len(children) == 2
    # the longest edge of TRI joins (1, 0) and (0, 1); its midpoint, (1, 1)
    # over 2, replaces each end in turn, every other vertex doubles, and the
    # halves tile the parent
    assert children == [((0, 0), (1, 1), (0, 2)), ((0, 0), (2, 0), (1, 1))]
    halves = [_node_simplex(c, E, 1) for c in children]
    mid = (F(1, 2), F(1, 2))
    assert [c.vertices for c in halves] == [
        (TRI.vertices[0], mid, TRI.vertices[2]),
        (TRI.vertices[0], TRI.vertices[1], mid),
    ]
    assert [_volume(c) for c in halves] == [_volume(TRI) / 2] * 2


def test_bisection_takes_the_first_longest_edge():
    # a right isosceles triangle with the right angle at V_1: its hypotenuse
    # (V_0, V_2) is split, not the first pair; a regular tetrahedron's six
    # edges tie, and the first pair (V_0, V_1) is split
    tri = Simplex(((F(0), F(1)), (F(0), F(0)), (F(1), F(0))))
    p = Polynomial.variable(2, 0)
    Y, _ = _integer_vertices(tri)
    halves = [c[0] for c, _ in _children(Y, _numerators(p, tri)[0], 1)]
    assert halves == [(1, 1), (0, 2)]
    tet = Simplex(tuple(
        tuple(F(c) for c in v) for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    ))
    q = Polynomial.variable(3, 0)
    Y, _ = _integer_vertices(tet)
    halves = [c for c, _ in _children(Y, _numerators(q, tet)[0], 1)]
    doubled = tuple(tuple(2 * y for y in v) for v in Y)
    assert halves[0][0] == (2, 0, 0) and halves[0][1:] == doubled[1:]
    assert halves[1][1] == (2, 0, 0) and halves[1][0] == doubled[0]
    # the same ties over E = 6: scaling every vertex keeps the order of the
    # squared lengths, so the first longest edge stays (V_0, V_1)
    tet6 = Simplex(tuple(tuple(x / 6 for x in v) for v in tet.vertices))
    Y6, E = _integer_vertices(tet6)
    assert E == 6 and Y6 == Y
    assert [c for c, _ in _children(Y6, _numerators(q, tet6)[0], 1)] == halves


def test_certify_positive_quadratic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)
    out = certify_nonnegative(p, TRI, max_depth=4)
    assert out.status == CERTIFIED
    assert out.lower_bound is not None and out.lower_bound >= 0


def test_refute_with_exact_witness():
    x = Polynomial.variable(2, 0)
    p = x - F(1, 2)
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == REFUTED
    pt, val = out.witness
    assert val < 0
    assert p(pt) == val


def test_square_of_linear_certifies_with_zero_bound():
    # (x - y)^2 vanishes on the diagonal; after one subdivision the zero set
    # lies on cell faces and every cell certifies, with the honest bound 0
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == CERTIFIED
    assert out.lower_bound == 0


def test_irrational_zero_line_stays_inconclusive():
    # (x^2 - 2 y^2)^2 >= 0 vanishes on x = sqrt(2) y, which no rational
    # subdivision face can contain: never certified, never refutable.
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x * x - 2 * y * y) ** 2
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == INCONCLUSIVE


def test_depth_zero_inconclusive_when_mixed_coefficients():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)
    assert certify_nonnegative(p, TRI, max_depth=0).status == INCONCLUSIVE


def test_negative_depth_is_rejected_before_any_work():
    # a depth below 0 would never reach the "max_depth == 0" stop
    with pytest.raises(ValueError):
        certify_nonnegative(Polynomial.constant(2, 1), TRI, max_depth=-1)
    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y  # zero at an interior point: never certified
    with pytest.raises(ValueError):
        certify_nonnegative(p, TRI, max_depth=-1)
    assert certify_nonnegative(p, TRI, max_depth=0).status == INCONCLUSIVE


def test_soundness_on_random_polynomials():
    rng = random.Random(99)
    certified = refuted = 0
    for _ in range(40):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5))
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        out = certify_nonnegative(p, TRI, max_depth=3)
        samples = [
            (F(rng.randint(0, 50), 100), F(rng.randint(0, 50), 100))
            for _ in range(25)
        ]
        if out.status == CERTIFIED:
            certified += 1
            assert all(p(pt) >= 0 for pt in samples)
            assert all(p(pt) >= out.lower_bound for pt in samples)
        elif out.status == REFUTED:
            refuted += 1
            pt, val = out.witness
            assert p(pt) == val < 0
    # the sampler really exercises both branches
    assert certified >= 5 and refuted >= 5


def test_interval_certification():
    x = Polynomial.variable(1, 0)
    p = (x + 1) * (x + 1) + 1
    out = certify_nonnegative(p, SEG, max_depth=3)
    assert out.status == CERTIFIED
    out2 = certify_nonnegative(-p, SEG, max_depth=3)
    assert out2.status == REFUTED


# ------------------------------------------------- integer kernel vs oracle

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def simplex_and_polynomial(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    verts = tuple(
        draw(st.tuples(*[rationals] * n)) for _ in range(k + 1)
    )
    expos = st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6)
    terms = draw(st.dictionaries(expos, rationals, max_size=6))
    return verts, Polynomial(n, terms)


@settings(max_examples=150, deadline=None)
@given(simplex_and_polynomial())
def test_coefficients_match_fraction_oracle(case):
    verts, p = case
    try:
        simplex = Simplex(verts)
    except ValueError:
        assume(False)
    got = bernstein_coefficients(p, simplex)
    want = bernstein_coefficients_fraction(p, simplex)
    assert got == want
    assert list(got) == list(want)  # same keys in the same order
    assert all(type(c) is F for c in got.values())


@pytest.mark.parametrize("simplex", [TRI, SEG, Simplex(((F(1, 2), F(-1, 3)), (F(2), F(1, 5))))])
def test_zero_and_constant_polynomials_match_oracle(simplex):
    n = simplex.ambient_dim
    for p in (Polynomial.zero(n), Polynomial.constant(n, F(-5, 6))):
        got = bernstein_coefficients(p, simplex)
        assert got == bernstein_coefficients_fraction(p, simplex)
        assert list(got) == [(0,) * (simplex.k + 1)]
        assert got[(0,) * (simplex.k + 1)] == p(simplex.vertices[0])


def test_certify_never_calls_compose_affine(monkeypatch):
    calls = []
    original = Polynomial.compose_affine

    def counting(self, A, b):
        calls.append(len(A))
        return original(self, A, b)

    monkeypatch.setattr(Polynomial, "compose_affine", counting)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)  # needs subdivision: coefficients on every node
    out = certify_nonnegative(p, TRI, max_depth=4)
    assert out.status == CERTIFIED and out.depth_used > 0
    assert calls == []


def test_coefficients_leave_no_garbage_cycle():
    # the power tree must die with the call, not wait for the cyclic
    # collector, and the rows the cell cache keeps must hold no cycle
    from wkstab import bernstein

    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 4 + x * y - F(1, 3)
    bernstein._cell.cache_clear()  # so that the call builds a power tree
    gc.collect()
    gc.disable()
    try:
        bernstein_coefficients(p, TRI)
        assert gc.collect() == 0
        bernstein._cell.cache_clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------- integer numerators vs the Fraction certifier


def _reference_children(simplex):
    # longest-edge bisection with checked Simplex children: the first edge
    # of greatest squared length in index order, halved at its midpoint, the
    # child with V_a replaced before the child with V_b
    verts = simplex.vertices
    best = None
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            length = sum((s - t) ** 2 for s, t in zip(verts[a], verts[b]))
            if best is None or length > best[0]:
                best = (length, a, b)
    _, a, b = best
    mid = tuple((s + t) / 2 for s, t in zip(verts[a], verts[b]))
    return [Simplex(tuple(mid if i == r else v for i, v in enumerate(verts))) for r in (a, b)]


def _certify_reference(p, simplex, max_depth):
    # the certifier evaluated p at the vertices and the barycenter, then read
    # the Fraction coefficients of every node, level by level, splitting a
    # node while the budget of sum_{i <= max_depth} ((k+1)!)^i nodes covers
    # both its children
    budget = sum(math.factorial(simplex.k + 1) ** i for i in range(max_depth + 1))
    level, depth, planned = [simplex], 0, 1
    bound, undecided = None, False
    while True:
        deeper = []
        for cell in level:
            for vtx in (*cell.vertices, cell.barycenter()):
                val = p(vtx)
                if val < 0:
                    return PositivityOutcome(REFUTED, None, (vtx, val), depth)
            low = min(bernstein_coefficients_fraction(p, cell).values())
            if low >= 0:
                bound = low if bound is None else min(bound, low)
            elif planned + 2 <= budget:
                planned += 2
                deeper += _reference_children(cell)
            else:
                undecided = True
        if not deeper:
            break
        level, depth = deeper, depth + 1
    if undecided:
        return PositivityOutcome(INCONCLUSIVE, None, None, depth)
    return PositivityOutcome(CERTIFIED, bound, None, depth)


small = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@st.composite
def certify_case(draw, fractional=False):
    # a segment, a rational triangle or a tetrahedron (k = n), a polynomial
    # of degree <= 5, and a depth <= 3 (<= 2 on tetrahedra); with
    # fractional, some vertex coordinate is not an integer and the depth is
    # >= 1, so the certifier's vertex rows are over E 2^t with E > 1.
    # Besides dense polynomials, p = (q^2 + e) u^j, where q is a product of
    # affine forms vanishing at rational interior points, e is a small offset
    # and u is positive on the cell: these vanish or dip just below 0 inside
    # the cell (e is a power-of-2 fraction of a vertex value of q^2) and so
    # need subdivision.
    k = draw(st.integers(1, 3))
    verts = tuple(draw(st.tuples(*[small] * k)) for _ in range(k + 1))
    assume(not fractional or any(x.denominator > 1 for v in verts for x in v))
    try:
        simplex = Simplex(verts)
    except ValueError:
        assume(False)
    if draw(st.booleans()):
        d = draw(st.integers(0, 5))
        monomials = st.tuples(*[st.integers(0, d)] * k).filter(lambda e: sum(e) <= d)
        p = Polynomial(k, draw(st.dictionaries(monomials, small, min_size=1, max_size=6)))
        return p, simplex, draw(_depths(k, p, int(fractional)))
    xs = [Polynomial.variable(k, i) for i in range(k)]
    q = Polynomial.constant(k, 1)
    for _ in range(draw(st.integers(1, 2))):
        weights = draw(st.lists(st.integers(1, 3), min_size=k + 1, max_size=k + 1))
        center = [sum(w * v[i] for w, v in zip(weights, verts)) / sum(weights) for i in range(k)]
        grad = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any))
        q = q * sum((g * (x - c) for g, x, c in zip(grad, xs, center)), Polynomial.zero(k))
    scale = draw(st.sampled_from([q(v) ** 2 for v in verts]))
    e = draw(st.sampled_from([-1, 0, 1])) * scale / 2 ** draw(st.integers(1, 8))
    u = Polynomial.constant(k, 4) + sum((draw(small) / 2 * x for x in xs), Polynomial.zero(k))
    p = (q * q + e) * u ** draw(st.integers(0, 5 - q.degree() * 2))
    return p, simplex, draw(_depths(k, p, int(fractional)))


def _depths(k, p, lowest=0):
    # the Fraction reference takes seconds per tetrahedron at depth 2 (a
    # budget of 601 nodes) above degree 3;
    # test_certify_matches_fraction_reference_below_the_root has one of
    # degree 4 at depth 1
    return st.integers(lowest, 3 if k < 3 else 2 if p.degree() <= 3 else 1)


@settings(max_examples=50, deadline=None)
@given(certify_case())
def test_certify_matches_fraction_reference(case):
    p, simplex, depth = case
    assert certify_nonnegative(p, simplex, depth) == _certify_reference(p, simplex, depth)


@settings(max_examples=40, deadline=None)
@given(certify_case(fractional=True))
@example((  # refuted at the barycenter of a depth-1 half over E = 3
    (Polynomial.variable(2, 0) - F(2, 3)) ** 2
    + (Polynomial.variable(2, 1) + F(3, 2)) ** 2 - F(1, 8),
    Simplex(((F(1), F(0)), (F(-5, 3), F(-3)), (F(5), F(0)))),
    3,
))
def test_certify_matches_fraction_reference_on_fractional_vertices(case):
    # every witness, bound and depth below the root is read off vertex rows
    # over E 2^t, E > 1, and must be the Fraction bisection's
    p, simplex, depth = case
    assert certify_nonnegative(p, simplex, depth) == _certify_reference(p, simplex, depth)


TET = Simplex(((F(0),) * 3, (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))))


def _dip(center, eps, extra):
    # a positive definite quadratic with its minimum eps at an interior
    # point, times (2 + x_0)^extra
    n = len(center)
    xs = [Polynomial.variable(n, i) - c for i, c in enumerate(center)]
    q = Polynomial.constant(n, eps)
    for i, x in enumerate(xs):
        q = q + x * x - (x * xs[i - 1] if i else 0)
    return q * (Polynomial.constant(n, 2) + Polynomial.variable(n, 0)) ** extra


@pytest.mark.parametrize(
    "simplex, center, eps, extra, want",
    [
        (SEG, (F(1, 3),), F(1, 30), 0, (CERTIFIED, 3)),
        (SEG, (F(1, 3),), F(-1, 100), 0, (REFUTED, 2)),
        (SEG, (F(1, 3),), F(1, 1000), 0, (INCONCLUSIVE, 3)),
        (TRI, (F(1, 3), F(1, 5)), F(1, 100), 1, (CERTIFIED, 5)),
        (TRI, (F(1, 3), F(1, 5)), F(-1, 1000), 2, (REFUTED, 6)),
        (TRI, (F(1, 3), F(1, 5)), F(1, 1000), 0, (INCONCLUSIVE, 8)),
        (TRI, (F(1, 3), F(1, 3)), F(-1, 100), 1, (REFUTED, 0)),  # at the barycenter
        (TET, (F(1, 5), F(1, 7), F(1, 3)), F(1, 30), 2, (CERTIFIED, 4)),
        (TET, (F(1, 5), F(1, 7), F(1, 3)), F(-1, 100), 1, (REFUTED, 2)),
        (TET, (F(1, 5), F(1, 7), F(1, 3)), F(1, 100), 0, (INCONCLUSIVE, 4)),
    ],
)
def test_certify_matches_fraction_reference_below_the_root(simplex, center, eps, extra, want):
    # every outcome, decided below the root, on each kind of simplex, and a
    # refutation at the root's barycenter; max_depth 2 (1 on tetrahedra,
    # whose budget is then 25 nodes) leaves each a few bisections deep
    p = _dip(center, eps, extra)
    max_depth = 1 if simplex.k == 3 else 2
    out = certify_nonnegative(p, simplex, max_depth)
    assert (out.status, out.depth_used) == want
    assert out == _certify_reference(p, simplex, max_depth)


def _count_nodes(monkeypatch):
    # every node but the root comes out of _children
    from wkstab import bernstein

    nodes = [1]
    real = bernstein._children

    def counting(*args):
        for child in real(*args):
            nodes[0] += 1
            yield child

    monkeypatch.setattr(bernstein, "_children", counting)
    return nodes


@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
def test_node_budget_bounds_an_undecidable_input(monkeypatch, max_depth):
    # (x^2 - 2 y^2)^2 vanishes on an irrational line: no node containing part
    # of it certifies, so the certifier stops only at its node budget, the
    # size of the barycentric tree max_depth levels deep
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    nodes = _count_nodes(monkeypatch)
    out = certify_nonnegative((x * x - 2 * y * y) ** 2, TRI, max_depth)
    assert out.status == INCONCLUSIVE
    assert nodes[0] <= sum(6**i for i in range(max_depth + 1))


def test_a_root_certified_input_takes_a_huge_node_budget():
    # an input decided at the root costs next to nothing at any max_depth:
    # the node budget is one closed form, not a sum over the depths
    out = certify_nonnegative(Polynomial.constant(2, 1), TRI, max_depth=10**5)
    assert out == PositivityOutcome(CERTIFIED, F(1), None, 0)


def test_a_deep_max_depth_decides_like_a_shallow_one():
    # the budget is capped far above any reachable node count, so max_depth
    # 10^7 builds no integer of millions of digits and bisects just as 6 does
    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y + F(1, 10000)
    out = certify_nonnegative(p, TRI, max_depth=6)
    assert out.status == CERTIFIED and out.depth_used > 0
    assert certify_nonnegative(p, TRI, max_depth=10**7) == out


def test_bisection_certifies_a_shallow_dip_within_depth_three(monkeypatch):
    # min 1/10000 at the interior point (1/3, 1/5): barycentric subdivision
    # left this Inconclusive at depths 3 and 4; bisection spends its budget
    # where the dip is
    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y + F(1, 10000)
    nodes = _count_nodes(monkeypatch)
    out = certify_nonnegative(p, TRI, max_depth=3)
    assert out.status == CERTIFIED and 0 <= out.lower_bound <= F(1, 10000)
    assert nodes[0] == 87
    assert out == _certify_reference(p, TRI, 3)


def _check_children(p, simplex, levels):
    B, S = _numerators(p, simplex)
    Y, E = _integer_vertices(simplex)
    _check_node(p, max(p.degree(), 0), Y, E, 0, B, S, levels)


def _check_node(p, d, Y, E, depth, B, S, levels):
    # the children of the integer node (Y over E 2^depth, B over S), followed
    # levels deep: each half is the reference half, the two tile the parent,
    # and the staged numerators over S 2^d are the half's coefficients
    cell = _node_simplex(Y, E, depth)
    children = list(_children(Y, B, d))
    halves = [_node_simplex(Y_child, E, depth + 1) for Y_child, _ in children]
    assert halves == _reference_children(cell)
    assert [_volume(half) for half in halves] == [_volume(cell) / 2] * 2
    for half, (Y_child, B_child) in zip(halves, children):
        got = bernstein_coefficients(p, half)
        assert dict(zip(got, (F(b, S * 2**d) for b in B_child))) == got
        if levels > 1:
            _check_node(p, d, Y_child, E, depth + 1, B_child, S * 2**d, levels - 1)


@settings(max_examples=60, deadline=None)
@given(certify_case())
def test_staged_child_numerators_are_the_child_coefficients(case):
    p, simplex, _ = case
    _check_children(p, simplex, 3 if simplex.k < 3 else 2)


def test_root_is_the_only_power_tree_and_rank_check(monkeypatch):
    from wkstab import bernstein, polytope

    counts = {"powers": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y + F(1, 1000)  # needs subdivision to depth >= 2
    bernstein._cell.cache_clear()
    monkeypatch.setattr(bernstein, "_barycentric_powers", counted("powers", bernstein._barycentric_powers))
    monkeypatch.setattr(polytope, "affine_rank", counted("rank", polytope.affine_rank))
    out = certify_nonnegative(p, TRI, max_depth=3)
    assert out.depth_used >= 2
    assert counts == {"powers": 1, "rank": 0}


def test_a_cell_builds_one_power_tree_per_degree(monkeypatch):
    # the cell's rows are kept: a second certify on the same cell, with
    # another polynomial of the same degree, builds no power tree; a
    # polynomial of another degree needs its own rows
    from wkstab import bernstein

    calls = []
    real = bernstein._barycentric_powers

    def counting(E, Y):
        calls.append((E, Y))
        return real(E, Y)

    bernstein._cell.cache_clear()
    monkeypatch.setattr(bernstein, "_barycentric_powers", counting)
    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y + F(1, 1000)
    first = certify_nonnegative(p, TRI, max_depth=3)
    assert first.depth_used >= 2 and len(calls) == 1
    assert certify_nonnegative(p, TRI, max_depth=3) == first
    assert certify_nonnegative(p - F(1, 100), TRI, max_depth=3).status == REFUTED
    assert len(calls) == 1
    certify_nonnegative(p * x, TRI, max_depth=3)
    assert calls == [(1, ((0, 0), (1, 0), (0, 1)))] * 2


def test_a_cell_keeps_only_the_rows_of_the_monomials_it_met():
    # a sparse polynomial of high degree builds the powers of its own
    # monomials, not a row for every monomial of its degree
    from wkstab import bernstein

    tet = Simplex(tuple(
        tuple(F(c) for c in v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, F(1, 2)))
    ))
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    bernstein._cell.cache_clear()
    for p, met in (
        (x ** 8, {(8, 0, 0)}),
        (x ** 8 - y ** 3 + 1, {(8, 0, 0), (0, 3, 0), (0, 0, 0)}),
    ):
        assert bernstein_coefficients(p, tet) == bernstein_coefficients_fraction(p, tet)
        _, _, rows = bernstein._cell(tet.vertices)
        assert set(rows) == {(8, a) for a in met}


def test_two_degrees_on_one_cell_share_one_record():
    # the cell alone fixes E and Y, so polynomials of two degrees on it
    # leave one record, whose rows are keyed by degree and monomial: the
    # constant monomial has a row in each degree
    from wkstab import bernstein

    x = Polynomial.variable(2, 0)
    bernstein._cell.cache_clear()
    for p in (x + 1, x ** 3 + 1, x + 2):
        assert bernstein_coefficients(p, TRI) == bernstein_coefficients_fraction(p, TRI)
    assert bernstein._cell.cache_info().currsize == 1
    _, _, rows = bernstein._cell(TRI.vertices)
    assert set(rows) == {(1, (1, 0)), (1, (0, 0)), (3, (3, 0)), (3, (0, 0))}


def test_one_bisection_fills_one_table():
    # both halves of a bisection are read off one table for its edge
    from wkstab import bernstein

    p = Polynomial.variable(2, 0) ** 2
    Y, _ = _integer_vertices(TRI)
    bernstein._bisection.cache_clear()
    assert len(list(_children(Y, _numerators(p, TRI)[0], 2))) == 2
    assert bernstein._bisection.cache_info().currsize == 1


@st.composite
def one_simplex_many_degrees(draw):
    # a simplex with some non-integer vertex coordinate (denominators <= 5)
    # and polynomials of two or three distinct exact degrees on it
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    coords = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    verts = tuple(draw(st.tuples(*[coords] * n)) for _ in range(k + 1))
    assume(any(x.denominator > 1 for v in verts for x in v))
    try:
        simplex = Simplex(verts)
    except ValueError:
        assume(False)
    degrees = draw(st.lists(st.integers(0, 5), min_size=2, max_size=3, unique=True))
    polys = []
    for d in degrees:
        # the exponents of degree d and below d, listed rather than filtered
        # out of a box (filtering failed Hypothesis's filter_too_much check)
        top = draw(st.sampled_from([e for e in _monomials(n, d) if sum(e) == d]))
        lower = [e for e in _monomials(n, d) if sum(e) < d]
        terms = draw(st.dictionaries(st.sampled_from(lower), rationals, max_size=5)) if d else {}
        terms[top] = draw(rationals.filter(bool))
        polys.append(Polynomial(n, terms))
    return simplex, polys


@settings(max_examples=80, deadline=None)
@given(one_simplex_many_degrees())
def test_one_cell_keeps_a_basis_per_degree(case):
    simplex, polys = case
    for p in polys + polys[::-1]:
        got = bernstein_coefficients(p, simplex)
        assert got == bernstein_coefficients_fraction(p, simplex)
        assert list(got) == list(bernstein_coefficients_fraction(p, simplex))


@settings(max_examples=40, deadline=None)
@given(certify_case(fractional=True), st.integers(1, 10**6))
def test_the_cleared_form_decides_like_the_polynomial(case, k):
    # p built on its coefficients cleared, times k, over k times their
    # denominator, with a zero term that must not raise the degree: same
    # outcome, bound and witness as p built from Fractions
    p, simplex, depth = case
    ints, C = _cleared(p.terms.values())
    G = {a: k * c for a, c in zip(p.terms, ints)}
    G[(p.degree() + 1,) + (0,) * (p.dim - 1)] = 0
    want = certify_nonnegative(p, simplex, depth)
    q = Polynomial._from_cleared(p.dim, G, k * C)
    assert certify_nonnegative(q, simplex, depth) == want
    assert q == p and q.degree() == p.degree()


def test_the_cleared_form_is_checked():
    with pytest.raises(ValueError, match="positive"):
        certify_nonnegative(Polynomial._from_cleared(2, {(0, 0): 1}, 0), TRI)
    with pytest.raises(ValueError, match="dimension mismatch"):
        certify_nonnegative(Polynomial._from_cleared(1, {(0,): 1}, 1), TRI)
