import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import hexagon, interior_points, interval, simplex3, square, triangle
from wkstab import (
    AffineFunc,
    Polynomial,
    from_halfspaces,
    integrate,
    integrate_boundary,
    integrate_facet,
    standard_fiber_polytope,
    volume,
)
from wkstab import bernstein
from wkstab.measure import (
    _cell_moments,
    _fill,
    _moment_rows,
    _monomials,
    _pair,
    _positions,
    _series_tables,
    integrate_facet_cell,
    integrate_simplex,
    integrate_simplex_standard,
)
from wkstab.polytope import (
    EmptyInterior,
    Simplex,
    _transversal,
    clip,
    triangulate,
    triangulate_facet,
)
import _oracle
from _frozen import DIRICHLET_D2, DIRICHLET_D3
from _reference_fraction import (
    cell_jacobian_det,
    cell_moments_power_tree,
    fill_by_cells,
    monomials_by_filter,
    moment_rows_by_tuple,
)


def mono(dim, expo):
    return Polynomial.monomial(dim, expo)


@pytest.mark.parametrize("expo,value", sorted(DIRICHLET_D2.items()))
def test_standard_simplex_monomials_d2(expo, value):
    assert integrate_simplex_standard(mono(2, expo)) == value


@pytest.mark.parametrize("expo,value", sorted(DIRICHLET_D3.items()))
def test_standard_simplex_monomials_d3(expo, value):
    assert integrate_simplex_standard(mono(3, expo)) == value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(-1, 7))
def test_monomials_match_the_filtered_product(dim, d):
    assert list(_monomials(dim, d)) == monomials_by_filter(dim, d)


def test_monomials_are_one_cached_tuple():
    # the exponent list is shared by every caller, so it is immutable, and
    # the series tables and Bernstein levels list it in the same order
    mons = _monomials(3, 4)
    assert type(mons) is tuple and _monomials(3, 4) is mons
    assert tuple(_series_tables(3, 4)[0]) == mons
    assert tuple(g for level in bernstein._levels(4, 3)[0] for g in level) == mons


def test_monomials_count_without_the_product_box():
    # C(dim + d, d) exponents, listed without walking the 7^12 boxes of
    # itertools.product (the filtered product would not finish here)
    assert len(_monomials(12, 6)) == math.comb(18, 6)


def test_integrate_simplex_affine_image():
    # [0,1]^2 lower triangle mapped to vertices (1,1), (3,1), (1,2)
    s = Simplex(((F(1), F(1)), (F(3), F(1)), (F(1), F(2))))
    one = Polynomial.constant(2, 1)
    assert integrate_simplex(one, s) == 1  # area |det|/2 = 2/2
    x = Polynomial.variable(2, 0)
    # barycenter of x over the simplex is the centroid coordinate 5/3
    assert integrate_simplex(x, s) == F(5, 3)


def test_volumes():
    assert volume(triangle()) == F(9, 2)
    assert volume(square()) == 4
    assert volume(hexagon()) == 3
    assert volume(triangle(F(2))) == 18


def test_boundary_measure_scales_inversely_with_label():
    # doubling a label halves its facet measure: dL wedge dsigma = -dx
    from wkstab import AffineFunc, from_halfspaces

    base = [
        AffineFunc([1, 0], 1),
        AffineFunc([-1, 0], 1),
        AffineFunc([0, 1], 1),
        AffineFunc([0, -1], 1),
    ]
    P = from_halfspaces(base)
    scaled = from_halfspaces([base[0] * 2] + base[1:])
    one = Polynomial.constant(2, 1)
    assert integrate_facet(one, P, 0) == 2
    assert integrate_facet(one, scaled, 0) == 1
    for j in range(1, 4):
        assert integrate_facet(one, scaled, j) == integrate_facet(one, P, j)


def test_interval_boundary_is_point_masses():
    from conftest import interval

    P = interval()
    x = Polynomial.variable(1, 0)
    # labels x+1 and 1-x have unit gradients: unit point mass at each endpoint
    assert integrate_boundary(Polynomial.constant(1, 1), P) == 2
    assert integrate_boundary(x, P) == 0
    assert integrate_boundary((x + 1) * (x + 1), P) == 4


def test_triangle_against_iterated_oracle():
    P = triangle()
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + 2 * y) ** 3 + x * y - 7
    assert integrate(p, P) == _oracle.triangle_interior(p)
    assert integrate_boundary(p, P) == _oracle.triangle_boundary(p)


def test_square_against_iterated_oracle():
    P = square()
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * x * y + 3 * y * y - x + F(1, 2)
    assert integrate(p, P) == _oracle.square_interior(p)
    assert integrate_boundary(p, P) == _oracle.square_boundary(p)


def test_cone_volume_identity_on_corpus(corpus):
    # sum_j L_j(x0) sigma(F_j) = dim * Vol(P) for any interior x0
    for P in corpus.values():
        one = Polynomial.constant(P.dim, 1)
        for x0 in interior_points(P):
            total = sum(
                P.labels[j](x0) * integrate_facet(one, P, j)
                for j in range(P.n_facets)
            )
            assert total == P.dim * volume(P)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_integrate_is_linear_on_hexagon(expo, coeff):
    P = hexagon()
    p = Polynomial.monomial(2, expo)
    q = Polynomial.monomial(2, (1, 1))
    lhs = integrate(p * coeff + q, P)
    assert lhs == coeff * integrate(p, P) + integrate(q, P)


def test_integrate_additive_over_clip():
    from wkstab import AffineFunc
    from wkstab.polytope import clip

    P = square()
    h = AffineFunc([1, -2], F(1, 3))
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2 + 5
    assert integrate(p, clip(P, h)) + integrate(p, clip(P, -h)) == integrate(p, P)


def test_moments_fill_once_per_polytope(monkeypatch):
    import wkstab.measure as measure
    import wkstab.polytope as polytope

    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polytope, "triangulate", counting(polytope.triangulate))
    monkeypatch.setattr(polytope, "_facet_triangulation", counting(polytope._facet_triangulation))
    monkeypatch.setattr(measure, "_cell_moments", counting(measure._cell_moments))
    assert not hasattr(measure, "_facet_triangulation")  # measure reads polytope's cells
    # each facet is triangulated at most once in a polytope's life:
    # from_halfspaces does it for Minkowski's relation, and the fill reads
    # the same cells
    P = hexagon()
    assert calls == ["_facet_triangulation"] * P.n_facets
    calls.clear()
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + 2 * y) ** 3 + x * y - 7
    first = (integrate(p, P), integrate_boundary(p, P))
    filled = P.moments
    D_P, _, T, inner, outer = filled
    assert T == 3 and len(inner) == len(outer) == len(_monomials(2, 3))
    n_cells = sum(map(len, P.facet_cells))
    assert calls == ["_cell_moments"] * n_cells
    calls.clear()
    assert (integrate(p, P), integrate_boundary(p, P)) == first
    assert P.moments is filled
    assert calls == []
    # a higher degree costs one pass over the cells, however many monomials
    # it adds, rebuilds both halves and keeps every lower entry, brought
    # from Delta_3 over Delta_5 = (l + 4)(l + 5) D_P^2 Delta_3
    integrate(x ** 5 + y ** 5, P)
    assert calls == ["_cell_moments"] * n_cells
    assert P.moments[:2] == filled[:2] and P.moments[2] == 5
    assert len(P.moments[3]) == len(P.moments[4]) == len(_monomials(2, 5))
    k = 6 * 7 * D_P**2
    assert P.moments[3][:len(inner)] == [k * N for N in inner]
    assert P.moments[4][:len(outer)] == [k * N for N in outer]
    # and a record filled higher serves every lower read
    calls.clear()
    assert (integrate(p, P), integrate_boundary(p, P)) == first
    assert calls == []
    # a clip piece skips the relation: its first fill triangulates each of
    # its facets, once
    calls.clear()
    Q = clip(P, AffineFunc([1, 2], F(-1, 2)))
    assert calls == []
    integrate(p, Q)
    integrate_boundary(x ** 5, Q)
    assert [c for c in calls if c != "_cell_moments"] == ["_facet_triangulation"] * Q.n_facets
    # and the public triangulation reads the same cells
    calls.clear()
    assert [polytope.triangulate_facet(Q, j) for j in range(Q.n_facets)]
    assert calls == []


def test_moment_table_is_not_part_of_the_polytope_value():
    P = hexagon()
    integrate(Polynomial.variable(2, 0), P)
    fresh = hexagon()
    assert P.moments and not fresh.moments
    assert P == fresh and hash(P) == hash(fresh)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def monomials_up_to(dim, degree):
    return [
        e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) <= degree
    ]


def _translated(P, s):
    """P - s, with the labels x -> L(x + s): the origin moves to s."""
    return from_halfspaces([AffineFunc(L.gradient, L(s)) for L in P.labels])


def _origin_placements(P):
    """P moved so that the origin lies inside, outside, on a facet (some
    L_j(0) = 0) and at a vertex."""
    b = P.vertex_centroid()
    outside = tuple(2 * v - c for v, c in zip(P.vertices[0], b))
    on_facet = P.facet_vertices(0)
    on_facet = tuple(sum(c) / len(on_facet) for c in zip(*on_facet))
    return [P] + [_translated(P, s) for s in (outside, on_facet, P.vertices[-1])]


CELL_CORPUS = [
    Q
    for P in (
        interval(),
        triangle(),
        hexagon(),
        simplex3(),
        clip(triangle(), AffineFunc([1, 2], F(-1, 2))),
        clip(simplex3(), AffineFunc([1, -1, 1], F(-1, 4))),
    )
    for Q in _origin_placements(P)
]


def _corpus_facet_cells():
    """(dim, cell, transversal, L_j(0)) for every facet cell of CELL_CORPUS."""
    for P in CELL_CORPUS:
        for j, L in enumerate(P.labels):
            xi = _transversal(P, j)
            for cell in triangulate_facet(P, j):
                yield P.dim, cell, xi, L.constant


def _rows(verts, D_P):
    """The integer rows D_P v of the vertices v, D_P a multiple of every
    coordinate denominator."""
    return [[int(x * D_P) for x in v] for v in verts]


def _numerators(rows, expos):
    """[N_a for a in expos] on the cell with integer rows *rows*: a! times
    the coefficient at a of _cell_moments' series."""
    top = max(map(sum, expos), default=0)
    index = _series_tables(len(rows[0]), top)[0]
    B = _cell_moments(rows, top)
    return [math.prod(map(math.factorial, a)) * B[index[a]] for a in expos]


def _cell_values(cell, xi, c, expos):
    """(boundary, interior) moments of one facet cell from _cell_moments'
    integers, over a proper multiple D_P of the cell's denominator D."""
    n = len(cell)
    jac = cell_jacobian_det(cell, xi)
    D_P = 6 * math.lcm(*(x.denominator for w in cell for x in w))
    out = []
    for e, N in zip(expos, _numerators(_rows(cell, D_P), expos)):
        assert type(N) is int
        d = sum(e)
        out.append((jac * F(N, math.factorial(n - 1 + d) * D_P**d),
                    c * jac * F(N, math.factorial(n + d) * D_P**d)))
    return out


def test_cell_moments_match_simplex_pullback():
    # the interior share of a facet cell is the signed cone from the origin
    # over it: sign(L_j(0)) times the integral over conv(0, cell)
    for n, cell, xi, c in _corpus_facet_cells():
        expos = monomials_up_to(n, 5)
        got = [m for _, m in _cell_values(cell, xi, c, expos)]
        if c == 0:
            assert got == [0] * len(expos)
            continue
        sign = 1 if c > 0 else -1
        cone = Simplex(((F(0),) * n,) + cell)
        assert got == [sign * integrate_simplex(mono(n, e), cone) for e in expos]


def test_cell_moments_match_facet_cell_pullback():
    # n = 1 is the point cell of an interval's boundary: jac * w_0^a
    for n, cell, xi, c in _corpus_facet_cells():
        expos = monomials_up_to(n, 5)
        got = [b for b, _ in _cell_values(cell, xi, c, expos)]
        assert got == [integrate_facet_cell(mono(n, e), cell, xi) for e in expos]


def _exponent(draw, n, top):
    """An exponent of n variables and degree <= top."""
    left, e = draw(st.integers(0, top)), []
    for _ in range(n - 1):
        e.append(draw(st.integers(0, left)))
        left -= e[-1]
    return tuple(e) + (left,)


@st.composite
def _cells(draw):
    """(verts, D_P, expos): a cell of 1 to n + 1 vertices in ambient dim
    n = 1..3, coordinate denominators up to 10^6, D_P a multiple of the
    cell's lcm, and exponents of degree 0..8 in any order."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
    verts = tuple(
        tuple(draw(coord) for _ in range(n)) for _ in range(draw(st.integers(1, n + 1)))
    )
    D_P = math.lcm(*(x.denominator for v in verts for x in v)) * draw(st.integers(1, 30))
    expos = [_exponent(draw, n, 8) for _ in range(draw(st.integers(0, 8)))]
    return verts, D_P, expos


@settings(max_examples=150, deadline=None)
@given(_cells())
@example((((F(1, 3),),), 6, [(8,), (0,), (3,)]))
@example((((F(1, 2), F(-1, 7)), (F(0), F(2, 5))), 70 * 3, [(0, 0), (4, 4), (1, 0)]))
def test_cell_moments_equal_the_power_tree(cell):
    verts, D_P, expos = cell
    assert _numerators(_rows(verts, D_P), expos) == cell_moments_power_tree(*cell)
    # a weight scales the whole series
    rows, top = _rows(verts, D_P), max(map(sum, expos), default=0)
    assert _cell_moments(rows, top, -7) == [-7 * x for x in _cell_moments(rows, top)]


def test_fill_never_calls_barycentric_powers(monkeypatch):
    import wkstab.bernstein as bernstein
    import wkstab.measure as measure

    calls = []
    original = bernstein._barycentric_powers

    def counting(E, Y):
        calls.append(len(Y))
        return original(E, Y)

    monkeypatch.setattr(bernstein, "_barycentric_powers", counting)
    assert not hasattr(measure, "_barycentric_powers")
    # uncached copies: an interned fiber's record may be filled higher by
    # an earlier test
    for Q in (interval(), hexagon(), simplex3(), clip(simplex3(), AffineFunc([1, -1, 1], F(-1, 4)))):
        P = from_halfspaces(Q.labels)
        *_, inner, outer = _fill(P, 4)
        assert len(inner) == len(outer) == len(monomials_up_to(P.dim, 4))
    assert calls == []
    # the power tree is still bernstein's; its cell rows are cached, so an
    # earlier test may have built the row of x0^2 already
    bernstein._cell.cache_clear()
    bernstein.bernstein_coefficients(Polynomial.variable(2, 0) ** 2, Simplex(triangle().vertices))
    assert calls == [3]


def _rational_box():
    """A box with square facets of two cells each, label constants 1/2, 2/3
    and 3/4 and one gradient 2."""
    return from_halfspaces([
        AffineFunc([1, 0, 0], F(1, 2)), AffineFunc([-1, 0, 0], 1),
        AffineFunc([0, 1, 0], F(2, 3)), AffineFunc([0, -1, 0], 1),
        AffineFunc([0, 0, 2], 1), AffineFunc([0, 0, -1], F(3, 4)),
    ])


@st.composite
def _cut_polytopes(draw):
    """A fresh copy of the interval, the triangle, the 3-simplex or the
    rational box, cut by up to two random rational labels."""
    P = draw(st.sampled_from([interval, triangle, simplex3, _rational_box]))()
    cut = st.builds(
        AffineFunc,
        st.lists(st.integers(-3, 3), min_size=P.dim, max_size=P.dim).filter(any),
        st.fractions(min_value=-2, max_value=2, max_denominator=7),
    )
    P = from_halfspaces(P.labels)  # uncached: no record filled by an earlier test
    try:
        for h in draw(st.lists(cut, max_size=2)):
            P = clip(P, h)
    except EmptyInterior:
        assume(False)
    return P


@settings(max_examples=80, deadline=None)
@given(_cut_polytopes(), st.integers(0, 6))
@example(None, 6)
def test_fill_by_facets_equals_the_fill_by_cells(P, top):
    # summing each facet's cell series and dividing the sum by L_j(0)'s
    # denominator builds the record the per-cell accumulation builds
    P = P or _rational_box()
    want = fill_by_cells(P, top)
    assert P.moments is None
    D_P, J, T, inner, outer = _fill(P, top)
    assert (D_P, J, T) == want[:3]
    assert inner == want[3] and outer == want[4]


@st.composite
def _placed_polytopes(draw):
    """A scaled standard simplex in dims 1-3 cut by up to two random labels,
    moved so that the origin lies inside, outside, on a facet or at a vertex."""
    dim = draw(st.integers(1, 3))
    t = draw(st.sampled_from([F(1), F(2), F(1, 2)]))
    cut = st.builds(
        AffineFunc,
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
        st.fractions(min_value=-1, max_value=2, max_denominator=3),
    )
    P = standard_fiber_polytope(dim, t)
    try:
        for h in draw(st.lists(cut, max_size=2)):
            P = clip(P, h)
    except EmptyInterior:
        assume(False)
    return draw(st.sampled_from(_origin_placements(P)))


@settings(max_examples=40, deadline=None)
@given(_placed_polytopes())
def test_euler_stokes_moments_match_the_triangulations(P):
    # the table's interior moments come from the facets alone; they must
    # equal the fan triangulation of P, monomial by monomial
    cells = triangulate(P)
    for e in monomials_up_to(P.dim, 5):
        p = mono(P.dim, e)
        assert integrate(p, P) == sum(integrate_simplex(p, s) for s in cells)
        assert integrate_boundary(p, P) == sum(
            integrate_facet(p, P, j) for j in range(P.n_facets)
        )


def _delta(P, d, boundary):
    """The table's denominator of degree d: (l + d)! (interior) or
    (l - 1 + d)! (boundary), times D_P^d J."""
    D_P, J = P.moments[:2]
    return math.factorial(P.dim - boundary + d) * D_P**d * J


@settings(max_examples=30, deadline=None)
@given(_placed_polytopes())
def test_moment_table_holds_integers_over_the_degree_denominators(P):
    # every interior and boundary moment of degree <= 5 is an integer over
    # the one interior denominator Delta_5, and a read at top 4 keeps that
    # record: its rows over Delta_4 are the same moments
    expos = _monomials(P.dim, 5)
    record = D_P, J, T, inner, outer = _fill(P, 5)
    assert sorted(expos) == sorted(monomials_up_to(P.dim, 5))
    assert T == 5 and len(inner) == len(outer) == len(expos)
    assert all(type(N) is int for N in (D_P, J, *inner, *outer))
    assert D_P == math.lcm(*(x.denominator for vtx in P.vertices for x in vtx))
    n4 = _monomials(P.dim, 4)
    rows, delta = _moment_rows(P, [([((0,) * P.dim, 1)], n4, b) for b in (False, True)], 4)
    assert P.moments is record and delta == _delta(P, 4, False)
    cells = triangulate(P)
    for i, (e, m, b) in enumerate(zip(expos, inner, outer)):
        p = mono(P.dim, e)
        interior = sum(integrate_simplex(p, s) for s in cells)
        boundary = sum(integrate_facet(p, P, j) for j in range(P.n_facets))
        assert F(m, _delta(P, 5, False)) == interior
        assert F(b, _delta(P, 5, False)) == boundary
        if i < len(n4):
            assert (F(rows[0][i], delta), F(rows[1][i], delta)) == (interior, boundary)


@settings(max_examples=30, deadline=None)
@given(_placed_polytopes(), st.integers(0, 4), st.integers(0, 4))
def test_split_fills_build_the_same_table(P, d1, d2):
    # D_P and J depend on P alone, so a record filled to d1 and then to d2
    # is the one filled straight to the larger degree, D_P and J included,
    # and a lower fill is its prefix
    records = []
    for order in ((max(d1, d2),), (d1, d2), (d2, d1), (min(d1, d2),)):
        Q = from_halfspaces(P.labels)
        for d in order:
            _fill(Q, d)
        records.append(Q.moments)
    assert records[0] == records[1] == records[2]
    D_P, J, hi, inner, outer = records[0]
    lo = min(d1, d2)
    n, k = len(_monomials(P.dim, lo)), math.perm(P.dim + hi, hi - lo) * D_P ** (hi - lo)
    assert records[3] == (D_P, J, lo, *([N // k for N in t[:n]] for t in (inner, outer)))
    assert all(N % k == 0 for t in (inner, outer) for N in t[:n])


@settings(max_examples=60, deadline=None)
@given(_placed_polytopes(), st.data())
def test_dot_product_reads_match_the_tuple_reads(P, data):
    # random integer terms and exponent lists, both boundary flags, and
    # each read either on a record filled to its own top or on one filled
    # higher first (whose scaled tables for the higher top exist already)
    expos = st.sampled_from(monomials_up_to(P.dim, 3))
    terms = list(data.draw(st.dictionaries(expos, st.integers(-50, 50), max_size=4)).items())
    bs = data.draw(st.lists(expos, max_size=6))
    degrees = [sum(a) for a, _ in terms] or [0]
    top = max(degrees) + max(map(sum, bs), default=0) + data.draw(st.integers(0, 2))
    requests = [(terms, bs, True), (terms, bs, False)]
    higher = top + data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        _moment_rows(P, requests, higher)
    assert _moment_rows(P, requests, top) == moment_rows_by_tuple(P, requests, top)
    assert _moment_rows(P, requests, higher) == moment_rows_by_tuple(P, requests, higher)
    assert _moment_rows(P, requests, top) == moment_rows_by_tuple(P, requests, top)


@pytest.mark.parametrize("top", [0, 1, 2, 3])
def test_a_read_past_top_raises_and_never_wraps(top):
    # with the record filled past top, position top + 1 exists in the
    # record, but a read of degree top + 1 against top must still fail: the
    # positions stop at top
    P = triangle()
    _fill(P, top + 3)
    request = [([((1, 0), 1)], [(0, top)], False)]
    with pytest.raises(LookupError):
        _moment_rows(P, request, top)
    with pytest.raises(LookupError):
        moment_rows_by_tuple(P, request, top)
    with pytest.raises(KeyError):
        _positions(2, top, ((1, 0),), ((0, top),))
    _moment_rows(P, [([((1, 0), 1)], [], False)], top)
    assert P.moments[2] >= top + 3  # a lower read keeps the record
    at = _positions(2, top, ((1, 0),), _monomials(2, top - 1))
    assert sorted(i for [i] in at) == [i for i, e in enumerate(_monomials(2, top)) if e[0] >= 1]


def _rational_polys(dim):
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=343)
    return st.dictionaries(
        st.sampled_from(monomials_up_to(dim, 2)), coeffs, max_size=4
    ).map(lambda terms: Polynomial(dim, terms))


@settings(max_examples=30, deadline=None)
@given(
    _placed_polytopes().flatmap(
        lambda P: st.tuples(st.just(P), *[_rational_polys(P.dim)] * 2)
    ),
    st.booleans(),
)
def test_pair_with_large_denominators_is_the_integral_of_the_product(case, boundary):
    P, f, g = case
    if boundary:
        expected = sum(integrate_facet(f * g, P, j) for j in range(P.n_facets))
    else:
        expected = sum(integrate_simplex(f * g, s) for s in triangulate(P))
    assert _pair(f, g, P, boundary) == expected


PAIR_PIECES = (
    hexagon,
    lambda: clip(interval(), AffineFunc([1], F(1, 3))),
    lambda: clip(triangle(), AffineFunc([1, 2], F(-1, 2))),
    lambda: clip(simplex3(), AffineFunc([1, -1, 1], F(-1, 4))),
)


def polys(dim):
    # empty term maps give the zero polynomial
    return st.dictionaries(
        st.sampled_from(monomials_up_to(dim, 3)), small_rationals, max_size=5
    ).map(lambda terms: Polynomial(dim, terms))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PAIR_PIECES).flatmap(
        lambda make: st.tuples(st.just(make), *[polys(make().dim)] * 2)
    ),
    st.booleans(),
)
@example((hexagon, Polynomial.zero(2), Polynomial.constant(2, 1)), True)
@example((hexagon, Polynomial.variable(2, 1), Polynomial.zero(2)), False)
def test_pair_is_the_moment_of_the_product(case, boundary):
    make, f, g = case
    # separate tables, so each side fills its own monomials
    read = integrate_boundary if boundary else integrate
    assert _pair(f, g, make(), boundary) == read(f * g, make())


def test_table_fill_never_calls_compose_affine(monkeypatch):
    from wkstab import AffineFunc
    from wkstab.polytope import clip
    from wkstab.probe import Crease

    calls = []
    original = Polynomial.compose_affine

    def counting(self, A, b):
        calls.append(len(A))
        return original(self, A, b)

    monkeypatch.setattr(Polynomial, "compose_affine", counting)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + 2 * y) ** 4 + x * y - 7
    P = hexagon()
    integrate(p, P)
    integrate_boundary(p, P)
    assert P.moments and calls == []
    # the verification path pulls whole polynomials back, independent of the table
    h = AffineFunc([1, 1], F(-1, 3))
    crease = Crease(h, clip(P, h))
    v = Polynomial.constant(2, 1)
    w = Polynomial.constant(2, 3)
    assert crease.df_value_direct(v, w) == crease.df_value(v, w)
    assert calls


@settings(max_examples=30, deadline=None)
@given(_placed_polytopes(), st.integers(0, 3), st.integers(1, 3), st.data())
def test_a_read_below_the_filled_degree_is_the_fresh_read(P, top, extra, data):
    # after a fill to T = top + extra, reads at top give the rows and the
    # Delta_top of a copy filled to top alone, interior and boundary
    expos = monomials_up_to(P.dim, top)
    terms = list(data.draw(
        st.dictionaries(st.sampled_from(expos), st.integers(-50, 50), max_size=4)).items())
    d = max((sum(a) for a, _ in terms), default=0)
    bs = data.draw(st.lists(st.sampled_from([b for b in expos if sum(b) <= top - d]), max_size=6))
    requests = [(terms, bs, True), (terms, bs, False)]
    filled, fresh = from_halfspaces(P.labels), from_halfspaces(P.labels)
    _fill(filled, top + extra)
    assert _moment_rows(filled, requests, top) == _moment_rows(fresh, requests, top)
    assert (filled.moments[2], fresh.moments[2]) == (top + extra, top)
