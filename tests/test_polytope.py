import copy
import itertools
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from _reference_fraction import (
    cell_jacobian_det,
    clip_fraction,
    from_halfspaces_by_rank,
    from_halfspaces_recession_first,
    triangulate_by_labels,
    triangulate_facet_by_labels,
)
from conftest import cube, hexagon, interior_points, interval, simplex3, square, triangle
from wkstab import (
    AffineFunc,
    EmptyInterior,
    NotInterior,
    PolytopeError,
    RedundantLabel,
    Simplex,
    UnboundedPolytope,
    Polynomial,
    cone_decomposition,
    crease_family,
    from_halfspaces,
    integrate,
    integrate_boundary,
    monotone_point,
    standard_fiber_polytope,
    triangulate,
)
from wkstab import polytope
from wkstab.exact import _cleared_points, affine_rank
from wkstab.measure import integrate_facet
from wkstab.polytope import _cell_jacobian, clip, triangulate_facet
from _frozen import CLIP_TRIANGLE_VERTICES


def test_interval_vertices():
    P = interval()
    assert set(P.vertices) == {(F(-1),), (F(1),)}
    assert P.n_facets == 2


def test_triangle_vertices_and_incidence():
    P = triangle()
    assert set(P.vertices) == {(F(-1), F(-1)), (F(2), F(-1)), (F(-1), F(2))}
    # each vertex lies on exactly two facets, each facet has two vertices
    assert all(len(inc) == 2 for inc in P.facet_incidence)
    assert P.is_simple()


def test_square_and_hexagon():
    assert len(square().vertices) == 4
    hexa = hexagon()
    assert len(hexa.vertices) == 6
    assert set(hexa.vertices) == {
        (F(1), F(0)),
        (F(1), F(-1)),
        (F(0), F(-1)),
        (F(-1), F(0)),
        (F(-1), F(1)),
        (F(0), F(1)),
    }


def test_contains_and_interior():
    P = triangle()
    assert P.contains((F(0), F(0)))
    assert P.is_interior((F(0), F(0)))
    assert P.contains((F(-1), F(-1)))  # vertex: on the boundary
    assert not P.is_interior((F(-1), F(-1)))
    assert not P.contains((F(3), F(0)))


def test_unbounded_raises_with_ray():
    with pytest.raises(UnboundedPolytope) as info:
        from_halfspaces([AffineFunc([1, 0], 1), AffineFunc([0, 1], 1)])
    ray = info.value.ray
    assert any(r != 0 for r in ray)
    # the ray really is a recession direction for both halfspaces
    assert ray[0] >= 0 and ray[1] >= 0
    # printed the way reports print rationals
    assert str(info.value) == "halfspaces describe an unbounded set (recession ray (0, 1))"
    assert str(UnboundedPolytope((F(1, 2), F(-3)))) == (
        "halfspaces describe an unbounded set (recession ray (1/2, -3))"
    )


def test_empty_interior_raises():
    with pytest.raises(EmptyInterior):
        from_halfspaces(
            [
                AffineFunc([1], 0),
                AffineFunc([-1], 0),
            ]
        )


def test_redundant_label_raises_and_drops():
    labels = [
        AffineFunc([1], 1),
        AffineFunc([-1], 1),
        AffineFunc([1], 5),  # never active
    ]
    with pytest.raises(RedundantLabel) as info:
        from_halfspaces(labels)
    assert info.value.index == 2
    P = clip(from_halfspaces(labels[:2]), labels[2])  # clip drops it
    assert P == from_halfspaces(labels[:2])
    with pytest.raises(RedundantLabel):
        from_halfspaces([AffineFunc([0, 0], 1), AffineFunc([1, 0], 1)])


def test_standard_fiber_polytope_interval():
    P = standard_fiber_polytope(1, 1)
    assert set(P.vertices) == {(F(-1),), (F(1),)}
    P2 = standard_fiber_polytope(1, F(1, 2))
    assert set(P2.vertices) == {(F(-1, 2),), (F(1, 2),)}


def test_monotone_point_cases():
    assert monotone_point(triangle()) == ((F(0), F(0)), F(1))
    assert monotone_point(triangle(F(2))) == ((F(0), F(0)), F(2))
    assert monotone_point(square()) == ((F(0), F(0)), F(1))
    assert monotone_point(hexagon()) == ((F(0), F(0)), F(1))
    # rescaling one label breaks monotonicity for the rectangle
    P = from_halfspaces(
        [
            AffineFunc([2, 0], 2),  # same halfspace, label doubled
            AffineFunc([-1, 0], 1),
            AffineFunc([0, 1], 1),
            AffineFunc([0, -1], 1),
        ]
    )
    assert monotone_point(P) is None


def test_monotone_point_is_solved_once_per_polytope(monkeypatch):
    from wkstab import polytope

    polytope._interned.cache_clear()  # a standard fiber built before is shared
    P = triangle(F(2))
    Q = from_halfspaces(
        [AffineFunc([2, 0], 2), AffineFunc([-1, 0], 1), AffineFunc([0, 1], 1), AffineFunc([0, -1], 1)]
    )
    calls = []
    solve = polytope.solve_general
    monkeypatch.setattr(polytope, "solve_general", lambda A, b: calls.append(1) or solve(A, b))
    for _ in range(3):
        assert monotone_point(P) == ((F(0), F(0)), F(2))
        assert monotone_point(Q) is None  # a None answer is kept too
    assert len(calls) == 2
    R = pickle.loads(pickle.dumps(P))  # a derived value: not pickled
    assert R == P and monotone_point(R) == monotone_point(P)
    assert len(calls) == 3


def test_triangulate_simplices_cover_volume():
    for P in (triangle(), square(), hexagon()):
        cells = triangulate(P)
        assert all(isinstance(s, Simplex) and s.k == P.dim for s in cells)


def test_triangulate_facet_interval():
    P = interval()
    for j in range(2):
        cells = triangulate_facet(P, j)
        assert cells == [(P.facet_vertices(j)[0],)]


def test_cone_decomposition_requires_interior():
    P = triangle()
    with pytest.raises(NotInterior):
        cone_decomposition(P, (F(-1), F(-1)))
    dec = cone_decomposition(P, (F(0), F(0)))
    assert dec.x0 == (F(0), F(0))
    # one entry per facet; each edge of a triangle cones to a single cell
    assert len(dec.cones) == 3
    assert all(len(cells) == 1 for cells in dec.cones)
    for j, cells in enumerate(dec.cones):
        for cell in cells:
            assert dec.x0 in cell.vertices
            assert set(P.facet_vertices(j)) <= set(cell.vertices) | {dec.x0}


def test_clip_triangle_by_halfspace():
    P = triangle()
    Q = clip(P, AffineFunc([1, 0], 0))  # keep x1 >= 0
    assert set(Q.vertices) == CLIP_TRIANGLE_VERTICES
    # the inherited labels keep their scaling; the cut facet gets the new label
    assert Q.n_facets == 3


@pytest.mark.parametrize(
    "P, r",
    [(triangle(), 3), (interval(), 3), (simplex3(), 1), (cube(), 1)],
    ids=["triangle", "interval", "simplex3", "cube"],
)
def test_clip_matches_from_halfspaces_on_crease_family(P, r):
    # clip builds the piece from P's vertices and incidence; the polytope it
    # builds is the one the rank-based loop builds from the labels
    family = crease_family(P, (F(0),) * P.dim, r)
    assert family
    for crease in family:
        Q = clip(P, crease.h)
        R = from_halfspaces_by_rank(P.labels + (crease.h,), P.dim, True)
        assert Q.labels == R.labels
        assert Q.vertices == R.vertices
        assert Q.facet_incidence == R.facet_incidence
    with pytest.raises(RedundantLabel):  # as from_halfspaces: a constant cuts no facet
        clip(P, AffineFunc([0] * P.dim, 1))


def test_clip_never_enumerates_vertices(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("clip enumerated vertices")

    P = triangle()
    monkeypatch.setattr(polytope, "_enumerate_vertices", no_enumeration)
    assert crease_family(P, (F(0), F(0)), 3)


def _octahedron():
    # non-simple: four facets meet at each vertex
    return from_halfspaces([AffineFunc(g, 1) for g in itertools.product((1, -1), repeat=3)])


def _square_pyramid():
    # non-simple at the apex (0, 0, 1) over the square [-1, 1]^2 at z = 0
    sides = [(-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)]
    return from_halfspaces([AffineFunc((0, 0, 1), 0)] + [AffineFunc(g, 1) for g in sides])


_CLIP_BASES = [interval(), triangle(), simplex3(), cube(), _octahedron(), _square_pyramid()]


@st.composite
def _cut(draw, P):
    """An integer-gradient cut of P: random, through a vertex, touching a
    face of P from either side (h >= 0 on P, or a piece with no interior),
    or missing P from either side."""
    g = draw(st.lists(st.integers(-3, 3), min_size=P.dim, max_size=P.dim).filter(any))
    values = [sum(gi * xi for gi, xi in zip(g, v)) for v in P.vertices]
    kind = draw(st.sampled_from(["random", "vertex", "face", "miss"]))
    if kind == "random":
        c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    elif kind == "vertex":
        c = -draw(st.sampled_from(values))
    else:
        gap = 0 if kind == "face" else draw(st.fractions(min_value=F(1, 3), max_value=2))
        if draw(st.booleans()):
            return AffineFunc(g, gap - min(values))  # h >= 0 (or > 0) on P
        g, c = [-gi for gi in g], max(values) - gap  # h <= 0 (or < 0) on P
    return AffineFunc(g, c)


def _clip_outcome(build):
    try:
        Q = build()
    except EmptyInterior as exc:
        return EmptyInterior, str(exc)
    return Q.labels, Q.vertices, Q.facet_incidence


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=st.sampled_from(range(len(_CLIP_BASES))), twice=st.booleans())
def test_clip_matches_the_vertex_enumeration_oracle(data, base, twice):
    P = _CLIP_BASES[base]
    if twice:  # cut a clipped piece again
        first = data.draw(_cut(P))
        if first(P.vertex_centroid()) > 0:
            P = clip(P, first)
    h = data.draw(_cut(P))
    oracle = _clip_outcome(lambda: from_halfspaces_by_rank(P.labels + (h,), P.dim, True))
    assert _clip_outcome(lambda: clip(P, h)) == oracle


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _rational_cut(draw, P):
    """A cut of P with a rational, often non-unit gradient: random, through
    a vertex, or touching P only at a vertex or only along a facet (from
    outside, a piece with no interior, or from inside, a redundant h)."""
    kind = draw(st.sampled_from(["random", "vertex", "touch-vertex", "touch-facet"]))
    if kind == "touch-facet":
        L = draw(st.sampled_from(P.labels))
        k = draw(st.fractions(min_value=F(1, 5), max_value=3))
        g, c = [-k * x for x in L.gradient], -k * L.constant  # -k L: zero on one facet
    else:
        g = draw(st.lists(_RATIONALS, min_size=P.dim, max_size=P.dim).filter(any))
        values = [sum(gi * xi for gi, xi in zip(g, v)) for v in P.vertices]
        if kind == "random":
            c = draw(st.fractions(min_value=-4, max_value=4, max_denominator=7))
        elif kind == "vertex":
            c = -draw(st.sampled_from(values))
        else:
            c = -max(values)  # h <= 0 on P, zero where g is largest
    h = AffineFunc(g, c)
    return -h if kind.startswith("touch") and draw(st.booleans()) else h


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=st.sampled_from(range(len(_CLIP_BASES))))
def test_clip_matches_from_halfspaces_and_the_rank_rule(data, base):
    # emptiness by the sign of h at the vertices is the old affine-rank rule,
    # and the piece is the polytope the rank-based loop builds from the labels
    P = _CLIP_BASES[base]
    h = data.draw(_rational_cut(P))
    got = _clip_outcome(lambda: clip(P, h))
    assert got == _clip_outcome(lambda: clip_fraction(P, h))
    assert got == _clip_outcome(lambda: from_halfspaces_by_rank(P.labels + (h,), P.dim, True))


def test_clip_decides_emptiness_by_sign():
    # triangle vertices (-1, -1), (2, -1), (-1, 2)
    P = triangle()
    touch_vertex = AffineFunc([F(-3, 2), F(-3, 2)], -3)  # zero only at (-1, -1)
    touch_facet = AffineFunc([F(-2, 3), 0], F(-2, 3))  # zero only on x1 = -1
    miss = AffineFunc([F(-1, 2), F(-1, 2)], -2)  # negative on all of P
    for h in (touch_vertex, touch_facet, miss):
        for build in (clip, clip_fraction):
            with pytest.raises(EmptyInterior):
                build(P, h)
    for h in (-touch_vertex, -touch_facet, -miss):  # h >= 0 on P: h is redundant
        assert clip(P, h) == clip_fraction(P, h) == P
    sliver = AffineFunc([F(-3, 2), F(-3, 2)], F(-2999, 1000))  # cuts off a corner
    assert clip(P, sliver).vertices == clip_fraction(P, sliver).vertices


_JAC_COORDS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.lists(_JAC_COORDS, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
    st.lists(_JAC_COORDS, min_size=dim, max_size=dim).filter(any),
)))
@example(([[F(1, 2)]], [F(-3, 4)]))
@example(([[0, 0], [F(3, 2), F(-1, 3)]], [0, F(-5, 2)]))
@example(([[0, 1, 2], [F(1, 3), 0, 0], [1, 1, F(-7, 2)]], [0, 0, -3]))
def test_cell_jacobian_is_one_minor_of_the_transversal_determinant(case):
    verts, g = case
    verts = tuple(tuple(F(x) for x in w) for w in verts)
    g = tuple(F(x) for x in g)
    i = next(i for i, gi in enumerate(g) if gi)
    xi = tuple(1 / gi if r == i else F(0) for r, gi in enumerate(g))
    D, U = _cleared_points(verts)
    n, d = _cell_jacobian(U, D, g)
    assert type(n) is type(d) is int and d > 0
    assert F(n, d) == cell_jacobian_det(verts, xi)


def test_a_second_clip_reads_the_vertex_record(monkeypatch):
    # clip reads P's integer vertex record and hands each piece its own: a
    # piece's vertices are cleared once, when clip makes it, and never again;
    # from_halfspaces already cleared triangle()'s
    calls = []

    def counting(points):
        calls.append(sorted(points))
        return _cleared_points(points)

    monkeypatch.setattr(polytope, "_cleared_points", counting)
    Q = clip(triangle(), AffineFunc([1, 2], F(-1, 2)))
    record = Q.cleared
    assert calls == [list(Q.vertices)]
    calls.clear()
    cuts = [AffineFunc([-1, 1], F(1, 3)), AffineFunc([0, 1], F(-1, 5)), AffineFunc([3, -1], 2)]
    pieces = [clip(Q, h) for h in cuts]
    assert calls == [list(R.vertices) for R in pieces] and Q.cleared is record
    D, U, zeros = Q.cleared
    assert (D, U) == _cleared_points(Q.vertices)
    assert zeros == tuple(
        sum(1 << j for j, inc in enumerate(Q.facet_incidence) if i in inc)
        for i in range(len(Q.vertices))
    )
    assert [(R.labels, R.vertices, R.facet_incidence) for R in pieces] == [
        (R.labels, R.vertices, R.facet_incidence) for R in (clip_fraction(Q, h) for h in cuts)
    ]


def _record_of(Q):
    """Q's vertex record built from its vertices and incidence alone."""
    zeros = tuple(sum(1 << j for j, inc in enumerate(Q.facet_incidence) if i in inc)
                  for i in range(len(Q.vertices)))
    return (*_cleared_points(Q.vertices), zeros)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=st.sampled_from(range(len(_CLIP_BASES))), twice=st.booleans())
@example(data=None, base=1, twice=False)
def test_clip_hands_the_piece_its_vertex_record(data, base, twice):
    # the record clip leaves on the piece is the one _vertex_record would
    # build: its vertices cleared over their own lcm, and the zero masks
    # re-indexed to the labels the piece keeps
    P = _CLIP_BASES[base]
    cuts = [AffineFunc([1, 2], F(-1, 2)), AffineFunc([-1, 1], F(1, 3))]
    if data is not None:
        cuts = [data.draw(_rational_cut(P)) for _ in range(1 + twice)]
    for h in cuts:
        try:
            P = clip(P, h)
        except EmptyInterior:
            return
        assert P.cleared == _record_of(P)
        assert all(type(y) is int for u in P.cleared[1] for y in u)


def test_clip_sorts_the_vertices_on_integers(monkeypatch):
    # the piece's vertices are ordered by their integer rows, so no two
    # Fractions are compared; the order is the one of the Fraction tuples
    import fractions

    compared = []

    def counting(name):
        original = getattr(fractions.Fraction, name)

        def compare(self, other):
            compared.append(name)
            return original(self, other)
        return compare

    cases = [(triangle(), AffineFunc([1, 2], F(-1, 2))),
             (simplex3(), AffineFunc([1, -1, 1], F(-1, 4))),
             (cube(), AffineFunc([2, 1, -1], F(1, 3)))]
    want = [clip_fraction(P, h).vertices for P, h in cases]
    monkeypatch.setattr(fractions.Fraction, "__lt__", counting("__lt__"))
    monkeypatch.setattr(fractions.Fraction, "__eq__", counting("__eq__"))
    got = [clip(P, h) for P, h in cases]
    monkeypatch.undo()
    assert compared == []
    assert [Q.vertices for Q in got] == want
    assert all(Q.vertices == tuple(sorted(Q.vertices)) for Q in got)


def test_clip_empty_piece_raises():
    P = interval()
    with pytest.raises(EmptyInterior):
        clip(P, AffineFunc([1], -1))  # x >= 1 touches only a point


def test_interior_points_helper(corpus):
    for P in corpus.values():
        for x in interior_points(P):
            assert P.is_interior(x)


def test_vertex_centroid_interior(corpus):
    for P in corpus.values():
        assert P.is_interior(P.vertex_centroid())


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy])
def test_polytope_round_trips_through_pickle_and_copy(clone):
    P = standard_fiber_polytope(2, 1)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = x * x * y + 3 * y - 1
    before = integrate(p, P)
    assert P.moments
    Q = clone(P)
    assert Q == P and hash(Q) == hash(P)
    assert Q.vertices == P.vertices and Q.facet_incidence == P.facet_incidence
    assert Q.moments is None  # a derived cache: the copy refills its own
    assert P.facet_cells is not None and Q.facet_cells is None  # so are the cells
    assert integrate(p, Q) == before == integrate(p, P)
    assert Q.facet_cells == P.facet_cells
    assert integrate_boundary(p, Q) == integrate_boundary(p, P)
    with pytest.raises(AttributeError):
        Q.dim = 3


# ------------------------------------------------- the Minkowski certificate


def _outcome(build, labels):
    try:
        P = build(labels)
    except Exception as exc:  # the type and the message must agree
        return type(exc), str(exc)
    return P.labels, P.vertices, P.facet_incidence


@st.composite
def _label_sets(draw):
    """Small label sets in dims 1-3: random labels, optionally on top of a
    scaled standard simplex (bounded, often redundant), or with a scaled copy
    of one label (a repeated facet)."""
    dim = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    label = st.builds(
        AffineFunc,
        st.lists(entry, min_size=dim, max_size=dim).filter(any),
        st.fractions(min_value=-2, max_value=3, max_denominator=2),
    )
    on_simplex = draw(st.booleans())
    labels = draw(st.lists(label, min_size=1 - on_simplex, max_size=dim + 3))
    if on_simplex:
        t = draw(st.sampled_from([F(1), F(2), F(1, 2)]))
        labels = list(standard_fiber_polytope(dim, t).labels) + labels
    if draw(st.booleans()):
        labels.append(labels[draw(st.integers(0, len(labels) - 1))] * 2)
    return draw(st.permutations(labels))


@settings(max_examples=150, deadline=None)
@given(labels=_label_sets())
def test_certificate_matches_recession_first_oracle(labels):
    expected = _outcome(from_halfspaces_recession_first, labels)
    assert _outcome(from_halfspaces, labels) == expected


_LOOP_ACCEPTS_UNBOUNDED = [
    AffineFunc(g, c)
    for g, c in [
        ((-2, -1, 0), 0), ((-1, -2, 2), 2), ((-2, 0, -1), 3),
        ((0, -2, 0), 2), ((-1, 1, -1), 3), ((2, 1, 2), 1),
    ]
]


def test_loop_alone_accepts_an_unbounded_set():
    P = polytope._from_bounded_halfspaces(tuple(_LOOP_ACCEPTS_UNBOUNDED), 3)
    assert P.n_facets == 6
    assert not polytope._minkowski_relation_holds(P)


@pytest.mark.parametrize(
    "labels, error",
    [
        # a cone: the loop finds one vertex and raises EmptyInterior first
        ([AffineFunc([1, 0], 0), AffineFunc([0, 1], 0)], UnboundedPolytope),
        # a strip: no vertex at all
        ([AffineFunc([1, 0], 1), AffineFunc([-1, 0], 1)], UnboundedPolytope),
        # unbounded, yet the loop accepts it (every facet has three affinely
        # independent vertices): only the relation can catch it
        (_LOOP_ACCEPTS_UNBOUNDED, UnboundedPolytope),
        # bounded with empty interior: the loop's own error survives
        ([AffineFunc([1], 0), AffineFunc([-1], 0)], EmptyInterior),
    ],
)
@pytest.mark.parametrize("redundant", [False, True])
def test_fallback_error_precedence(labels, error, redundant):
    # a repeated label is redundant, yet unboundedness and an empty interior
    # still come first
    labels = labels + [labels[0] * 2] if redundant else labels
    with pytest.raises(error) as info:
        from_halfspaces(labels)
    assert _outcome(from_halfspaces_recession_first, labels) == (error, str(info.value))


def _sigma(P, j):
    """Facet j's labelled measure on the independent pullback path."""
    return integrate_facet(Polynomial.constant(P.dim, 1), P, j)


def _assert_relation(P):
    sigma = [_sigma(P, j) for j in range(P.n_facets)]
    assert all(s > 0 for s in sigma)
    for i in range(P.dim):
        assert sum(s * L.gradient[i] for s, L in zip(sigma, P.labels)) == 0
    scale = math.factorial(P.dim - 1)
    assert [polytope._facet_measure(P, j) for j in range(P.n_facets)] == [
        scale * s for s in sigma
    ]
    assert polytope._minkowski_relation_holds(P)


def test_relation_holds_on_the_certify_fibers(corpus):
    # the six fibers of the certify benchmark, and the interval
    for P in corpus.values():
        _assert_relation(P)


def test_relation_holds_on_every_crease_piece():
    P = triangle()
    family = crease_family(P, (F(0), F(0)), 3)
    assert family
    for crease in family:
        _assert_relation(crease.positive)
        _assert_relation(clip(P, -crease.h))


@pytest.mark.parametrize(
    "factors",
    [
        (-1, 1, 1, 1),  # sign-flipped: the x-coordinate of the relation fails
        (1, 1, 2, 1),  # only the y-coordinate fails
        (-1, -1, -1, -1),  # the relation holds, positivity fails
    ],
    ids=["flip-x", "scale-y", "flip-all"],
)
def test_wrong_facet_measures_raise_arithmetic_error(monkeypatch, factors):
    labels = square().labels  # x + 1, 1 - x, y + 1, 1 - y
    original = polytope._facet_measure
    monkeypatch.setattr(polytope, "_facet_measure", lambda P, j: factors[j] * original(P, j))
    with pytest.raises(ArithmeticError, match="Minkowski"):
        from_halfspaces(labels)


def test_bounded_input_never_searches_for_a_ray(monkeypatch, corpus):
    def no_ray(*args):
        raise AssertionError("_recession_ray ran on a bounded input")

    monkeypatch.setattr(polytope, "_recession_ray", no_ray)
    for P in corpus.values():
        Q = from_halfspaces(P.labels)
        assert (Q.labels, Q.vertices, Q.facet_incidence) == (
            P.labels, P.vertices, P.facet_incidence
        )


# ------------------------------------------------- faces off the incidence


def _assert_faces_match_the_label_rule(P):
    # the incidence rule gives the cells the label-evaluating, rank-testing
    # triangulation gives, and every cell of P is full-dimensional
    for j in range(P.n_facets):
        assert triangulate_facet(P, j) == triangulate_facet_by_labels(P, j)
    cells = triangulate(P)
    assert [cell.vertices for cell in cells] == triangulate_by_labels(P)
    assert all(affine_rank(cell.vertices) == P.dim for cell in cells)


@settings(max_examples=150, deadline=None)
@given(labels=_label_sets())
def test_faces_match_the_label_rule_on_label_sets(labels):
    try:  # the bounded sets, with their redundant labels dropped
        P = from_halfspaces(from_halfspaces_by_rank(labels, labels[0].dim, True).labels)
    except PolytopeError:
        return
    _assert_faces_match_the_label_rule(P)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from(range(len(_CLIP_BASES))))
def test_faces_match_the_label_rule_on_clip_pieces(data, base):
    # the octahedron and the square pyramid are not simple
    P = _CLIP_BASES[base]
    try:
        P = clip(P, data.draw(_cut(P)))
    except EmptyInterior:
        pass
    _assert_faces_match_the_label_rule(P)
