import copy
import pickle
from fractions import Fraction as F

import pytest

from conftest import hexagon, interior_points, interval, square, triangle
from wkstab import (
    AffineFunc,
    EmptyInterior,
    NotInterior,
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
from wkstab.polytope import clip, triangulate_facet
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
    P = from_halfspaces(labels, drop_redundant=True)
    assert P.n_facets == 2
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


@pytest.mark.parametrize("P", [triangle(), interval()], ids=["triangle", "interval"])
def test_clip_matches_from_halfspaces_on_crease_family(P):
    # clip skips the recession check (a piece of a bounded P is bounded);
    # the polytope it builds is the one from_halfspaces builds
    family = crease_family(P, (F(0),) * P.dim, 3)
    assert family
    for crease in family:
        Q = clip(P, crease.h)
        R = from_halfspaces(P.labels + (crease.h,), drop_redundant=True)
        assert Q.labels == R.labels
        assert Q.vertices == R.vertices
        assert Q.facet_incidence == R.facet_incidence
    with pytest.raises(RedundantLabel):  # as from_halfspaces: a constant cuts no facet
        clip(P, AffineFunc([0] * P.dim, 1))


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
    assert Q.moments == {}  # a derived cache: the copy refills its own
    assert integrate(p, Q) == before == integrate(p, P)
    assert integrate_boundary(p, Q) == integrate_boundary(p, P)
    with pytest.raises(AttributeError):
        Q.dim = 3
