"""Labelled polytopes: halfspace + vertex descriptions, faces, cones, clipping.

A labelled polytope is a compact convex polytope ``P = {x : L_j(x) >= 0}``
together with the chosen defining affine functions ("labels") ``L_j``, one per
facet.  The labels matter beyond their zero sets: rescaling a label rescales
the corresponding facet's boundary measure inversely, so labels are never
re-normalized here.

from_halfspaces enumerates the vertices first and then proves the set
bounded by Minkowski's relation  sum_j sigma_j dL_j = 0  over the labelled
facet measures sigma_j > 0, read off the polytope's facet cells: each facet
is triangulated once in the polytope's life, and measure's moment fill and
every cone decomposition read the same cells.  The recession-ray search (one
vertex enumeration of the recession cone cut by a box) runs only when that
proof cannot be made, to name the ray of an unbounded input.

Faces are read off the vertex-facet incidence (it fixes the face lattice;
Ziegler, Lectures on Polytopes, ch. 2) by one rule, :func:`_facets`, which
from_halfspaces, clip and the fan triangulation of each face all use: no
label is evaluated and no affine rank computed to decide a face.

Each polytope keeps one integer record of its vertices
(:func:`_vertex_record`): the lcm D_P of their coordinate denominators, the
rows U = D_P v (exact._cleared_points), and each vertex's zero set as a
bitmask over the labels.  clip builds it for each piece it makes; any
other polytope builds it on first use.  clip, the facet cells and
measure's moment fill all read it, so a polytope's vertices are cleared
once in its life.

clip never enumerates vertices: a piece P intersect {h >= 0} comes from one
double-description step on P's vertices and facet incidence (edges found by
the combinatorial adjacency test, one crossing point per edge that h cuts),
and it is bounded because P is.  The step runs on P's integer record: with
h cleared, h's vertex values are integers up to one positive factor, and
each crossing point is one Fraction per coordinate.  The piece's vertices
are cleared once over their own lcm and sorted by those integer rows, so
no two Fractions are compared, and the rows become the piece's record.
Emptiness is decided by sign: P is full-dimensional, so the piece has
interior exactly when h > 0 at some vertex.

The facet cells are vertex-index simplices.  A cell's Jacobian
|det[w_k - w_0, xi]|, with xi = e_i / g_i the transversal of the facet's
label (g its gradient, i its first nonzero entry), is one integer minor:
expanded along xi's column it is |det W_i| / (D_P^(l-1) |g_i|), with W_i
the integer columns u_k - u_0 of the cell's U rows without row i, and it is
kept as that integer numerator and denominator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact import (
    AffineFunc,
    Point,
    _centroid,
    _cleared_points,
    affine_rank,
    det,
    format_point,
    point,
    rat,
    solve_general,
    solve_square,
)


class PolytopeError(Exception):
    pass


class UnboundedPolytope(PolytopeError):
    def __init__(self, ray: Point):
        super().__init__(
            f"halfspaces describe an unbounded set (recession ray {format_point(ray)})"
        )
        self.ray = ray


class EmptyInterior(PolytopeError):
    pass


class RedundantLabel(PolytopeError):
    def __init__(self, index: int):
        super().__init__(
            f"label {index} is redundant: it does not cut out a facet "
            "(its zero set on P has affine dimension < dim-1, or it repeats "
            "another label's facet)"
        )
        self.index = index


class NotInterior(PolytopeError):
    def __init__(self, x0):
        super().__init__(f"point {format_point(x0)} is not strictly interior")
        self.x0 = x0


@dataclass(frozen=True)
class Simplex:
    """A k-simplex given by k+1 affinely independent points."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if affine_rank(self.vertices) != len(self.vertices) - 1:
            raise ValueError("simplex vertices are affinely dependent")

    @classmethod
    def _spanned(cls, vertices: tuple[Point, ...]) -> "Simplex":
        """The simplex on vertices already known to be affinely independent,
        without the rank check."""
        simplex = object.__new__(cls)
        object.__setattr__(simplex, "vertices", vertices)
        return simplex

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def barycenter(self) -> Point:
        return _centroid(self.vertices)


_UNSOLVED = object()  # LabelledPolytope.monotone before monotone_point fills it


class LabelledPolytope:
    """Immutable labelled polytope; construct via :func:`from_halfspaces`.
    Four slots hold values derived from the labels, filled on first use:
    ``cleared``, the integer vertex record (D_P, U, zeros) of
    :func:`_vertex_record`, ``facet_cells``, each facet's labelled cells (see
    :func:`_facet_cells`), ``moments``, the record (D_P, J, T, interior,
    boundary) of the integer moments up to the degree T filled so far, all
    over one denominator (see measure), and ``monotone``, the answer of
    :func:`monotone_point`.
    None of them is part of equality, hashing or pickling."""

    __slots__ = (
        "dim", "labels", "vertices", "facet_incidence",
        "cleared", "facet_cells", "moments", "monotone",
    )

    def __init__(self, dim, labels, vertices, facet_incidence):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "facet_incidence", tuple(tuple(f) for f in facet_incidence))
        object.__setattr__(self, "cleared", None)
        object.__setattr__(self, "facet_cells", None)
        object.__setattr__(self, "moments", None)
        object.__setattr__(self, "monotone", _UNSOLVED)

    def __setattr__(self, name, value):
        raise AttributeError("LabelledPolytope is immutable")

    def __reduce__(self):  # pickle/copy through the constructor; the record starts empty
        return LabelledPolytope, (self.dim, self.labels, self.vertices, self.facet_incidence)

    @property
    def n_facets(self) -> int:
        return len(self.labels)

    def contains(self, x) -> bool:
        return all(L(x) >= 0 for L in self.labels)

    def is_interior(self, x) -> bool:
        return all(L(x) > 0 for L in self.labels)

    def vertex_centroid(self) -> Point:
        """Average of the vertices; always strictly interior (P is full-dim)."""
        return _centroid(self.vertices)

    def facet_vertices(self, j: int) -> tuple[Point, ...]:
        return tuple(self.vertices[i] for i in self.facet_incidence[j])

    def is_simple(self) -> bool:
        """True when every vertex lies on exactly ``dim`` facets (Delzant-like)."""
        counts = [0] * len(self.vertices)
        for inc in self.facet_incidence:
            for i in inc:
                counts[i] += 1
        return all(c == self.dim for c in counts)

    def __eq__(self, other):
        return (
            isinstance(other, LabelledPolytope)
            and self.dim == other.dim
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.dim, self.labels))

    def __repr__(self):
        return (
            f"LabelledPolytope(dim={self.dim}, facets={self.n_facets}, "
            f"vertices={len(self.vertices)})"
        )


def _enumerate_vertices(labels: list[AffineFunc], dim: int) -> list[Point]:
    """Feasible basic solutions of all dim x dim label subsystems, deduplicated."""
    found: set[Point] = set()
    for subset in itertools.combinations(range(len(labels)), dim):
        A = [list(labels[j].gradient) for j in subset]
        b = [-labels[j].constant for j in subset]
        x = solve_square(A, b)
        if x is None:
            continue
        if all(L(x) >= 0 for L in labels):
            found.add(x)
    return sorted(found)


def _recession_ray(labels: list[AffineFunc], dim: int) -> Point | None:
    """A nonzero direction u with dL_j(u) >= 0 for all j, if one exists.

    The recession cone is intersected with the unit sup-norm box; the result
    is a bounded polyhedron whose vertices include a nonzero point exactly
    when the cone is nontrivial.
    """
    cone = [AffineFunc(L.gradient, 0) for L in labels]
    box = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        box.append(AffineFunc(e, 1))
        box.append(AffineFunc([-c for c in e], 1))
    zero = (Fraction(0),) * dim
    for v in _enumerate_vertices(cone + box, dim):
        if v != zero:
            return v
    return None


def from_halfspaces(labels) -> LabelledPolytope:
    """Build a labelled polytope from its defining affine functions.

    Vertices are enumerated exactly by solving all ``dim x dim`` subsystems of
    ``{L_j = 0}`` and keeping the solutions feasible for every label.  The
    label set must be minimal: :func:`_facets` must keep every label's
    incidence, or :class:`RedundantLabel` names the first one it does not.

    Boundedness is proved after the vertex loop, by Minkowski's relation
    ``sum_j sigma_j dL_j = 0`` with every facet measure ``sigma_j > 0``
    (:func:`_minkowski_relation_holds`).  The loop's polytope has a vertex,
    so the gradients have rank ``dim``; a direction u with ``dL_j(u) >= 0``
    for all j then has ``dL_j(u) = 0`` for all j, so u = 0.  On a bounded
    set the maximal incidences are exactly the facets; on an unbounded one
    the rule may keep a label whose incidence is no facet of the vertices'
    hull, but its cells are degenerate, its measure 0, and the relation
    fails.  When the loop raises or the relation fails, :func:`_recession_ray`
    looks for a ray: if it finds one, :class:`UnboundedPolytope` names it;
    otherwise the loop's own error is re-raised, and a polytope that fails
    the relation raises ArithmeticError (it holds on every bounded
    polytope).  So the precedence is: malformed labels, then unboundedness,
    then the loop's EmptyInterior or RedundantLabel.
    """
    labels = tuple(labels)
    if not labels:
        raise ValueError("at least one label is required")
    dim = labels[0].dim
    if any(L.dim != dim for L in labels):
        raise ValueError("labels have mixed dimensions")
    for j, L in enumerate(labels):
        if not any(L.gradient):
            raise RedundantLabel(j)

    try:
        P = _from_bounded_halfspaces(labels, dim)
    except PolytopeError:
        _raise_if_unbounded(labels, dim)
        raise
    if not _minkowski_relation_holds(P):
        _raise_if_unbounded(labels, dim)
        raise ArithmeticError("Minkowski's relation fails on a bounded polytope")
    return P


def _from_bounded_halfspaces(labels: tuple[AffineFunc, ...], dim: int) -> LabelledPolytope:
    """The vertex/incidence loop of :func:`from_halfspaces`.  Its result is
    the labelled polytope only when the labels cut out a bounded set, which
    from_halfspaces proves afterwards."""
    verts = _enumerate_vertices(list(labels), dim)
    if not verts or affine_rank(verts) < dim:
        raise EmptyInterior("the halfspace intersection has empty interior")
    incidence = [frozenset(i for i, v in enumerate(verts) if L(v) == 0) for L in labels]
    kept = _facets(incidence)
    if len(kept) < len(labels):
        raise RedundantLabel(next(j for j in range(len(labels)) if j not in kept))
    return LabelledPolytope(dim, labels, verts, [sorted(inc) for inc in incidence])


def _facets(incidences: list[frozenset[int]]) -> list[int]:
    """The positions of the incidences that are facets: nonempty, strictly
    inside no other incidence, and repeating no earlier one.  When every
    facet of a polytope is some label's incidence these are its facets, as
    every proper face lies in a facet and a facet in no other proper face."""
    return [
        k for k, inc in enumerate(incidences)
        if inc and inc not in incidences[:k] and not any(inc < other for other in incidences)
    ]


def _raise_if_unbounded(labels: tuple[AffineFunc, ...], dim: int) -> None:
    ray = _recession_ray(list(labels), dim)
    if ray is not None:
        raise UnboundedPolytope(ray)


def _transversal(P: LabelledPolytope, j: int) -> Point:
    """A vector xi with dL_j(xi) = 1, of minimal support: xi = e_i / g_i at the
    first nonzero gradient coordinate of L_j."""
    g = P.labels[j].gradient
    for i, gi in enumerate(g):
        if gi != 0:
            xi = [Fraction(0)] * P.dim
            xi[i] = Fraction(1) / gi
            return point(xi)
    raise ValueError("label has zero gradient")


def _vertex_record(P: LabelledPolytope) -> tuple:
    """P.cleared = (D_P, U, zeros): the vertices as integer rows U = D_P v
    over the lcm D_P of their coordinate denominators, and each vertex's
    zero set as a bitmask over the labels (bit j when it lies on facet j);
    built once per polytope, here on first use unless clip built it with
    the piece."""
    if P.cleared is None:
        zeros = _zero_masks(len(P.vertices), P.facet_incidence)
        object.__setattr__(P, "cleared", (*_cleared_points(P.vertices), zeros))
    return P.cleared


def _zero_masks(n_vertices: int, facet_incidence) -> tuple[int, ...]:
    """Each vertex's zero set as a bitmask over the labels: bit j when the
    vertex lies on facet j."""
    zeros = [0] * n_vertices
    for j, inc in enumerate(facet_incidence):
        for i in inc:
            zeros[i] |= 1 << j
    return tuple(zeros)


def _cell_jacobian(rows, D: int, g: Point) -> tuple[int, int]:
    """(n, d) with n / d the labelled measure times (dim-1)! of the facet
    cell whose vertices w_k have integer rows u_k = D w_k, on a facet whose
    label has gradient g: |det[w_k - w_0, xi]| with xi = e_i / g_i the
    transversal of :func:`_transversal`.  Expanded along xi's column this is
    one minor, |det W_i| / (D^(dim-1) |g_i|), with W_i the integer columns
    u_k - u_0 without row i: 1 in dimension 1, one difference in dimension
    2, a 2 x 2 determinant in dimension 3.  So n = |det W_i| den(g_i) and
    d = |num(g_i)| D^(dim-1)."""
    i, gi = next((i, gi) for i, gi in enumerate(g) if gi)
    u0 = rows[0]
    W = [[u[r] - u0[r] for u in rows[1:]] for r in range(len(g)) if r != i]
    if len(W) > 2:
        minor = det(W).numerator
    elif len(W) == 2:
        minor = W[0][0] * W[1][1] - W[0][1] * W[1][0]
    else:
        minor = W[0][0] if W else 1
    return abs(minor) * gi.denominator, abs(gi.numerator) * D ** (len(g) - 1)


def _facet_cells(P: LabelledPolytope) -> tuple:
    """Per facet j, its cells (cell, n, d): cell the vertex indices of one
    simplex of the facet's triangulation (:func:`_facet_triangulation`) and
    n / d its labelled measure times (dim-1)! on P's integer rows
    (:func:`_cell_jacobian`); computed once per polytope and kept in
    P.facet_cells."""
    if P.facet_cells is None:
        D, U, _ = _vertex_record(P)
        object.__setattr__(P, "facet_cells", tuple(
            tuple((cell, *_cell_jacobian([U[k] for k in cell], D, L.gradient))
                  for cell in _facet_triangulation(P, j))
            for j, L in enumerate(P.labels)
        ))
    return P.facet_cells


def _points(P: LabelledPolytope, cell: tuple[int, ...]) -> tuple[Point, ...]:
    """The vertices of P at the indices *cell*."""
    return tuple(P.vertices[i] for i in cell)


def _facet_measure(P: LabelledPolytope, j: int) -> Fraction:
    """The labelled measure of facet j times (dim-1)!."""
    return sum((Fraction(n, d) for _, n, d in _facet_cells(P)[j]), Fraction(0))


def _minkowski_relation_holds(P: LabelledPolytope) -> bool:
    """True when sum_j sigma_j dL_j = 0 exactly with every sigma_j > 0."""
    sigma = [_facet_measure(P, j) for j in range(P.n_facets)]
    if any(s <= 0 for s in sigma):
        return False
    return all(
        sum((s * L.gradient[i] for s, L in zip(sigma, P.labels)), Fraction(0)) == 0
        for i in range(P.dim)
    )


def standard_fiber_polytope(dim: int, t) -> LabelledPolytope:
    """The scaled standard simplex: labels ``x_i + t`` and ``t - sum x_i``.

    Monotone with monotone point 0 and parameter *t*; this is the moment
    polytope of complex projective space scaled so that the labels take the
    value *t* at the origin.  Interned (see :func:`_interned`): every call
    with the same dim and t returns one shared polytope.
    """
    return _interned(_standard_labels(dim, t))


#: Distinct fibers kept by _interned; a batch names only a few.
_INTERNED_FIBERS = 64


@functools.lru_cache(maxsize=_INTERNED_FIBERS)
def _interned(labels: tuple[AffineFunc, ...]) -> LabelledPolytope:
    """from_halfspaces(labels), one shared polytope per distinct exact label
    tuple in a bounded LRU.  Sharing is safe: the polytope is immutable, and
    its derived slots hold exact values fixed by the labels (see
    :class:`LabelledPolytope`).  Exceptions are not cached."""
    return from_halfspaces(labels)


def _standard_labels(dim: int, t) -> tuple[AffineFunc, ...]:
    """The labels of :func:`standard_fiber_polytope`."""
    t = rat(t)
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if t <= 0:
        raise ValueError("scale t must be positive")
    labels = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        labels.append(AffineFunc(e, t))
    labels.append(AffineFunc([-1] * dim, t))
    return tuple(labels)


def monotone_point(P: LabelledPolytope) -> tuple[Point, Fraction] | None:
    """The interior point where all labels agree, if it exists uniquely.

    Solves ``L_j(x0) = t`` for ``(x0, t)``; returns ``(x0, t)`` when the
    solution exists, is unique, and has ``t > 0`` (which already makes ``x0``
    interior).  Returns None otherwise.  The answer is solved once per
    polytope and kept in ``P.monotone``.
    """
    if P.monotone is _UNSOLVED:
        object.__setattr__(P, "monotone", _solve_monotone(P))
    return P.monotone


def _solve_monotone(P: LabelledPolytope) -> tuple[Point, Fraction] | None:
    rows = [list(L.gradient) + [Fraction(-1)] for L in P.labels]
    rhs = [-L.constant for L in P.labels]
    sol = solve_general(rows, rhs)
    if sol is None:
        return None
    part, null = sol
    if null:
        return None
    t = part[-1]
    if t <= 0:
        return None
    return part[:-1], t


def _face_triangulation(P: LabelledPolytope, face: frozenset[int], fdim: int) -> list[tuple]:
    """Triangulate a face (given by its vertex indices) by a fan from its
    lowest-indexed vertex, recursing on the face's own facets: the maximal
    proper nonempty sets face & facet_incidence[k], by :func:`_facets`."""
    if len(face) == fdim + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    subs = [s if s != face else frozenset() for s in map(face.intersection, P.facet_incidence)]
    return sorted(
        (apex,) + cell
        for k in _facets(subs) if apex not in subs[k]
        for cell in _face_triangulation(P, subs[k], fdim - 1)
    )


def _facet_triangulation(P: LabelledPolytope, j: int) -> list[tuple[int, ...]]:
    """Facet j's fan triangulation as vertex-index cells; :func:`_facet_cells`
    runs it once per facet in P's life."""
    return _face_triangulation(P, frozenset(P.facet_incidence[j]), P.dim - 1)


def triangulate_facet(P: LabelledPolytope, j: int) -> list[tuple[Point, ...]]:
    """Deterministic triangulation of facet *j* into (dim-1)-simplices: the
    cells of P's record (:func:`_facet_cells`) as points."""
    if not 0 <= j < P.n_facets:
        raise IndexError("facet index out of range")
    return [_points(P, cell) for cell, _, _ in _facet_cells(P)[j]]


def triangulate(P: LabelledPolytope) -> list[Simplex]:
    """Triangulation of P by a fan from its lowest-indexed vertex.  Its cells
    span without a rank check: the apex lies off every facet it cones over."""
    cells = _face_triangulation(P, frozenset(range(len(P.vertices))), P.dim)
    return [Simplex._spanned(_points(P, cell)) for cell in cells]


@dataclass(frozen=True)
class ConeDecomposition:
    """P as a union of cones: apex x0, one cone per facet, bases triangulated."""

    x0: Point
    cones: tuple[tuple[Simplex, ...], ...]  # cones[j] = full-dim cells over facet j


def cone_decomposition(P: LabelledPolytope, x0) -> ConeDecomposition:
    """Each cone cell is a facet cell of P plus x0, which spans without a rank
    check: a strictly interior x0 lies off every facet hyperplane."""
    x0 = point(x0)
    if not P.is_interior(x0):
        raise NotInterior(x0)
    cones = tuple(
        tuple(Simplex._spanned(_points(P, cell) + (x0,)) for cell, _, _ in cells)
        for cells in _facet_cells(P)
    )
    return ConeDecomposition(x0=x0, cones=cones)


def clip(P: LabelledPolytope, h: AffineFunc) -> LabelledPolytope:
    """The labelled polytope ``P  intersect  {h >= 0}`` with *h* appended.

    Labels made redundant by the cut (including *h* itself when it does not
    cut) are dropped.  Raises :class:`EmptyInterior` when the intersection has
    no interior, that is when h > 0 at no vertex of P.

    The piece comes from one step of the double description method
    (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996) on P's
    vertices and facet incidence, with no vertex enumeration.  Each vertex
    carries its zero set Z, the labels vanishing there.  The vertices with
    h >= 0 survive, and each edge (a, b) with h(a) < 0 < h(b) adds one
    crossing point with zero set Z(a) & Z(b) plus h; a and b span an edge
    when Z(a) & Z(b) lies in no third vertex's zero set.  The labels kept
    are those :func:`_facets` keeps; the labels, the sorted vertices and the
    incidence are those from_halfspaces builds.

    The piece's vertices, P's own vertex tuples and the crossings, are
    cleared once to integer rows over the lcm D' of their coordinate
    denominators and sorted by those rows, the order of the points, with
    no Fraction compared.  The piece keeps (D', rows, zero masks) as its
    vertex record (:func:`_vertex_record`), the masks re-indexed to the
    labels it keeps, so its vertices are never cleared again.
    """
    if h.dim != P.dim:
        raise ValueError("dimension mismatch in clip")
    if not any(h.gradient):
        raise RedundantLabel(P.n_facets)
    D, U, zeros = _vertex_record(P)  # U = D * v, Z(i) as a bitmask over the labels
    on_h = 1 << P.n_facets
    G, C, _ = h.cleared()
    hv = [sum(map(mul, G, u), C * D) for u in U]  # h(v) times one positive integer
    above = [i for i, x in enumerate(hv) if x > 0]
    if not above:  # h <= 0 on P: the piece has no interior point
        raise EmptyInterior("the halfspace intersection has empty interior")
    found = [(v, z | on_h if x == 0 else z)  # the piece's vertices with Z
             for v, z, x in zip(P.vertices, zeros, hv) if x >= 0]
    below = [i for i, x in enumerate(hv) if x < 0]
    for a, b in itertools.product(below, above):
        common = zeros[a] & zeros[b]
        if any((common & z) == common for c, z in enumerate(zeros) if c != a and c != b):
            continue  # a and b span no edge
        ha, hb = hv[a], hv[b]  # the crossing (ha b - hb a) / (ha - hb)
        cross = tuple(Fraction(ha * yb - hb * ya, D * (ha - hb)) for ya, yb in zip(U[a], U[b]))
        found.append((cross, common | on_h))
    D2, rows = _cleared_points([v for v, _ in found])
    rows, found = zip(*sorted(zip(rows, found)))  # the rows differ: no Fraction is compared
    verts = [v for v, _ in found]
    incidence = [frozenset(i for i, (_, z) in enumerate(found) if z >> j & 1)
                 for j in range(P.n_facets + 1)]
    kept = _facets(incidence)
    labels = P.labels + (h,)
    facets = [sorted(incidence[j]) for j in kept]
    piece = LabelledPolytope(P.dim, [labels[j] for j in kept], verts, facets)
    object.__setattr__(piece, "cleared", (D2, rows, _zero_masks(len(verts), facets)))
    return piece
