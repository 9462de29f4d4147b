from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import interval, triangle
from wkstab import (
    AffineFunc,
    Convention,
    FutakiNotVanishing,
    Polynomial,
    assert_futaki_vanishes,
    crease_family,
    default_base_point,
    extremal_affine,
    fano_anticanonical,
    from_halfspaces,
    probe,
    projective_bundle,
    stability_weight,
)
from wkstab.probe import _offset_grid, _primitive_directions
from _reference_fraction import crease_family_fraction, probe_fraction


def rank_one(p=1, c=15, convention=Convention.CANONICAL):
    return projective_bundle([[p]], [(3, -6)], [c], t=1, convention=convention)


def keys(family):
    return {(cr.h.gradient, cr.h.constant) for cr in family}


def test_interval_family_r1_is_exactly_four_creases():
    fam = crease_family(interval(), (F(0),), 1)
    assert keys(fam) == {
        ((F(1),), F(0)),
        ((F(-1),), F(0)),
        ((F(1),), F(-1, 2)),
        ((F(-1),), F(-1, 2)),
    }
    # x - 1 and -x - 1 are positive only at an endpoint: the positive piece
    # must be full-dimensional, so they are dropped
    assert ((F(1),), F(-1)) not in keys(fam)
    assert ((F(-1),), F(-1)) not in keys(fam)


def test_primitive_directions_half_lattice():
    assert _primitive_directions(2, 1) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    dirs = _primitive_directions(2, 2)
    assert (2, 4) not in dirs  # not primitive
    assert (2, 1) in dirs and (1, 2) in dirs
    assert all(next(c for c in d if c) > 0 for d in dirs)


def test_offset_grid_subdivides_to_vertices():
    grid = _offset_grid(interval(), 1)
    assert set(grid) == {(F(-1),), (F(-1, 2),), (F(0),), (F(1, 2),), (F(1),)}


_FAMILY_BASES = [
    interval(),
    triangle(),
    from_halfspaces([
        AffineFunc([2, 0], 1), AffineFunc([0, 3], 2),
        AffineFunc([-1, -1], F(3, 2)), AffineFunc([1, -2], 3),
    ]),
]


@st.composite
def _base_points(draw):
    """(k, r, x0): a base polytope, a resolution and a nonzero rational
    interior point."""
    k = draw(st.integers(0, len(_FAMILY_BASES) - 1))
    P = _FAMILY_BASES[k]
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=21)
    x0 = tuple(draw(coord) for _ in range(P.dim))
    assume(any(x0) and P.is_interior(x0))
    return k, draw(st.integers(1, 3)), x0


@settings(max_examples=40, deadline=None)
@given(_base_points())
@example((0, 2, (F(3, 7),)))
@example((1, 3, (F(1, 3), F(-2, 7))))
@example((1, 1, (F(-1, 2), F(-1, 2))))  # a grid point: h(x0) = 0 on every direction
@example((2, 2, (F(-1, 3), F(1, 7))))
def test_integer_offsets_keep_the_fraction_filter_creases(case):
    # crease_family's integer test h(x0) <= 0 keeps exactly the creases of
    # the Fraction filter, in the same order, with the same pieces
    k, r, x0 = case
    P = _FAMILY_BASES[k]
    fam = crease_family(P, x0, r)
    ref = crease_family_fraction(P, x0, r)
    assert [c.h for c in fam] == [h for h, _ in ref]
    assert [(c.positive.labels, c.positive.vertices, c.positive.facet_incidence) for c in fam] == [
        (Q.labels, Q.vertices, Q.facet_incidence) for _, Q in ref
    ]


def test_family_requires_interior_base_point():
    with pytest.raises(ValueError, match=r"^x0 = \(2\) is not interior$"):
        crease_family(interval(), (F(2),), 1)
    with pytest.raises(ValueError):
        crease_family(interval(), (F(1),), 1)
    with pytest.raises(ValueError):
        crease_family(interval(), (F(0),), 0)


def test_family_is_deterministic():
    a = crease_family(triangle(), (F(0), F(0)), 2)
    b = crease_family(triangle(), (F(0), F(0)), 2)
    assert [(c.h.gradient, c.h.constant) for c in a] == [
        (c.h.gradient, c.h.constant) for c in b
    ]


@pytest.mark.parametrize("make,size", [(triangle, 162), (interval, 8)])
def test_family_size_and_nonempty_negative_side(make, size):
    # h <= 0 at the interior x0 leaves a vertex with h < 0, so the piece
    # h <= 0 is always full-dimensional and needs no clip of its own
    P = make()
    fam = crease_family(P, (F(0),) * P.dim, 3)
    assert len(fam) == size
    for crease in fam:
        assert any(crease.h(vtx) < 0 for vtx in P.vertices)


def test_df_value_direct_never_reads_the_moment_table():
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], t=1)
    w = stability_weight(fib)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 1)
    for crease in fam:
        value = crease.df_value(fib.v, w)
        record = crease.positive.moments
        assert record
        # corrupt the interior and boundary tables
        _, _, _, *tables = record
        for table in tables:
            for i in range(len(table)):
                table[i] = 10**6 + 7 * i
        corrupted = [list(table) for table in tables]
        assert crease.df_value(fib.v, w) != value
        assert crease.df_value_direct(fib.v, w) == value
        assert crease.positive.moments is record
        assert [list(table) for table in tables] == corrupted


def test_df_value_matches_direct_recompute():
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], t=1)
    w = stability_weight(fib)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 1)
    assert fam
    for crease in fam:
        assert crease.df_value(fib.v, w) == crease.df_value_direct(fib.v, w)


def test_probe_on_certified_instance_finds_nothing():
    fib = rank_one()
    w = stability_weight(fib)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 2)
    report = probe(fib.fiber, fib.v, w, fam)
    assert report.n_creases == len(fam)
    assert report.min_ratio is not None and report.min_ratio > 0
    assert not report.found_destabilizer
    assert report.destabilizer is None


def test_probe_on_refuted_instance_witness_reverifies():
    fib = rank_one(c=F(11, 10))
    w = stability_weight(fib)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 3)
    report = probe(fib.fiber, fib.v, w, fam)
    assert report.found_destabilizer
    destab = report.destabilizer
    value = destab.df_value(fib.v, w)
    assert value < 0
    # the witness re-verifies through the independent integration path
    assert destab.df_value_direct(fib.v, w) == value
    assert report.min_ratio == value / destab.l1_norm()


def test_probe_min_over_superset_is_no_larger():
    fib = rank_one()
    w = stability_weight(fib)
    x0 = default_base_point(fib.fiber)
    small = crease_family(fib.fiber, x0, 1)
    big = small + crease_family(fib.fiber, x0, 2)
    lo = probe(fib.fiber, fib.v, w, small).min_ratio
    hi = probe(fib.fiber, fib.v, w, big).min_ratio
    assert hi <= lo


def test_probe_empty_family():
    P = interval()
    report = probe(P, Polynomial.constant(1, 1), Polynomial.constant(1, 2), [])
    assert report.min_ratio is None
    assert report.argmin is None
    assert not report.found_destabilizer
    assert report.n_creases == 0


def test_probe_checks_futaki_character():
    P = interval()
    v = Polynomial.constant(1, 1)
    bad_w = Polynomial.constant(1, 5)  # F does not vanish on affine functions
    fam = crease_family(P, (F(0),), 1)
    with pytest.raises(FutakiNotVanishing):
        probe(P, v, bad_w, fam)
    report = probe(P, v, bad_w, fam, verify_futaki=False)
    assert report.n_creases == len(fam)


def test_legacy_weights_probe_without_futaki_check():
    fib = rank_one(convention=Convention.LEGACY)
    sol = extremal_affine(fib)
    w = stability_weight(fib, sol.l_ext)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 1)
    with pytest.raises(FutakiNotVanishing):
        probe(fib.fiber, fib.v, w, fam)
    report = probe(fib.fiber, fib.v, w, fam, verify_futaki=False)
    assert report.min_ratio is not None


@pytest.fixture(scope="module")
def r3_families():
    return {P.dim: crease_family(P, (F(0),) * P.dim, 3) for P in (interval(), triangle())}


def _weight_pairs():
    """(fibration, w, verify_futaki) over both r = 3 families: c05 points,
    rank-one and anticanonical pairs, the refuted c = 11/10 pair and a
    LEGACY pair, whose w does not kill affine functions."""
    fibs = [projective_bundle([[p1, p2]], [(3, 6 * I)], [c], t=1)
            for I, p1, p2, c in ((1, 1, 2, 14), (2, 1, 1, 8), (3, 2, 4, 29), (4, 5, 5, 35))]
    fibs += [fano_anticanonical(P, [(n, index, None)])
             for P, (n, index) in ((triangle(), (3, 4)), (interval(), (1, 2)), (interval(), (3, 3)))]
    fibs += [rank_one(p, 15 * p) for p in (1, 4, 9)]
    fibs.append(rank_one(c=F(11, 10)))
    pairs = [(fib, stability_weight(fib), True) for fib in fibs]
    legacy = rank_one(2, 30, Convention.LEGACY)
    pairs.append((legacy, stability_weight(legacy, extremal_affine(legacy).l_ext), False))
    return pairs


def test_probe_matches_the_per_crease_fraction_loop(r3_families):
    found = []
    for fib, w, verify in _weight_pairs():
        fam = r3_families[fib.dim]
        report = probe(fib.fiber, fib.v, w, fam, verify_futaki=verify)
        min_ratio, argmin, destab = probe_fraction(fib.v, w, fam)
        assert report.min_ratio == min_ratio
        assert report.argmin is argmin
        assert report.destabilizer is destab
        found.append(report.found_destabilizer)
    assert found.count(True) == 1 and found[-2]  # the c = 11/10 pair


def test_warm_family_fills_nothing_until_the_degree_grows(monkeypatch):
    import wkstab.measure as measure

    fam = crease_family(interval(), (F(0),), 2)
    first, second = rank_one(1, 15), rank_one(3, 45)
    probe(first.fiber, first.v, stability_weight(first), fam)
    w = stability_weight(second)
    assert_futaki_vanishes(second.fiber, second.v, w)  # warms the fiber's own table
    cells = []
    original = measure._cell_moments

    def counting(*args):
        cells.append(args)
        return original(*args)

    monkeypatch.setattr(measure, "_cell_moments", counting)
    assert second.v.degree() <= fam[0]._cache[0] and w.degree() <= fam[0]._cache[1]
    report = probe(second.fiber, second.v, w, fam)
    assert cells == []
    assert (report.min_ratio, report.argmin) == probe_fraction(second.v, w, fam)[:2]
    # a weight of higher degree, v first and then w, rebuilds the rows and
    # still agrees with the oracle
    x = Polynomial.variable(1, 0)
    v = second.v * (x * x + 2)
    for v, w, degrees in ((v, w, (5, 4)), (v, w * (x * x + 3), (5, 6))):
        cells.clear()
        report = probe(second.fiber, v, w, fam, verify_futaki=False)
        assert cells and all(crease._cache[:2] == degrees for crease in fam)
        assert (report.min_ratio, report.argmin, report.destabilizer) == probe_fraction(v, w, fam)


def test_wrong_rows_trip_the_destabilizer_recheck():
    fib = rank_one(c=F(11, 10))
    w = stability_weight(fib)
    fam = crease_family(fib.fiber, default_base_point(fib.fiber), 3)
    destab = probe(fib.fiber, fib.v, w, fam).destabilizer
    other = next(c for c in fam if c.df_value(fib.v, w) != destab.df_value(fib.v, w))
    assert probe(fib.fiber, fib.v, w, [other, destab]).destabilizer is destab
    # other now carries the destabilizer's rows: it ties for the minimum and,
    # first in the family, wins, but its F(f) does not re-verify
    object.__setattr__(other, "_cache", destab._cache)
    with pytest.raises(ArithmeticError):
        probe(fib.fiber, fib.v, w, [other, destab])
