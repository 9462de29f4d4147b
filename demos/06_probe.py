# The piecewise-linear destabilizer probe.
#
# Creases f = max(0, h) with h affine are the simplest convex test functions.
# If any has F(f) < 0 the instance is destabilized -- an exact refutation.
# If none does, that is consistency evidence (the family is finite; absence
# of a witness proves nothing).

from fractions import Fraction as F

from wkstab import (
    crease_family,
    default_base_point,
    probe,
    projective_bundle,
    stability_weight,
)


def show(h):
    """h as the CLI prints it: (gradient).x + constant."""
    return f"({', '.join(str(g) for g in h.gradient)}).x + {h.constant}"


# The resolution-1 family on [-1, 1] is tiny and worth seeing in full.
fam = crease_family(projective_bundle([[1]], [(3, -6)], [15], t=1).fiber, (F(0),), 1)
print("resolution-1 creases on [-1, 1]:")
for crease in fam:
    print("  h =", show(crease.h))

# Certified instance: every ratio F(f)/|f|_L1 stays positive.
fib = projective_bundle([[1]], [(3, -6)], [15], t=1)
w = stability_weight(fib)
fam3 = crease_family(fib.fiber, default_base_point(fib.fiber), 3)
report = probe(fib.fiber, fib.v, w, fam3)
print()
print(f"c = 15: {report.n_creases} creases, min F(f)/|f| = {report.min_ratio}")
print("destabilizer found:", report.found_destabilizer)

# Refuted instance: the probe finds a crease with F(f) < 0 and the value
# re-verifies through an independent cone-decomposition integration of the
# clipped piece, which never reads its moment table.
bad = projective_bundle([[1]], [(3, -6)], [F(11, 10)], t=1)
w_bad = stability_weight(bad)
report = probe(bad.fiber, bad.v, w_bad, fam3)
print()
print(f"c = 11/10: min F(f)/|f| = {report.min_ratio} ~ {float(report.min_ratio):.4f}")
d = report.destabilizer
print("destabilizer h =", show(d.h))
print("F(f)  cached   =", d.df_value(bad.v, w_bad))
print("F(f)  recomputed =", d.df_value_direct(bad.v, w_bad))

# Each crease keeps integer rows read off its piece's moment table, so
# re-probing a family with another weight pair costs one integer dot product
# per crease: the family above is reused across both instances without
# re-clipping or refilling.
