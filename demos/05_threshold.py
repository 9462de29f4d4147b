# Kaehler-class thresholds: the smallest c the vertex certificate accepts.
#
# For each vertex the condition value is a rational function of c.  The
# weights are polynomials in (x, c), so the solver reads the moment system of
# the extremal solve off them one power of c at a time and solves it over
# Q[c] (Cramer's rule, Bareiss determinants), isolates the numerators' real
# roots (every count by Descartes' rule of signs, bisecting an interval where
# one bound cannot decide), and returns a certified bracket for the sup over
# vertices.

from fractions import Fraction as F

from wkstab import Convention, projective_bundle, threshold_c

# Degrees (1, 2) on the 2-simplex over two different bases.
for name, s in (("s = 24", 24), ("s = 18", 18)):
    res = threshold_c(
        lambda c: projective_bundle([[1, 2]], [(3, s)], [c], t=1),
        F(4),
        F(10),
        tol=F(1, 100),
    )
    print(f"{name}: threshold c* in [{res.low}, {res.high}]")
    print(f"        ~ [{float(res.low):.6f}, {float(res.high):.6f}]")
    print(f"        certified: {res.certified}, value at c_hi: {res.value_at_hi}")
    for entry in res.per_vertex:
        print(
            f"        vertex {entry.vertex}: kind {entry.kind}, "
            f"degrees ({entry.num_degree}/{entry.den_degree})"
        )
    print()

# The same runs under the legacy sign give no roots above the validity floor
# c >= t*s/(2n); the result collapses to the floor and says so.
res = threshold_c(
    lambda c: projective_bundle(
        [[1, 2]], [(3, 24)], [c], t=1, convention=Convention.LEGACY
    ),
    F(4),
    F(9),
    tol=F(1, 100),
)
print("legacy sign, s = 24:", f"[{res.low}, {res.high}]", "floor =", res.floor)
print("per-vertex kinds:", [e.kind for e in res.per_vertex])

# Everything above is exact: the bracket endpoints are Fractions from dyadic
# bisection, never floats.
