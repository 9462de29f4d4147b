"""Dense univariate polynomials over the rationals: Sturm root isolation and
exact reconstruction of rational functions from sampled values.

Polynomials are coefficient lists (index = power, no trailing zeros, [] = 0).
Root isolation returns exact rational roots when bisection lands on one
(deflating it out so Sturm counts stay valid) and width-bounded brackets
otherwise.  Rational-function reconstruction fits numerator/denominator
coefficients through a nullspace solve at escalating degrees, accepting only
candidates that reproduce every sample plus fresh validation points exactly.
A null vector already reproduces the fit samples wherever its denominator is
nonzero, so candidates are checked unreduced and the gcd reduction runs once,
on the accepted fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import rat, solve_general

Poly1 = tuple


def normalize(coeffs) -> Poly1:
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly1) -> int:
    return len(p) - 1


def evaluate(p: Poly1, x) -> Fraction:
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p: Poly1, q: Poly1) -> Poly1:
    n = max(len(p), len(q))
    return normalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def scale(p: Poly1, a) -> Poly1:
    a = rat(a)
    return normalize([a * c for c in p])


def sub(p: Poly1, q: Poly1) -> Poly1:
    return add(p, scale(q, -1))


def mul(p: Poly1, q: Poly1) -> Poly1:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def divmod_exact(p: Poly1, q: Poly1) -> tuple[Poly1, Poly1]:
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


def derivative(p: Poly1) -> Poly1:
    return normalize([i * p[i] for i in range(1, len(p))])


def monic(p: Poly1) -> Poly1:
    return scale(p, Fraction(1) / p[-1]) if p else ()


def gcd_monic(p: Poly1, q: Poly1) -> Poly1:
    a, b = p, q
    while b:
        a, b = b, divmod_exact(a, b)[1]
    return monic(a)


def squarefree_part(p: Poly1) -> Poly1:
    if degree(p) < 1:
        return normalize(p)
    g = gcd_monic(p, derivative(p))
    return divmod_exact(p, g)[0]


def sturm_sequence(p: Poly1) -> list[Poly1]:
    seq = [normalize(p), derivative(p)]
    while seq[-1]:
        r = divmod_exact(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(scale(r, -1))
    return [q for q in seq if q]


def sign_variations_at(seq: list[Poly1], x) -> int:
    signs = []
    for q in seq:
        v = evaluate(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(seq: list[Poly1], a, b) -> int:
    """Distinct real roots of seq[0] in the open interval (a, b).

    Requires nonzero values at both endpoints.
    """
    p = seq[0]
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    return sign_variations_at(seq, a) - sign_variations_at(seq, b)


def cauchy_root_bound(p: Poly1) -> Fraction:
    """All real roots of p lie in [-B, B] with B = 1 + max |a_i| / |a_n|."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead if len(p) > 1 else Fraction(1)


@dataclass(frozen=True)
class RootLocation:
    low: Fraction
    high: Fraction
    exact: Fraction | None  # set when the root is known exactly (low == high)


def isolate_roots(p: Poly1, lo, hi, tol) -> list[RootLocation]:
    """Distinct real roots of p in the open interval (lo, hi).

    Each root comes back exact or bracketed by an open interval of width
    <= tol whose endpoints are not roots.  Roots at lo or hi themselves are
    not reported.
    """
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = squarefree_part(p)
    if degree(p) < 1:
        return []
    one = Fraction(1)
    for r in (lo, hi):
        while p and evaluate(p, r) == 0:
            p = divmod_exact(p, (-r, one))[0]
    roots: list[RootLocation] = []
    seq = sturm_sequence(p)
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        n = count_roots_between(seq, a, b)
        if n == 0:
            continue
        if n == 1 and b - a <= tol:
            roots.append(RootLocation(a, b, None))
            continue
        mid = (a + b) / 2
        if evaluate(p, mid) == 0:
            roots.append(RootLocation(mid, mid, mid))
            p = divmod_exact(p, (-mid, one))[0]
            seq = sturm_sequence(p)
            if degree(p) < 1:
                continue
        work.append((a, mid))
        work.append((mid, b))
    return sorted(roots, key=lambda r: r.low)


class DegreeEscalationFailed(Exception):
    pass


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms, den with positive leading coefficient."""

    num: Poly1
    den: Poly1

    def __call__(self, x) -> Fraction:
        d = evaluate(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return evaluate(self.num, x) / d


def _reduced(num: Poly1, den: Poly1) -> RationalFunction:
    g = gcd_monic(num, den)
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


def fit_rational(samples: list[tuple], m: int, n: int) -> RationalFunction | None:
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
    cache: list[tuple] = []
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
