"""Macaulay representations and the rank bound functions built on them.

The d-th Macaulay representation writes any c >= 0 uniquely as
c = sum of binom(k_i, i) for i = d down to 1 with k_d > ... > k_1 >= 0
(binomials with top < bottom count as zero).  It is found as runs of
constant k_i - i, at most n + 1 of them when c < binom(n + d, d), each
ended by one gallop, so a probe of G costs O(n log d) binomials.
Lowering every k_i by one gives the operator c -> c_<d>, from which the
hyperplane restriction bound G(n, d, N) and its derived quantities
follow; K_n(k), the inverse of G in N, reads off one representation.
All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Tuple


@dataclass(frozen=True)
class MacaulayRep:
    """The unique strictly decreasing binomial expansion of c in degree d.

    ks holds (k_d, k_{d-1}, ..., k_1).
    """

    c: int
    d: int
    ks: Tuple[int, ...]

    def terms(self):
        """The (k_i, i) pairs, i running d down to 1."""
        return zip(self.ks, range(self.d, 0, -1))

    def lower(self) -> int:
        """Value after replacing every binom(k_i, i) by binom(k_i - 1, i)."""
        return macaulay_lower(self.c, self.d)


def _gallop(m: int, r: int, lo: int, hi: int | None = None) -> int:
    """Largest x >= lo with binom(x + m, m) <= r, for that true at lo and false at hi,
    if given: gallop up by doubling steps, then bisect, the test inline."""
    if hi is None:
        hi = lo + 1
        while comb(hi + m, m) <= r:  # double the step
            lo, hi = hi, hi + 2 * (hi - lo)
    mid = hi - 1  # probe hi - 1 first: at large d, s most often falls by one from run to run
    while hi - lo > 1:
        if comb(mid + m, m) <= r:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) // 2
    return lo


def _runs(c: int, d: int) -> list[tuple[int, int, int]]:
    """The rep of c as runs (i, j, s): k_l = l + s for l = i down to j, s falling
    from run to run.  Level i with rem > i takes the largest s with binom(i + s, i)
    <= rem, so s >= 1.  By the hockey-stick identity level l < i of the run starts
    with rem = base + binom(l + s + 1, s + 1), base = rem_i - binom(i + s + 1, s + 1) < 0 by
    the choice of s, and keeps s while binom(l + s, s + 1) > -base - 1 (then rem > l): j = x + 2
    for the largest x >= -1 whose level x + 1 does not (0 at x = -1), and x < i - 2.
    The tail then takes k = l for rem levels (s = 0), then l - 1 (s = -1)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    runs, rem, i, s = [], c, d, None
    while rem > i:
        s = rem - 1 if i == 1 else _gallop(i, rem, 1, s)
        rem, j = rem - comb(i + s, s), i
        if comb(i - 1 + s, s) <= rem:  # level i - 1 keeps s too
            base = rem - comb(i + s, s + 1)
            j = 2 + _gallop(s + 1, -base - 1, -1, i - 2)
            rem = base + comb(j + s, s + 1)
        runs.append((i, j, s))
        i = j - 1
    return runs + [(i, i - rem + 1, 0), (i - rem, 1, -1)]


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy: each k_i is the largest k with binom(k, i) <= rem."""
    ks: list[int] = []
    for i, j, s in _runs(c, d):
        ks.extend(range(i + s, j + s - 1, -1))
    return MacaulayRep(c, d, tuple(ks))


def macaulay_lower(c: int, d: int) -> int:
    """The operator c -> c_<d>; monotone nondecreasing in c for fixed d.  A run
    adds binom(l + s - 1, l) over l = i..j, by the hockey-stick identity."""
    return sum(comb(i + s, s) - comb(j - 1 + s, s) for i, j, s in _runs(c, d) if s > 0)


def green_G(n: int, d: int, N: int) -> int:
    """Generic hyperplane restriction bound for a rank-N degree-d system.

    The system lives in n + 1 variables; the value is invariant under
    raising d as long as N <= binom(n + d, d) still holds.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if d < 1:
        raise ValueError("d must be positive")
    if N < 0:
        raise ValueError("N must be nonnegative")
    total = comb(n + d, d)
    if N > total:
        raise ValueError(f"N = {N} exceeds the monomial count binom({n + d},{d}) = {total}")
    return comb(n + d - 1, d) - macaulay_lower(total - N, d)


def _min_degree_for(n: int, N: int) -> int:
    """Smallest d >= 1 whose monomial count binom(n + d, d) reaches N, for n >= 1: one gallop."""
    return _gallop(n, N - 1, 0) + 1


def green_K(n: int, k: int) -> int:
    """Largest system rank whose generic hyperplane restriction rank is <= k.

    A closed form from one Macaulay representation, with no search over N.

    Lemma: for d, t >= 1 with t = sum binom(m_i, i) its d-th representation,
    the smallest c with c_<d> >= t is c* = sum over m_i >= i of
    binom(m_i + 1, i).  Those terms are a representation, so c*_<d> = t.
    In c* - 1 the hockey-stick identity turns the lowest term binom(m_j + 1, j)
    into sum of binom(m_j - j + l, l) over l = 1..j, which lowers to
    binom(m_j, j) - 1, so (c* - 1)_<d> = t - 1; and c -> c_<d> is
    nondecreasing, so no smaller c reaches t.

    G(n, d, N) = binom(n - 1 + d, d) - (binom(n + d, d) - N)_<d> is
    nondecreasing in N and does not depend on d while N <= binom(n + d, d).
    Take d least with binom(n - 1 + d, d) > k; then G(n, d, binom(n + d, d))
    > k, so K_n(k) < binom(n + d, d) and K_n(k) = binom(n + d, d) - c* with
    t = binom(n - 1 + d, d) - k.  A run (i, j, s) of t with s >= 0 has
    m_l = l + s for l = i..j and adds binom(i + s + 2, i) - binom(j + s + 1, j - 1)
    to c*, again by the hockey-stick identity.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = _min_degree_for(n - 1, k + 1)
    t = comb(n - 1 + d, d) - k
    c = sum(comb(i + s + 2, i) - comb(j + s + 1, j - 1) for i, j, s in _runs(t, d) if s >= 0)
    return comb(n + d, d) - c


def _chain(m: int, n: int, k: int, step: Callable[[int, int], int]) -> int:
    """step(m + 1, ... step(n - 1, step(n, k))): one step per dimension from n down to m + 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n <= m:
        raise ValueError("n must exceed m")
    if k < 0:
        raise ValueError("k must be nonnegative")
    for j in range(n, m, -1):
        k = step(j, k)
    return k


def compose_K(m: int, n: int, k: int) -> int:
    """Chain of green_K steps walking the dimension from n down to m + 1.

    The innermost application is K_n and the outermost K_{m+1}, so a
    restriction-rank bound k known on m-dimensional slices propagates
    through n - m single steps to the full space.
    """
    return _chain(m, n, k, green_K)


def hermitian_R(m: int, n: int, k: int) -> int:
    """Like compose_K but each dimension step applies green_K twice.

    The two-sided (Hermitian) restriction argument polarizes twice per
    step, giving the single-step bound R_j(k) = K_j(K_j(k)).
    """
    return _chain(m, n, k, lambda j, x: green_K(j, green_K(j, x)))


def rigidity_bound(a: int, b: int, B: int) -> int:
    """Largest A admitted by the rank argument for maps Q(a,b) -> Q(A,B).

    Valid when a > b (otherwise the source is sphere-like and carries no
    rigidity).  The b-dimensional affine slices of Q(a,b) force
    restriction rank at most B + 1, which compose_K lifts to a + b
    dimensions.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    if a <= b:
        raise ValueError("requires a > b; equal signatures carry no rigidity")
    if B < 0:
        raise ValueError("B must be nonnegative")
    return compose_K(b, a + b, B + 1)


def stability_region(a: int, b: int, A: int, B: int) -> bool:
    """Whether (A, B) lies in the constructive sector for source (a, b).

    Integer arithmetic only: A + B >= a^2 + ab - 2a + 1 together with
    a(B - b + 1) >= A(b - 1) and a(A - b + 1) >= B(b - 1).
    """
    if b < 2:
        raise ValueError("b must be at least 2")
    if a < b:
        raise ValueError("requires a >= b")
    if A < 2 or B < 2:
        raise ValueError("A and B must be at least 2")
    if A + B < a * a + a * b - 2 * a + 1:
        return False
    if a * (B - b + 1) < A * (b - 1):
        return False
    if a * (A - b + 1) < B * (b - 1):
        return False
    return True
