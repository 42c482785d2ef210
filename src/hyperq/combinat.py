"""Macaulay representations and the rank bound functions built on them.

The d-th Macaulay representation writes any c >= 0 uniquely as
c = sum of binom(k_i, i) for i = d down to 1 with k_d > ... > k_1 >= 0
(binomials with top < bottom count as zero).  It is found as runs of
constant k_i - i, at most n + 1 of them when c < binom(n + d, d), each
ended by one gallop, so a probe of G costs O(n log d) binomials.
Lowering every k_i by one gives the operator c -> c_<d>, from which the
hyperplane restriction bound G(n, d, N) and its derived quantities
follow.  All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, inf
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
        """Yield (k_i, i) pairs, i running d down to 1."""
        for pos, k in enumerate(self.ks):
            yield k, self.d - pos

    def value(self) -> int:
        return sum(comb(k, i) for k, i in self.terms())

    def lower(self) -> int:
        """Value after replacing every binom(k_i, i) by binom(k_i - 1, i)."""
        return macaulay_lower(self.c, self.d)


def _last_true(pred, lo: int, hi: int | None = None) -> int:
    """Largest x >= lo with pred(x), for pred true at lo and false from some
    point on (at hi, if given): gallop up by doubling steps, then bisect."""
    if hi is None:
        step, hi = 1, lo + 1
        while pred(hi):
            lo, step = hi, 2 * step
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo


def _runs(c: int, d: int) -> list[tuple[int, int, int]]:
    """The rep of c as runs (i, j, s): k_l = l + s for l = i down to j, s falling
    from run to run.  Level i with rem > i takes the largest s with binom(i + s, i)
    <= rem, so s >= 1.  By the hockey-stick identity level l < i of the run starts
    with rem = base + binom(l + s + 1, s + 1), base = rem_i - binom(i + s + 1, s + 1),
    and keeps s while base + binom(l + s, s + 1) >= 0 (then rem > l), a gallop's test.
    The tail then takes k = l for rem levels (s = 0), then l - 1 (s = -1)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    runs, rem, i, s = [], c, d, None
    while rem > i:
        s = rem - 1 if i == 1 else _last_true(lambda t: comb(i + t, i) <= rem, 1, s)
        rem, j = rem - comb(i + s, s), i
        if comb(i - 1 + s, s) <= rem:  # level i - 1 keeps s too
            base = rem - comb(i + s, s + 1)
            j = i - _last_true(lambda t: t < i and base + comb(i - t + s, s + 1) >= 0, 1)
            rem = base + comb(j + s, s + 1)
        runs.append((i, j, s))
        i = j - 1
    return runs + [(i, i - rem + 1, 0), (i - rem, 1, -1)]


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy: each k_i is the largest k with binom(k, i) <= rem."""
    return MacaulayRep(c, d, tuple([l + s for i, j, s in _runs(c, d) for l in range(i, j - 1, -1)]))


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
    """Smallest d >= 1 whose monomial count binom(n + d, d) reaches N.

    n! binom(n + d, d) = (d + 1) ... (d + n) lies between (d + 1)^n and, by
    AM-GM, (d + (n + 1) / 2)^n.  So with x = (N n!)^(1/n) the answer is at
    least x - (n + 1) / 2 and below max(x, 2): at most (n + 3) / 2 exact steps
    up from there.  Past 2^40, where the float error of x nears a degree, gallop.
    """
    try:
        x = (N * factorial(n)) ** (1 / n)
    except OverflowError:
        x = inf
    if x > 2**40:
        return 1 + _last_true(lambda e: e == 0 or comb(n + e, e) < N, 0)
    d = max(1, int(x - (n + 1) / 2))
    while comb(n + d, d) < N:
        d += 1
    return d


def green_K(n: int, k: int) -> int:
    """Largest system rank whose generic hyperplane restriction rank is <= k.

    Gallops and bisects over N, using for each N the smallest d whose
    monomial count covers N; degree invariance makes that choice
    harmless, and G is nondecreasing in N, so O(log K) probes of G suffice.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _last_true(lambda N: green_G(n, _min_degree_for(n, N), N) <= k, 0)


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
