"""Macaulay representations and the rank bound functions built on them.

The d-th Macaulay representation writes any c >= 0 uniquely as
c = sum of binom(k_i, i) for i = d down to 1 with k_d > ... > k_1 >= 0
(binomials with top < bottom count as zero).  Lowering every k_i by one
gives the operator c -> c_<d>, from which the hyperplane restriction
bound G(n, d, N) and its derived quantities follow.  All arithmetic is
arbitrary-precision integer; nothing here can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
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
        return _lower_sum(self.terms())


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


def _rep_head(c: int, d: int) -> tuple[list[int], int]:
    """The leading k_d, k_{d-1}, ... of the rep of c, and the remainder: stops
    at the first level i with rem <= i, since every later k_j is then j or
    j - 1 and adds binom(k_j - 1, j) = 0 to lower()."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    ks, rem, i = [], c, d
    while rem > i:
        # binom(k, 1) = k; below the top, binom(k_{i+1}, i) > rem bounds k_i
        hi = ks[-1] if ks else None
        ks.append(rem if i == 1 else _last_true(lambda k: comb(k, i) <= rem, i + 1, hi))
        rem -= comb(ks[-1], i)
        i -= 1
    return ks, rem


def _lower_sum(terms) -> int:
    """Sum of binom(k_i - 1, i) over the leading terms with k_i > i."""
    return sum(comb(k - 1, i) for k, i in takewhile(lambda t: t[0] > t[1], terms))


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy: each k_i is the largest k with binom(k, i) <= rem, bisected in
    the head; the tail takes k_j = j for the next rem levels, then j - 1."""
    ks, rem = _rep_head(c, d)
    top = d - len(ks)
    ks += [j if j > top - rem else j - 1 for j in range(top, 0, -1)]
    return MacaulayRep(c, d, tuple(ks))


def macaulay_lower(c: int, d: int) -> int:
    """The operator c -> c_<d>; monotone nondecreasing in c for fixed d."""
    return _lower_sum(zip(_rep_head(c, d)[0], range(d, 0, -1)))


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
