"""Macaulay representations and the derived rank bounds."""

import time
from itertools import accumulate
from math import comb
from random import Random

import pytest

from hyperq.combinat import (
    _last_true,
    _min_degree_for,
    compose_K,
    green_G,
    green_K,
    hermitian_R,
    macaulay_lower,
    macaulay_rep,
    rigidity_bound,
    stability_region,
)
from hyperq.forms import form_from_real_poly
from hyperq.linalg import rank as linalg_rank
from hyperq.multiindex import monomials_of_degree
from hyperq.restrict import embedding, generic_restriction_rank, restriction_matrix


def test_rep_examples():
    rep = macaulay_rep(10, 3)
    assert rep.value() == 10
    assert rep.ks[0] == 5
    # strictly decreasing, one entry per degree down to 1
    assert list(rep.ks) == sorted(rep.ks, reverse=True)
    assert len(set(rep.ks)) == len(rep.ks)
    assert len(rep.ks) == 3


def test_rep_zero_convention():
    rep = macaulay_rep(0, 4)
    assert rep.value() == 0
    assert rep.lower() == 0


def test_rep_roundtrip_small():
    for d in range(1, 6):
        for c in range(0, 400):
            rep = macaulay_rep(c, d)
            assert rep.value() == c
            assert list(rep.ks) == sorted(rep.ks, reverse=True)


def test_rep_rejects_negative():
    with pytest.raises(ValueError):
        macaulay_rep(-1, 2)
    with pytest.raises(ValueError):
        macaulay_rep(3, 0)


def test_lower_monotone():
    for d in range(1, 5):
        prev = 0
        for c in range(0, 300):
            cur = macaulay_lower(c, d)
            assert cur >= prev
            assert cur <= c
            prev = cur


def test_green_G_edges():
    # all of the degree-d coefficient space restricts to everything
    for n in range(2, 6):
        for d in range(1, 5):
            full = comb(n + d, d)
            assert green_G(n, d, full) == comb(n + d - 1, d)
            assert green_G(n, d, 0) == 0
    with pytest.raises(ValueError):
        green_G(2, 2, comb(4, 2) + 1)
    with pytest.raises(ValueError):
        green_G(1, 2, 1)


def test_green_K_quadratic_row():
    for k in [*range(10**4 + 1), 10**6]:
        assert green_K(2, k) == k * (k + 1) // 2


def test_green_K_pinned():
    assert green_K(2, 3) == 6
    assert green_K(3, 2) == 2


def test_green_K_monotone():
    for n in range(2, 6):
        prev = 0
        for k in range(0, 15):
            cur = green_K(n, k)
            assert cur >= prev
            assert cur >= k
            prev = cur


def test_compose_chain_example():
    # K_2(K_3(2)) = K_2(2) = 3
    assert compose_K(1, 3, 2) == 3
    # a single step is one green_K application
    assert compose_K(2, 3, 5) == green_K(3, 5)
    with pytest.raises(ValueError):
        compose_K(3, 3, 7)


def test_hermitian_R_small():
    assert hermitian_R(1, 2, 1) == green_K(2, green_K(2, 1)) == 1
    assert hermitian_R(1, 2, 2) == green_K(2, green_K(2, 2))


def test_rigidity_pinned():
    assert rigidity_bound(2, 1, 1) == 3


def test_rigidity_validation():
    with pytest.raises(ValueError):
        rigidity_bound(2, 2, 1)
    with pytest.raises(ValueError):
        rigidity_bound(2, 0, 1)
    with pytest.raises(ValueError):
        rigidity_bound(1, 2, 1)


def test_stability_region_floor():
    # floor for (4, 2) is A + B >= 17
    assert stability_region(4, 2, 9, 8)
    assert not stability_region(4, 2, 8, 8)
    # the two linear inequalities cut the sector
    assert not stability_region(4, 2, 80, 10)
    assert not stability_region(4, 2, 10, 80)


def test_stability_region_validation():
    with pytest.raises(ValueError):
        stability_region(4, 1, 10, 10)
    with pytest.raises(ValueError):
        stability_region(2, 3, 10, 10)
    with pytest.raises(ValueError):
        stability_region(4, 2, 1, 10)


# Linear-scan reference implementations, the oracles for the bisecting code.


def scan_rep(c, d):
    """Greedy k_i found by stepping k up from i - 1 one at a time."""
    ks = []
    rem = c
    for i in range(d, 0, -1):
        k = i - 1
        while comb(k + 1, i) <= rem:
            k += 1
        ks.append(k)
        rem -= comb(k, i)
    assert rem == 0
    return tuple(ks)


def scan_lower(c, d):
    return sum(comb(k - 1, i) for k, i in zip(scan_rep(c, d), range(d, 0, -1)) if k >= 1)


def scan_min_degree(n, N):
    d = 1
    while comb(n + d, d) < N:
        d += 1
    return d


def scan_K(n, k):
    """green_K by trying N = 0, 1, 2, ... until G exceeds k."""
    best = -1
    N = 0
    while True:
        d = scan_min_degree(n, N)
        if comb(n + d - 1, d) - scan_lower(comb(n + d, d) - N, d) > k:
            return best
        best = N
        N += 1


def test_rep_matches_scan():
    rng = Random(6)
    for d in range(1, 41):
        for c in [*range(401), *(rng.randint(0, 10**12) for _ in range(12))]:
            rep = macaulay_rep(c, d)
            assert macaulay_lower(c, d) == rep.lower(), (c, d)
            if d >= 3 or c <= 10**7:
                assert rep.ks == scan_rep(c, d), (c, d)
                assert rep.lower() == scan_lower(c, d), (c, d)
                continue
            # the scan steps k_d up one at a time, too slowly for degrees 1
            # and 2 at this size: check the greedy choice level by level
            rem = c
            for k, i in rep.terms():
                assert comb(k, i) <= rem < comb(k + 1, i), (c, d)
                rem -= comb(k, i)
            assert rem == 0


def level_rep(c, d):
    """The rep found one level at a time, the oracle for the runs: each k_i is
    bisected while rem > i, then k_j = j for the next rem levels and j - 1 below."""
    ks, rem, i = [], c, d
    while rem > i:
        hi = ks[-1] if ks else None
        ks.append(rem if i == 1 else _last_true(lambda k: comb(k, i) <= rem, i + 1, hi))
        rem -= comb(ks[-1], i)
        i -= 1
    ks += [j if j > i - rem else j - 1 for j in range(i, 0, -1)]
    return tuple(ks)


def level_lower(c, d):
    return sum(comb(k - 1, i) for k, i in zip(level_rep(c, d), range(d, 0, -1)) if k > i)


def test_runs_match_level_walk():
    rng = Random(23)
    cases = [(c, d) for d in range(1, 12) for c in range(3000)]
    cases += [(rng.randint(0, 10**12), rng.randint(1, 30)) for _ in range(3000)]
    cases += [(rng.randrange(10**60), rng.randint(1, 400)) for _ in range(100)]
    for c, d in cases:
        rep = macaulay_rep(c, d)
        assert rep.ks == level_rep(c, d), (c, d)
        assert macaulay_lower(c, d) == rep.lower() == level_lower(c, d), (c, d)


def gallop_min_degree(n, N):
    return 1 + _last_true(lambda e: e == 0 or comb(n + e, e) < N, 0)


def test_min_degree_matches_scan():
    for n in range(2, 8):
        for N in range(3000):
            assert _min_degree_for(n, N) == scan_min_degree(n, N), (n, N)


def test_min_degree_matches_gallop():
    # the float estimate only starts an exact walk; it must agree with the gallop
    # near powers of ten, across the switch to the gallop at x = 2^40 (10^24 for
    # n = 2), where the float error spans many degrees (10^60, 10^300), and past
    # float range (10^400)
    for n in range(2, 9):
        for N in [*range(5000), *(10**k + s for k in range(1, 41) for s in (-1, 1))]:
            assert _min_degree_for(n, N) == gallop_min_degree(n, N), (n, N)
    for n in (2, 5):
        for N in (10**60 - 1, 10**60, 10**300 + 1, 10**400 - 1, 10**400):
            assert _min_degree_for(n, N) == gallop_min_degree(n, N), (n, N)


def test_green_K_matches_scan():
    for k in range(61):
        assert green_K(2, k) == scan_K(2, k), k
    for n in range(3, 7):
        for k in range(121):
            assert green_K(n, k) == scan_K(n, k), (n, k)


def test_lex_segments_attain_green_bound():
    """Green's bound G(n, d, N) is the restriction dimension of a lex segment.

    L(N) is the span of the first N degree-d monomials in x_1 > ... > x_{n+1},
    lex order.  It is strongly stable: with m in L(N) and x_j | m, so is
    m x_i / x_j for every i < j.  Restrict to a hyperplane x_{n+1} = l(x_1..x_n).
    A monomial m' x_{n+1}^e of L(N) becomes m' l^e, whose monomials move the
    e factors x_{n+1} to smaller variables and so lie in L(N), free of x_{n+1};
    those free monomials restrict to themselves.  So dim L(N)|_H is the number
    of monomials of L(N) free of x_{n+1}, for every such H, a general one
    included.  Green's theorem (Green 1989) bounds dim V|_H by G(n, d, N) for
    every N-dimensional V at a general H; the count shows lex segments attain it.

    The count is checked against green_G directly, then as the exact rank of
    L(N) on a random integer hyperplane, then as the generic restriction rank
    of sum |m|^2 over L(N) to n-planes: a sum of squares restricts to the span
    of its restricted terms.  Last, green_K is sharp: L(K_n(k)) restricts to
    rank <= k and L(K_n(k) + 1) to more.
    """
    def lex(n, d):
        return list(monomials_of_degree(n + 1, d))  # lex order within one degree

    def squares(monos):
        return form_from_real_poly({m: 1 for m in monos}, len(monos[0]))

    for n in range(2, 7):
        for d in range(1, (8 if n < 5 else 5) + 1):
            free = [0, *accumulate(not m[-1] for m in lex(n, d))]
            assert free == [green_G(n, d, N) for N in range(len(free))], (n, d)
    rng = Random(11)
    for n, d in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)]:
        T = restriction_matrix(embedding([[rng.randint(-999, 999) for _ in range(n)] for _ in range(n + 1)]), d)
        assert list(T.rows) == lex(n, d)
        for N in range(len(T.rows) + 1):
            assert linalg_rank(T.entries[:N]) == green_G(n, d, N), (n, d, N)
    for n, d in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        monos = lex(n, d)
        for N in range(1, len(monos) + 1):
            assert generic_restriction_rank(squares(monos[:N]), n, trials=1, seed=N) == green_G(n, d, N), (n, d, N)
    for n, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]:
        K = green_K(n, k)
        monos = lex(n, _min_degree_for(n, K + 1))
        assert generic_restriction_rank(squares(monos[:K]), n, trials=1) <= k
        assert generic_restriction_rank(squares(monos[:K + 1]), n, trials=1) > k


@pytest.mark.parametrize(
    "call, args",
    [
        (green_K, (2, 10**6)),
        (hermitian_R, (1, 6, 50)),
        (compose_K, (1, 8, 1000)),
        (green_K, (5, 10**40)),
        (green_K, (8, 10**60)),
        (hermitian_R, (1, 4, 10**6)),
        (rigidity_bound, (6, 2, 10**5)),
    ],
    ids=[
        "K_2(10^6)",
        "hermitian_R(1,6,50)",
        "compose_K(1,8,1000)",
        "K_5(10^40)",
        "K_8(10^60)",
        "hermitian_R(1,4,10^6)",
        "rigidity_bound(6,2,10^5)",
    ],
)
def test_large_bounds_finish(call, args):
    start = time.perf_counter()
    value = call(*args)
    assert time.perf_counter() - start < 1.0
    assert value >= args[-1]
