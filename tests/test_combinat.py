"""Macaulay representations and the derived rank bounds."""

import time
from math import comb
from random import Random

import pytest

from hyperq.combinat import (
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


def test_min_degree_matches_scan():
    for n in range(2, 8):
        for N in range(3000):
            assert _min_degree_for(n, N) == scan_min_degree(n, N), (n, N)


def test_green_K_matches_scan():
    for k in range(61):
        assert green_K(2, k) == scan_K(2, k), k
    for n in range(3, 7):
        for k in range(121):
            assert green_K(n, k) == scan_K(n, k), (n, k)


@pytest.mark.parametrize(
    "call, args",
    [(green_K, (2, 10**6)), (hermitian_R, (1, 6, 50)), (compose_K, (1, 8, 1000))],
    ids=["K_2(10^6)", "hermitian_R(1,6,50)", "compose_K(1,8,1000)"],
)
def test_large_bounds_finish(call, args):
    start = time.perf_counter()
    value = call(*args)
    assert time.perf_counter() - start < 1.0
    assert value >= args[-1]
