"""Macaulay representations and the derived rank bounds."""

import time
from fractions import Fraction
from itertools import accumulate
from math import comb
from random import Random

import pytest

from dense import bareiss_rank
from hyperq.combinat import (
    _gallop,
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
from hyperq.restrict import embedding, generic_restriction_rank
from tuple_polys import monomials_of_degree, monomials_up_to, restriction_matrix


def macaulay_value(rep):
    """The number a Macaulay representation stands for: the sum of C(k_i, i) over its terms."""
    return sum(comb(k, i) for k, i in rep.terms())


def test_rep_examples():
    rep = macaulay_rep(10, 3)
    assert macaulay_value(rep) == 10
    assert rep.ks[0] == 5
    # strictly decreasing, one entry per degree down to 1
    assert list(rep.ks) == sorted(rep.ks, reverse=True)
    assert len(set(rep.ks)) == len(rep.ks)
    assert len(rep.ks) == 3


def test_rep_zero_convention():
    rep = macaulay_rep(0, 4)
    assert macaulay_value(rep) == 0
    assert rep.lower() == 0


def test_rep_roundtrip_small():
    for d in range(1, 6):
        for c in range(0, 400):
            rep = macaulay_rep(c, d)
            assert macaulay_value(rep) == c
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: _chain runs K_{m+1}(...K_n(k)), not K_n(...K_{m+1}(k)); "
                   "its fix waits for a change that also moves the bench pin rigidity(2, 1, 1) == 3 in "
                   "bench/checks.py check_rigidity_sweep")
def test_chained_bounds_stay_above_exact_ranks():
    # identity_map(a, b) verifies with A = a for these 26 pairs (tests/test_quadrics.py), and
    # |1|^2 + |z1|^2 + ... + |z5|^2 (rank 6) and |1|^2 + ... + |z3|^2 (rank 4) restrict to rank 3 on
    # affine 2-planes and 2 on lines (tests/test_restrict.py): no bound may fall below those ranks
    pairs = [(a, b) for b in range(1, 5) for a in range(b + 3, 12)]
    assert len(pairs) == 26
    assert all(rigidity_bound(a, b, b) >= a for a, b in pairs)
    assert hermitian_R(2, 5, 3) >= 6
    assert compose_K(1, 3, 2) >= 4


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


def _last_true(pred, lo, hi=None):
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


def test_gallop_matches_last_true():
    # the three call shapes: a level's s (m = i, lo = 1), a run's end (m = s + 1, lo = -1,
    # hi = i - 2) and the least degree (m = n, r = N - 1, lo = 0); hi is None or above the answer
    rng = Random(35)
    cases = [(m, r, lo) for m in range(1, 9) for r in range(-3, 400) for lo in (-1, 0, 1)]
    cases += [(rng.randint(1, 40), rng.randrange(10 ** rng.randint(1, 60)), rng.choice((-1, 0, 1))) for _ in range(2000)]
    for m, r, lo in cases:
        want = _last_true(lambda x: comb(x + m, m) <= r, lo)
        assert _gallop(m, r, lo) == want, (m, r, lo)
        for hi in (want + 1, want + 2, want + 1 + rng.randrange(1000)):
            assert _gallop(m, r, lo, hi) == _last_true(lambda x: comb(x + m, m) <= r, lo, hi) == want, (m, r, lo, hi)


def test_gallop_edges():
    # lo = -1 with r < 0: nothing fits past lo, whatever hi is
    for m in range(1, 6):
        assert _gallop(m, -1, -1) == _gallop(m, -5, -1, 7) == -1
    # N <= 1: the least degree is 1, as is the gallop's at r = N - 1 <= 0
    for n in range(1, 6):
        for N in (0, 1):
            assert _gallop(n, N - 1, 0) + 1 == _min_degree_for(n, N) == 1
    # lo + 1 == hi: lo, with hi trusted to fail even where it would fit
    for m, r, lo in ((3, 10**9, 4), (2, 0, -1), (7, 10**40, 0)):
        assert _gallop(m, r, lo, lo + 1) == lo
    # m near 10^150 with a small answer: every probe is a binomial with a small bottom
    m = 10**150 + 7
    start = time.perf_counter()
    assert _gallop(m, 5, 0) == 0
    assert _gallop(m, m + 1, 0) == 1
    assert _gallop(m, comb(m + 3, 3), 0) == 3
    assert _gallop(m, comb(m + 3, 3), 1, 40) == 3
    assert time.perf_counter() - start < 0.05


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


def test_min_degree_matches_scan():
    # n = 1 too: green_K asks for the least degree in n - 1 variables
    for n in range(1, 8):
        for N in range(3000):
            assert _min_degree_for(n, N) == scan_min_degree(n, N), (n, N)


def test_min_degree_is_least():
    # the defining property, binom(n + d, d) >= N and d = 1 or binom(n + d - 1, d - 1) < N,
    # near powers of ten and past float range (10^400)
    cases = [(n, N) for n in range(1, 9) for N in [*range(5000), *(10**k + s for k in range(1, 41) for s in (-1, 1))]]
    cases += [(n, N) for n in (1, 2, 5) for N in (10**60 - 1, 10**60, 10**300 + 1, 10**400 - 1, 10**400)]
    for n, N in cases:
        d = _min_degree_for(n, N)
        assert comb(n + d, d) >= N and (d == 1 or comb(n + d - 1, d - 1) < N), (n, N)


def gallop_K(n, k):
    """green_K as a gallop and bisection over N, each probe of G at the least degree covering N."""
    return _last_true(lambda N: green_G(n, _min_degree_for(n, N), N) <= k, 0)


def test_green_K_matches_gallop():
    rng = Random(29)
    cases = [(n, k) for n in range(2, 10) for k in range(3000)]
    cases += [(rng.randint(2, 9), rng.randrange(10 ** rng.randint(4, 30))) for _ in range(100)]
    for n, k in cases:
        assert green_K(n, k) == gallop_K(n, k), (n, k)


def test_least_c_reaching_t_inverts_one_representation():
    """The lemma behind green_K: the least c with c_<d> >= t is the sum of binom(m_i + 1, i)
    over the terms binom(m_i, i) of t with m_i >= i; c -> c_<d> steps by 0 or 1."""
    for d in range(1, 8):
        lowered = [macaulay_lower(c, d) for c in range(3000)]
        assert lowered[0] == 0
        assert all(b - a in (0, 1) for a, b in zip(lowered, lowered[1:])), d
        least = {}
        for c, t in enumerate(lowered):
            least.setdefault(t, c)
        for t in range(1, lowered[-1] + 1):
            assert least[t] == sum(comb(m + 1, i) for m, i in macaulay_rep(t, d).terms() if m >= i), (d, t)


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
        linear = [[rng.randint(-999, 999) for _ in range(n)] for _ in range(n + 1)]
        embedding(linear)  # a hyperplane: full column rank
        rows, _, T = restriction_matrix(linear, d)
        assert rows == lex(n, d)
        for N in range(len(rows) + 1):
            assert bareiss_rank(T[:N]) == green_G(n, d, N), (n, d, N)
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
        (green_K, (2, 10**300)),
        (hermitian_R, (1, 6, 50)),
        (compose_K, (1, 8, 1000)),
        (green_K, (5, 10**40)),
        (green_K, (8, 10**60)),
        (hermitian_R, (1, 4, 10**6)),
        (rigidity_bound, (6, 2, 10**5)),
        (green_K, (3, 10**300)),
        (hermitian_R, (2, 6, 10**12)),
    ],
    ids=[
        "K_2(10^6)",
        "K_2(10^300)",
        "hermitian_R(1,6,50)",
        "compose_K(1,8,1000)",
        "K_5(10^40)",
        "K_8(10^60)",
        "hermitian_R(1,4,10^6)",
        "rigidity_bound(6,2,10^5)",
        "K_3(10^300)",
        "hermitian_R(2,6,10^12)",
    ],
)
def test_large_bounds_finish(call, args):
    start = time.perf_counter()
    value = call(*args)
    assert time.perf_counter() - start < 1.0
    assert value >= args[-1]


def test_grlex_prefixes_attain_green_G_and_K_on_affine_hyperplanes():
    """The affine form of the lex segments above, through criterion 3's oracle, at every N and k.

    On x0 = 1 a degree-d system in n + 1 homogeneous variables is a space of
    polynomials of degree <= d in n variables, and a generic hyperplane is a generic
    affine one, w -> Ew + t with E an n x (n - 1) matrix.  In lex order with x0
    first, a larger power of x0 is a smaller affine degree and monomials of one
    degree keep their lex order, so the lex-initial segment of N monomials is the
    first N of `monomials_up_to`, in grlex order.  Its restriction's rank must equal
    G(n, d, N), and the largest N whose rank is at most k must equal K_n(k) whenever
    K_n(k) is below the degree's monomial count.

    A sampled rank can only undershoot: every minor that vanishes identically in E and
    t vanishes at the draw.  The generic rank r of a segment is certified by one
    nonzero r x r minor, a polynomial of degree <= d r in the draws, so by
    Schwartz-Zippel a draw from 1..10^6 misses it with probability <= d r / 10^6.
    Summed over every segment below, the chance that any sampled rank undershoots is
    the asserted bound, under 1/100.
    """
    rng = Random(2024)
    bound, g_cases, k_cases = Fraction(0), 0, 0
    for n, top in ((2, 4), (3, 4), (4, 3)):
        for d in range(1, top + 1):
            linear = [[rng.randint(1, 10**6) for _ in range(n - 1)] for _ in range(n)]
            rows, cols, T = restriction_matrix(linear, d, [rng.randint(1, 10**6) for _ in range(n)])
            assert rows == monomials_up_to(n, d)
            ranks = [bareiss_rank(T[:N]) for N in range(len(rows) + 1)]
            for N in range(1, len(rows) + 1):
                assert ranks[N] == green_G(n, d, N), (n, d, N)
                bound += Fraction(d * ranks[N], 10**6)
                g_cases += 1
            for k in range(len(cols)):
                if green_K(n, k) < len(rows):
                    assert max(N for N, r in enumerate(ranks) if r <= k) == green_K(n, k), (n, d, k)
                    k_cases += 1
    assert (g_cases, k_cases) == (158, 82)
    assert bound < Fraction(1, 100)
