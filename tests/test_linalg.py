"""Exact solve, the fraction-free symmetric LDL* kernel read through forms, and
the Gauss-Jordan pass's rank of E, all against dense oracles; the one-triangle kernel and
the Gaussian-integer solve against the full-square kernel and the Q(i) solve
they replaced."""

from decimal import Decimal
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from dense import (ZERO, bareiss_rank, cleared_solve, conj, full_symmetric_steps, gr, gr_ldl_components, identity,
                   lift, matmul, matrix_components, matrix_form, rational_solve)
from hyperq.errors import ConjugateMismatch, NonRealDiagonal
from hyperq.forms import (_elimination, compose_linear, decompose, form_from_entries, form_from_real_poly, form_inertia,
                          form_rank)
from hyperq.linalg import _cleared, _gauss_jordan, _symmetric_steps
from hyperq.multiindex import unit
from hyperq.restrict import embedding
from hyperq.scalars import GR_ZERO, GaussianRational


def _rand_gr(rng, span=9):
    return gr(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def _hermitian(rng, n, span=9):
    mat = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = gr(Fraction(rng.randint(-span, span)))
        for j in range(i + 1, n):
            x = _rand_gr(rng, span)
            mat[i][j] = x
            mat[j][i] = conj(x)
    return mat


def test_rank_matches_bareiss_on_products():
    # the Gauss-Jordan pass's pivot count, the rank that compose_linear's carry test and embedding
    # read, against the Bareiss rank of A B with A n x k and B k x m, which is at most k: square, wide,
    # tall, and rank-deficient, given as GaussianRationals and with each entry written as an int, a
    # Fraction, a GaussianRational or an (re, im) pair where it can be; the pass over [A B | I] leaves
    # Y with Y A B = d R, R the reduced echelon form, so every division was exact; the pivot count of
    # the form |A B w|^2 agrees, and embedding accepts exactly the products of rank m
    rng, mix = Random(1201), Random(1202)
    shapes, kinds = set(), set()
    for real in [False] * 60 + [True] * 30:
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(n, m) + 1)
        a, b = ([[_rand_real(rng) if real else _rand_gr(rng, 4) for _ in range(cols)] for _ in range(rows)]
                for rows, cols in ((n, k), (k, m)))
        mat = matmul(a, b) if k else [[ZERO] * m for _ in range(n)]
        want = bareiss_rank(mat)
        mixed = [[_written(mix, x) for x in row] for row in mat]
        kinds.update(type(x) for row in mixed for x in row)
        assert _gauss_jordan(mat, m)[0] == _gauss_jordan(mixed, m)[0] == want <= k
        _assert_echelon(mixed, m, want)
        assert form_rank(compose_linear(_squares(n), mat)) == want
        try:
            embedding(mat)
        except ValueError:
            assert want < m
        else:
            assert want == m
        shapes.add(("square" if n == m else "wide" if n < m else "tall", want < min(n, m)))
    assert len(shapes) == 6 and kinds == {int, Fraction, GaussianRational, tuple}
    # a column that is i times another: dependent over C, though not over R; a repeated column; all zero
    for _ in range(10):
        col = [_rand_gr(rng, 4) for _ in range(4)]
        for mat in ([[x, gr(0, 1) * x, _rand_gr(rng, 4)] for x in col], [[x, _rand_gr(rng, 4), x] for x in col]):
            assert _gauss_jordan(mat, 3)[0] == bareiss_rank(mat) == 2
            _assert_echelon(mat, 3, 2)
            with pytest.raises(ValueError, match="full column rank"):
                embedding(mat)
    zero = [[0, Fraction(0), GR_ZERO, (0, Fraction(0))]] * 3
    assert _gauss_jordan(zero, 4) == (0, [[], [], []], (1, 0)) and bareiss_rank([[_value(x) for x in row] for row in zero]) == 0
    _assert_echelon(zero, 4, 0)
    assert _gauss_jordan([], 0) == (0, [], (1, 0))


def _rand_real(rng):
    return gr(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3))))


def _written(rng, x):
    """x as an int, a Fraction, hyperq's GaussianRational or an (re, im) pair, each where it can be."""
    real = [] if x.im else [x.re] + ([int(x.re)] if x.re.denominator == 1 else [])
    return rng.choice([GaussianRational(x.re, x.im), (x.re, x.im)] + real * 2)


def _assert_echelon(mat, m, r):
    """The pass over [mat | I] leaves the right block Y with Y mat = d R: R's rows over the first r rows,
    d the last pivot, and zero rows after them, R the reduced echelon form of mat over Q(i)."""
    n = len(mat)
    rank, y, d = _gauss_jordan([[*row, *((int(i == j), 0) for j in range(n))] for i, row in enumerate(mat)], m)
    prod = matmul([[gr(*v) for v in row] for row in y], [[_value(x) for x in row] for row in mat])
    want = [[gr(*d) * x for x in row] for row in _reduced_echelon(mat)]
    assert rank == r and prod == want + [[ZERO] * m for _ in range(n - r)]


def _value(x):
    return gr(*x) if type(x) is tuple else lift(x)


def _reduced_echelon(mat):
    """The nonzero rows of the reduced row echelon form of mat over Q(i), by Gauss-Jordan over GaussianRationals."""
    rows, done = [[_value(x) for x in row] for row in mat], []
    for c in range(len(rows[0]) if rows else 0):
        piv = next((row for row in rows if row[c]), None)
        if piv is not None:
            rows.remove(piv)
            piv = [x / piv[c] for x in piv]
            done, rows = ([[x - row[c] * p for x, p in zip(row, piv)] for row in part] for part in (done, rows))
            done.append(piv)
    return done


def _squares(n):
    """|z_1|^2 + ... + |z_n|^2, whose composition with E is |Ew|^2."""
    return form_from_entries(n, ((unit(n, i), unit(n, i), 1) for i in range(n)))


def test_rank_of_outer_product_sums():
    rng = Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        r = rng.randint(0, n)
        vecs = [[_rand_gr(rng, 3) for _ in range(n)] for _ in range(r)]
        mat = [[gr(0)] * n for _ in range(n)]
        for v in vecs:
            for i in range(n):
                for j in range(n):
                    mat[i][j] = mat[i][j] + v[i] * conj(v[j])
        assert form_rank(matrix_form(mat)) == bareiss_rank(mat) <= r


def test_solve_roundtrip():
    rng = Random(5)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        while True:
            mat = [[_rand_gr(rng, 4) for _ in range(n)] for _ in range(n)]
            if bareiss_rank(mat) == n:
                break
        inv = cleared_solve(mat, identity(n))
        assert matmul(mat, inv) == identity(n)
        assert matmul(inv, mat) == identity(n)
        rhs = [[_rand_gr(rng, 4) for _ in range(m)] for _ in range(n)]
        assert matmul(mat, cleared_solve(mat, rhs)) == rhs


def test_solve_singular_raises():
    for solver in (cleared_solve, rational_solve):
        with pytest.raises(ValueError, match="singular"):
            solver([[gr(1), gr(2)], [gr(2), gr(4)]], identity(2))


def test_solve_matches_the_rational_pass():
    # the fraction-free pass over Z[i] against the Q(i) Gauss-Jordan pass it replaced, on
    # invertible and singular systems; zeroed leading entries force row swaps
    rng = Random(1105)
    kinds = set()
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        a = [[_rand_gr(rng, 4) if rng.random() > 0.3 else ZERO for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            a[0][0] = ZERO
        if n > 1 and rng.random() < 0.2:
            a[-1] = [x * gr(0, 2) for x in a[0]]  # singular
        b = [[_rand_gr(rng, 4) for _ in range(m)] for _ in range(n)]
        try:
            want = rational_solve(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                cleared_solve(a, b)
            assert bareiss_rank(a) < n
            kinds.add("singular")
            continue
        assert cleared_solve(a, b) == want
        kinds.add("swap" if not a[0][0] else "plain")
    assert cleared_solve([], []) == rational_solve([], []) == []
    assert kinds == {"singular", "swap", "plain"}


def _pair(rng, span=6):
    return rng.randint(-span, span), rng.randint(-span, span)


def _pair_hermitian(rng, n, zero_diagonal=False, rank=None):
    """A Hermitian matrix of Gaussian-integer pairs: random, with a zero diagonal, or a signed
    sum of `rank` outer products v v*."""
    if rank is not None:
        x = [[(0, 0)] * n for _ in range(n)]
        for _ in range(rank):
            s, v = rng.choice((1, -1)), [_pair(rng, 3) for _ in range(n)]
            for i, (ar, ai) in enumerate(v):
                for j, (br, bi) in enumerate(v):
                    r, im = x[i][j]
                    x[i][j] = (r + s * (ar * br + ai * bi), im + s * (ai * br - ar * bi))
        return x
    x = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        x[i][i] = (0 if zero_diagonal else rng.randint(-9, 9), 0)
        for j in range(i + 1, n):
            re, im = _pair(rng) if rng.random() > 0.2 else (0, 0)
            x[i][j], x[j][i] = (re, im), (re, -im)
    return x


def test_one_triangle_steps_match_the_full_square():
    # the kernel on the upper triangle yields what the full-square kernel yields, step by step
    rng = Random(1106)
    kinds = set()
    cases = [[], [[(0, 0)]], [[(-7, 0)]], [[(0, 0)] * 3 for _ in range(3)]]
    for _ in range(60):
        n = rng.randint(2, 10)
        cases += [_pair_hermitian(rng, n), _pair_hermitian(rng, n, zero_diagonal=True),
                  _pair_hermitian(rng, n, rank=rng.randint(1, n - 1))]
    for x in cases:
        want = list(full_symmetric_steps([row[:] for row in x]))
        assert list(_symmetric_steps([row[i:] for i, row in enumerate(x)])) == want
        kinds.update(len(cols) for *_, cols in want)
    assert kinds == {1, 2}


def test_ldl_reconstructs_the_matrix():
    rng = Random(9)
    for _ in range(30):
        n = rng.randint(1, 6)
        mat = _hermitian(rng, n)
        comps = matrix_components(mat)
        acc = [[gr(0)] * n for _ in range(n)]
        for sign, weight, vec in comps:
            scale = gr(weight if sign > 0 else -weight)
            for i in range(n):
                si = scale * vec[i]
                for j in range(n):
                    acc[i][j] = acc[i][j] + si * conj(vec[j])
        assert acc == mat
        assert len(comps) == bareiss_rank(mat)


def test_inertia_matches_construction():
    # sum of p positive and q negative rank-one squares with independent vectors
    rng = Random(17)
    for _ in range(20):
        n = rng.randint(2, 6)
        signs = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        while True:
            basis = [[_rand_gr(rng, 3) for _ in range(n)] for _ in range(n)]
            if bareiss_rank(basis) == n:
                break
        mat = [[gr(0)] * n for _ in range(n)]
        for s, v in zip(signs, basis):
            sg = gr(s)
            for i in range(n):
                si = sg * v[i]
                for j in range(n):
                    mat[i][j] = mat[i][j] + si * conj(v[j])
        pos, neg = form_inertia(matrix_form(mat))
        assert pos == sum(1 for s in signs if s > 0)
        assert neg == sum(1 for s in signs if s < 0)


def test_offdiagonal_block_pivot():
    # all-zero diagonal forces the 2x2 pivot path
    c = gr(1, 2)
    mat = [[gr(0), c], [conj(c), gr(0)]]
    assert form_inertia(matrix_form(mat)) == (1, 1)
    comps = matrix_components(mat)
    assert sorted(s for s, _, _ in comps) == [-1, 1]
    acc = [[gr(0)] * 2 for _ in range(2)]
    for sign, weight, vec in comps:
        scale = gr(weight if sign > 0 else -weight)
        for i in range(2):
            for j in range(2):
                acc[i][j] = acc[i][j] + scale * vec[i] * conj(vec[j])
    assert acc == mat


def test_inertia_refuses_a_non_real_diagonal():
    for mat in ([[gr(1, 5), gr(0)], [gr(0), gr(-1)]], [[gr(Fraction(1, 3), Fraction(1, 7))]]):
        with pytest.raises(NonRealDiagonal):
            form_inertia(matrix_form(mat))
        with pytest.raises(NonRealDiagonal):
            decompose(matrix_form(mat))


def test_inertia_refuses_a_matrix_that_is_not_hermitian():
    for mat in ([[1, 2], [3, 1]], [[gr(0), gr(1, 2)], [gr(1, 2), gr(0)]]):
        with pytest.raises(ConjugateMismatch):
            form_inertia(matrix_form(mat))
        with pytest.raises(ConjugateMismatch):
            decompose(matrix_form(mat))


def _oracle_inertia(comps):
    return sum(1 for s, _, _ in comps if s > 0), sum(1 for s, _, _ in comps if s < 0)


def _step_kinds(mat):
    """1 or 2 per pivot block of the fraction-free kernel, in order."""
    return [len(cols) for _, _, _, cols in _elimination(matrix_form(mat))[1]]


def _assert_matches_oracle(mat):
    want = gr_ldl_components(mat)
    assert matrix_components(mat) == want
    assert form_inertia(matrix_form(mat)) == _oracle_inertia(want)
    return want


def _rational(rng, span=9, den=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _dense(rng, n, zero_diagonal=False):
    """Hermitian, denominators up to 12, about a fifth of the off-diagonal pairs zero."""
    mat = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = ZERO if zero_diagonal else gr(_rational(rng))
        for j in range(i + 1, n):
            x = gr(_rational(rng), _rational(rng)) if rng.random() > 0.2 else ZERO
            mat[i][j], mat[j][i] = x, conj(x)
    return mat


def test_fraction_free_ldl_matches_oracle_on_dense_matrices():
    rng = Random(1101)
    for _ in range(60):
        _assert_matches_oracle(_dense(rng, rng.randint(1, 12)))


def test_fraction_free_ldl_matches_oracle_on_zero_diagonals():
    rng = Random(1102)
    kinds = set()
    for _ in range(40):
        mat = _dense(rng, rng.randint(2, 10), zero_diagonal=True)
        _assert_matches_oracle(mat)
        kinds.update(_step_kinds(mat)[:2])
    assert kinds == {1, 2}


def test_fraction_free_ldl_matches_oracle_after_a_negative_pivot():
    # [[-D, b*], [b, Z]] with Z_kk = -|b_k|^2 / D: the first pivot is -D < 0
    # and its Schur complement has a zero diagonal, so 2x2 steps run with
    # prev < 0, and the 1x1 pivots after them see prev of either sign
    rng = Random(1103)
    seen = set()
    for _ in range(40):
        n = rng.randint(3, 9)
        mat = _dense(rng, n)
        big = Fraction(rng.randint(400, 900), rng.randint(1, 3))
        mat[0][0] = gr(-big)
        for k in range(1, n):
            b = gr(rng.randint(-3, 3), rng.randint(-3, 3))
            mat[k][0], mat[0][k] = b, conj(b)
            mat[k][k] = gr(-b.norm_sq() / big)
        assert _assert_matches_oracle(mat)[0][0] == -1
        kinds = _step_kinds(mat)
        assert kinds[0] == 1
        if 2 in kinds:
            seen.add(tuple(kinds[: kinds.index(2) + 2]))
    assert (1, 2, 1) in seen


def test_fraction_free_ldl_matches_oracle_on_rank_deficient_sums():
    rng = Random(1104)
    for _ in range(40):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        mat = [[ZERO] * n for _ in range(n)]
        signs = [rng.choice((1, -1)) for _ in range(k)]
        for s in signs:
            v = [gr(_rational(rng, 4, 6), _rational(rng, 4, 6)) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    mat[i][j] = mat[i][j] + gr(s) * v[i] * conj(v[j])
        comps = _assert_matches_oracle(mat)
        assert len(comps) == bareiss_rank(mat) <= k


def test_zero_matrix_inertia():
    assert form_inertia(matrix_form([[gr(0)] * 3 for _ in range(3)])) == (0, 0)
    assert matrix_components([[gr(0)] * 3 for _ in range(3)]) == []
    for n in (0, 1, 2, 5):
        assert _assert_matches_oracle([[ZERO] * n for _ in range(n)]) == []
    for x in (Fraction(-5, 7), Fraction(12), Fraction(1, 12)):
        assert _assert_matches_oracle([[gr(x)]]) == [(1 if x > 0 else -1, abs(x), [gr(1)])]


# -- clearing: the one rule that takes rationals to their Gaussian-integer view --


def _coerced_cleared(values):
    """The rule `_cleared` first ran, kept as its oracle: coerce each value to a GaussianRational,
    take the lcm d of the denominators, and scale each numerator by d // q."""
    vals = [GaussianRational.coerce(v) for v in values]
    d = lcm(*(q for v in vals for q in (v.re.denominator, v.im.denominator)))
    return [(v.re.numerator * (d // v.re.denominator), v.im.numerator * (d // v.im.denominator)) for v in vals], d


def _scalar(rng):
    """An int, bool, Fraction, GaussianRational, float, Decimal or numeric str."""
    p, q = rng.randint(-30, 30), rng.randint(1, 12)
    return rng.choice([p, p > 0, Fraction(p, q), gr(Fraction(p, q), Fraction(rng.randint(-30, 30), rng.randint(1, 12))),
                       p / 2 ** rng.randint(0, 6), Decimal(p) / 10 ** rng.randint(0, 3), f"{p}/{q}", f" {p} "])


def test_cleared_matches_the_coercing_rule():
    rng = Random(3301)
    cases = [[], [0], [True, False], [7, -3], [Fraction(1, 3), Fraction(-5, 6)], [gr(0, Fraction(1, 7)), gr(2)],
             [0.1, 1e-20, -2.5], [Decimal("0.125"), Decimal("-3")], ["1/3", " -2 ", "0.25", "1e-3"]]
    cases += [[_scalar(rng) for _ in range(rng.randint(1, 12))] for _ in range(300)]
    for values in cases:
        pairs, d = _cleared(iter(values))
        assert (pairs, d) == _coerced_cleared(values)
        assert type(d) is int and all(type(x) is int for pair in pairs for x in pair)
    for bad in ("x", None, 1j, "1/0"):  # refused as coercion refuses them
        with pytest.raises((TypeError, ValueError, ZeroDivisionError)) as want:
            _coerced_cleared([bad])
        with pytest.raises(want.type):
            _cleared([bad])


def test_cleared_reads_pairs_as_their_gaussian_rationals():
    rng = Random(3302)

    def part():
        return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 8))])

    for _ in range(200):
        pairs = [(part(), part()) for _ in range(rng.randint(1, 10))]
        assert _cleared(pairs) == _coerced_cleared(gr(re, im) for re, im in pairs)


def test_cleared_builds_no_gaussian_rational_from_ints_fractions_or_pairs(monkeypatch):
    built = []
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    values = [3, -1, Fraction(2, 3), (1, Fraction(-1, 5)), (Fraction(7, 2), 0)]
    assert _cleared(values) == ([(90, 0), (-30, 0), (20, 0), (30, -6), (105, 0)], 30)
    assert _cleared([gr(1, Fraction(1, 2))]) == ([(2, 1)], 2)
    assert len(built) == 1  # the gr above, built by the test
    form_from_real_poly({(k, 49 - k): (-1) ** k * k for k in range(50)})
    assert len(built) == 1
    embedding([[1, 2], [3, 4], [5, 6], [7, 9]])  # its own 8 coerced entries; the rank check's clearing builds none
    assert len(built) == 9
