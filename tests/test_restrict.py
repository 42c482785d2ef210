"""Embeddings, restriction by substitution, and randomized subspace rank estimates."""

import hashlib
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from random import Random

import pytest

from dense import conj, evaluate, form_matrix, gr, identity, lift, matmul
from hyperq import forms, restrict
from hyperq.cli import _build_parser
from hyperq.errors import ConjugateMismatch, DimensionMismatch
from hyperq.formats import load_form
from hyperq.forms import HermitianForm, compose_linear, form_from_entries, form_from_real_poly, form_rank
from hyperq.multiindex import unit, zero_index
from hyperq.restrict import (
    AffineEmbedding,
    _random_scalar,
    cayley_unitary,
    embedding,
    generic_restriction_rank,
    max_affine_rank,
    quadric_subspace,
    restrict_form,
    sz_failure_bound,
)
from hyperq.scalars import GR_ZERO, GaussianRational
from test_golden import golden_cases
from tuple_polys import restriction_matrix


def test_embedding_validation():
    e = embedding([[1, 0], [0, 1], [2, 3]])
    assert len(e.linear) == 3 and len(e.linear[0]) == 2
    assert not any(e.translation)
    with pytest.raises(ValueError):
        embedding([[1, 2], [2, 4], [3, 6]])
    with pytest.raises(DimensionMismatch):
        embedding([[1], [0]], translation=[1])
    for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5]], [[1], [2, 3], [4]], [[gr(1)], []]):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            embedding(rows)
    # int, Fraction and Gaussian entries in one matrix
    mixed = [[Fraction(1, 2), Fraction(1, 3)], [gr(1, 1), gr(0)], [gr(Fraction(1, 2), 1), gr(0, -1)]]
    assert embedding(mixed).linear[0] == (gr(Fraction(1, 2)), gr(Fraction(1, 3)))
    assert embedding([[1, 2], [0, 3]]).linear == ((gr(1), gr(2)), (gr(0), gr(3)))
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="full column rank"):
            embedding(rows)


def test_restrict_form_commutes_with_compose():
    rng = Random(3)
    for _ in range(10):
        entries = []
        for _ in range(4):
            alpha = tuple(rng.randint(0, 2) for _ in range(3))
            beta = tuple(rng.randint(0, 2) for _ in range(3))
            if alpha == beta:
                entries.append((alpha, beta, gr(rng.randint(-4, 4))))
            else:
                if alpha > beta:
                    alpha, beta = beta, alpha
                entries.append((alpha, beta, gr(rng.randint(-4, 4), rng.randint(-4, 4))))
        form = form_from_entries(3, entries)
        linear = [[gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)] for _ in range(3)]
        trans = [gr(rng.randint(-2, 2)) for _ in range(3)]
        try:
            e = embedding(linear, translation=trans)
        except ValueError:
            continue
        assert restrict_form(form, e).entries == compose_linear(form, linear, trans).entries


def test_sandwich_of_restriction_matrix_matches_compose():
    # two code paths that share no code: T^t C conj(T) by matmul over the entries of
    # tuple_polys' restriction matrix, and compose_linear's integer sandwich, on degree-d forms
    rng = Random(19)
    checked = 0

    def q():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 3, 7, 12)))

    for trial in range(12):
        n, m, d = rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 3)
        linear = [[gr(q(), q()) for _ in range(m)] for _ in range(n)]
        trans = [gr(q(), q()) for _ in range(n)] if trial % 2 else None
        try:
            E = embedding(linear, trans)
        except ValueError:
            continue
        rows, cols, T = restriction_matrix([list(map(lift, row)) for row in E.linear], d, list(map(lift, E.translation)))
        entries = []
        for i, alpha in enumerate(rows):
            for beta in rows[i:]:
                if rng.random() < 0.5:
                    entries.append((alpha, beta, gr(q()) if alpha == beta else gr(q(), q())))
        form = form_from_entries(n, entries)
        C = form_matrix(form, rows)
        Tt = [[T[i][j] for i in range(len(rows))] for j in range(len(cols))]
        Tbar = [[conj(x) for x in row] for row in T]
        S = matmul(matmul(Tt, C), Tbar)
        want = {(g, h): S[i][j] for i, g in enumerate(cols) for j, h in enumerate(cols) if S[i][j]}
        assert compose_linear(form, linear, trans).entries == want
        assert restrict_form(form, E).entries == want
        checked += 1
    assert checked == 12


def test_restrict_form_dimension_check():
    f = form_from_entries(2, [((1, 0), (1, 0), gr(1))])
    with pytest.raises(DimensionMismatch):
        restrict_form(f, embedding([[1], [0], [0]]))


def test_restrict_form_mismatch_names_the_rows():
    # an embedding always carries a translation, zero when none was given, so the rows are checked first
    f = form_from_real_poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1})
    for E in (embedding([[1], [0]]), embedding([[1], [0]], [1, 0])):
        with pytest.raises(DimensionMismatch, match=r"^matrix has 2 rows, form has 3 variables$"):
            restrict_form(f, E)


def test_generic_restriction_rank_deterministic():
    f = form_from_real_poly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    a = generic_restriction_rank(f, 2, trials=2, seed=5)
    b = generic_restriction_rank(f, 2, trials=2, seed=5)
    assert a == b
    assert a <= form_rank(f)


def test_generic_restriction_rank_values():
    # x1 + x2 + x3 has rank 3; two variables only carry two monomials
    f = form_from_real_poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert form_rank(f) == 3
    assert generic_restriction_rank(f, 2, trials=2, seed=0) == 2
    with pytest.raises(ValueError):
        generic_restriction_rank(f, 3)
    with pytest.raises(ValueError):
        generic_restriction_rank(f, 0)


def test_samplers_reject_nonpositive_coeff_bound():
    f = form_from_real_poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    for bound in (0, -3):
        for call in (
            lambda: generic_restriction_rank(f, 2, coeff_bound=bound),
            lambda: max_affine_rank(f, 2, coeff_bound=bound),
            lambda: sz_failure_bound(f, 2, 1, bound),
        ):
            with pytest.raises(ValueError, match="coeff_bound must be at least 1"):
                call()
    assert 0 < sz_failure_bound(f, 2, 1, 1) <= 1


def test_generic_rank_refuses_bound_one_above_dimension_one():
    # with coeff_bound 1 every entry is 1 + i: no draw of two or more columns has full rank
    f = form_from_real_poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    with pytest.raises(ValueError, match="coeff_bound"):
        generic_restriction_rank(f, 2, coeff_bound=1)
    assert generic_restriction_rank(f, 1, trials=1, coeff_bound=1) == 1
    assert max_affine_rank(f, 2, samples=1, coeff_bound=1) == 3


def test_restriction_ceilings_of_sums_of_squares():
    # |1|^2 + |z1|^2 + ... + |zn|^2 has rank n + 1, yet its restriction to any affine d-plane is a sum of
    # squares of polynomials of degree <= 1 in d variables, a space of dimension d + 1: the rank drops to
    # d + 1, which a generic affine plane attains; two exact facts a chained rank bound must stay above
    for n, sub_dim, rank, restricted in ((5, 2, 6, 3), (3, 1, 4, 2)):
        form = form_from_entries(n, [(zero_index(n), zero_index(n), 1)] + [(unit(n, j), unit(n, j), 1) for j in range(n)])
        assert form_rank(form) == rank == n + 1
        assert max_affine_rank(form, sub_dim) == restricted == sub_dim + 1


def test_sz_failure_bound_checks_dimension_and_trials():
    f = form_from_real_poly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    for sub_dim in (0, 3):
        with pytest.raises(ValueError, match="sub_dim must satisfy 1 <= sub_dim < n"):
            sz_failure_bound(f, sub_dim, 1, 10**6)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            sz_failure_bound(f, 2, trials, 10**6)
    # D = 1 and r = min(rank 3, binom(2 + 1, 1) = 3): 2Dr / coeff_bound per trial
    assert sz_failure_bound(f, 2, 2, 10**6) == Fraction(2 * 3, 10**6) ** 2


def _generic_embedding(rng, n, sub_dim, bound):
    """The linear subspace that generic_restriction_rank draws from rng, unchecked as there."""
    rows = tuple(tuple(gr(*_random_scalar(rng, bound)) for _ in range(sub_dim)) for _ in range(n))
    return AffineEmbedding(rows, (gr(0),) * n)


def _affine_embedding(rng, n, sub_dim, bound):
    """The graph-form subspace that max_affine_rank draws from rng."""
    rows = [[gr(int(j == i)) for j in range(sub_dim)] for i in range(sub_dim)]
    trans = [gr(0)] * sub_dim
    for _ in range(n - sub_dim):
        rows.append([gr(*_random_scalar(rng, bound)) for _ in range(sub_dim)])
        trans.append(gr(*_random_scalar(rng, bound)))
    return embedding(rows, trans)


def test_samplers_match_ranks_of_restricted_forms():
    # the samplers rank the integer accumulator of each embedding; here the
    # same seeded embeddings go through restrict_form and form_rank instead,
    # for three forms in a row so that nothing carries over between calls
    golden = Path(__file__).parent / "golden" / "inputs"
    forms = [load_form(str(golden / "mixed.form")), load_form(str(golden / "quadratic.form")),
             form_from_real_poly({(2, 0, 0, 0): 3, (1, 1, 0, 0): -1, (0, 0, 1, 1): 2, (0, 0, 0, 1): 5})]
    seen = set()
    for form in forms:
        for sub_dim in range(1, form.n):
            for seed, count, bound in ((0, 2, 10**6), (7, 3, 12)):
                generic = max(form_rank(restrict_form(form, _generic_embedding(
                    Random(f"{seed}:generic:{t}"), form.n, sub_dim, bound))) for t in range(count))
                affine = max(form_rank(restrict_form(form, _affine_embedding(
                    Random(f"{seed}:affine:{t}"), form.n, sub_dim, bound))) for t in range(count))
                assert generic_restriction_rank(form, sub_dim, count, seed, bound) == generic
                assert max_affine_rank(form, sub_dim, count, seed, bound) == affine
                seen.add((generic, affine))
    assert len(seen) > 3


def test_max_affine_rank_runs_no_matrix_rank(monkeypatch):
    # neither sampler checks its draw's column rank, which only embedding does: a
    # rank-deficient draw can only undershoot, which sz_failure_bound already counts
    form = load_form(str(Path(__file__).parent / "golden" / "inputs" / "mixed.form"))
    want = [(max_affine_rank(form, sub_dim, 3, 6, 1000), generic_restriction_rank(form, sub_dim, 2, 4))
            for sub_dim in range(1, form.n)]
    calls = []
    checked = restrict.embedding
    monkeypatch.setattr(restrict, "embedding", lambda *args: calls.append(args) or checked(*args))
    assert [(max_affine_rank(form, sub_dim, 3, 6, 1000), generic_restriction_rank(form, sub_dim, 2, 4))
            for sub_dim in range(1, form.n)] == want
    assert calls == []


def test_one_op_clears_the_form_once(monkeypatch):
    # both samplers and the failure bound read the form side memoized on the form
    form = load_form(str(Path(__file__).parent / "golden" / "inputs" / "mixed.form"))
    ops = (lambda f: generic_restriction_rank(f, 2, 2, 3), lambda f: max_affine_rank(f, 2, 2, 3),
           lambda f: sz_failure_bound(f, 2, 2, 10**6))
    want = [op(form) for op in ops]
    calls = []
    cleared = forms._cleared

    def recorded(values):
        calls.append(list(values))
        return cleared(calls[-1])

    monkeypatch.setattr(forms, "_cleared", recorded)
    entries = list(form.entries.values())  # the draws are cleared too; count only the form
    for op, value in zip(ops, want):
        calls.clear()
        assert op(HermitianForm(form.n, form.entries)) == value
        assert calls.count(entries) == 1
    calls.clear()
    fresh = HermitianForm(form.n, form.entries)
    assert [op(fresh) for op in ops] == want
    assert calls.count(entries) == 1


def test_samplers_refuse_a_hand_built_form_that_is_not_hermitian():
    # z1 conj(z2) without its mirror; the dataclass does not validate, the form's first read does
    form = HermitianForm(3, {((1, 0, 0), (0, 1, 0)): gr(1)})
    with pytest.raises(ConjugateMismatch):
        generic_restriction_rank(form, 2)
    with pytest.raises(ConjugateMismatch):
        max_affine_rank(form, 2)


def _signed_squares(n, *squares):
    """The form sum of sign |sum of c z^alpha|^2 over the squares (sign, {alpha: c})."""
    return form_from_entries(n, [(a, b, gr(sign) * x * conj(y))
                                 for sign, p in squares for a, x in p.items() for b, y in p.items()])


def _every_draw(form, sampler, sub_dim, count, seed, bound):
    """The sampler's answer rebuilt as the max over all count draws of its seeded streams."""
    stream, draw = {generic_restriction_rank: ("generic", _generic_embedding),
                    max_affine_rank: ("affine", _affine_embedding)}[sampler]
    return max(form_rank(restrict_form(form, draw(Random(f"{seed}:{stream}:{t}"), form.n, sub_dim, bound)))
               for t in range(count))


def test_samplers_stop_at_a_ceiling_with_the_answer_of_every_draw(monkeypatch):
    x = _signed_squares(3, *((1, {unit(3, i): 1}) for i in range(3)))  # |z1|^2 + |z2|^2 + |z3|^2, rank 3

    def pair(n):  # |z1 + z2|^2 - |z3|^2 in n variables: support 3, rank 2
        return _signed_squares(n, (1, {unit(n, 0): 1, unit(n, 1): 1}), (-1, {unit(n, 2): 1}))

    # p, z1 p and z2 p for p = (1 + i) z1 - z2, which is constant on every affine draw at coeff_bound 1
    shears = [{(1, 0): gr(1, 1), (0, 1): -1}, {(2, 0): gr(1, 1), (1, 1): -1}, {(1, 1): gr(1, 1), (0, 2): -1}]
    cases = [  # form, sampler, sub_dim, coeff_bound, calls of compose_linear out of 4
        (x, generic_restriction_rank, 2, 10**6, 1),  # monomial ceiling C(2 - 1 + 1, 1) = 2 < rank 3
        (x, max_affine_rank, 1, 10**6, 1),  # monomial ceiling C(1 + 1, 1) = 2 < rank 3
        (pair(4), generic_restriction_rank, 3, 10**6, 1),  # rank 2 < C(3 - 1 + 1, 1) = 3
        (pair(3), max_affine_rank, 2, 10**6, 1),  # rank 2 < C(2 + 1, 1) = 3
        (_signed_squares(2, (1, {(1, 0): 1}), (-1, {(0, 1): 1})), generic_restriction_rank, 1, 1, 4),  # rank 0
        # there they restrict to multiples of 1, w and w + 1, which span 2 < rank 3 = C(1 + 2, 2)
        (_signed_squares(2, *((1, q) for q in shears)), max_affine_rank, 1, 1, 4),
    ]
    want = [_every_draw(form, sampler, sub_dim, 4, 5, bound) for form, sampler, sub_dim, bound, _ in cases]
    assert want == [2, 2, 2, 2, 0, 2]
    calls, built = [], []
    composed, seeded = restrict.compose_linear, restrict.Random
    monkeypatch.setattr(restrict, "compose_linear", lambda *args: calls.append(args) or composed(*args))
    monkeypatch.setattr(restrict, "Random", lambda stream: built.append(stream) or seeded(stream))
    for (form, sampler, sub_dim, bound, count), value in zip(cases, want):
        calls.clear()
        built.clear()
        assert sampler(form, sub_dim, 4, 5, bound) == value
        assert len(calls) == count, (sampler.__name__, sub_dim)
        # the ceilings are tested before the next draw is built: every draw built is ranked
        assert len(built) == count, (sampler.__name__, sub_dim)


def _support_bound(form, sub_dim, trials, coeff_bound):
    """sz_failure_bound as first written, with r = min(support size, C(sub_dim + D, D))."""
    D = form.max_degree()
    r = min(len(form.support()), comb(sub_dim + D, D))
    return min(Fraction(1), Fraction(2 * D * r, coeff_bound)) ** trials


def test_sz_failure_bound_takes_the_form_rank():
    # never above the support-size bound, below it on seeded forms whose support exceeds their rank,
    # and equal to it on every golden restrict generic case, whose forms have support = rank
    rng = Random(36)
    tighter = 0
    for _ in range(20):
        n, d = rng.randint(3, 4), rng.randint(1, 3)
        monos = [alpha for alpha in product(range(d + 1), repeat=n) if 0 < sum(alpha) <= d]
        squares = [(rng.choice((-1, 1)), {alpha: gr(rng.randint(-3, 3), rng.randint(-3, 3))
                                          for alpha in rng.sample(monos, min(len(monos), 4))}) for _ in range(2)]
        form = _signed_squares(n, *squares)
        assert len(form.support()) > form_rank(form)
        for sub_dim in range(1, n):
            new, old = sz_failure_bound(form, sub_dim, 2, 10**6), _support_bound(form, sub_dim, 2, 10**6)
            assert 0 < new <= old
            tighter += new < old
    assert tighter > 20
    parser = _build_parser()
    golden = Path(__file__).parent / "golden"
    cases = [parser.parse_args(argv) for _, argv in golden_cases() if argv[:2] == ["restrict", "generic"]]
    assert len(cases) == 5
    for args in cases:
        form = load_form(str(golden / args.file))
        assert len(form.support()) == form_rank(form)
        assert (sz_failure_bound(form, args.dim, args.trials, args.coeff_bound)
                == _support_bound(form, args.dim, args.trials, args.coeff_bound))


def test_sz_failure_bound_shrinks():
    f = form_from_real_poly({(2, 0, 0): 1, (0, 2, 0): 1})
    loose = sz_failure_bound(f, 2, 1, 10**3)
    tight = sz_failure_bound(f, 2, 3, 10**6)
    assert 0 < tight < loose <= 1


def test_generic_rank_of_degree_40_difference_of_squares():
    # |z1^40|^2 - |z2^40|^2 on a generic plane in C^3: (e1 . w)^40 and (e2 . w)^40
    # are independent, so the restriction keeps one square of each sign
    f = form_from_real_poly({(40, 0, 0): 1, (0, 40, 0): -1})
    assert generic_restriction_rank(f, 2, trials=1) == 2
    assert sz_failure_bound(f, 2, 1, 10**6) == Fraction(2 * 40 * 2, 10**6)


def test_max_affine_rank_sees_constant_term():
    # (x1 + x2)^2 collapses to rank 1 on lines through 0 but an affine
    # line z2 = c*t + e spreads it over 1, t, t^2
    f = form_from_real_poly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert form_rank(f) == 3
    assert max_affine_rank(f, 1, samples=4, seed=1) == 3
    assert generic_restriction_rank(f, 1, trials=4, seed=1) == 1


def test_cayley_unitary_exact():
    # the bounds its callers draw with: 9 and 12 in the twists and tests, 99 by default
    rng = Random(12)
    for bound in (9, 12, 99):
        for n in range(1, 6):
            u = cayley_unitary(n, rng, bound)
            ut = [[conj(u[i][j]) for i in range(n)] for j in range(n)]
            assert matmul(ut, u) == matmul(u, ut) == identity(n)


def test_cayley_unitary_bytes_are_pinned():
    # SHA-256 of the reprs for n <= 6, seeds 0-9 and both twist bounds, one per line
    digest = hashlib.sha256()
    for n in range(1, 7):
        for s in range(10):
            for bound in (9, 99):
                digest.update(repr(cayley_unitary(n, Random(f"{s}"), bound)).encode() + b"\n")
    assert digest.hexdigest() == "92ead4fc8e7622cd621a83b92235c9940d4534a6c68ed20edab016060841635b"


def test_quadric_subspace_lies_in_quadric():
    # the defining form evaluates to exactly 1 at every embedded point
    rng = Random(9)
    for seed in range(5):
        a, b = 2, 1
        e = quadric_subspace(a, b, seed=seed)
        assert len(e.linear) == a + b and len(e.linear[0]) == b
        n = a + b
        defining = form_from_real_poly(
            {tuple(1 if j == i else 0 for j in range(n)): (1 if i < a else -1) for i in range(n)}
        )
        restricted = restrict_form(defining, e)
        for _ in range(3):
            w = [gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(b)]
            assert evaluate(restricted, w) == gr(1)


def _copied_quadric_subspace(a, b, U):
    """quadric_subspace as first written, copying U into V, kept as the reference."""
    V = [[U[i][j] for j in range(b + 1)] for i in range(a)]
    rows, trans = [], []
    for i in range(a):
        rows.append([V[i][k] for k in range(b)])
        trans.append(V[i][b])
    for i in range(b):
        rows.append(list(unit(b, i)))
        trans.append(GR_ZERO)
    return embedding([[GaussianRational.coerce(x) for x in r] for r in rows], trans)


def test_quadric_subspace_matches_copied_construction(monkeypatch):
    # the unitary is drawn once, from a fresh Random(f"{seed}:line"), and reused by the reference
    drawn = []
    unitary = restrict.cayley_unitary

    def recorded(n, rng, bound):
        state = rng.getstate()
        drawn.append((n, state, bound, unitary(n, rng, bound)))
        return drawn[-1][3]

    monkeypatch.setattr(restrict, "cayley_unitary", recorded)
    for a, b in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        for seed in range(5):
            for bound in (99, 9):
                drawn.clear()
                got = quadric_subspace(a, b, seed, bound)
                (n, state, used, U), = drawn
                assert (n, state, used) == (a, Random(f"{seed}:line").getstate(), bound)
                want = _copied_quadric_subspace(a, b, U)
                assert (got.linear, got.translation) == (want.linear, want.translation), (a, b, seed, bound)


def test_quadric_subspace_needs_room():
    with pytest.raises(ValueError):
        quadric_subspace(1, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: embedding([]), "embedding needs at least one ambient variable"),
        (lambda: embedding([[]]), "embedding needs at least one subspace variable"),
        (lambda: cayley_unitary(0, Random(0)), "n must be positive"),
        (lambda: quadric_subspace(2, 2), "the orthonormal-column family needs b + 1 <= a"),
    ],
    ids=["no-rows", "no-columns", "cayley-0", "subspace-2-2"],
)
def test_empty_and_crowded_refusals(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is ValueError and str(caught.value) == message
