"""Hermitian forms: construction, rank, inertia, decomposition, substitution."""

import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import comb
from operator import mul
from pathlib import Path
from random import Random

import pytest

from dense import bareiss_rank, conj, evaluate, form_matrix, rational_components
import hyperq.forms as forms_module
from hyperq.errors import ConjugateMismatch, DimensionMismatch, NonRealDiagonal
from hyperq.forms import (
    HermitianForm,
    SignaturePair,
    _composed,
    _elimination,
    _entries_side,
    _expansions,
    _form_side,
    _to_form,
    compose_linear,
    decompose,
    form_from_entries,
    form_from_real_poly,
    form_inertia,
    form_rank,
    norm_difference,
    WeightedHoloMap,
)
from hyperq.formats import dump_form, load_form
from hyperq.linalg import _cleared
from hyperq.multiindex import places, sorted_grlex, unit, unpack, zero_index
from hyperq.restrict import cayley_unitary, generic_restriction_rank
from hyperq.scalars import GR_ZERO, GaussianRational, gr
from test_linalg import _gr_ldl_components
from tuple_polys import mi_add, monomials_up_to, poly_mul


def _random_form(rng, n, terms, span=5):
    # emit each unordered index pair once; the loader mirrors it
    entries = []
    for _ in range(terms):
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        if alpha == beta:
            entries.append((alpha, beta, gr(rng.randint(-span, span))))
        else:
            if alpha > beta:
                alpha, beta = beta, alpha
            entries.append((alpha, beta, gr(rng.randint(-span, span), rng.randint(-span, span))))
    return form_from_entries(n, entries)


def test_mirror_is_automatic():
    f = form_from_entries(2, [((1, 0), (0, 1), gr(2, 3))])
    assert f.entries[((0, 1), (1, 0))] == gr(2, -3)


def _refused(build, error):
    # the one Hermitian check runs on the cleared integers as the form is built
    with pytest.raises(error):
        build()


def test_mirror_mismatch_rejected():
    _refused(lambda: form_from_entries(2, [((1, 0), (0, 1), gr(1)), ((0, 1), (1, 0), gr(2))]), ConjugateMismatch)


def test_listed_zero_with_a_nonzero_mirror_rejected():
    _refused(lambda: form_from_entries(2, [((1, 0), (0, 1), gr(0)), ((0, 1), (1, 0), gr(2))]), ConjugateMismatch)
    _refused(lambda: form_from_entries(2, [((1, 0), (0, 1), gr(2)), ((0, 1), (1, 0), gr(0))]), ConjugateMismatch)


def test_explicit_zero_without_mirror_accepted():
    f = HermitianForm(2, {((1, 0), (1, 0)): gr(1), ((1, 0), (0, 1)): GR_ZERO})
    assert form_inertia(f) == SignaturePair(1, 0)


def test_diagonal_must_be_real():
    _refused(lambda: form_from_entries(1, [((1,), (1,), gr(0, 1))]), NonRealDiagonal)


def test_repeated_entries_accumulate():
    f = form_from_entries(1, [((1,), (1,), gr(2)), ((1,), (1,), gr(-2))])
    assert not f.entries


def test_rank_and_inertia_basic():
    # z1 zbar2 + z2 zbar1 has eigenvalues +1 and -1
    f = form_from_entries(2, [((1, 0), (0, 1), gr(1))])
    assert form_rank(f) == 2
    assert form_inertia(f) == SignaturePair(1, 1)


def test_inertia_of_diagonal_real_poly():
    f = form_from_real_poly({(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): -3})
    assert form_rank(f) == 3
    assert form_inertia(f) == SignaturePair(2, 1)


def test_form_from_real_poly_rejects_complex():
    _refused(lambda: form_from_real_poly({(1, 0): gr(1, 1)}), NonRealDiagonal)


def test_decompose_reconstructs():
    rng = Random(23)
    for _ in range(25):
        n = rng.randint(1, 3)
        f = _random_form(rng, n, rng.randint(1, 5))
        holo = decompose(f)
        assert holo.signature() == form_inertia(f)
        assert len(holo.components) == form_rank(f)
        back = norm_difference(holo, subtract_one=False)
        assert back.entries == f.entries


def test_decompose_pinned_example():
    f = form_from_entries(2, [((1, 0), (0, 1), gr(1))])
    comps = decompose(f).components
    assert len(comps) == 2
    weights = sorted((s, w) for s, w, _ in comps)
    assert weights == [(-1, Fraction(1, 2)), (1, Fraction(1, 2))]
    for sign, _, poly in comps:
        vec = sorted(poly.items())
        if sign > 0:
            assert vec == [((0, 1), gr(1)), ((1, 0), gr(1))]
        else:
            assert vec == [((0, 1), gr(-1)), ((1, 0), gr(1))]


def test_evaluate_is_real():
    rng = Random(31)
    f = _random_form(rng, 2, 4)
    for _ in range(10):
        point = [gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        assert evaluate(f, point).im == 0


def test_evaluate_matches_decomposition():
    rng = Random(37)
    f = _random_form(rng, 2, 4)
    holo = decompose(f)
    for _ in range(10):
        point = [gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        total = gr(0)
        for sign, weight, poly in holo.components:
            val = gr(0)
            for alpha, c in poly.items():
                term = c
                for i, e in enumerate(alpha):
                    for _ in range(e):
                        term = term * point[i]
                val = val + term
            total = total + gr(weight if sign > 0 else -weight) * val * conj(val)
        assert total == evaluate(f, point)


def test_compose_identity_is_noop():
    rng = Random(41)
    f = _random_form(rng, 3, 5)
    eye = [[gr(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert compose_linear(f, eye).entries == f.entries


def test_compose_preserves_rank_and_inertia():
    rng = Random(43)
    for _ in range(10):
        f = _random_form(rng, 2, 4)
        # triangular with unit diagonal is always invertible
        mat = [[gr(1), gr(rng.randint(-3, 3), rng.randint(-3, 3))], [gr(0), gr(1)]]
        g = compose_linear(f, mat)
        assert form_rank(g) == form_rank(f)
        assert form_inertia(g) == form_inertia(f)


def test_compose_scaling_diagonal():
    # r(2z) multiplies each entry by 2^(|alpha|+|beta|)
    f = form_from_entries(1, [((2,), (2,), gr(1))])
    g = compose_linear(f, [[gr(2)]])
    assert g.entries == {((2,), (2,)): gr(16)}


def test_compose_with_translation():
    # |z|^2 at z+1 picks up cross terms and a constant
    f = form_from_entries(1, [((1,), (1,), gr(1))])
    g = compose_linear(f, [[gr(1)]], translation=[gr(1)])
    assert g.entries == {
        ((1,), (1,)): gr(1),
        ((1,), (0,)): gr(1),
        ((0,), (1,)): gr(1),
        ((0,), (0,)): gr(1),
    }


def test_compose_dimension_checks():
    f = form_from_entries(2, [((1, 0), (1, 0), gr(1))])
    with pytest.raises(DimensionMismatch):
        compose_linear(f, [[gr(1)], [gr(0)]], translation=[gr(0)])


def test_norm_difference_subtract_one():
    holo = decompose(form_from_entries(1, [((1,), (1,), gr(1))]))
    d = norm_difference(holo, subtract_one=True)
    assert d.entries[((0,), (0,))] == gr(-1)


# -- the GaussianRational sandwich loops the integer ones replaced, kept as the reference --


def _gr_expansions(matrix, translation, n_dst, monomials):
    origin = zero_index(n_dst)
    one = {origin: gr(1)}
    powers = []
    for i, row in enumerate(matrix):
        li = {unit(n_dst, j): gr(0) + c for j, c in enumerate(row) if c}
        if translation is not None and translation[i]:
            li[origin] = gr(0) + translation[i]
        powers.append([one, li])
    table = {}
    for alpha in monomials:
        out = one
        for i, e in enumerate(alpha):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(poly_mul(powers[i][-1], powers[i][1]))
                out = poly_mul(out, powers[i][e])
        table[alpha] = out
    return table


def _gr_compose_linear(form, matrix, translation=None):
    n_dst = len(matrix[0]) if form.n else 0
    table = _gr_expansions(matrix, translation, n_dst, form.support())
    acc = {}
    for (alpha, beta), c in form.entries.items():
        anti = table[beta]
        for gamma, u in table[alpha].items():
            cu = c * u
            for delta, v in anti.items():
                key = (gamma, delta)
                w = acc.get(key, GR_ZERO) + cu * conj(v)
                if w:
                    acc[key] = w
                else:
                    acc.pop(key, None)
    return HermitianForm(n_dst, acc)


def _gr_norm_difference(holo, subtract_one):
    acc = {}
    for sign, weight, poly in holo.components:
        scale = gr(weight if sign > 0 else -weight)
        for alpha, ca in poly.items():
            left = scale * ca
            for beta, cb in poly.items():
                key = (alpha, beta)
                v = acc.get(key, gr(0)) + left * conj(cb)
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    if subtract_one:
        origin = zero_index(holo.n)
        key = (origin, origin)
        v = acc.get(key, gr(0)) - 1
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return HermitianForm(holo.n, acc)


def _assert_hermitian(form):
    for (alpha, beta), v in form.entries.items():
        assert v, f"zero stored at {(alpha, beta)}"
        assert form.entries[(beta, alpha)] == conj(v)


def _rational(rng, dens=(1, 2, 3, 7, 12)):
    return Fraction(rng.randint(-20, 20), rng.choice(dens))


def _gaussian(rng):
    return gr(_rational(rng), _rational(rng))


def _mixed_form(rng, n, terms, top=3):
    """Gaussian entries over 3, 7 and 12 between monomials of degrees 0..top."""
    entries = []
    for _ in range(terms):
        alpha, beta = (tuple(rng.randint(0, top) for _ in range(n)) for _ in range(2))
        if sum(alpha) > top or sum(beta) > top:
            continue
        if alpha > beta:
            alpha, beta = beta, alpha
        entries.append((alpha, beta, _gaussian(rng) if alpha != beta else gr(_rational(rng))))
    return form_from_entries(n, entries)


def _embeddings(rng, n):
    """Thin, square unimodular and Cayley-unitary E with rational Gaussian entries."""
    m = rng.randint(1, n)
    yield [[_gaussian(rng) for _ in range(m)] for _ in range(n)]
    upper = [[gr(1) if i == j else (_gaussian(rng) if j > i else gr(0)) for j in range(n)] for i in range(n)]
    yield [upper[i] for i in rng.sample(range(n), n)]
    yield cayley_unitary(n, rng, 12)


def test_integer_compose_matches_gaussian_rational_loop():
    rng = Random(2024)
    cases = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        form = _mixed_form(rng, n, rng.randint(1, 7))
        for E in _embeddings(rng, n):
            for trans in (None, [_gaussian(rng) for _ in range(n)], [gr(0)] * (n - 1) + [_gaussian(rng)]):
                got = compose_linear(form, E, trans)
                want = _gr_compose_linear(form, E, trans)
                assert got.entries == want.entries
                assert got.n == len(E[0])
                _assert_hermitian(got)
                assert form_rank(compose_linear(form, E, trans)) == form_rank(want)
                cases += 1
    assert cases == 12 * 3 * 3


def _tuple_pair_mul(p, q):
    out = {}
    for ka, (ar, ai) in p.items():
        for kb, (br, bi) in q.items():
            k = mi_add(ka, kb)
            r, i = out.get(k, (0, 0))
            out[k] = (r + ar * br - ai * bi, i + ar * bi + ai * br)
    return out


def _tuple_expansions(matrix, translation, n_dst, monomials):
    """_expansions as it was before its keys were packed: (P, M) with P_alpha keyed by the
    exponent tuples gamma, each term product an mi_add and a tuple hash."""
    rows = zip(matrix, [0] * len(matrix) if translation is None else translation)
    pairs, m = _cleared(x for row, t in rows for x in (*row, t))
    origin = zero_index(n_dst)
    one = {origin: (1, 0)}
    keys = [unit(n_dst, j) for j in range(n_dst)] + [origin]
    powers = [[one, {k: c for k, c in zip(keys, pairs[i * len(keys):]) if c != (0, 0)}] for i in range(len(matrix))]
    table = {}
    for alpha in monomials:
        out = one
        for i, e in enumerate(alpha):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(_tuple_pair_mul(powers[i][-1], powers[i][1]))
                out = _tuple_pair_mul(out, powers[i][e])
        table[alpha] = out
    return table, m


def _unpacked(key, n, w):
    """The exponent tuple of a packed grlex key: the base-2^w digits of -key mod 2^(w n), first variable on top."""
    return tuple(-key >> w * (n - 1 - i) & (1 << w) - 1 for i in range(n))


def _one_pass_composed(form, matrix, translation):
    """The full square accumulator of _composed summed entry by entry, both triangles: nnz k^2
    products, no regrouping.  Its rows are keyed by the monomials gamma themselves, not by
    their basis indices."""
    n_dst = len(matrix[0]) if form.n else 0
    table, m = _tuple_expansions(matrix, translation, n_dst, form.support())
    pairs, d = _cleared(form.entries.values())
    top = max((sum(alpha) + sum(beta) for alpha, beta in form.entries), default=0)
    acc = {}
    for (alpha, beta), (cr, ci) in zip(form.entries, pairs):
        k = m ** (top - sum(alpha) - sum(beta))
        for gamma, (ur, ui) in table[alpha].items():
            xr, xi = k * (cr * ur - ci * ui), k * (cr * ui + ci * ur)
            row = acc.setdefault(gamma, {})
            for delta, (vr, vi) in table[beta].items():
                r, i = row.get(delta, (0, 0))
                row[delta] = (r + xr * vr + xi * vi, i + xi * vr - xr * vi)
    return acc, d * m**top


def _nonzero(acc):
    """The nonzero entries of a row accumulator, flat."""
    return {(i, j): v for i, row in acc.items() for j, v in row.items() if v != (0, 0)}


def _upper(acc, basis):
    """The nonzero entries of _composed's dense upper-triangle rows, flat and keyed by monomials:
    row i holds the entries at j = i, i + 1, ..., len(basis) - 1."""
    assert all(len(row) == len(basis) - i for i, row in acc.items())
    return {(basis[i], basis[j]): v for i, row in acc.items() for j, v in enumerate(row, i) if v != (0, 0)}


def _mirrored(upper):
    """A flat upper triangle with the conjugate of each entry added at its mirror."""
    return {**upper, **{(b, a): (re, -im) for (a, b), (re, im) in upper.items()}}


def _compose_cases():
    """The seeded (form, E, t) of the two-pass test: 7 forms, 2 x 3 embeddings each, t = None or not."""
    rng = Random(1313)
    mixed = load_form(str(Path(__file__).parent / "golden" / "inputs" / "mixed.form"))
    c = gr(Fraction(2, 7), Fraction(-5, 3))
    # top |alpha| + |beta| is 3, below twice the top degree 3
    short = form_from_entries(2, [((3, 0), (0, 0), c), ((0, 0), (3, 0), conj(c))])
    forms = [mixed, short, HermitianForm(3, {})] + [_mixed_form(rng, n, rng.randint(2, 9)) for n in (1, 2, 3, 3)]
    for form in forms:
        for _ in range(2):
            for E in _embeddings(rng, form.n):
                for trans in (None, [_gaussian(rng) for _ in range(form.n)]):
                    yield form, E, trans


def test_two_pass_compose_matches_the_one_pass_loop():
    # _composed sums the upper triangle only: mirrored, it is the full square the one-pass
    # loop sums, and the form _to_form builds from it has that square's entries, with the
    # side that clearing those entries gives
    cases = 0
    for form, E, trans in _compose_cases():
        full, den = _one_pass_composed(form, E, trans)
        want = _nonzero(full)
        n_dst, basis, acc, got_den = _composed(form, E, trans)
        assert n_dst == len(E[0]) and got_den == den
        assert basis == sorted_grlex(basis)
        assert _mirrored(_upper(acc, basis)) == want
        got = _to_form(n_dst, basis, acc, den)
        assert got.entries == {key: gr(Fraction(re, den), Fraction(im, den))
                               for key, (re, im) in want.items()}
        assert _form_side(got) == _form_side(HermitianForm(n_dst, dict(got.entries)))
        # form reads its memoized side from the first call on; a fresh copy has none
        _, basis, acc, _ = _composed(HermitianForm(form.n, form.entries), E, trans)
        assert _mirrored(_upper(acc, basis)) == want
        cases += 1
    assert cases == 7 * 2 * 3 * 2


def _packed(gamma, w):
    """key(gamma) = |gamma| B^n - sum_i gamma_i B^(n-1-i), B = 2^w, written out."""
    n = len(gamma)
    return sum(gamma) * (1 << w * n) - sum(e * (1 << w * (n - 1 - i)) for i, e in enumerate(gamma))


def test_packed_keys_sort_as_grlex_and_add():
    # _expansions of the identity keys z^alpha by key(alpha) alone, built by adding the keys of its
    # factors; keys sort as sorted_grlex and decode back, up to an exponent equal to the top degree D
    rng = Random(37)
    for n in range(1, 7):
        for top in (0, 1, 2, 7, 8, 40):
            if comb(n + top, n) <= 600:
                base = monomials_up_to(n, top)
            else:  # the pure powers z_i^D and 300 monomials of stratified degree
                base = [tuple(top * (j == i) for j in range(n)) for i in range(n)]
                for k in range(300):
                    cuts = sorted(rng.randint(0, k % (top + 1)) for _ in range(n - 1))
                    base.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, k % (top + 1)])))
            pairs = [(a, b) for a, b in ((rng.choice(base), rng.choice(base)) for _ in range(60))
                     if sum(a) + sum(b) <= top]
            monos = list(dict.fromkeys(base + [mi_add(a, b) for a, b in pairs]))
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            table, m, w = _expansions(identity, None, n, monos)
            assert m == 1 and w == max(top.bit_length(), 1)
            assert all(list(p.values()) == [(1, 0)] for p in table)
            key = {alpha: k for alpha, p in zip(monos, table) for k in p}
            assert all(k == _packed(alpha, w) and _unpacked(k, n, w) == alpha for alpha, k in key.items())
            assert sorted(monos, key=key.get) == sorted_grlex(monos)
            assert all(key[a] + key[b] == key[mi_add(a, b)] for a, b in pairs)
            assert max(max(alpha) for alpha in monos) == top
            # the multiindex layout under those keys: key = |alpha| B^n - pack(alpha), B^n the top unit of n + 1
            units, degree = places(n, w), places(n + 1, w)[0]
            pack = {alpha: sum(map(mul, alpha, units)) for alpha in monos}
            for alpha, k in pack.items():
                assert degree * sum(alpha) - k == _packed(alpha, w)
                assert unpack(k, n, w) == unpack(-key[alpha], n, w) == _unpacked(key[alpha], n, w) == alpha
            assert all(pack[a] + pack[b] == pack[mi_add(a, b)] for a, b in pairs)
            assert sorted(monos, key=lambda alpha: (sum(alpha), -pack[alpha])) == sorted_grlex(monos)


def test_packed_expansions_match_the_tuple_keyed_routine():
    cases = 0
    for form, E, trans in _compose_cases():
        n_dst, support = len(E[0]), form.support()
        table, m, w = _expansions(E, trans, n_dst, support)
        want, want_m = _tuple_expansions(E, trans, n_dst, support)
        assert m == want_m and w == max(form.max_degree().bit_length(), 1)
        assert [{_unpacked(k, n_dst, w): x for k, x in p.items()} for p in table] == [want[al] for al in support]
        cases += 1
    assert cases == 7 * 2 * 3 * 2


def test_the_composed_view_is_that_of_its_listed_triangle():
    # _to_form reads the view off the triangle: it is the view _entries_side builds from the same
    # triangle, listed with monomial keys, also where the basis has monomials the sum cancels
    row = [gr(Fraction(2, 3), Fraction(-5, 7)), gr(Fraction(1, 12), 4)]
    difference = form_from_entries(2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])  # |z1|^2 - |z2|^2
    squares = form_from_entries(3, [((1, 0, 0), (1, 0, 0), 1), ((0, 1, 0), (0, 1, 0), -1), ((0, 0, 1), (0, 0, 1), 1),
                                    ((2, 0, 0), (0, 0, 1), gr(1, 2)), ((0, 0, 1), (2, 0, 0), gr(1, -2))])
    cancelling = [
        (HermitianForm(2, {}), [row, row], None),
        (difference, [row, row], None),
        (difference, [row, row], [gr(Fraction(1, 3), 1)] * 2),
        (squares, [row, row, [0, gr(3, 1)]], None),  # w1 cancels; w1^2 and w1 w2 stay in the cross term
        (squares, [[gr(2), 0], [gr(2), 0], [gr(1, 1), 0]], [1, 1, 0]),  # E has a zero column
        (squares, [[1, 0], [1, 0], [0, 0]], None),  # and a zero row: every entry cancels
    ]
    lost = 0
    for form, E, trans in [*_compose_cases(), *cancelling]:
        n_dst, basis, acc, den = _composed(form, E, trans)
        listed = [((basis[i], basis[j]), x) for i, row in acc.items() for j, x in enumerate(row, i) if x != (0, 0)]
        side = _form_side(compose_linear(form, E, trans))
        assert side == _entries_side(listed, den)
        lost += len(side[0]) < len(basis)
    assert lost >= 4


def test_compose_and_norm_difference_list_no_entries(monkeypatch):
    # both build their view from their triangle: only listed input goes through _entries_side
    form = load_form(str(Path(__file__).parent / "golden" / "inputs" / "mixed.form"))
    holo = decompose(form)
    E = [[gr(Fraction(1, 3), 2), gr(0, 1)], [gr(1), gr(-2, Fraction(1, 5))], [gr(3), gr(1)]]  # mixed.form has n = 3
    calls = []
    listed = forms_module._entries_side
    monkeypatch.setattr(forms_module, "_entries_side", lambda *args: calls.append(args) or listed(*args))
    built = [compose_linear(form, E), compose_linear(form, E, [gr(1, -1)] * form.n),
             norm_difference(holo, False), norm_difference(holo, True)]
    assert [form_rank(f) for f in built[2:]] == [form_rank(form), form_rank(built[3])] and calls == []
    assert all(f.entries for f in built) and calls == []
    form_from_entries(1, [((1,), (1,), 1)])
    assert len(calls) == 1


def test_integer_compose_cancels_to_the_zero_form():
    # |z1|^2 - |z2|^2 with both rows equal vanishes identically
    form = form_from_entries(2, [((1, 0), (1, 0), gr(1)), ((0, 1), (0, 1), gr(-1))])
    row = [gr(Fraction(2, 3), Fraction(-5, 7)), gr(Fraction(1, 12), 4)]
    for trans in (None, [gr(Fraction(1, 3), 1)] * 2):
        assert compose_linear(form, [row, row], trans).entries == {}
        assert _gr_compose_linear(form, [row, row], trans).entries == {}
        assert form_rank(compose_linear(form, [row, row], trans)) == 0


def test_rank_refuses_a_hand_built_form_that_is_not_hermitian():
    # the dataclass does not validate; the kernels divide exactly only on Hermitian input
    one_sided = HermitianForm(2, {((1, 0), (0, 1)): gr(1)})
    not_conjugate = HermitianForm(2, {((1, 0), (0, 1)): gr(1), ((0, 1), (1, 0)): gr(2)})
    complex_diagonal = HermitianForm(2, {((1, 0), (1, 0)): gr(1, 1)})
    # a refused form memoizes no elimination, so every call refuses it again
    for form, error in ((one_sided, ConjugateMismatch), (not_conjugate, ConjugateMismatch),
                        (complex_diagonal, NonRealDiagonal)):
        for call in (form_rank, form_inertia, decompose) * 2:
            with pytest.raises(error):
                call(form)
    swap = [[gr(0), gr(1)], [gr(1), gr(0)]]
    with pytest.raises(ConjugateMismatch):
        form_rank(compose_linear(one_sided, swap))
    with pytest.raises(NonRealDiagonal):
        form_rank(compose_linear(complex_diagonal, swap))


def test_a_hand_built_form_with_a_bad_exponent_is_refused_at_its_first_read():
    # form_from_entries checks every exponent at build; a hand-built form has each distinct one checked at its
    # first read, so it gives no rank, no file that parse_form refuses and no IndexError from _composed
    negative = HermitianForm(2, {((-1, 0), (-1, 0)): gr(1), ((0, 1), (0, 1)): gr(1)})
    short = HermitianForm(2, {((1,), (1,)): gr(1), ((0, 1), (0, 1)): gr(1)})
    identity = [[gr(1), gr(0)], [gr(0), gr(1)]]
    calls = (form_rank, dump_form, lambda f: compose_linear(f, identity), lambda f: generic_restriction_rank(f, 1))
    for form, error in ((negative, ValueError), (short, DimensionMismatch)):
        for call in calls:
            with pytest.raises(error) as exc:
                call(form)
            assert exc.type is error


def test_a_bool_exponent_is_refused():
    # True passes isinstance(e, int), but dump_form would print it as a token parse_form refuses
    bad = (True, 0)
    with pytest.raises(ValueError, match="nonnegative integers"):
        form_from_entries(2, [(bad, bad, 1)])
    form = HermitianForm(2, {(bad, bad): gr(1), ((0, 1), (0, 1)): gr(1)})
    for call in (form_rank, dump_form):
        with pytest.raises(ValueError, match="nonnegative integers"):
            call(form)
    holo = WeightedHoloMap(2, ((1, Fraction(1), {bad: gr(1)}),))
    with pytest.raises(ValueError, match="nonnegative integers"):
        norm_difference(holo, False)


def test_integer_norm_difference_matches_gaussian_rational_loop():
    rng = Random(77)
    for _ in range(30):
        n = rng.randint(1, 3)
        comps = []
        for _ in range(rng.randint(1, 4)):
            poly = {}
            for _ in range(rng.randint(1, 4)):
                alpha = tuple(rng.randint(0, 2) for _ in range(n))
                poly[alpha] = _gaussian(rng) or gr(1)
            weight = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 7, 12)))
            comps.append((rng.choice((1, -1)), weight, poly))
        holo = WeightedHoloMap(n, tuple(comps))
        for subtract_one in (False, True):
            got = norm_difference(holo, subtract_one)
            assert got.entries == _gr_norm_difference(holo, subtract_one).entries
            _assert_hermitian(got)


def test_integer_norm_difference_cancels_the_origin():
    # the + component is the constant 1, so subtracting 1 removes the origin entry
    origin = (0, 0)
    z1 = {(1, 0): gr(Fraction(1, 3), Fraction(2, 7))}
    holo = WeightedHoloMap(2, ((1, Fraction(1), {origin: gr(1)}), (-1, Fraction(5, 12), z1)))
    got = norm_difference(holo, True)
    assert (origin, origin) not in got.entries
    assert got.entries == _gr_norm_difference(holo, True).entries
    assert got.entries == {((1, 0), (1, 0)): gr(Fraction(-5, 12) * (Fraction(1, 9) + Fraction(4, 49)))}


def _dense_form(rng, n, top, size):
    """size monomials of degree <= top, nonzero integer diagonal, half the pairs in Z[i] filled."""
    support = rng.sample(monomials_up_to(n, top), size)
    nonzero = [v for v in range(-9, 10) if v]
    entries = [(alpha, alpha, gr(rng.choice(nonzero))) for alpha in support]
    pairs = [(support[i], beta) for i in range(size) for beta in support[i + 1:]]
    for alpha, beta in rng.sample(pairs, len(pairs) // 2):
        entries.append((alpha, beta, gr(rng.choice(nonzero), rng.randint(-9, 9))))
    return form_from_entries(n, entries)


def test_gram_rank_equals_symmetric_kernel_rank():
    # the pivot count of M, behind form_rank and form_inertia, against a
    # general Bareiss elimination of M's dense matrix
    rng = Random(1105)
    for n, top, size in [(3, 3, 8), (3, 3, 12), (3, 3, 16), (3, 3, 20), (4, 2, 9), (4, 2, 15)]:
        f = _dense_form(rng, n, top, size)
        lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
        change = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        g = compose_linear(f, change)
        for h in (f, g):
            assert form_rank(h) == form_inertia(h).rank == bareiss_rank(form_matrix(h))
        assert form_inertia(g) == form_inertia(f)


def _zero_diagonal_form(rng, n, terms):
    """Off-diagonal Gaussian entries only, so the first step, and any later one
    whose remaining diagonal is zero, is a 2x2 pivot."""
    entries = []
    for _ in range(terms):
        alpha, beta = sorted(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2))
        if alpha != beta:
            entries.append((alpha, beta, _gaussian(rng) or gr(1)))
    return form_from_entries(n, entries)


def _matrix_path(form):
    """(rank, inertia, components) of the dense matrix by test_linalg's GaussianRational LDL* oracle."""
    basis = form.support()
    comps = _gr_ldl_components(form_matrix(form, basis))
    pos = sum(s > 0 for s, _, _ in comps)
    return {
        "rank": len(comps),
        "inertia": SignaturePair(pos, len(comps) - pos),
        "decompose": tuple((s, w, {basis[i]: v for i, v in enumerate(vec) if v}) for s, w, vec in comps),
    }


def test_memoized_elimination_matches_the_matrix_path():
    rng = Random(1515)
    mixed = [_mixed_form(rng, n, rng.randint(1, 12)) for n in (1, 2, 3, 3, 4)]
    hollow = [_zero_diagonal_form(rng, n, rng.randint(2, 10)) for n in (2, 2, 3, 3, 4)]
    assert all(len(_elimination(HermitianForm(f.n, f.entries))[1][0][3]) == 2 for f in hollow)
    calls = {"rank": form_rank, "inertia": form_inertia, "decompose": lambda f: decompose(f).components}
    for form in mixed + hollow + [_dense_form(rng, 3, 3, 14), HermitianForm(2, {})]:
        want = _matrix_path(form)
        for order in permutations(calls):
            fresh = HermitianForm(form.n, form.entries)
            for name in order * 2:  # the first round builds the memo, the second reads it
                assert calls[name](fresh) == want[name], (order, name)


def _pivot_forms(rng):
    """Seeded forms whose eliminations take 2x2 pivots, negative 1x1 pivots and negative prev."""
    mixed = [_mixed_form(rng, n, rng.randint(1, 12)) for n in (1, 2, 3, 3, 4, 4)]
    hollow = [_zero_diagonal_form(rng, n, rng.randint(2, 10)) for n in (2, 2, 3, 3, 4)]
    dense = [_dense_form(rng, 3, 2, 8), _dense_form(rng, 2, 3, 9)]
    negated = [form_from_entries(f.n, ((alpha, beta, -c) for (alpha, beta), c in f.entries.items()))
               for f in mixed + dense]
    return mixed + hollow + dense + negated + [HermitianForm(2, {})]


def test_decompose_matches_the_rational_reading_of_its_steps():
    # decompose's view, each row put over one lcm, reduces to the components read off the same
    # steps one reduced fraction at a time, entry by entry and in the same order
    kinds = set()
    for form in _pivot_forms(Random(1520)):
        den, steps = _elimination(form)
        basis = form.support()
        want = [(s, w, {basis[i]: v for i, v in enumerate(vec) if v})
                for s, w, vec in rational_components(den, len(basis), steps)]
        got = decompose(form).components
        assert [(s, w, list(poly.items())) for s, w, poly in got] == [(s, w, list(poly.items())) for s, w, poly in want]
        assert all(type(w) is Fraction for _, w, _ in got)
        for _, prev, piv, cols in steps:
            kinds.add("2x2" if len(cols) == 2 else "negative pivot" if piv < 0 else "positive pivot")
            if prev < 0:
                kinds.add("negative prev")
    assert kinds == {"2x2", "negative pivot", "positive pivot", "negative prev"}


def test_decompose_builds_no_gaussian_rational(monkeypatch):
    # linalg yields Gaussian-integer rows and decompose puts them over one lcm: the GaussianRational
    # components are built only when they are read, and every form starts from its cleared view
    forms = _pivot_forms(Random(1521))
    built = []
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    holos = [decompose(form) for form in forms]
    assert built == []
    assert sum(len(h.components) for h in holos) == sum(form_rank(f) for f in forms) > 20 and built


def test_one_elimination_per_form(monkeypatch):
    walks, clears = [], []
    steps, cleared = forms_module._symmetric_steps, forms_module._cleared
    monkeypatch.setattr(forms_module, "_symmetric_steps", lambda x: walks.append(len(x)) or steps(x))
    monkeypatch.setattr(forms_module, "_cleared", lambda values: clears.append(1) or cleared(values))
    rng = Random(1516)
    for build in (lambda: _mixed_form(rng, 3, 9), lambda: _zero_diagonal_form(rng, 3, 6),
                  lambda: _dense_form(rng, 4, 2, 12)):
        walks.clear()
        clears.clear()
        form = build()  # clears its entries once, as it is built
        for _ in range(2):
            form_rank(form), form_inertia(form), decompose(form)
        assert walks == [len(form.support())]
        assert clears == [1]


def test_memo_changes_neither_equality_nor_repr_nor_dump():
    rng = Random(1517)
    form = _mixed_form(rng, 3, 10)
    plain = HermitianForm(form.n, dict(form.entries))
    shown, text = repr(form), dump_form(form)
    form_rank(form), decompose(form), compose_linear(form, [[1, 0, 0], [1, 1, 0], [0, -1, 1]])
    assert form._memo and not plain._memo
    assert form == plain and plain == form
    assert repr(form) == repr(plain) == shown
    assert "_memo" not in shown
    assert dump_form(form) == dump_form(plain) == text


def test_compose_built_form_reads_its_integers(monkeypatch):
    # compose_linear's form starts from its cleared view: rank, inertia and decompose clear
    # nothing and reduce no entry, and composing it again reduces none either
    rng = Random(1519)
    calls = {"rank": form_rank, "inertia": form_inertia, "decompose": lambda f: decompose(f).components}
    clears = []
    cleared = forms_module._cleared
    monkeypatch.setattr(forms_module, "_cleared", lambda values: clears.append(1) or cleared(values))
    cases = 0
    for n in (1, 2, 3, 3, 4):
        form = _mixed_form(rng, n, rng.randint(2, 9))
        for E in _embeddings(rng, n):
            for trans in (None, [_gaussian(rng) for _ in range(n)]):
                g = compose_linear(form, E, trans)
                clears.clear()
                got = {name: call(g) for name, call in calls.items()}
                assert not clears
                m = g.n
                change = [[gr(1) if i == j else (_gaussian(rng) if j > i else gr(0)) for j in range(m)] for i in range(m)]
                again = compose_linear(g, change)
                assert "entries" not in vars(g)
                assert got == _matrix_path(g)
                plain = HermitianForm(g.n, dict(g.entries))
                assert _form_side(g) == _form_side(plain)  # the same support, flat dict and denominator
                assert g == plain and plain == g
                assert repr(g) == repr(plain) and dump_form(g) == dump_form(plain)
                assert again == compose_linear(plain, change)
                cases += 1
    assert cases == 5 * 3 * 2


def test_threads_share_one_inertia():
    # the compose-built form reduces its entries on first read, so each thread reads them too
    rng = Random(1518)
    dense = _dense_form(rng, 3, 3, 20)
    change = [[1, 1, 0], [0, 1, -1], [0, 0, 1]]
    forms = [dense, _zero_diagonal_form(rng, 4, 14), compose_linear(dense, change)]
    wants = [(dict(f.entries), _matrix_path(f)["inertia"]) for f in forms[:2] + [compose_linear(dense, change)]]
    results = [[] for _ in forms]
    threads = [threading.Thread(target=lambda k=k: results[k].append((forms[k].entries, form_inertia(forms[k]))))
               for k in range(len(forms)) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[want] * 8 for want in wants]
