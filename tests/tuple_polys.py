"""Polynomials as dicts from exponent tuples to exact coefficients.

The sparse helpers and the tuple/Fraction lattice moves that
hyperq.quadrics replaced with packed-integer ones, kept as test oracles,
with the monomial lists and the Veronese restriction matrix that left
hyperq when restriction became a substitution, and the exponent-tuple
sum that left it when substitution keyed its monomials by packed ints.
Coefficients only need ring arithmetic and truthiness, so the helpers
serve Fraction and GaussianRational polynomials alike; zero
coefficients are never stored.
"""

import operator
from random import Random

from hyperq.errors import NoPivotMonomial, NotAdmissible
from hyperq.forms import WeightedHoloMap
from hyperq.multiindex import grlex_key, unit, zero_index
from hyperq.quadrics import QuadricMap, SignedRealPoly, _require_admissible, _routes, is_admissible, s_poly
from hyperq.scalars import gr


def mi_add(alpha, beta):
    """The exponent tuple of the product z^alpha z^beta."""
    return tuple(map(operator.add, alpha, beta))


def monomials_of_degree(n_vars, d):
    """All exponent tuples of total degree d, in graded-lex order."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if n_vars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(n_vars - 1, d - e):
            yield (e,) + rest


def monomials_up_to(n_vars, d):
    """All exponent tuples of total degree <= d, graded-lex order."""
    return [alpha for deg in range(d + 1) for alpha in monomials_of_degree(n_vars, deg)]


def poly_add_inplace(acc, p):
    for k, c in p.items():
        s = acc.get(k)
        s = c if s is None else s + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def poly_add(p, q):
    out = dict(p)
    poly_add_inplace(out, q)
    return out


def poly_mul(p, q):
    out = {}
    if len(p) > len(q):
        p, q = q, p
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = mi_add(ka, kb)
            c = ca * cb
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def poly_shift(p, mono):
    """Multiply by the monomial with exponent tuple `mono`."""
    return {mi_add(k, mono): c for k, c in p.items()}


def restriction_matrix(linear, d, translation=None):
    """(rows, cols, T): the coefficient T[i][j] of w^cols[j] in (Ew + t)^rows[i], by poly_mul
    over the entries' own ring, with E = linear and t = translation.

    A linear map (no t, or t = 0) acts degree by degree, so rows and cols
    are the degree-d monomials; an affine one mixes degrees, so they run
    over every degree up to d.
    """
    n, m = len(linear), len(linear[0])
    images = [{unit(m, j): x for j, x in enumerate(row) if x} for row in linear]
    if translation is not None and any(translation):
        rows, cols = monomials_up_to(n, d), monomials_up_to(m, d)
        for image, t in zip(images, translation):
            if t:
                image[zero_index(m)] = t
    else:
        rows, cols = list(monomials_of_degree(n, d)), list(monomials_of_degree(m, d))
    powers = {zero_index(n): {zero_index(m): 1}}

    def power(alpha):
        # (Ew + t)^alpha from the power with one factor fewer of its first variable
        if alpha not in powers:
            i = next(i for i, e in enumerate(alpha) if e)
            powers[alpha] = poly_mul(power(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]), images[i])
        return powers[alpha]

    return rows, cols, [[power(alpha).get(gamma, 0) for gamma in cols] for alpha in rows]


def tuple_grow(p, mirror=False, verify=True):
    """quadrics.grow on exponent tuples and Fractions."""
    sig = _require_admissible(p, "grow") if verify else p.signature()
    a, b, n = p.a, p.b, p.n
    m = p.degree()
    added = s_poly(a, b).terms
    if mirror:
        added = {al: -c for al, c in added.items()}
        head_var, tail_var = 1, 0
    else:
        head_var, tail_var = 0, 1
    k = m + 1
    while True:
        head = poly_shift(p.terms, tuple((k - m) if j == head_var else 0 for j in range(n)))
        tail = poly_shift(added, tuple((k - 1) if j == tail_var else 0 for j in range(n)))
        if not (head.keys() & tail.keys()):
            break
        k += 1
    head.update(tail)
    out = SignedRealPoly(a, b, head)
    shift = (a, b) if not mirror else (b, a)
    assert out.signature() == (sig.pos + shift[0], sig.neg + shift[1])
    return out


def tuple_corner_move(p, shift, verify=True):
    """quadrics.corner_move on exponent tuples and Fractions."""
    shift = (int(shift[0]), int(shift[1]))
    a, b, n = p.a, p.b, p.n
    route = _routes(a, b).get(shift)
    if route is None:
        raise ValueError(f"shift {shift} is not one of the eight moves for source ({a}, {b})")
    if route[0] == "grow":
        return tuple_grow(p, route[1], verify=verify)
    if b < 2:
        raise ValueError("corner moves need b >= 2")
    sig = _require_admissible(p, "corner_move") if verify else p.signature()
    kind, pivot_sign, elim = route
    e = n - 1 if elim == "last" else 0

    terms = dict(p.terms)
    while terms and all(al[e] >= 1 for al in terms):
        terms = {al[:e] + (al[e] - 1,) + al[e + 1:]: c for al, c in terms.items()}

    want_positive = pivot_sign > 0
    candidates = [al for al, c in terms.items() if al[e] == 0 and (c > 0) == want_positive]
    if not candidates:
        word = "positive" if want_positive else "negative"
        raise NoPivotMonomial(f"no {word} monomial free of x{e + 1} is available for shift {shift}")
    piv = min(candidates, key=grlex_key)
    c0 = terms[piv]

    sign = 1 if elim == "last" else -1
    sigma = {al: sign * c for al, c in s_poly(a, b).terms.items() if not al[e]}
    e_unit = unit(n, e)
    remainder = dict(terms)
    if kind == "tilde":
        del remainder[piv]
        out_terms = poly_add(poly_mul({piv: c0}, sigma), poly_shift(remainder, e_unit))
    else:
        remainder[piv] = c0 / 2
        out_terms = poly_add(poly_mul({piv: c0 / 2}, sigma), poly_shift(remainder, e_unit))

    out = SignedRealPoly(a, b, out_terms)
    assert out.signature() == (sig.pos + shift[0], sig.neg + shift[1])
    if verify and not is_admissible(out)[0]:
        raise NotAdmissible("corner move produced a non-admissible polynomial")
    return out


def criterion_8_seeds():
    """The 200 admissible (split, s * q) seeds of acceptance criterion 8, in its order."""
    rng = Random(99)
    for a, b in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        s = s_poly(a, b).terms
        for _ in range(40):
            monos = list(monomials_of_degree(a + b, rng.randint(1, 3)))
            q = {}
            for _ in range(rng.randint(1, 4)):
                mono = rng.choice(monos)
                q[mono] = q.get(mono, 0) + rng.randint(1, 5)
            yield SignedRealPoly(a, b, poly_mul(s, q))


def diagonal_map(a, b, terms, denominator):
    """The monomial map of sum c x^alpha via x_k = |z_k|^2, built eagerly as quadrics built it
    before maps kept an integer view: one component per term, weighted by |c|, positive ones
    first, each group in grlex order; with denominator the map is affine and its first negative
    component is its denominator, otherwise it is homogeneous."""
    comps = sorted(((1 if c > 0 else -1, abs(c), {al: gr(1)}) for al, c in terms.items()),
                   key=lambda comp: (comp[0] < 0, min(map(grlex_key, comp[2]))))
    index = sum(comp[0] > 0 for comp in comps) if denominator else None
    return QuadricMap(a, b, not denominator, WeightedHoloMap(a + b, tuple(comps)), index)


def scanning_pivot(n, width, shift, route, terms):
    """quadrics' corner-move pivot as it was found before the settle-time summary: every
    route rescans the packed terms for the common power of x_e and the pivot."""
    _, pivot_sign, elim = route
    e = n - 1 if elim == "last" else 0
    field, mask = width * (n - 1 - e), (1 << width) - 1
    # x_1 holds the top field, so the least key has the least power of it
    common = min(terms, default=0) >> field if e == 0 else min(map(mask.__and__, terms), default=0)
    candidates = [key for key, c in terms.items() if key >> field & mask == common and (c > 0) == (pivot_sign > 0)]
    if not candidates:
        word = "positive" if pivot_sign > 0 else "negative"
        raise NoPivotMonomial(f"no {word} monomial free of x{e + 1} is available for shift {shift}")
    return e, common, max(candidates)
