"""Hermitian forms on polynomial spaces with exact rational arithmetic.

A real-valued polynomial r(z, zbar) is stored as its sparse coefficient
matrix: entry (alpha, beta) is the coefficient of z^alpha * zbar^beta,
and real-valuedness is exactly the Hermitian symmetry of that matrix.
Every form starts from one view, its entries as Gaussian integers over one
denominator, which `_entries_side` builds from listed (re, im) int pairs and
checks Hermitian once; its GaussianRational entries are reduced only when
read.  Rank, inertia and weighted holomorphic squares are exact and read one
elimination per form, memoized with that view; a substitution by an E of full
row rank reads its source's rank and inertia.  Substitution checks its input
and clears E and t by one lcm at the call, and runs (in two passes, on
monomials keyed by packed ints) at the new form's first read of its view.  It
and norm differences sum Gaussian integers over one denominator, in the upper
triangle of a sum that is Hermitian by construction, and read the new form's
view off that triangle.  The monomial basis is graded lexicographic everywhere, so
matrices, files and decompositions are reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import gcd, lcm
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConjugateMismatch, DimensionMismatch, NonRealDiagonal
from .linalg import _GIPair as _Pair, _cleared, _components, _gauss_jordan, _signs, _symmetric_steps
from .multiindex import MultiIndex, grlex_key, places, sorted_grlex, unpack, zero_index
from .scalars import GaussianRational, _Record


class SignaturePair(NamedTuple):
    """Counts of positive and negative eigenvalues of a Hermitian form."""

    pos: int
    neg: int

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    def __str__(self) -> str:
        return f"({self.pos}, {self.neg})"


class HermitianForm(_Record):
    """Sparse Hermitian coefficient matrix of a real-valued polynomial.

    entries maps (alpha, beta) to the coefficient of z^alpha zbar^beta.
    Both mirror entries are stored; zero entries are omitted.  Treat
    instances as immutable: a private memo keeps their integer view
    (`_form_side`) and elimination.  Every form starts from its view, or from a change that
    builds it: its entries are reduced from it, or cleared into it, on first read.
    """

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: Optional[Dict[Tuple[MultiIndex, MultiIndex], GaussianRational]] = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", {} if entries is None else entries)
        object.__setattr__(self, "_memo", {})

    def __getattr__(self, name: str) -> Any:
        """Only reached for the entries of a form that starts from its side, or a change: reduced once."""
        if name != "entries":
            raise AttributeError(name)
        support, flat, d = _form_side(self)
        entries = {(support[i], support[j]): GaussianRational(Fraction(re, d), Fraction(im, d))
                   for (i, j), (re, im) in flat.items()}
        object.__setattr__(self, "entries", entries)
        return entries

    def support(self) -> List[MultiIndex]:
        """Grlex-sorted list of multi-indices appearing in any entry."""
        return list(_form_side(self)[0])

    def max_degree(self) -> int:
        """Largest holomorphic degree present (0 for the zero form)."""
        return max(map(sum, _form_side(self)[0]), default=0)


def _check_index(idx: Tuple[int, ...], n: int) -> MultiIndex:
    idx = tuple(idx)
    if len(idx) != n:
        raise DimensionMismatch(f"multi-index {idx} has length {len(idx)}, expected {n}")
    if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in idx):
        raise ValueError(f"multi-index {idx} must consist of nonnegative integers")
    return idx


def form_from_entries(n: int, entries: Iterable[Tuple[Tuple[int, ...], Tuple[int, ...], object]]) -> HermitianForm:
    """Build a form from sparse (alpha, beta, value) triples, cleared once by one lcm.

    Repeated (alpha, beta) pairs accumulate and a missing mirror is filled
    in; a diagonal entry that is not real, or listed mirrors that are not
    mutual conjugates, refuse the form here (see `_entries_side`).
    """
    listed = [((_check_index(alpha, n), _check_index(beta, n)), value) for alpha, beta, value in entries]
    pairs, d = _cleared(value for _, value in listed)
    return _from_side(HermitianForm(n), "entries", _entries_side(((key, x) for (key, _), x in zip(listed, pairs)), d))


def form_rank(form: HermitianForm) -> int:
    """Exact rank of the coefficient matrix: the symmetric pivot count of form_inertia."""
    return form_inertia(form).rank


def form_inertia(form: HermitianForm) -> SignaturePair:
    """Signature pair (positive count, negative count) of the matrix; a form that compose_linear built by a
    change of variables onto the source space reads its source's, the same by Sylvester's law of inertia,
    and never builds its own substitution (compose_linear raised any error of the change at its call)."""
    return SignaturePair(*_signs(_elimination(form._memo.get("congruent", form))[1]))


def _elimination(form: HermitianForm) -> Tuple[int, list]:
    """(L, steps) of L times the matrix over the support, its upper triangle read from _form_side, which
    checks the form Hermitian before it stores anything: a refused non-Hermitian form stores nothing."""
    steps = form._memo.get("steps")
    if steps is None:
        support, flat, d = _form_side(form)
        x = [[flat.get((i, j), (0, 0)) for j in range(i, len(support))] for i in range(len(support))]
        steps = form._memo["steps"] = (d, list(_symmetric_steps(x)))
    return steps


Poly = Dict[MultiIndex, object]  # a sparse polynomial: exponent tuple -> coefficient


class WeightedHoloMap(_Record):
    """Signed, weighted holomorphic components representing a form.

    Each component is (sign, weight, poly) with sign +1 or -1, weight a
    positive rational, and poly a sparse holomorphic polynomial.  The
    represented form is sum of sign * weight * |poly(z)|^2; weights keep
    the eigenvalue scale so no square roots are ever materialized.  Treat
    instances as immutable: a private memo keeps their integer view
    (`_holo_side`); components that start from a view are reduced from it
    on first read.
    """

    _fields = ("n", "components")

    def __init__(self, n: int, components: Tuple[Tuple[int, Fraction, Poly], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_memo", {})

    def __getattr__(self, name: str) -> Any:
        """Only reached for components that start from their view: reduced from it once."""
        if name != "components":
            raise AttributeError(name)
        d, rows = self._memo["side"]
        comps = tuple((sign, Fraction(wn, wd), {alpha: GaussianRational(Fraction(re, d), Fraction(im, d))
                                                for alpha, (re, im) in poly.items()}) for sign, (wn, wd), poly in rows)
        object.__setattr__(self, "components", comps)
        return comps

    def signature(self) -> SignaturePair:
        rows = _holo_side(self)[1]
        pos = sum(1 for s, *_ in rows if s > 0)
        return SignaturePair(pos, len(rows) - pos)


def _holo_side(holo: WeightedHoloMap) -> HoloSide:
    """(d, rows), memoized on the components: component k is rows[k] = (sign, (wn, wd), {alpha: (re, im)}),
    its weight wn / wd in lowest terms and its coefficients (re + i im) / d over one lcm d, cleared once.
    Hand-built components have each distinct exponent checked here, at their first read."""
    side = holo._memo.get("side")
    if side is None:
        for alpha in dict.fromkeys(a for _, _, poly in holo.components for a in poly):
            _check_index(alpha, holo.n)
        pairs, d = _cleared(c for _, _, poly in holo.components for c in poly.values())
        it = iter(pairs)
        side = holo._memo["side"] = d, tuple((sign, (w.numerator, w.denominator), {alpha: next(it) for alpha in poly})
                                             for sign, weight, poly in holo.components for w in (Fraction(weight),))
    return side


def decompose(form: HermitianForm) -> WeightedHoloMap:
    """Write the form as sum of sign_j * w_j * |l_j(z)|^2 exactly.

    Component count equals the rank and the sign counts equal the
    inertia; the components come from a symmetric-pivoted block LDL*
    factorization and are linearly independent.  They start from their
    integer view: `linalg._components`' Gaussian integers, each piece over
    its own q, are put over the lcm of the q; components reduces on first read.
    """
    basis = _form_side(form)[0]
    rows = list(_components(*_elimination(form)))
    den = lcm(*(q for *_, q, _ in rows))
    side = den, tuple((sign, (w.numerator, w.denominator), {basis[k]: (re * (den // q), im * (den // q))
                                                           for k, (re, im) in vec.items()}) for sign, w, q, vec in rows)
    return _from_side(WeightedHoloMap(form.n, ()), "components", side)


def norm_difference(holo: WeightedHoloMap, subtract_one: bool) -> HermitianForm:
    """The form sum(sign * weight * |component|^2), minus 1 if requested, read off the integer view.

    Component P / d with weight a / b adds sign * a * (W / b) P conj(P) in
    Z[i] to one accumulator over D = W d^2, W the lcm of every b, keyed by
    the monomials' indices in one grlex basis; the 1 is a last component d / d.
    """
    d, rows = _holo_side(holo)
    if subtract_one:
        rows = (*rows, (-1, (1, 1), {zero_index(holo.n): (d, 0)}))
    w = lcm(*(wd for _, (_, wd), _ in rows))
    basis = sorted_grlex({alpha for *_, poly in rows for alpha in poly})
    at = {alpha: i for i, alpha in enumerate(basis)}
    acc: _Rows = {}
    for sign, (wn, wd), poly in rows:
        k = wn * (w // wd)
        p = {at[alpha]: c for alpha, c in poly.items()}
        _sandwich(acc, (k if sign > 0 else -k, 0), p, [p.get(i, (0, 0)) for i in range(len(basis))])
    return _from_side(HermitianForm(holo.n), "entries", _to_side(basis, acc, w * d * d))


def form_from_real_poly(terms: Dict[Tuple[int, ...], object], n: Optional[int] = None) -> HermitianForm:
    """Diagonal form obtained by substituting x_k = |z_k|^2.

    The rank equals the number of distinct monomials and the inertia
    counts the positive and negative coefficients.
    """
    if n is None:
        if not terms:
            raise ValueError("cannot infer the variable count from an empty polynomial")
        n = len(next(iter(terms)))
    return form_from_entries(n, ((alpha, alpha, coeff) for alpha, coeff in terms.items()))


_PairPoly = Dict[MultiIndex, _Pair]
_Rows = Dict[int, List[_Pair]]  # acc[gamma][delta - gamma] for delta >= gamma, basis indices
_FormSide = Tuple[List[MultiIndex], Dict[Tuple[int, int], _Pair], int]
HoloSide = Tuple[int, Tuple[Tuple[int, Tuple[int, int], _PairPoly], ...]]  # see _holo_side


def _pair_mul(p: Dict[int, _Pair], q: Dict[int, _Pair]) -> Dict[int, _Pair]:
    out: Dict[int, _Pair] = {}
    for ka, (ar, ai) in p.items():
        for kb, (br, bi) in q.items():
            k = ka + kb
            r, i = out.get(k, (0, 0))
            out[k] = (r + ar * br - ai * bi, i + ar * bi + ai * br)
    return out


def _sandwich(acc: _Rows, c: _Pair, left: Dict[int, _Pair], right: List[_Pair]) -> None:
    """acc[gamma][delta - gamma] += c u conj(v) over left[gamma] = u and the dense right[delta] = v, for
    delta >= gamma only: every sum of these hyperq builds is Hermitian, and `_to_side` mirrors it."""
    cr, ci = c
    for gamma, (ur, ui) in left.items():
        xr, xi = cr * ur - ci * ui, cr * ui + ci * ur
        acc[gamma] = [(r + xr * vr + xi * vi, i + xi * vr - xr * vi)
                      for (r, i), (vr, vi) in zip(acc.get(gamma) or repeat((0, 0)), right[gamma:])]


def _to_side(basis: Sequence[MultiIndex], acc: _Rows, den: int) -> _FormSide:
    """The view with entry acc[i][j - i] / den at (basis[i], basis[j]), j >= i, from the upper triangle
    acc of a sum that is Hermitian by construction, so it needs no check: `_composed` adds
    C_ab M^e P_a[x] conj(P_b[y]) at (x, y) for each entry C_ab of a checked form, and C_ba = conj(C_ab)
    its conjugate at (y, x); `norm_difference` adds k P[x] conj(P[y]), k real.  So the view is read off
    the triangle, each nonzero entry once, on the basis indices that carry one, in the basis' grlex order."""
    upper = [((i, j), x) for i, row in acc.items() for j, x in enumerate(row, i) if x != (0, 0)]
    used = sorted({k for key, _ in upper for k in key})
    return _reduced(basis, used, upper, den)


def _from_side(value: Any, name: str, side: Any) -> Any:
    """value, a form or a map, with field `name` deleted: its first read reaches __getattr__, reducing `side`."""
    object.__delattr__(value, name)
    value._memo["side"] = side
    return value


def _expansions(rows: Sequence[Sequence[_Pair]], n_dst: int, monomials: Sequence[MultiIndex]
                ) -> Tuple[List[Dict[int, _Pair]], int]:
    """(P, w) with (Ez + t)^alpha = sum over gamma of P_k[key(gamma)] z^gamma / M^|alpha|, alpha = monomials[k].

    rows[i] is row i of E then t_i, cleared together by the lcm M of their denominators, so P_k is over Z[i].  A
    monomial gamma of the n = n_dst new variables is keyed by the int key(gamma) = |gamma| B^n - pack(gamma),
    B = 2^w, pack the `multiindex.places(n, w)` layout, w = max(D.bit_length(), 1) for D the top |alpha|.  key is
    linear, so a term product adds two keys.  Each gamma that P reaches has every gamma_i <= |gamma| <= D < B, so
    pack reads gamma as n base-B digits, gamma_1 on top, in [0, B^n), and key(gamma) lies in ((|gamma| - 1) B^n,
    |gamma| B^n]: a lower degree has the smaller key, and within a degree the larger key is the lexicographically
    smaller gamma.  So ascending keys are grlex order (`multiindex.grlex_key`), and -key mod B^n unpacks to gamma.
    The powers of each row are cached: a monomial costs one product per variable.
    """
    w = max(max(map(sum, monomials), default=0).bit_length(), 1)
    one: Dict[int, _Pair] = {0: (1, 0)}
    keys = [places(n_dst + 1, w)[0] - u for u in places(n_dst, w)] + [0]  # the degree unit B^n minus x_j's key
    powers = [[one, {k: c for k, c in zip(keys, row) if c != (0, 0)}] for row in rows]
    table = []
    for alpha in monomials:
        out = one
        for i, e in enumerate(alpha):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(_pair_mul(powers[i][-1], powers[i][1]))
                out = _pair_mul(out, powers[i][e])
        table.append(out)
    return table, w


def _entries_side(listed: Iterable[Tuple[Tuple[MultiIndex, MultiIndex], _Pair]], den: int) -> _FormSide:
    """(support, flat, D): entry (support[i], support[j]) = flat[i, j] / D, support grlex-sorted, is the sum
    over den of the Gaussian integers listed at that (alpha, beta), and D = den / gcd(den, flat) is the lcm of
    the entries' reduced denominators.  A missing mirror is filled with the conjugate and a zero sum dropped;
    the one Hermitian check refuses the form at the first key, in listed order, whose mirror is not its conjugate."""
    first: Dict[MultiIndex, int] = {}  # each index numbered at its first listing, so that keys are int pairs
    acc: Dict[Tuple[int, int], _Pair] = {}
    for (alpha, beta), x in listed:
        key = first.setdefault(alpha, len(first)), first.setdefault(beta, len(first))
        y = acc.get(key)
        acc[key] = x if y is None else (x[0] + y[0], x[1] + y[1])
    listed_at = list(first)
    used = sorted({k for key, x in acc.items() if x != (0, 0) for k in key}, key=lambda k: grlex_key(listed_at[k]))
    for (i, j), (re, im) in acc.items():
        if acc.get((j, i), (re, -im)) != (re, -im):
            a, b = listed_at[i], listed_at[j]
            if i == j:
                raise NonRealDiagonal(f"diagonal entry at {a} has imaginary part {Fraction(im, den)}")
            raise ConjugateMismatch(f"entries at ({a}, {b}) and ({b}, {a}) are not mutual conjugates")
    return _reduced(listed_at, used, acc.items(), den)


def _reduced(monomials: Sequence[MultiIndex], used: List[int], listed: Iterable[Tuple[Tuple[int, int], _Pair]],
             den: int) -> _FormSide:
    """(support, flat, D), the one reducer of both writers: support lists monomials[k] for k in used, and each
    nonzero x listed at (i, j) puts x / g at flat[used.index(i), used.index(j)] and its conjugate at the mirror,
    g = gcd(den, every part), D = den / g.  A Hermitian sum lists no other mirror value; `listed` is read twice."""
    to = dict(zip(used, count()))
    g = gcd(den, *(v for _, x in listed for v in x)) if den > 1 else 1
    flat: Dict[Tuple[int, int], _Pair] = {}
    for (i, j), (re, im) in listed:
        if re or im:
            a, b = to[i], to[j]
            flat[a, b], flat[b, a] = ((re, im), (re, -im)) if g == 1 else ((re // g, im // g), (re // g, -im // g))
    return [monomials[k] for k in used], flat, den // g


def _form_side(form: HermitianForm) -> _FormSide:
    """(support, flat, D), memoized (see `_entries_side`), built at the form's first read: substituted from the
    change `compose_linear` kept, or, for a form built directly from entries, by `form_from_entries` with each
    missing mirror listed as 0, so that a one-sided entry is refused; a refused form memoizes nothing."""
    side = form._memo.get("side")
    if side is None and "change" in form._memo:
        side = form._memo["side"] = _to_side(*_composed(*form._memo["change"]))
    if side is None:
        entries = form.entries
        listed = [(a, b, x) for (a, b), x in entries.items()]
        listed += [(b, a, 0) for a, b, _ in listed if (b, a) not in entries]
        side = form._memo["side"] = _form_side(form_from_entries(form.n, listed))
    return side


def _composed(form: HermitianForm, rows: Sequence[Sequence[_Pair]], m: int, n_dst: int
              ) -> Tuple[List[MultiIndex], _Rows, int]:
    """(basis, acc, den): entry (basis[i], basis[j]) of r(Ez + t) is acc[i][j] / den, rows as compose_linear keeps them.

    With c = C / D over the lcm of the form's denominators, P from
    _expansions and K the top |alpha| + |beta| (read once per form), entry c at
    (alpha, beta) adds C M^(K-|alpha|-|beta|) P_alpha[gamma] conj(P_beta[delta]) in
    Z[i] at (gamma, delta), all over den = D M^K.  Two passes group the sum by alpha: each
    entry of the form side adds conj(C) M^(K-|alpha|-|beta|) P_beta[delta] to
    V_alpha[delta], then acc[gamma][delta] += P_alpha[gamma] conj(V_alpha[delta]):
    nnz k + |support| k^2 products for k terms per P, not nnz k^2, and pass 2 sums
    only delta >= gamma, as the sum is Hermitian (see `_to_side`).  gamma and delta
    are indices in one grlex basis of the monomials the P reach, their sorted keys
    each decoded once, and each V_alpha is a dense row over that basis.  Any K' >= K
    gives the same reduced (support, flat, D): `_reduced`'s gcd divides out M^(K'-K).
    """
    support, flat, d = _form_side(form)
    table, w = _expansions(rows, n_dst, support)
    keys = sorted({k for p in table for k in p})
    at = dict(zip(keys, count()))
    table = [{at[k]: x for k, x in p.items()} for p in table]
    basis = [unpack(-k, n_dst, w) for k in keys]
    size = [sum(alpha) for alpha in support]  # |alpha|
    if (top := form._memo.get("top")) is None:
        top = form._memo["top"] = max((size[i] + size[j] for i, j in flat), default=0)
    scale = [m**e for e in range(top + 1)]
    v = [[(0, 0)] * len(basis) for _ in support]  # v[i][delta] = V_support[i][delta]
    for (i, j), (cr, ci) in flat.items():
        s = scale[top - size[i] - size[j]]
        xr, xi = cr * s, -ci * s
        row = v[i]
        for delta, (pr, pi) in table[j].items():
            r, im = row[delta]
            row[delta] = (r + xr * pr - xi * pi, im + xr * pi + xi * pr)
    acc: _Rows = {}
    for i, row in enumerate(v):
        _sandwich(acc, (1, 0), table[i], row)
    return basis, acc, d * scale[top]


def compose_linear(
    form: HermitianForm,
    matrix: Sequence[Sequence[object]],
    translation: Optional[Sequence[object]] = None,
) -> HermitianForm:
    """Coefficient matrix of r(Ez + t) by exact substitution, deferred to the new form's first read.

    E has one row per source variable and one column per new variable.  Every error is raised here: the shapes
    of E and t, the source's view (read, so checked, unless it is a change checked at its own call) and the one
    clearing of E and t by their lcm M.  The new form keeps the source, the cleared rows and M, which
    `_form_side` substitutes once.  An E of full row rank maps onto the source space for any t, so p -> p(Ez + t)
    is injective and the rank and inertia are kept (Sylvester's law): after one exact rank test of E the new
    form reads them off the root of its chain of such changes and builds nothing.  A thin E, never tested,
    restricts the form to a subspace.
    """
    if len(matrix) != form.n:
        raise DimensionMismatch(f"matrix has {len(matrix)} rows, form has {form.n} variables")
    if translation is not None and len(translation) != form.n:
        raise DimensionMismatch(f"translation has {len(translation)} entries, form has {form.n} variables")
    n_dst = len(matrix[0]) if form.n else 0
    if "change" not in form._memo:
        _form_side(form)
    for i, row in enumerate(matrix):
        if len(row) != n_dst:
            raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {n_dst}")
    ts = repeat(0) if translation is None else translation
    pairs, m = _cleared(x for row, t in zip(matrix, ts) for x in (*row, t))
    rows = [pairs[k:k + n_dst + 1] for k in range(0, len(pairs), n_dst + 1)]
    changed = HermitianForm(n_dst)
    object.__delattr__(changed, "entries")
    changed._memo["change"] = form, rows, m, n_dst
    if n_dst >= form.n > 0 and _gauss_jordan(rows, n_dst)[0] == form.n:
        changed._memo["congruent"] = form._memo.get("congruent", form)
    return changed
