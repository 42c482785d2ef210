"""Hermitian forms on polynomial spaces with exact rational arithmetic.

A real-valued polynomial r(z, zbar) is stored as its sparse coefficient
matrix: entry (alpha, beta) is the coefficient of z^alpha * zbar^beta,
and real-valuedness is exactly the Hermitian symmetry of that matrix.
Rank, inertia (signature pair), and the weighted holomorphic square
decomposition are all computed without ever leaving the Gaussian
rationals.  The monomial basis is ordered graded lexicographically
everywhere, so matrices, files, and decompositions are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConjugateMismatch, DimensionMismatch, NonRealDiagonal
from .linalg import inertia as _matrix_inertia
from .linalg import ldl_components, rank as _matrix_rank
from .multiindex import MultiIndex, sorted_grlex, total_degree, unit, zero_index
from .polys import Poly, poly_mul
from .scalars import GR_ONE, GR_ZERO, GaussianRational, gr


class SignaturePair(NamedTuple):
    """Counts of positive and negative eigenvalues of a Hermitian form."""

    pos: int
    neg: int

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    def __str__(self) -> str:
        return f"({self.pos}, {self.neg})"


@dataclass(frozen=True)
class HermitianForm:
    """Sparse Hermitian coefficient matrix of a real-valued polynomial.

    entries maps (alpha, beta) to the coefficient of z^alpha zbar^beta.
    Both mirror entries are stored; zero entries are omitted.  Treat
    instances as immutable.
    """

    n: int
    entries: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = field(default_factory=dict)

    def support(self) -> List[MultiIndex]:
        """Grlex-sorted list of multi-indices appearing in any entry."""
        seen = set()
        for alpha, beta in self.entries:
            seen.add(alpha)
            seen.add(beta)
        return sorted_grlex(seen)

    def matrix(self, basis: Optional[Sequence[MultiIndex]] = None) -> List[List[GaussianRational]]:
        """Dense coefficient matrix over the given (default: support) basis."""
        if basis is None:
            basis = self.support()
        zero = gr(0)
        return [
            [self.entries.get((a, b), zero) for b in basis]
            for a in basis
        ]

    def is_zero(self) -> bool:
        return not self.entries

    def max_degree(self) -> int:
        """Largest holomorphic degree present (0 for the zero form)."""
        deg = 0
        for alpha, beta in self.entries:
            deg = max(deg, total_degree(alpha), total_degree(beta))
        return deg

    def evaluate(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Value of r at a point; real whenever the form is Hermitian."""
        if len(point) != self.n:
            raise DimensionMismatch(f"point has {len(point)} coordinates, form has {self.n}")
        powers: Dict[Tuple[int, int], GaussianRational] = {}

        def pw(i: int, e: int) -> GaussianRational:
            key = (i, e)
            if key not in powers:
                powers[key] = GR_ONE if e == 0 else pw(i, e - 1) * point[i]
            return powers[key]

        total = gr(0)
        for (alpha, beta), c in self.entries.items():
            term = c
            for i, e in enumerate(alpha):
                if e:
                    term = term * pw(i, e)
            for i, e in enumerate(beta):
                if e:
                    term = term * pw(i, e).conjugate()
            total = total + term
        return total


def _check_index(idx: Tuple[int, ...], n: int) -> MultiIndex:
    idx = tuple(idx)
    if len(idx) != n:
        raise DimensionMismatch(f"multi-index {idx} has length {len(idx)}, expected {n}")
    if any((not isinstance(e, int)) or e < 0 for e in idx):
        raise ValueError(f"multi-index {idx} must consist of nonnegative integers")
    return idx


def form_from_entries(n: int, entries: Iterable[Tuple[Tuple[int, ...], Tuple[int, ...], object]]) -> HermitianForm:
    """Build a form from sparse (alpha, beta, value) triples.

    Repeated (alpha, beta) pairs accumulate.  Diagonal entries must come
    out real; if both mirror entries are listed they must be mutual
    conjugates; a missing mirror is filled in automatically.
    """
    acc: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = {}
    for alpha, beta, value in entries:
        a = _check_index(alpha, n)
        b = _check_index(beta, n)
        v = GaussianRational.coerce(value)
        key = (a, b)
        acc[key] = acc.get(key, gr(0)) + v

    out: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = {}
    for (a, b), v in acc.items():
        if a == b:
            if v.im != 0:
                raise NonRealDiagonal(f"diagonal entry at {a} has imaginary part {v.im}")
            if v:
                out[(a, b)] = v
            continue
        mirror = (b, a)
        if mirror in acc:
            if acc[mirror] != v.conjugate():
                raise ConjugateMismatch(
                    f"entries at ({a}, {b}) and ({b}, {a}) are not mutual conjugates"
                )
        if v:
            out[(a, b)] = v
            out.setdefault(mirror, v.conjugate())
    return HermitianForm(n, out)


def form_rank(form: HermitianForm) -> int:
    """Exact rank of the coefficient matrix over the Gaussian rationals."""
    if form.is_zero():
        return 0
    return _matrix_rank(form.matrix())


def form_inertia(form: HermitianForm) -> SignaturePair:
    """Signature pair (positive count, negative count) of the matrix."""
    if form.is_zero():
        return SignaturePair(0, 0)
    pos, neg = _matrix_inertia(form.matrix())
    return SignaturePair(pos, neg)


@dataclass(frozen=True)
class WeightedHoloMap:
    """Signed, weighted holomorphic components representing a form.

    Each component is (sign, weight, poly) with sign +1 or -1, weight a
    positive rational, and poly a sparse holomorphic polynomial.  The
    represented form is sum of sign * weight * |poly(z)|^2; weights keep
    the eigenvalue scale so no square roots are ever materialized.
    """

    n: int
    components: Tuple[Tuple[int, Fraction, Poly], ...]

    def signature(self) -> SignaturePair:
        pos = sum(1 for s, _, _ in self.components if s > 0)
        return SignaturePair(pos, len(self.components) - pos)


def decompose(form: HermitianForm) -> WeightedHoloMap:
    """Write the form as sum of sign_j * w_j * |l_j(z)|^2 exactly.

    Component count equals the rank and the sign counts equal the
    inertia; the components come from a symmetric-pivoted block LDL*
    factorization and are linearly independent.
    """
    basis = form.support()
    comps = []
    if basis:
        for sign, weight, vec in ldl_components(form.matrix(basis)):
            poly = {basis[i]: v for i, v in enumerate(vec) if v}
            comps.append((sign, weight, poly))
    return WeightedHoloMap(form.n, tuple(comps))


def norm_difference(holo: WeightedHoloMap, subtract_one: bool) -> HermitianForm:
    """The form sum(sign * weight * |component|^2), minus 1 if requested."""
    acc: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = {}
    for sign, weight, poly in holo.components:
        scale = gr(weight if sign > 0 else -weight)
        for alpha, ca in poly.items():
            left = scale * ca
            for beta, cb in poly.items():
                key = (alpha, beta)
                v = acc.get(key, gr(0)) + left * cb.conjugate()
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    if subtract_one:
        origin = zero_index(holo.n)
        key = (origin, origin)
        v = acc.get(key, gr(0)) - GR_ONE
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return HermitianForm(holo.n, acc)


def form_from_real_poly(terms: Dict[Tuple[int, ...], object], n: Optional[int] = None) -> HermitianForm:
    """Diagonal form obtained by substituting x_k = |z_k|^2.

    The rank equals the number of distinct monomials and the inertia
    counts the positive and negative coefficients.
    """
    if n is None:
        if not terms:
            raise ValueError("cannot infer the variable count from an empty polynomial")
        n = len(next(iter(terms)))
    entries: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = {}
    for alpha, coeff in terms.items():
        a = _check_index(alpha, n)
        v = GaussianRational.coerce(coeff)
        if v.im != 0:
            raise NonRealDiagonal(f"coefficient of x^{a} is not real")
        if v:
            entries[(a, a)] = v
    return HermitianForm(n, entries)


def _expansions(
    matrix: Sequence[Sequence[object]],
    translation: Optional[Sequence[object]],
    n_dst: int,
    monomials: Iterable[MultiIndex],
) -> Dict[MultiIndex, Poly]:
    """(Ez + t)^alpha in the n_dst new variables, for each alpha given.

    Row i of E with t_i substitutes for variable i; the powers of each
    substitution are cached, so a monomial costs one product per variable.
    """
    origin = zero_index(n_dst)
    one: Poly = {origin: GR_ONE}
    powers: List[List[Poly]] = []
    for i, row in enumerate(matrix):
        if len(row) != n_dst:
            raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {n_dst}")
        li: Poly = {}
        for j, c in enumerate(row):
            v = GaussianRational.coerce(c)
            if v:
                li[unit(n_dst, j)] = v
        if translation is not None:
            t = GaussianRational.coerce(translation[i])
            if t:
                li[origin] = t
        powers.append([one, li])
    table: Dict[MultiIndex, Poly] = {}
    for alpha in monomials:
        out = one
        for i, e in enumerate(alpha):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(poly_mul(powers[i][-1], powers[i][1]))
                out = poly_mul(out, powers[i][e])
        table[alpha] = out
    return table


def compose_linear(
    form: HermitianForm,
    matrix: Sequence[Sequence[object]],
    translation: Optional[Sequence[object]] = None,
) -> HermitianForm:
    """Coefficient matrix of r(Ez + t) by exact substitution.

    E has one row per source variable and one column per new variable.
    When E is square invertible and t = 0 the rank and inertia are
    preserved; a thin E restricts the form to a subspace.
    """
    if translation is not None and len(translation) != form.n:
        raise DimensionMismatch(
            f"translation has {len(translation)} entries, form has {form.n} variables"
        )
    if len(matrix) != form.n:
        raise DimensionMismatch(f"matrix has {len(matrix)} rows, form has {form.n} variables")
    n_dst = len(matrix[0]) if form.n else 0
    table = _expansions(matrix, translation, n_dst, form.support())

    # r(Ez+t) = sum c * (Ez+t)^alpha * conj((Ez+t)^beta); the conjugate of
    # the beta expansion conjugates its coefficients against zbar^delta.
    acc: Dict[Tuple[MultiIndex, MultiIndex], GaussianRational] = {}
    for (alpha, beta), c in form.entries.items():
        anti = table[beta]
        for gamma, u in table[alpha].items():
            cu = c * u
            for delta, v in anti.items():
                key = (gamma, delta)
                w = acc.get(key, GR_ZERO) + cu * v.conjugate()
                if w:
                    acc[key] = w
                else:
                    acc.pop(key, None)
    return HermitianForm(n_dst, acc)
