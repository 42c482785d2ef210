"""Constructive mappings between hyperquadrics.

The affine hyperquadric Q(a, b) is the set where the first a squared
moduli minus the last b sum to 1; HQ(a, b) is its homogeneous version
summing to 0.  A homogeneous real polynomial p(x) with A positive and B
negative coefficients that vanishes whenever s = x_1 + ... + x_a -
x_{a+1} - ... - x_{a+b} does (equivalently, s divides p) is called
admissible, and substituting x_k = |z_k|^2 turns it into a monomial
mapping HQ(a, b) -> HQ(A, B).

This module implements the admissibility test, the eight lattice moves
that walk an admissible polynomial's signature around the (A, B)
lattice, a lowest-degree-first search assembling mappings from those
moves (one resumable walk per source split answers every box in its
region exactly as a lone walk of that box would; see `_search`), exact
divisibility verification of any candidate map, tensor extensions, and
dehomogenization to rational maps between affine hyperquadrics.

The moves and the divisibility routine run on integer coefficients and
exponents packed by `multiindex.places`, so multiplying monomials adds
ints.  The search ranks each child by the degree and term count `_key`
reads off its parent and the parent's `_summary`, taken once when it
settles; it moves (`_move`) only the children it settles and keeps them
packed.  `grow` and `corner_move` pack, move, unpack.  Maps keep the
integers they are built from: every builder (construct_map,
dehomogenize, tensor_extend, map_from_form, identity_map, parse_map)
gives a map only the integer view of its components (forms._holo_side),
on which QuadricMap checks it and which verify_map and dump_map read;
its Fraction and GaussianRational components are reduced on demand.

Admissibility and verification share one divisibility routine: solve
s = c (1 on Q(a, b), 0 on HQ(a, b)) for x_1, or for z_1 w_1 once zbar
is complexified to w, divide by Horner's rule in that quantity, and test
the remainder for zero (see `_divides`).  A map whose components are
single monomials has the diagonal norm difference P(zw), with zw
ranging over C^n, so s - c divides it exactly when s(x) - c divides
P(x): `verify_map` tests it in n real variables.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .combinat import stability_region
from .errors import (DimensionMismatch, IndexOutOfRange, NoNegativeComponent, NoPivotMonomial, NotAdmissible,
                     NotReached, NotVanishing)
from .forms import (HermitianForm, HoloSide, SignaturePair, WeightedHoloMap, _form_side, _from_side, _holo_side,
                    decompose, norm_difference)
from .linalg import _cleared
from .multiindex import MultiIndex, grlex_key, places, unit, unpack, zero_index

RealTerms = Dict[MultiIndex, Fraction]
Term = Tuple[int, MultiIndex, object]
# (degree, den, terms): terms maps packed exponents to int numerators over den
Node = Tuple[int, int, Dict[int, int]]
Summary = Dict[Tuple[str, bool], Tuple[int, int, Optional[int]]]  # see _summary


@dataclass(frozen=True)
class SignedRealPoly:
    """Homogeneous real polynomial in x_1..x_{a+b} with signed terms.

    The split (a, b) names the source hyperquadric; the terms map
    exponent tuples to nonzero rationals.
    """

    a: int
    b: int
    terms: RealTerms

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("source split needs a >= 1 and b >= 1")
        n = self.a + self.b
        cleaned: RealTerms = {}
        degrees = set()
        pos = 0
        for alpha, c in self.terms.items():
            if len(alpha) != n:
                raise DimensionMismatch(f"exponent tuple {alpha} has length {len(alpha)}, expected {n}")
            if min(alpha) < 0:
                raise ValueError(f"negative exponent in {alpha}")
            v = c if type(c) is Fraction else Fraction(c)
            if v:
                cleaned[tuple(alpha)] = v
                degrees.add(sum(alpha))
                pos += v.numerator > 0
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_signature", SignaturePair(pos, len(cleaned) - pos))

    @property
    def n(self) -> int:
        return self.a + self.b

    def degree(self) -> int:
        if not self.terms:
            return 0
        return sum(next(iter(self.terms)))

    def signature(self) -> SignaturePair:
        return self._signature


def s_poly(a: int, b: int) -> SignedRealPoly:
    """The defining linear form x_1 + .. + x_a - x_{a+1} - .. - x_{a+b}."""
    return SignedRealPoly(a, b, {unit(a + b, j): (1 if j < a else -1) for j in range(a + b)})


def _divides(a: int, b: int, affine: bool, complexified: bool, terms: Iterable[Term]) -> bool:
    """Whether s - c divides the sum of coeff * q^e * rest over the terms.

    c is 1 when affine, else 0.  q is x_1 with rest in x_2..x_n, or
    z_1 w_1 with rest in z_1..z_n, w_2..w_n when complexified, and
    s - c = q - L.  The coefficients are ints, or Gaussian integers as
    (re, im) pairs when complexified: s - c is real, so it divides the
    sum exactly when it divides the real and the imaginary part.  Each
    part P = sum_e P_e q^e, P_e free of q, is divided by Horner's rule:
    R_top = P_top and R_e = P_e + L R_{e+1}.  As L R_{e+1} = R_e - P_e,
    Q = sum_{e>=1} R_e q^(e-1) has (q - L) Q = sum_{e>=1} R_e q^e -
    sum_{e<top} (R_e - P_e) q^e = P - R_0, with R_0 free of q: q - L
    divides P exactly when R_0 = 0, the intermediates are the quotient's
    coefficients, and the cost is |Q| |L|, not the top e: while R = 0 the
    loop skips to the next nonempty P_e.  rest is packed by `places` into
    `bits`-bit fields, where 2^bits exceeds the largest e + sum(rest):
    a field of R_e comes from a term with e' >= e times L^(e' - e), so it
    stays below e' + sum(rest) and no field carries into the next.
    """
    terms, n = list(terms), a + b
    bits = max((e + sum(rest) for e, rest, _ in terms), default=1).bit_length() or 1
    units = places(2 * n - 1 if complexified else n - 1, bits)
    rel = [(0, 1)] if affine else []  # L as (packed monomial, coefficient) pairs
    for j in range(1, n):
        rel.append((units[j] + units[n + j - 1] if complexified else units[j - 1], -1 if j < a else 1))
    shifts = [sum(map(mul, rest, units)) for _, rest, _ in terms]
    coeffs = [c for _, _, c in terms]
    for part in ([re for re, _ in coeffs], [im for _, im in coeffs]) if complexified else (coeffs,):
        rows: Dict[int, Dict[int, int]] = {}
        for (e, _, _), shift, k in zip(terms, shifts, part):
            if k:
                row = rows.setdefault(e, {})
                row[shift] = row.get(shift, 0) + k
        e, r = max(rows, default=-1), {}
        while e >= 0:
            acc = rows.pop(e, {})
            for m, k in r.items():
                for u, sign in rel:
                    acc[m + u] = acc.get(m + u, 0) + sign * k
            r = {m: k for m, k in acc.items() if k}
            e = e - 1 if r else max(rows, default=-1)
        if r:
            return False
    return True


def is_admissible(p: SignedRealPoly) -> Tuple[bool, SignaturePair]:
    """Whether s divides p, plus the signature (positive, negative counts)."""
    pairs, den = _cleared(p.terms.values())
    terms = ((alpha[0], alpha[1:], c) for alpha, (c, _) in zip(p.terms, pairs))
    return (_divides(p.a, p.b, False, False, terms), p.signature())


def _require_admissible(p: SignedRealPoly, who: str) -> SignaturePair:
    ok, sig = is_admissible(p)
    if not ok:
        raise NotAdmissible(f"{who} requires an admissible polynomial")
    if not p.terms:
        raise NotAdmissible(f"{who} requires a nonzero polynomial")
    return sig


def _routes(a: int, b: int) -> Dict[Tuple[int, int], Tuple]:
    """The eight signature shifts and how to realize each one.

    When a == b some shifts coincide; the first listed construction
    wins, which keeps the move set deterministic.
    """
    entries = [
        ((a, b), ("grow", False)),
        ((b, a), ("grow", True)),
        ((a - 1, b - 1), ("tilde", 1, "last")),
        ((b - 1, a - 1), ("tilde", -1, "last")),
        ((a, b - 1), ("hat", 1, "last")),
        ((b - 1, a), ("hat", -1, "last")),
        ((b, a - 1), ("hat", 1, "first")),
        ((a - 1, b), ("hat", -1, "first")),
    ]
    routes: Dict[Tuple[int, int], Tuple] = {}
    for shift, route in entries:
        routes.setdefault(shift, route)
    return routes


def _pack(p: SignedRealPoly, width: int) -> Node:
    (pairs, den), units = _cleared(p.terms.values()), places(p.n, width)
    return p.degree(), den, {sum(map(mul, alpha, units)): c for alpha, (c, _) in zip(p.terms, pairs)}


def _unpack(a: int, b: int, width: int, node: Node) -> SignedRealPoly:
    return SignedRealPoly(a, b, {unpack(key, a + b, width): Fraction(c, node[1]) for key, c in node[2].items()})


def _summary(units: List[int], terms: Dict[int, int]) -> Summary:
    """(e, common, pivot) by (elimination, positive pivot): what every corner move reads off a node.

    For x_1 ("first", e = 0) and x_n ("last", e = n - 1): the power of x_e dividing every
    term, and the grlex-first term of each sign at that power (one degree: the largest key).
    """
    n, mask = len(units), units[-2] - 1  # the x_n field
    keys = sorted(terms, reverse=True)  # x_1 holds the top field: the least keys have its least power
    top, low = keys[-1] // units[0], min(map(mask.__and__, keys))
    first = keys[bisect_right(keys, -(top + 1) * units[0], key=int.__neg__):]
    out = {}
    for positive in (True, False):
        out["first", positive] = (0, top, next((k for k in first if (terms[k] > 0) == positive), None))
        out["last", positive] = (n - 1, low, next((k for k in keys if k & mask == low and (terms[k] > 0) == positive), None))
    return out


def _pivot(shift: Tuple[int, int], route: Tuple, summary: Summary) -> Tuple[int, int, int]:
    """The corner move's eliminated variable e, the power of x_e dividing every term, and the pivot."""
    e, common, pivot = summary[route[2], route[1] > 0]
    if pivot is None:
        word = "positive" if route[1] > 0 else "negative"
        raise NoPivotMonomial(f"no {word} monomial free of x{e + 1} is available for shift {shift}")
    return e, common, pivot


def _key(a: int, b: int, units: List[int], shift: Tuple[int, int], route: Tuple, node: Node,
         summary: Summary) -> Tuple[int, int]:
    """The degree and term count of `_move`'s output, read off the node and its `_summary` without building it.

    `_move` unites disjoint supports and makes no zero coefficient, so the
    count is exact: a grow adds the n terms of s, a tilde move trades its
    pivot for n - 1 terms, and a hat move keeps the pivot as well.
    """
    (m, _, terms), n = node, a + b
    if route[0] != "grow":
        common = _pivot(shift, route, summary)[1]
        return m - common + 1, len(terms) + n - (2 if route[0] == "tilde" else 1)
    head, tail = (units[1], units[0]) if route[1] else (units[0], units[1])
    # x_head^(k-m) p meets x_j x_tail^(k-1) exactly when p holds x_j x_tail^(k-1) / x_head^(k-m)
    k = m + 1
    while not terms.keys().isdisjoint(map(((k - 1) * tail - (k - m) * head).__add__, units)):
        k += 1
    return k, len(terms) + n


def _move(a: int, b: int, units: List[int], shift: Tuple[int, int], route: Tuple, node: Node,
          summary: Summary) -> Node:
    """The move `route` of _routes(a, b), realizing `shift`, on a packed polynomial.

    Each move is a union of two disjoint supports.  The hat moves halve
    the pivot's coefficient: den and every other numerator double.
    """
    (m, den, terms), n = node, a + b
    s = [(units[j], 1 if j < a else -1) for j in range(n)]
    if route[0] == "grow":
        # x_1^{k-m} p + x_2^{k-1} s, or x_2^{k-m} p - x_1^{k-1} s when mirrored, k minimal
        head, tail, sign = (units[1], units[0], -1) if route[1] else (units[0], units[1], 1)
        k = _key(a, b, units, shift, route, node, summary)[0]
        out = {key + (k - m) * head: c for key, c in terms.items()}
        out.update((u + (k - 1) * tail, sign * c * den) for u, c in s)
        return k, den, out
    e, common, piv = _pivot(shift, route, summary)
    c0, step = terms[piv], (1 - common) * units[e]  # x_e^common divided out, times x_e
    # s + x_e when eliminating the last variable, -s + x_1 for the first: x_e drops out
    sign = 1 if e else -1
    out = {piv - common * units[e] + u: sign * c * c0 for j, (u, c) in enumerate(s) if j != e}
    if route[0] == "tilde":
        moved = {key + step: c for key, c in terms.items()}
        del moved[piv + step]
    else:
        den *= 2
        moved = {key + step: 2 * c for key, c in terms.items()}
        moved[piv + step] = c0
    out.update(moved)
    return m - common + 1, den, out


def _moved(p: SignedRealPoly, shift: Tuple[int, int], route: Tuple, sig: SignaturePair) -> SignedRealPoly:
    # a move raises the degree by at most 2, so fields this wide hold every exponent it makes
    width = (p.degree() + 2).bit_length()
    node, units = _pack(p, width), places(p.n, width)
    out = _unpack(p.a, p.b, width, _move(p.a, p.b, units, shift, route, node, _summary(units, node[2])))
    assert out.signature() == (sig.pos + shift[0], sig.neg + shift[1])
    return out


def grow(p: SignedRealPoly, mirror: bool = False) -> SignedRealPoly:
    """The degree-raising move p -> x_1^{k-m} p + x_2^{k-1} s of an admissible p.

    k is minimal with the two supports disjoint, so the signature shifts
    by exactly (a, b); with mirror=True the variable roles swap and -s
    is used instead, shifting by (b, a).
    """
    sig = _require_admissible(p, "grow")
    return _moved(p, (p.b, p.a) if mirror else (p.a, p.b), ("grow", mirror), sig)


def corner_move(p: SignedRealPoly, shift: Tuple[int, int]) -> SignedRealPoly:
    """Apply the move realizing the given signature shift.

    shift must be one of the eight lattice vectors for the source split
    (a, b) of p.  Corner shifts need b >= 2; any common factor of the
    elimination variable is divided out first; the pivot monomial is the
    grlex-first term of the required sign free of the elimination
    variable.
    """
    shift = (int(shift[0]), int(shift[1]))
    a, b = p.a, p.b
    route = _routes(a, b).get(shift)
    if route is None:
        raise ValueError(f"shift {shift} is not one of the eight moves for source ({a}, {b})")
    if route[0] == "grow":
        return grow(p, route[1])
    if b < 2:
        raise ValueError("corner moves need b >= 2")
    out = _moved(p, shift, route, _require_admissible(p, "corner_move"))
    if not is_admissible(out)[0]:
        raise NotAdmissible("corner move produced a non-admissible polynomial")
    return out


@dataclass(frozen=True)
class QuadricMap:
    """A signed, weighted holomorphic map between hyperquadrics.

    Source is HQ(a, b) when homogeneous, Q(a, b) otherwise.  Components
    carry (sign, weight, polynomial); the represented map lists each
    component scaled by the square root of its weight, so weights stay
    rational and printing renders sqrt(w) symbolically.  A rational map
    stores its denominator as the index of one negative component; the
    target signature then drops that component from the negative count.
    Every map is checked on its integer view (forms._holo_side), which
    verify_map and dump_map read too, so checking reduces no component.
    Treat instances as immutable: the view is a private memo, and the
    components of a map that `_viewed` builds are reduced from it on first read.
    """

    a: int
    b: int
    homogeneous: bool
    components: WeightedHoloMap
    denominator: Optional[int] = None

    def __post_init__(self):
        if self.a < 1 or self.b < 0:
            raise ValueError("source split needs a >= 1 and b >= 0")
        if self.components.n != self.a + self.b:
            raise DimensionMismatch(
                f"components use {self.components.n} variables, source split needs {self.a + self.b}"
            )
        rows = _holo_side(self.components)[1]
        lengths = set()
        for sign, (wn, _), poly in rows:
            if sign not in (1, -1):
                raise ValueError("component signs must be +1 or -1")
            if wn <= 0:
                raise ValueError("component weights must be positive")
            if not poly:
                raise ValueError("components must be nonzero polynomials")
            lengths.update(map(len, poly))
        if lengths - {self.components.n}:
            raise DimensionMismatch(f"component exponents must have {self.components.n} entries")
        if self.denominator is not None:
            if not 0 <= self.denominator < len(rows):
                raise IndexOutOfRange(f"denominator index {self.denominator} out of range")
            if rows[self.denominator][0] > 0:
                raise ValueError("the denominator must be a negative component")

    @property
    def n(self) -> int:
        return self.components.n

    def sign_counts(self) -> SignaturePair:
        return self.components.signature()

    def target(self) -> SignaturePair:
        pos, neg = self.sign_counts()
        if self.denominator is not None:
            neg -= 1
        return SignaturePair(pos, neg)


def _viewed(a: int, b: int, homogeneous: bool, denominator: Optional[int], side: HoloSide) -> QuadricMap:
    """The map whose components start from the integer view `side`, checked on it."""
    return QuadricMap(a, b, homogeneous, _from_side(WeightedHoloMap(a + b, ()), "components", side), denominator)


def identity_map(a: int, b: int) -> QuadricMap:
    """The identity on Q(a, b) as a QuadricMap."""
    n = a + b
    return _viewed(a, b, False, None, (1, tuple((1 if j < a else -1, (1, 1), {unit(n, j): (1, 0)}) for j in range(n))))


def _vanishes_on_quadric(form: HermitianForm, a: int, b: int, affine: bool) -> bool:
    """Whether the quadric's equation divides the form on a + b variables, read off its cleared view."""
    support, flat, _ = _form_side(form)
    # zbar_j -> w_j; w_1^e = (z_1 w_1)^e / z_1^e, so z_1^top clears denominators
    top = max((support[j][0] for _, j in flat), default=0)
    keyed = ((support[i], support[j], c) for (i, j), c in flat.items())
    terms = ((beta[0], (alpha[0] + top - beta[0],) + alpha[1:] + beta[1:], c) for alpha, beta, c in keyed)
    return _divides(a, b, affine, True, terms)


def verify_map(m: QuadricMap) -> bool:
    """Whether the map exactly takes its source quadric to its target.

    Forms the signed norm difference of the components (minus 1 for a
    polynomial map between affine quadrics) and checks divisibility by
    the source defining polynomial, read off the integer view of the map.
    False is a verdict, not an error.  When every component is one monomial,
    |c z^alpha|^2 = |c|^2 x^alpha with x_j = |z_j|^2: a real polynomial in x.
    """
    subtract_one, (d, rows) = (not m.homogeneous) and m.denominator is None, _holo_side(m.components)
    if all(len(poly) == 1 for _, _, poly in rows):
        # sign w |c|^2 over wd d^2, wd the lcm of the weights' denominators
        wd = lcm(*(w[1] for _, w, _ in rows))
        real: Dict[MultiIndex, int] = {zero_index(m.n): -wd * d * d} if subtract_one else {}
        for sign, (wn, wk), poly in rows:
            ((alpha, (x, y)),) = poly.items()
            real[alpha] = real.get(alpha, 0) + sign * wn * (wd // wk) * (x * x + y * y)
        return _divides(m.a, m.b, not m.homogeneous, False, ((al[0], al[1:], v) for al, v in real.items()))
    return _vanishes_on_quadric(norm_difference(m.components, subtract_one), m.a, m.b, affine=not m.homogeneous)


def _signed(comps: Iterable[tuple], homogeneous: bool) -> Tuple[tuple, Optional[int]]:
    """The signed components, positive ones first, each group in the grlex order of the components'
    leading monomials, ties in the order given; and an affine map's denominator, its first negative one."""
    ordered = tuple(sorted(comps, key=lambda c: (c[0] < 0, min(map(grlex_key, c[2])))))
    return ordered, None if homogeneous else sum(c[0] > 0 for c in ordered)


def _monomial_map(a: int, b: int, homogeneous: bool, terms: Iterable[Tuple[MultiIndex, int, int]]) -> QuadricMap:
    """The monomial map of sum (k / den) x^alpha via x_j = |z_j|^2: one component per term, of
    weight |k / den| and coefficient 1, so the map starts from its integer view over d = 1."""
    rows = ((1 if k > 0 else -1, (abs(k) // g, den // g), {alpha: (1, 0)}) for alpha, k, den in terms
            for g in (gcd(k, den),))
    ordered, denominator = _signed(rows, homogeneous)
    return _viewed(a, b, homogeneous, denominator, (1, ordered))


Sig = Tuple[int, int]


class _LatticeSearch:
    """A resumable walk of the signature lattice over a down-closed region.

    The region is A <= box_a, B <= box_b, A + B <= total.  Nodes are
    expanded lowest degree first, then fewest terms, then push order, and
    each settled signature keeps one packed witness in `witnesses`, whose
    insertion order is the settle order.
    `pending` maps each unsettled signature with a heap entry to the
    (degree, term count) key and the recipe of its best entry, the one
    that pops first: the shift, route and settled parent with its
    `_summary` to `_move`, or a seed itself.  A child is ranked by `_key`
    and built only when it settles; heap entries hold no polynomial.
    """

    def __init__(self, a: int, b: int, box_a: int, box_b: int, total: int):
        self.split, self.region = (a, b), (box_a, box_b, total)
        self.routes = _routes(a, b)
        # With b >= 2 a move adds at least a + b - 2 >= 2 to A + B and at most 2 to the degree
        # (a grow's k = m + 1 fails only on x_2^m, or x_1^m mirrored), so from the degree-1 seeds
        # every node has degree <= A + B - (a + b) + 1 <= total: this width holds every exponent.
        self.width = total.bit_length()
        self.units = places(a + b, self.width)
        self.witnesses: Dict[Sig, Node] = {}
        self.pending: Dict[Sig, Tuple[Tuple[int, int], Optional[Sig], Optional[Tuple], Any]] = {}
        self.heap: List[Tuple[int, int, int, Sig]] = []
        self.tick = count()
        seed = _pack(s_poly(a, b), self.width)
        for sig, node in (((a, b), seed), ((b, a), (1, 1, {key: -c for key, c in seed[2].items()}))):
            if self.holds(sig):
                self._push(sig, (node[0], len(node[2])), None, None, node)

    def holds(self, sig: Sig) -> bool:
        # the region is down-closed, so it holds a box when it holds the box's corner
        ra, rb, total = self.region
        return sig[0] <= ra and sig[1] <= rb and sig[0] + sig[1] <= total

    def _push(self, sig: Sig, key: Tuple[int, int], shift: Optional[Sig], route: Optional[Tuple], parent: Any) -> None:
        # an entry that would pop after the signature's best one is never used
        best = self.pending.get(sig)
        if best is None or key < best[0]:
            self.pending[sig] = (key, shift, route, parent)
            heapq.heappush(self.heap, key + (next(self.tick), sig))

    def answer(self, box_a: int, box_b: int, budget: int, goal: Optional[Sig]
               ) -> Optional[Tuple[Dict[Sig, Node], bool, int]]:
        """What a fresh search of the box [box_a] x [box_b] returns, and the field width.

        Resumes the walk until the answer is settled: the goal is
        witnessed, more than `budget` signatures in the box are, or no
        heap entry is left in the box.  Returns None instead once this
        call has expanded more nodes outside the box than the box holds
        witnesses, or more than `budget` nodes in all; never in a fresh
        lone walk, whose region is the box: every node it settles is in the
        box, so `outside` stays 0 and spent == len(found) <= budget in the loop.
        """
        a, b = self.split

        def inside(sig: Sig) -> bool:
            return sig[0] <= box_a and sig[1] <= box_b

        found = [sig for sig in self.witnesses if inside(sig)]
        # heap entries left in the box; a goal already witnessed needs no count
        live = 0 if goal in self.witnesses else sum(1 for A, B in self.pending if A <= box_a and B <= box_b)
        spent = outside = 0
        while live and len(found) <= budget and goal not in self.witnesses:
            if outside > len(found) or spent > budget:
                return None
            sig = heapq.heappop(self.heap)[3]
            if sig in self.witnesses:
                continue
            key, shift, route, node = self.pending.pop(sig)
            if route is not None:
                node = _move(a, b, self.units, shift, route, *node)
                assert (node[0], len(node[2])) == key
            self.witnesses[sig] = node
            assert (sum(map((0).__lt__, node[2].values())), len(node[2])) == (sig[0], sig[0] + sig[1])
            if inside(sig):
                found.append(sig)
                live -= 1
            else:
                outside += 1
            spent += 1
            summary = _summary(self.units, node[2])
            for shift, route in self.routes.items():
                nsig = (sig[0] + shift[0], sig[1] + shift[1])
                if not self.holds(nsig) or nsig in self.witnesses:
                    continue
                if inside(nsig) and nsig not in self.pending:
                    live += 1
                self._push(nsig, _key(a, b, self.units, shift, route, node, summary), shift, route, (node, summary))
        if goal in self.witnesses and found.index(goal) <= budget:
            return {sig: self.witnesses[sig] for sig in found[: found.index(goal) + 1]}, False, self.width
        return {sig: self.witnesses[sig] for sig in found[: budget + 1]}, len(found) > budget, self.width


_SEARCHES: "OrderedDict[Tuple[int, int], _LatticeSearch]" = OrderedDict()
_SEARCH_SPLITS = 4
_SEARCH_LOCK = threading.Lock()


def _clear_search_cache() -> None:
    """Forget every shared search, so the next one starts cold."""
    with _SEARCH_LOCK:
        _SEARCHES.clear()


def _search(a: int, b: int, box_a: int, box_b: int, budget: int, goal: Optional[Sig] = None
            ) -> Tuple[Dict[Sig, Node], bool, int]:
    """Lowest-degree-first walk of the signature lattice from the two seeds.

    Returns the packed witnesses, in settle order, whether the budget ran
    out, and the field width to `_unpack` them with, exactly as a walk
    pruned at the box [box_a] x [box_b] that stops at the goal or after
    `budget` expansions would.  The walk is shared:
    one resumable search per source split, kept for the last few splits,
    answers every box inside its region.  The first region is the first
    box; a box outside it rebuilds the search over A + B <= T, T at least
    doubling.  This is exact because every move raises both coordinates
    (b >= 2): nodes outside a down-closed box never push nodes inside it,
    so the in-box pops and their witnesses come in the fresh order.  The
    budget still counts the fresh walk's expansions.  A call that expands
    more shared nodes outside the box than the box holds witnesses, or more
    than `budget` in all, walks the box alone: no call expands more than
    about three times the nodes of that lone walk, nor about 2 x budget.
    """
    if not a >= b >= 2:
        raise ValueError("requires a >= b >= 2")
    if budget < 1:
        raise ValueError("search budget must be positive")
    with _SEARCH_LOCK:
        state = _SEARCHES.pop((a, b), None)
        if state is None:
            state = _LatticeSearch(a, b, box_a, box_b, box_a + box_b)
        elif not state.holds((box_a, box_b)):
            total = max(box_a + box_b, 2 * state.region[2])
            state = _LatticeSearch(a, b, total, total, total)
        _SEARCHES[(a, b)] = state
        while len(_SEARCHES) > _SEARCH_SPLITS:
            _SEARCHES.popitem(last=False)
        found = state.answer(box_a, box_b, budget, goal)
    if found is None:
        alone = _LatticeSearch(a, b, box_a, box_b, box_a + box_b)
        found = alone.answer(box_a, box_b, budget, goal)
    return found


def reachable_signatures(a: int, b: int, size: int, budget: int = 10**5) -> Tuple[Dict[Sig, SignedRealPoly], bool]:
    """Witnesses for every reachable signature with A, B <= size."""
    nodes, hit, width = _reachable(a, b, size, budget)
    return {sig: _unpack(a, b, width, node) for sig, node in nodes.items()}, hit


def _reachable(a: int, b: int, size: int, budget: int) -> Tuple[Dict[Sig, Node], bool, int]:
    """reachable_signatures' packed witnesses, whether the budget ran out, and their field width."""
    if size < 2:
        raise ValueError("size must be at least 2")
    return _search(a, b, size, size, budget)


def construct_map(a: int, b: int, A: int, B: int, search_budget: int = 10**5) -> QuadricMap:
    """Search for a homogeneous monomial map HQ(a, b) -> HQ(A, B).

    Whenever (A, B) satisfies the stability sector inequalities the
    search succeeds; outside the sector it may still succeed for small
    targets reachable by the moves.
    """
    if A < 2 or B < 2:
        raise ValueError("requires A >= 2 and B >= 2")
    nodes, hit_budget, width = _search(a, b, A, B, search_budget, goal=(A, B))
    if (A, B) not in nodes:
        if hit_budget:
            raise NotReached(
                f"search budget {search_budget} exhausted before reaching ({A}, {B}); "
                "the target may still be reachable with a larger --budget"
            )
        if stability_region(a, b, A, B):
            raise NotReached(
                f"({A}, {B}) satisfies the sector inequalities but the move search "
                "exhausted the box without reaching it"
            )
        raise NotReached(
            f"({A}, {B}) is outside the constructive sector for source ({a}, {b}) "
            "and the move search exhausted the box without reaching it"
        )
    den, terms = nodes[(A, B)][1:]
    out = _monomial_map(a, b, True, ((unpack(key, a + b, width), k, den) for key, k in terms.items()))
    if not verify_map(out):
        raise NotVanishing("constructed map failed verification")
    return out


def tensor_extend(m: QuadricMap, component_index: int) -> QuadricMap:
    """Replace one component f by (f z_1, ..., f z_n) with signs rebalanced.

    On the source quadric |f|^2 equals |f|^2 (sum_{j<=a} |z_j|^2 -
    sum_{j>a} |z_j|^2), so tensoring a positive component adds the block
    split (a-1, b) to the target and tensoring a negative one adds
    (b, a-1).  The output is built on the input's integer view and
    re-verified.  On HQ(a, b) with a + b >= 2
    the block sums to |f|^2 s = 0 instead, so homogeneous maps are
    refused up front.
    """
    cd, comps = _holo_side(m.components)
    if not 0 <= component_index < len(comps):
        raise IndexOutOfRange(
            f"component index {component_index} out of range [0, {len(comps) - 1}]"
        )
    if m.denominator == component_index:
        raise IndexOutOfRange("the denominator component cannot be tensored")
    if m.homogeneous and m.a + m.b >= 2:
        raise NotVanishing(
            "tensor extension needs a map between affine quadrics: on HQ(a, b) the "
            "tensored block sums to |f|^2 s, which vanishes there instead of giving |f|^2"
        )
    if not verify_map(m):
        raise NotVanishing("input map does not verify; refusing to tensor")
    n, i, d = m.n, component_index, m.denominator
    sign, weight, poly = comps[i]
    block = tuple((sign if j < m.a else -sign, weight, {al[:j] + (al[j] + 1,) + al[j + 1:]: c for al, c in poly.items()})
                  for j in range(n))
    listed = comps[:i] + block + comps[i + 1:]
    order = sorted(range(len(listed)), key=lambda k: listed[k][0] < 0)  # stable: the block stays in place
    denom = None if d is None else order.index(d if d < i else d + n - 1)
    out = _viewed(m.a, m.b, m.homogeneous, denom, (cd, tuple(listed[k] for k in order)))
    if not verify_map(out):
        raise NotVanishing("tensor extension failed verification")
    return out


def dehomogenize(p: SignedRealPoly) -> QuadricMap:
    """Rational map Q(a, b-1) -> Q(A, B-1) from an admissible polynomial.

    Sets the last variable of p to 1, builds the monomial map, verifies
    it, and designates the negative component with the smallest leading
    monomial as the denominator (a constant denominator, when present,
    makes the result a polynomial map).
    """
    sig = _require_admissible(p, "dehomogenize")
    if sig.neg == 0:
        raise NoNegativeComponent("the polynomial has no negative terms to divide by")
    out = _monomial_map(p.a, p.b - 1, False, ((al[:-1], c.numerator, c.denominator) for al, c in p.terms.items()))
    if not verify_map(out):
        raise NotVanishing("dehomogenized map failed verification")
    return out


def map_from_form(form: HermitianForm, a: int, b: int) -> QuadricMap:
    """Rational map Q(a, b) -> Q(A, B-1) from a form vanishing on Q(a, b).

    Decomposes the form into signed weighted components; the negative
    component with the smallest leading monomial becomes the
    denominator.
    """
    if a < 1 or b < 0:
        raise ValueError("source split needs a >= 1 and b >= 0")
    if form.n != a + b:
        raise DimensionMismatch(f"form has {form.n} variables, quadric has {a + b}")
    if not _vanishes_on_quadric(form, a, b, affine=True):
        raise NotVanishing(f"the form does not vanish on Q({a}, {b})")
    d, rows = _holo_side(decompose(form))
    ordered, denominator = _signed(rows, False)
    if denominator == len(ordered):  # the index of the first negative component, past the last
        raise NoNegativeComponent("the decomposition has no negative component")
    return _viewed(a, b, False, denominator, (d, ordered))
