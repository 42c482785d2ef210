"""Exact linear algebra over the Gaussian rationals.

The symmetric kernel eliminates fraction-free over Gaussian integers held
as (re, im) int pairs (Bareiss 1968): every entry is a minor of the
cleared matrix, so every division is exact.  One elimination of a
Hermitian M gives steps that `_signs` counts by sign (their sum is the
rank) and `_components` reads as signed weighted rank-one pieces, still
Gaussian integers, each over one positive int, so that neither builds a
GaussianRational; forms runs it once per form, on a matrix it has checked
Hermitian, and it has no other way in.  `solve` is a Gauss-Jordan pass
over Q(i).
M is cleared as a whole by the lcm L of its denominators so that
X = L M stays Hermitian.  A 1x1 step on p = X_ii sets X_kl to
(p X_kl - X_ki X_il) / prev; a 2x2 step on [[0, c], [conj(c), 0]],
c = X_ij, runs only when every remaining diagonal is 0 and sets X_kl to
(-|c|^2 X_kl + c X_ki X_jl + conj(c) X_kj X_il) / prev^2.  prev starts
at 1 and becomes p, or -|c|^2 / prev.  By Sylvester's identity each X_kl
is prev L times the entry of the true Schur complement, a real factor
common to all entries: the pivots are those of an elimination over Q(i),
and the true 1x1 pivot p / (prev L) has the sign of p times that of
prev.  By Sylvester's law of inertia the sign counts do not depend on
the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, List, Tuple

from .scalars import GaussianRational

Matrix = List[List[GaussianRational]]

# Gaussian integers as plain int pairs (re, im) for the fraction-free kernels.
_GIPair = Tuple[int, int]


def _cleared(values: Iterable[object]) -> Tuple[List[_GIPair], int]:
    """Gaussian integers P and the lcm d of the denominators, with value k = P[k] / d.

    Values may be GaussianRational, Fraction, or plain int.
    """
    vals = [GaussianRational.coerce(v) for v in values]
    d = lcm(*(q for v in vals for q in (v.re.denominator, v.im.denominator)))
    return [(v.re.numerator * (d // v.re.denominator), v.im.numerator * (d // v.im.denominator)) for v in vals], d


def solve(a: Matrix, b: Matrix) -> Matrix:
    """X with a X = b for a square invertible a: one Gauss-Jordan pass on [a | b]."""
    n = len(a)
    x = [ra + rb for ra, rb in zip(a, b)]
    for i in range(n):
        piv = next((j for j in range(i, n) if x[j][i]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        x[i], x[piv] = x[piv], x[i]
        d = x[i][i]
        x[i] = [v / d for v in x[i]]
        for j in range(n):
            f = x[j][i]
            if j != i and f:
                x[j] = [vj - f * vi for vj, vi in zip(x[j], x[i])]
    return [row[n:] for row in x]


def _symmetric_steps(x: List[List[_GIPair]]) -> Iterator[tuple]:
    """Yield (active indices, prev, pivot, its columns of X) before each step.

    1x1: the largest |X_ii| (ties: smallest i) and column i; 2x2: the
    first nonzero c = X_ij and columns i, j.
    """
    act = list(range(len(x)))
    prev = 1
    while act:
        diag = [abs(row[k][0]) for k, row in enumerate(x)]
        t = max(range(len(act)), key=diag.__getitem__)
        if diag[t]:
            p = x[t][t][0]
            col = [row[t] for row in x]
            yield act, prev, p, (col,)
            keep = [k for k in range(len(act)) if k != t]
            rt = [x[t][k] for k in keep]
            x = [
                [((p * xr - ar * br + ai * bi) // prev, (p * xi - ar * bi - ai * br) // prev)
                 for (xr, xi), (br, bi) in zip([row[k] for k in keep], rt)]
                for row, (ar, ai) in zip([x[k] for k in keep], [col[k] for k in keep])
            ]
            prev = p
        else:
            m = len(act)
            pair = next(((s, t) for s in range(m) for t in range(s + 1, m) if x[s][t] != (0, 0)), None)
            if pair is None:
                return  # remaining block is identically zero
            s, t = pair
            cr, ci = c = x[s][t]
            cols = ([row[s] for row in x], [row[t] for row in x])
            yield act, prev, c, cols
            keep = [k for k in range(m) if k != s and k != t]
            rs, rt = [x[s][k] for k in keep], [x[t][k] for k in keep]
            u = [(cr * pr - ci * pi, cr * pi + ci * pr) for pr, pi in (cols[0][k] for k in keep)]
            v = [(cr * qr + ci * qi, cr * qi - ci * qr) for qr, qi in (cols[1][k] for k in keep)]
            nc, d = cr * cr + ci * ci, prev * prev
            x = [
                [((-nc * xr + ur * tr - ui * ti + vr * sr - vi * si) // d,
                  (-nc * xi + ur * ti + ui * tr + vr * si + vi * sr) // d)
                 for (xr, xi), (tr, ti), (sr, si) in zip([row[k] for k in keep], rt, rs)]
                for row, (ur, ui), (vr, vi) in zip([x[k] for k in keep], u, v)
            ]
            prev = -nc // prev
        act = [act[k] for k in keep]


def _components(den: int, steps: Iterable[tuple]) -> Iterator[Tuple[int, Fraction, int, Dict[int, _GIPair]]]:
    """M as rank-one pieces (sign, weight, q, vec), read off the steps of X = den M: M is the sum of
    sign * weight * v v*, with v[k] = (re + i im) / q for vec[k] = (re, im), q > 0, and 0 off vec.

    From the fraction-free X = L M of the module docstring: a 1x1 pivot p
    gives v[k] = X_ki / p, weight |p| / (|prev| L), sign sign(p prev); a
    2x2 pivot c gives v[k] = X_kj / (prev L) +- c X_ki / |c|^2, weight 1/2,
    over q = |prev L| |c|^2.  No piece is reduced: forms.decompose puts them over one lcm.
    """
    for act, prev, piv, cols in steps:
        if len(cols) == 1:
            s = 1 if piv > 0 else -1
            vec = {k: (s * re, s * im) for k, (re, im) in zip(act, cols[0]) if re or im}
            yield (1 if (piv > 0) == (prev > 0) else -1, Fraction(abs(piv), abs(prev) * den), abs(piv), vec)
            continue
        (cr, ci), a = piv, prev * den
        nc, s = cr * cr + ci * ci, 1 if a > 0 else -1
        for sign in (1, -1):
            vec = {}
            for k, (pr, pi), (qr, qi) in zip(act, *cols):
                re, im = qr * nc + sign * a * (cr * pr - ci * pi), qi * nc + sign * a * (cr * pi + ci * pr)
                if re or im:
                    vec[k] = (s * re, s * im)
            yield sign, Fraction(1, 2), abs(a) * nc, vec


def _signs(steps: Iterable[tuple]) -> Tuple[int, int]:
    """(positive, negative) pivot counts, summing to the rank: sign(p prev) for a
    1x1 pivot p, which is the sign of the true pivot p / (prev L); one each way for a 2x2."""
    pos = neg = 0
    for _, prev, piv, cols in steps:
        pos += len(cols) == 2 or (piv > 0) == (prev > 0)
        neg += len(cols) == 2 or (piv > 0) != (prev > 0)
    return pos, neg
