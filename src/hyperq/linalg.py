"""Exact linear algebra over the Gaussian rationals, fraction-free over Gaussian integers held as
(re, im) int pairs (Bareiss 1968): every entry is a minor of the cleared matrix, so every division is
exact.  One symmetric elimination of a Hermitian M gives steps that `_signs` counts by sign (their sum
is the rank) and `_components` reads as signed weighted rank-one pieces, still Gaussian integers, each
over one positive int, so that neither builds a GaussianRational; forms runs it once per form, on a
matrix it has checked Hermitian, and it has no other way in.  M is cleared as a whole by the lcm L of
its denominators so that X = L M stays Hermitian.  A 1x1 step on p = X_ii sets X_kl to
(p X_kl - X_ki X_il) / prev; a 2x2 step on [[0, c], [conj(c), 0]], c = X_ij, runs only when every
remaining diagonal is 0 and sets X_kl to (-|c|^2 X_kl + c X_ki X_jl + conj(c) X_kj X_il) / prev^2.
prev starts at 1 and becomes p, or -|c|^2 / prev.  p and prev are real, so both steps keep X
Hermitian: the kernel stores and updates X_kl for l >= k only, and reads X_lk as conj(X_kl).  By
Sylvester's identity each X_kl is prev L times the entry of the true Schur complement, a real factor
common to all entries: the pivots are those of an elimination over Q(i), and the true 1x1 pivot
p / (prev L) has the sign of p times that of prev.  By Sylvester's law of inertia the sign counts do
not depend on the pivot order.

`_gauss_jordan` reduces every other matrix, its rows cleared by one lcm: on p = X_rc, the first nonzero
entry at or below row r of the next column c (a column with none is dropped), every other row's X_kl becomes
(p X_kl - X_kc X_rl) / prev.  With pivots on rows R and columns C, X_kl is up to sign the minor on rows R + k
and columns C + l (k below R), or on R and C with k's pivot column traded for l (k in R), and prev is the
minor on R and C, so Sylvester's identity is the step.  No later minor reads a dropped column, so each entry
stays a Gaussian integer and z conj(prev) // |prev|^2 on each part is exact.  The pivot count r is the rank
of the columns stepped over; `solve`'s [a | b] ends as [d I | d X], d the last pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .scalars import GaussianRational

# Gaussian integers as plain int pairs (re, im) for the fraction-free kernels.
_GIPair = Tuple[int, int]


def _cleared(values: Iterable[object]) -> Tuple[List[_GIPair], int]:
    """Gaussian integers P and the lcm d of the denominators, with value k = P[k] / d: the package's one
    clearing of rationals.  A value is an int, a Fraction, a GaussianRational or an (re, im) tuple of ints
    and Fractions, each read as it is; any other (bool, float, Decimal, numeric str) is read by Fraction(),
    as GaussianRational.coerce reads it."""
    parts = [(v, 0) if type(v) in (int, Fraction) else (v.re, v.im) if isinstance(v, GaussianRational)
             else v if type(v) is tuple else (Fraction(v), 0) for v in values]
    d = lcm(*(x.denominator for pair in parts for x in pair))
    return [(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)) for re, im in parts], d


def _gauss_jordan(rows: Sequence[Sequence[object]], width: int) -> Tuple[int, List[List[_GIPair]], _GIPair]:
    """(r, x, d): the pass over the first `width` columns of rows of any values `_cleared` reads; r is the
    rank of those columns, x the rows without them, d the last pivot (1 if none)."""
    pairs = iter(_cleared(v for row in rows for v in row)[0])
    x, r, (qr, qi, nq) = [[next(pairs) for _ in row] for row in rows], 0, (1, 0, 1)  # conj(prev), |prev|^2
    for _ in range(width):
        piv = next((j for j in range(r, len(x)) if x[j][0] != (0, 0)), None)
        if piv is None:
            x = [row[1:] for row in x]
            continue
        x[r], x[piv] = x[piv], x[r]
        (pr, pi), *top = x[r]
        x = [top if j == r else
             [((zr * qr - zi * qi) // nq, (zr * qi + zi * qr) // nq)
              for (vr, vi), (ur, ui) in zip(row[1:], top)
              for zr, zi in ((pr * vr - pi * vi - fr * ur + fi * ui, pr * vi + pi * vr - fr * ui - fi * ur),)]
             for j, row in enumerate(x) for fr, fi in (row[0],)]
        qr, qi, nq, r = pr, -pi, pr * pr + pi * pi, r + 1
    return r, x, (qr, -qi)


def solve(a: Sequence[Sequence[object]], b: Sequence[Sequence[object]]) -> List[List[GaussianRational]]:
    """X with a X = b for a square invertible a: the pass on [a | b] leaves d X."""
    r, x, (dr, di) = _gauss_jordan([[*ra, *rb] for ra, rb in zip(a, b)], len(a))
    if r < len(a):
        raise ValueError("matrix is singular")
    return [[GaussianRational(Fraction(vr * dr + vi * di, nd), Fraction(vi * dr - vr * di, nd)) for vr, vi in row]
            for nd in (dr * dr + di * di,) for row in x]


def _column(x: List[List[_GIPair]], t: int) -> List[_GIPair]:
    """Column t of the Hermitian X whose row k holds X_kl for l >= k: X_kt above t, conj(X_tk) below."""
    return [row[t - k] for k, row in enumerate(x[:t + 1])] + [(re, -im) for re, im in x[t][1:]]


def _symmetric_steps(x: List[List[_GIPair]]) -> Iterator[tuple]:
    """Yield (active indices, prev, pivot, its full columns of X) before each step; row k of x holds
    X_kl for l >= k, and a step updates that triangle only.

    1x1: the largest |X_ii| (ties: smallest i) and column i; 2x2: the
    first nonzero c = X_ij, i < j, and columns i, j.
    """
    act = list(range(len(x)))
    prev = 1
    while act:
        m = len(act)
        diag = [abs(row[0][0]) for row in x]
        t = max(range(m), key=diag.__getitem__)
        if diag[t]:
            p = x[t][0][0]
            col = _column(x, t)
            yield act, prev, p, (col,)
            keep = [k for k in range(m) if k != t]
            ck = [col[k] for k in keep]
            rt = [(re, -im) for re, im in ck]  # X_tl = conj(X_lt)
            x = [[((p * xr - ar * br + ai * bi) // prev, (p * xi - ar * bi - ai * br) // prev)
                  for (xr, xi), (br, bi) in zip(row, rt[i:])]
                 for i, (row, (ar, ai)) in enumerate(zip(_kept(x, (t,)), ck))]
            prev = p
        else:
            pair = next(((s, s + j) for s in range(m) for j in range(1, m - s) if x[s][j] != (0, 0)), None)
            if pair is None:
                return  # remaining block is identically zero
            s, t = pair
            cr, ci = c = x[s][t - s]
            cols = (_column(x, s), _column(x, t))
            yield act, prev, c, cols
            keep = [k for k in range(m) if k != s and k != t]
            rs, rt = ([(re, -im) for re, im in (col[k] for k in keep)] for col in cols)
            nc, d = cr * cr + ci * ci, prev * prev
            x = [[((-nc * xr + ur * tr - ui * ti + vr * sr - vi * si) // d,
                   (-nc * xi + ur * ti + ui * tr + vr * si + vi * sr) // d)
                  for (xr, xi), (tr, ti), (sr, si) in zip(row, rt[i:], rs[i:])]
                 for i, (row, a) in enumerate(zip(_kept(x, pair), keep))
                 for (pr, pi), (qr, qi) in ((cols[0][a], cols[1][a]),)
                 for ur, ui, vr, vi in ((cr * pr - ci * pi, cr * pi + ci * pr, cr * qr + ci * qi, cr * qi - ci * qr),)]
            prev = -nc // prev
        act = [act[k] for k in keep]


def _kept(x: List[List[_GIPair]], gone: Tuple[int, ...]) -> List[List[_GIPair]]:
    """The triangle x (row a holds the entries at l = a, a + 1, ...) without the rows and columns gone."""
    for g in reversed(gone):
        x = [row[:g - a] + row[g - a + 1:] for a, row in enumerate(x[:g])] + x[g + 1:]
    return x


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
