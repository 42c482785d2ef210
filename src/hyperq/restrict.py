"""Restriction of forms to linear and affine subspaces.

An embedding w -> Ew + t of a subspace restricts a form r to r(Ew + t),
which `compose_linear` builds by exact substitution, and generic or
maximal restriction ranks are estimated by exact evaluation at random
Gaussian-integer parameters x + iy with 1 <= x, y <= coeff_bound.
Randomized answers can only undershoot the true generic rank, and the
per-trial failure probability has a computable Schwartz-Zippel bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .forms import HermitianForm, compose_linear, form_rank
from .linalg import _gauss_jordan, solve
from .multiindex import unit
from .scalars import GR_ZERO, GaussianRational, _Record


class AffineEmbedding(_Record):
    """The map w -> Ew + t from subspace coordinates into ambient ones.

    linear has one row per ambient variable and one column per subspace
    variable, and must have full column rank.
    """

    _fields = ("linear", "translation")

    def __init__(self, linear: Tuple[Tuple[GaussianRational, ...], ...], translation: Tuple[GaussianRational, ...]):
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)


def embedding(linear: Sequence[Sequence[object]], translation: Optional[Sequence[object]] = None) -> AffineEmbedding:
    """Validate and coerce an embedding; rejects rank-deficient matrices."""
    rows = [tuple(GaussianRational.coerce(x) for x in row) for row in linear]
    if not rows:
        raise ValueError("embedding needs at least one ambient variable")
    n_sub = len(rows[0])
    if any(len(r) != n_sub for r in rows):
        raise ValueError("embedding rows have inconsistent lengths")
    if n_sub < 1:
        raise ValueError("embedding needs at least one subspace variable")
    if translation is not None and len(translation) != len(rows):
        raise DimensionMismatch(f"translation has {len(translation)} entries, embedding has {len(rows)} rows")
    trans = (GR_ZERO,) * len(rows) if translation is None else tuple(GaussianRational.coerce(x) for x in translation)
    if _gauss_jordan(rows, n_sub)[0] != n_sub:
        raise ValueError("embedding matrix must have full column rank")
    return AffineEmbedding(tuple(rows), trans)


def restrict_form(form: HermitianForm, E: AffineEmbedding) -> HermitianForm:
    """The restricted form r(Ew + t), built by compose_linear."""
    return compose_linear(form, E.linear, E.translation)


def _random_scalar(rng: Random, bound: int) -> Tuple[int, int]:
    """x + iy as the (x, y) ints that `linalg._cleared` reads, 1 <= x, y <= bound."""
    return rng.randint(1, bound), rng.randint(1, bound)


def _check_sampling(form: HermitianForm, sub_dim: int, name: str, count: int, coeff_bound: int) -> None:
    if not 1 <= sub_dim < form.n:
        raise ValueError("sub_dim must satisfy 1 <= sub_dim < n")
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")


def _sampled_rank(form: HermitianForm, stream: str, count: int, draw: Callable[[Random], tuple], ceiling: int) -> int:
    """Largest form_rank(compose_linear(form, E, t)) over the draws (E, t) = draw(Random(f"{stream}:{k}")),
    k < count, stopping at a bound on every draw.

    Two such bounds hold: ceiling, a count of the monomials the restricted matrix can live on, and
    form_rank(form), as that matrix is T*CT with C the form's.  Once the best rank so far reaches one, no later
    draw can raise it, so the answer is the maximum over every draw.  Both are tested before a draw is built,
    and form_rank(form), one memoized elimination, is read only while a draw remains.
    """
    best = 0
    for k in range(count):
        if k and (best == ceiling or best == form_rank(form)):
            break
        best = max(best, form_rank(compose_linear(form, *draw(Random(f"{stream}:{k}")))))
    return best


def generic_restriction_rank(
    form: HermitianForm,
    sub_dim: int,
    trials: int = 3,
    seed: int = 0,
    coeff_bound: int = 10**6,
) -> int:
    """Rank of the restriction to a generic linear subspace of dimension sub_dim.

    Takes the maximum of at most `trials` exact ranks at independent random Gaussian-integer specializations;
    specialization can only lose rank, so the maximum is a lower bound that equals the generic value except
    with probability at most sz_failure_bound(...).  A draw without full column rank is ranked like any other;
    the bound already counts it.  (Ew)^alpha is homogeneous of degree |alpha| in sub_dim variables, so no
    draw's rank exceeds the sum of C(sub_dim - 1 + e, e) over the distinct |alpha| = e of the support, where
    drawing stops (`_sampled_rank`).  The answer is the one every draw gives, and the bound still holds: a
    stop is exact, and without one every draw runs.
    """
    _check_sampling(form, sub_dim, "trials", trials, coeff_bound)
    if coeff_bound == 1 and sub_dim >= 2:  # every entry would be 1 + i: no draw has full rank
        raise ValueError("coeff_bound must be at least 2 when sub_dim >= 2")
    ceiling = sum(comb(sub_dim - 1 + e, e) for e in set(map(sum, form.support())))
    return _sampled_rank(form, f"{seed}:generic", trials, lambda rng: (
        [[_random_scalar(rng, coeff_bound) for _ in range(sub_dim)] for _ in range(form.n)], None), ceiling)


def sz_failure_bound(form: HermitianForm, sub_dim: int, trials: int, coeff_bound: int) -> Fraction:
    """Upper bound on the probability that every trial undershoots.

    Write each parameter as x + iy.  A restricted entry sums terms
    C P_alpha conj(P_beta) with |alpha|, |beta| <= D, the top degree of
    the form, so it has degree at most 2D in the real x and y.  If r is
    the generic rank, some r x r minor is a nonzero polynomial of degree
    at most 2Dr, and a trial undershoots, rank-deficient draws included,
    only if that minor vanishes at the draw: with x and y uniform on
    {1..coeff_bound}, Schwartz-Zippel bounds that by 2Dr/coeff_bound.
    Trials are independent; r is at most form_rank(form), the restricted
    matrix being T*CT, and at most that matrix's size C(sub_dim + D, D).
    """
    _check_sampling(form, sub_dim, "trials", trials, coeff_bound)
    D = form.max_degree()
    r = min(form_rank(form), comb(sub_dim + D, D))
    per_trial = min(Fraction(1), Fraction(2 * D * r, coeff_bound))
    return per_trial**trials


def max_affine_rank(
    form: HermitianForm,
    sub_dim: int,
    samples: int = 8,
    seed: int = 0,
    coeff_bound: int = 10**6,
) -> int:
    """Largest restriction rank seen over at most `samples` sampled affine subspaces.

    Samples graph-form subspaces: the first sub_dim ambient coordinates are free and the rest are random
    affine functions of them.  This is a lower bound for the true supremum that reaches the generic value for
    generic samples.  (Ew + t)^alpha has degree at most D, the form's top degree, in sub_dim variables, so no
    sample's rank exceeds C(sub_dim + D, D), where sampling stops (`_sampled_rank`).
    """
    _check_sampling(form, sub_dim, "samples", samples, coeff_bound)
    free = [[int(j == i) for j in range(sub_dim)] for i in range(sub_dim)]

    def draw(rng: Random) -> tuple:
        extra = [[_random_scalar(rng, coeff_bound) for _ in range(sub_dim + 1)] for _ in range(form.n - sub_dim)]
        return free + [row[:-1] for row in extra], [0] * sub_dim + [row[-1] for row in extra]  # E's, then t's

    return _sampled_rank(form, f"{seed}:affine", samples, draw, comb(sub_dim + form.max_degree(), sub_dim))


def cayley_unitary(n: int, rng: Random, bound: int = 99) -> List[List[GaussianRational]]:
    """An exactly unitary matrix with Gaussian-rational entries.

    U = (I - S)(I + S)^{-1} for a random skew-Hermitian S; I + S is
    always invertible, and unitarity is an identity, not an
    approximation.  I - S commutes with (I + S)^{-1}, so U is solved
    from (I + S) U = I - S in one pass.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def signed(r: Random) -> Fraction:
        return Fraction(r.randint(1, bound) * r.choice((-1, 1)), r.randint(1, bound))

    plus = [[(0, 0)] * n for _ in range(n)]  # I + S as (re, im) pairs
    for i in range(n):
        plus[i][i] = (1, signed(rng))
        for j in range(i + 1, n):
            x, y = signed(rng), signed(rng)
            plus[i][j], plus[j][i] = (x, y), (-x, y)
    minus = [[(re, -im) if i == j else (-re, -im) for j, (re, im) in enumerate(row)] for i, row in enumerate(plus)]
    return solve(plus, minus)


def quadric_subspace(a: int, b: int, seed: int = 0, bound: int = 99) -> AffineEmbedding:
    """A random b-dimensional affine subspace lying inside Q(a, b).

    Q(a, b) is the set where sum of |z_j|^2 over the first a coordinates
    minus the sum over the last b equals 1.  The subspace is
    w -> (V (w, 1), w) with V the first b+1 columns of a random unitary,
    so the defining identity holds exactly: |V(w,1)|^2 - |w|^2 = 1.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if b + 1 > a:
        raise ValueError("the orthonormal-column family needs b + 1 <= a")
    U = cayley_unitary(a, Random(f"{seed}:line"), bound)
    rows = [row[:b] for row in U] + [unit(b, i) for i in range(b)]
    return embedding(rows, [row[b] for row in U] + [GR_ZERO] * b)
