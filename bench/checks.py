"""Answer checks for the benchmark workloads.

Every check takes plain data (ints, Fractions, tuples, dicts of exponent
tuples) and returns a list of error strings, empty when the answer is
right.  Expected values come from closed forms, from arithmetic written
here with `fractions.Fraction`, or from properties the method must have;
none of them is a stored copy of earlier hyperq output.  Nothing here
imports hyperq, so the checks can be tested against wrong answers
without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random
from typing import Dict, List, Sequence, Tuple

# A holomorphic component as plain data: (sign, weight, {alpha: (re, im)}).
Component = Tuple[int, Fraction, Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]]
# Hermitian form entries as plain data: {(alpha, beta): (re, im)}.
Entries = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[Fraction, Fraction]]


def expect(label: str, got, want) -> List[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


# -- sector ------------------------------------------------------------


def _monomial_value(x: Sequence[Fraction], alpha: Tuple[int, ...]) -> Fraction:
    v = Fraction(1)
    for xi, e in zip(x, alpha):
        if e:
            v *= xi**e
    return v


def check_sector_map(
    a: int, b: int, A: int, B: int, comps: Sequence[Component], rng: Random, points: int = 3
) -> List[str]:
    """A monomial map HQ(a,b) -> HQ(A,B) read as a real polynomial.

    Each component must be one monomial with coefficient 1, so that
    x_k = |z_k|^2 turns the map into p(x) = sum sign * weight * x^alpha.
    The signs must count (A, B), and p must vanish at random rational
    points of s = x_1 + .. + x_a - x_{a+1} - .. - x_{a+b} = 0, which is
    what divisibility by s means.
    """
    errors: List[str] = []
    pos = sum(1 for sign, _, _ in comps if sign > 0)
    errors += expect("sign counts", (pos, len(comps) - pos), (A, B))
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for sign, weight, poly in comps:
        if len(poly) != 1:
            errors.append(f"component with {len(poly)} terms is not a monomial")
            continue
        (alpha, coeff), = poly.items()
        if coeff != (1, 0):
            errors.append(f"monomial {alpha} has coefficient {coeff}, expected 1")
        if weight <= 0:
            errors.append(f"monomial {alpha} has weight {weight}")
        terms[alpha] = terms.get(alpha, Fraction(0)) + sign * weight
    n = a + b
    for _ in range(points):
        x = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
        x[0] = -sum(x[1:a], Fraction(0)) + sum(x[a:], Fraction(0))
        value = sum((c * _monomial_value(x, alpha) for alpha, c in terms.items()), Fraction(0))
        if value != 0:
            errors.append(f"p does not vanish on s = 0 at {x}: value {value}")
            break
    return errors


# -- forms -------------------------------------------------------------


def check_rank_inertia(label: str, rank: int, sig: Tuple[int, int]) -> List[str]:
    """rank = pos + neg."""
    return expect(f"{label} rank vs pos + neg", rank, sig[0] + sig[1])


def norm_difference_entries(comps: Sequence[Component]) -> Entries:
    """sum sign * weight * |poly|^2 as entries, in Fraction arithmetic."""
    acc: Dict = {}
    for sign, weight, poly in comps:
        w = sign * weight
        for alpha, (ar, ai) in poly.items():
            for beta, (br, bi) in poly.items():
                # c_alpha * conj(c_beta)
                re = w * (ar * br + ai * bi)
                im = w * (ai * br - ar * bi)
                old = acc.get((alpha, beta), (Fraction(0), Fraction(0)))
                acc[(alpha, beta)] = (old[0] + re, old[1] + im)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def check_decomposition(comps: Sequence[Component], entries: Entries) -> List[str]:
    """The components' norm difference reproduces the form exactly."""
    got = norm_difference_entries(comps)
    want = {k: v for k, v in entries.items() if v != (0, 0)}
    if got == want:
        return []
    diff = sorted(set(got) ^ set(want)) or sorted(k for k in want if got.get(k) != want[k])
    return [f"norm difference of the decomposition differs from the form at {diff[:3]}"]


def check_sylvester(rank_f: int, sig_f, rank_g: int, sig_g) -> List[str]:
    """A unimodular change of variables keeps rank and inertia."""
    return expect("rank after change", rank_g, rank_f) + expect(
        "inertia after change", tuple(sig_g), tuple(sig_f)
    )


def float_inertia(eigenvalues: Sequence[float], scale: float) -> Tuple[int, int]:
    """Sign counts of floating-point eigenvalues, zero within a tolerance."""
    tol = 1e-9 * max(1.0, scale)
    return (
        sum(1 for v in eigenvalues if v > tol),
        sum(1 for v in eigenvalues if v < -tol),
    )


def check_float_inertia(sig, eigenvalues: Sequence[float], scale: float) -> List[str]:
    return expect("inertia vs eigvalsh", tuple(sig), float_inertia(eigenvalues, scale))


def tensored_identity_target(a: int, b: int, j: int) -> Tuple[int, int]:
    """Target of identity_map(a, b) with component j tensored by (z_1..z_n).

    Component j is replaced by n products z_j z_k with signs +.. for
    k < a and -.. after, flipped when component j is negative.
    """
    if j < a:
        return (a - 1 + a, b + b)
    return (a + b, b - 1 + a)


def check_twist(ok: bool, bad: bool, target, a: int, b: int, j: int) -> List[str]:
    return (
        expect("twisted map verifies", ok, True)
        + expect("perturbed map verifies", bad, False)
        + expect("twisted map target", tuple(target), tensored_identity_target(a, b, j))
    )


# -- restrict ----------------------------------------------------------


def check_restrict(
    n: int,
    d: int,
    r: int,
    sub_dim: int,
    form_rank: int,
    generic: int,
    affine: int,
    hermitian_bound: int,
    failure_bound: Fraction,
    trials: int,
    coeff_bound: int,
) -> List[str]:
    """Closed forms for sum of r signed |p_i|^2, p_i generic of degree d.

    The p_i span an r-dimensional space when r <= C(n-1+d, d).  On a
    generic linear m-plane they restrict to degree-d forms in m
    variables, a space of dimension C(m-1+d, d); on an affine m-plane to
    polynomials of degree <= d, dimension C(m+d, d).  The paper's main
    theorem bounds the rank by hermitian_R(m, n, affine rank).  The
    failure bound is a probability no larger than the Schwartz-Zippel
    estimate with the largest possible certifying minor.
    """
    errors = expect("form rank", form_rank, min(r, comb(n - 1 + d, d)))
    errors += expect("generic restriction rank", generic, min(r, comb(sub_dim - 1 + d, d)))
    errors += expect("affine restriction rank", affine, min(r, comb(sub_dim + d, d)))
    if form_rank > hermitian_bound:
        errors.append(f"form rank {form_rank} exceeds hermitian_R bound {hermitian_bound}")
    worst = min(Fraction(1), Fraction(4 * d * comb(sub_dim + d, d), coeff_bound)) ** trials
    if not 0 < failure_bound <= worst:
        errors.append(f"failure bound {failure_bound} outside (0, {worst}]")
    return errors


# -- bounds ------------------------------------------------------------


def check_green_K(n: int, k: int, value: int) -> List[str]:
    """K_2(k) = k(k+1)/2 exactly, and K_n(k) <= k(k+1)/2 for every n."""
    cap = k * (k + 1) // 2
    if n == 2:
        return expect(f"K_2({k})", value, cap)
    if not k <= value <= cap:
        return [f"K_{n}({k}) = {value} outside [{k}, {cap}]"]
    return []


def check_macaulay(c: int, d: int, terms: Sequence[Tuple[int, int]]) -> List[str]:
    """c = sum C(k_i, i) for i = d..1 with k_d > .. > k_1 >= 0."""
    errors = expect(f"macaulay({c},{d}) degrees", [i for _, i in terms], list(range(d, 0, -1)))
    ks = [k for k, _ in terms]
    if any(x <= y for x, y in zip(ks, ks[1:])) or (ks and ks[-1] < 0):
        errors.append(f"macaulay({c},{d}) k_i {ks} not strictly decreasing")
    errors += expect(f"macaulay({c},{d}) sum", sum(comb(k, i) for k, i in terms), c)
    return errors


def check_green_G(n: int, d: int, N: int, value: int, raised: int) -> List[str]:
    """G(n, d, N) = G(n, d+1, N) and 0 <= G <= min(N, C(n-1+d, d))."""
    errors = expect(f"G({n},{d},{N}) vs degree {d + 1}", value, raised)
    if not 0 <= value <= min(N, comb(n - 1 + d, d)):
        errors.append(f"G({n},{d},{N}) = {value} out of range")
    return errors


def check_rigidity_sweep(a: int, b: int, first_B: int, values: Sequence[int]) -> List[str]:
    """rigidity_bound(a, b, B) >= B + 1 and nondecreasing in B; (2,1,1) is 3."""
    errors: List[str] = []
    for B, v in enumerate(values, first_B):
        if v < B + 1:
            errors.append(f"rigidity({a},{b},{B}) = {v} below {B + 1}")
        if (a, b, B) == (2, 1, 1):
            errors += expect("rigidity(2,1,1)", v, 3)
    if any(x > y for x, y in zip(values, values[1:])):
        errors.append(f"rigidity({a},{b},B) decreases in B: {list(values)}")
    return errors


def check_chain(label: str, value: int, k: int, lower: int) -> List[str]:
    """A composed bound is at least k and at least the composed K below it."""
    if value < max(k, lower):
        return [f"{label} = {value} below max({k}, {lower})"]
    return []
