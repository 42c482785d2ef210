"""Sparse multivariate polynomial arithmetic over exact scalars.

Polynomials are dicts mapping exponent tuples to coefficients.  The
coefficient type only needs ring arithmetic and truthiness for zero
tests, so the same helpers serve Fraction-valued real polynomials and
GaussianRational-valued complex ones.  Zero coefficients are never
stored.
"""

from __future__ import annotations

from typing import Dict

from .multiindex import MultiIndex, add as mi_add

Poly = Dict[MultiIndex, object]


def poly_add_inplace(acc: Poly, p: Poly) -> None:
    for k, c in p.items():
        s = acc.get(k)
        s = c if s is None else s + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    poly_add_inplace(out, q)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
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


def poly_shift(p: Poly, mono: MultiIndex) -> Poly:
    """Multiply by the monomial with exponent tuple `mono`."""
    return {mi_add(k, mono): c for k, c in p.items()}
