"""Multi-indices and the graded lexicographic basis order.

A multi-index is a plain tuple of nonnegative ints, one exponent per
variable.  Every matrix in the package indexes its rows and columns by
multi-indices sorted in graded lexicographic order: lower total degree
first, and within a degree the lexicographically larger exponent vector
first, so for two variables degree 2 reads z1^2, z1 z2, z2^2.

Substitution and the quadric moves pack a multi-index into one int of
w-bit fields, x_1 on top (`places`, `unpack`): with every exponent below
2^w no field carries, so keys add as exponents do.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Tuple

MultiIndex = Tuple[int, ...]


def grlex_key(alpha: MultiIndex):
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(alpha), tuple(map(operator.neg, alpha)))


def sorted_grlex(indices: Iterable[MultiIndex]) -> List[MultiIndex]:
    return sorted(indices, key=grlex_key)


def unit(n_vars: int, i: int) -> MultiIndex:
    """The exponent tuple of the single variable with 0-based index i."""
    return tuple(1 if j == i else 0 for j in range(n_vars))


def places(n_vars: int, w: int) -> List[int]:
    """The key of each variable: alpha packs to sum(map(mul, alpha, places(n_vars, w))), and within one
    degree the larger key is the grlex-earlier alpha."""
    return [1 << s for s in range(w * (n_vars - 1), -1, -w)]


def unpack(key: int, n_vars: int, w: int) -> MultiIndex:
    """The multi-index that `places(n_vars, w)` packs to key; a negative key is read mod 2^(n_vars w)."""
    return tuple(key >> s & (1 << w) - 1 for s in range(w * (n_vars - 1), -1, -w))


def zero_index(n_vars: int) -> MultiIndex:
    return (0,) * n_vars
