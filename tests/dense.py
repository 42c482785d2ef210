"""Dense GaussianRational matrices in tests: products, and a matrix read as a form.

hyperq enters its symmetric elimination only through a form.  A square
matrix M is the one-variable form sum of M[i][j] z^i zbar^j, whose
grlex basis z^0, z^1, ... keeps the matrix's index order.
"""

from hyperq.forms import HermitianForm, decompose
from hyperq.scalars import GR_ZERO, gr


def identity(n):
    return [[gr(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), GR_ZERO) for col in zip(*b)] for row in a]


def matrix_form(mat):
    """The form of a square matrix, built by hand: a matrix that is not
    Hermitian is refused when its rank, inertia or components are read."""
    return HermitianForm(1, {((i,), (j,)): v for i, row in enumerate(mat) for j, v in enumerate(row) if v})


def matrix_components(mat):
    """decompose of the matrix's form as (sign, weight, vector) over the unit basis."""
    n = len(mat)
    return [(s, w, [poly.get((k,), GR_ZERO) for k in range(n)]) for s, w, poly in decompose(matrix_form(mat)).components]
