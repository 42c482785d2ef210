"""The tests' arithmetic of Q(i) and dense matrices over it: the field
operations that left hyperq's GaussianRational, products, a general rank,
matrices read as forms and forms read as matrices, the rational reading
of the symmetric elimination's components, and the GaussianRational LDL*,
full-square elimination, Q(i) solve and substitution that linalg's
one-triangle kernel, its Gaussian-integer solve and forms' Gaussian-integer
compose_linear replaced, kept as oracles.

hyperq computes on Gaussian-integer pairs, and its GaussianRational is
only the value that enters and leaves it.  Here `Qi` is a GaussianRational
with + - * / and norm_sq, `gr` builds one, and `lift` turns a value hyperq
returns into one before a test computes on it.  A Qi is still a
GaussianRational, so hyperq reads it as one and compares it with its own.

hyperq enters its symmetric elimination only through a form.  A square
matrix M is the one-variable form sum of M[i][j] z^i zbar^j, whose
grlex basis z^0, z^1, ... keeps the matrix's index order.
"""

from fractions import Fraction
from math import lcm

from hyperq.errors import DimensionMismatch
from hyperq.forms import HermitianForm, decompose
from hyperq.linalg import solve
from hyperq.multiindex import unit, zero_index
from hyperq.scalars import GaussianRational
from tuple_polys import poly_mul


class Qi(GaussianRational):
    """A GaussianRational with the field operations of Q(i); each returns a Qi, and an int, a
    Fraction or any GaussianRational on either side is read by its value."""

    __slots__ = ()

    def __add__(self, other):
        o = lift(other)
        return Qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __sub__(self, other):
        o = lift(other)
        return Qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return lift(other) - self

    def __mul__(self, other):
        o = lift(other)
        return Qi(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = lift(other)
        n = o.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return Qi(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return lift(other) / self

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im


def lift(x):
    """An int, a Fraction or a GaussianRational, hyperq's own included, as a Qi."""
    if isinstance(x, Qi):
        return x
    x = GaussianRational.coerce(x)
    return Qi(x.re, x.im)


def gr(re=0, im=0):
    """The tests' shorthand for Qi(re, im), as hyperq.gr is the package's for GaussianRational."""
    return Qi(re, im)


ZERO = Qi(0)


def conj(x):
    """The complex conjugate of a GaussianRational, Fraction or int."""
    x = lift(x)
    return gr(x.re, -x.im)


def identity(n):
    return [[gr(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def matrix_form(mat):
    """The form of a square matrix, built by hand: a matrix that is not
    Hermitian is refused when its rank, inertia or components are read."""
    return HermitianForm(1, {((i,), (j,)): v for i, row in enumerate(mat) for j, v in enumerate(row) if v})


def matrix_components(mat):
    """decompose of the matrix's form as (sign, weight, vector) over the unit basis."""
    n = len(mat)
    return [(s, w, [lift(poly.get((k,), 0)) for k in range(n)]) for s, w, poly in decompose(matrix_form(mat)).components]


def rational_components(den, n, steps):
    """The components of the elimination steps of X = den M, M of size n, as (sign, weight, vector)
    with a GaussianRational per place, each entry built as its own reduced fraction: the reference
    for linalg._components' Gaussian-integer rows, which forms.decompose puts over one lcm.

    A 1x1 pivot p gives vec[k] = X_ki / p, weight |p| / (|prev| L), sign sign(p prev); a
    2x2 pivot c gives vec[k] = X_kj / (prev L) +- c X_ki / |c|^2, weight 1/2.
    """
    comps = []
    for act, prev, piv, cols in steps:
        if len(cols) == 1:
            vec = [ZERO] * n
            for k, (re, im) in zip(act, cols[0]):
                vec[k] = Qi(Fraction(re, piv), Fraction(im, piv))
            comps.append((1 if (piv > 0) == (prev > 0) else -1, Fraction(abs(piv), abs(prev) * den), vec))
            continue
        (cr, ci), a = piv, prev * den
        nc = cr * cr + ci * ci
        for sign in (1, -1):
            vec = [ZERO] * n
            for k, (pr, pi), (qr, qi) in zip(act, *cols):
                ur, ui = sign * a * (cr * pr - ci * pi), sign * a * (cr * pi + ci * pr)
                vec[k] = Qi(Fraction(qr * nc + ur, a * nc), Fraction(qi * nc + ui, a * nc))
            comps.append((sign, Fraction(1, 2), vec))
    return comps


def form_matrix(form, basis=None):
    """The form's dense coefficient matrix over the given (default: support) basis."""
    if basis is None:
        basis = form.support()
    return [[lift(form.entries.get((a, b), 0)) for b in basis] for a in basis]


def evaluate(form, point):
    """The form's value r(z, zbar) at a point; real whenever the form is Hermitian."""
    if len(point) != form.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, form has {form.n}")
    powers = {}

    def pw(i, e):
        key = (i, e)
        if key not in powers:
            powers[key] = gr(1) if e == 0 else pw(i, e - 1) * point[i]
        return powers[key]

    total = gr(0)
    for (alpha, beta), c in form.entries.items():
        term = lift(c)
        for i, e in enumerate(alpha):
            if e:
                term = term * pw(i, e)
        for i, e in enumerate(beta):
            if e:
                term = term * conj(pw(i, e))
        total = total + term
    return total


# -- a general Bareiss rank, the one dense-rank oracle --


def _gi_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gi_div_exact(x, y):
    """x / y in Z[i]; divisibility is asserted."""
    c, d = y
    n = c * c + d * d
    num = _gi_mul(x, (c, -d))
    qr, rr = divmod(num[0], n)
    qi, ri = divmod(num[1], n)
    assert not rr and not ri, "inexact Gaussian-integer division in Bareiss step"
    return (qr, qi)


def _cleared_row(row):
    vals = [GaussianRational.coerce(x) for x in row]
    d = lcm(*(q.denominator for v in vals for q in (v.re, v.im)))
    return [(v.re.numerator * (d // v.re.denominator), v.im.numerator * (d // v.im.denominator)) for v in vals]


def bareiss_rank(rows):
    """Rank by fraction-free Gaussian elimination with row pivots, each row cleared by its own lcm."""
    m = [_cleared_row(r) for r in rows if any(x for x in r)]
    if not m:
        return 0
    n_rows = len(m)
    r = 0
    prev = (1, 0)
    for c in range(len(m[0])):
        piv = next((i for i in range(r, n_rows) if m[i][c] != (0, 0)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, row_r = m[r][c], m[r]
        for i in range(r + 1, n_rows):
            mic, row_i = m[i][c], m[i]
            for j in range(c + 1, len(row_i)):
                a, b = _gi_mul(p, row_i[j]), _gi_mul(mic, row_r[j])
                row_i[j] = _gi_div_exact((a[0] - b[0], a[1] - b[1]), prev)
        prev = p
        r += 1
        if r == n_rows:
            break
    return r


# -- the kernels linalg replaced, kept as oracles --


def full_symmetric_steps(x):
    """The symmetric elimination on the full square X of Gaussian-integer pairs, both triangles
    updated: the same (act, prev, pivot, cols) before each step as linalg._symmetric_steps.

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


def gr_ldl_components(mat):
    """Split a Hermitian matrix into signed weighted rank-one pieces by an LDL* over Q(i): the
    elimination linalg's fraction-free kernel replaced, kept as the reference for its components.

    Pivot policy: take the nonzero diagonal pivot of largest magnitude
    (ties: smallest index); fall back to a 2x2 off-diagonal block only
    when every remaining diagonal entry is zero.
    """
    n = len(mat)
    m = [[lift(x) for x in row] for row in mat]
    active = list(range(n))
    comps = []
    while active:
        best = None
        best_mag = None
        for i in active:
            d = m[i][i].re
            if d:
                mag = abs(d)
                if best_mag is None or mag > best_mag:
                    best, best_mag = i, mag
        if best is not None:
            i = best
            d = m[i][i].re
            d_gr = Qi(d)
            vec = [ZERO] * n
            col = {}
            for k in active:
                col[k] = m[k][i]
                vec[k] = m[k][i] / d_gr
            comps.append((1 if d > 0 else -1, abs(d), vec))
            active.remove(i)
            for j in active:
                cji = col[j]
                if not cji:
                    continue
                f = cji / d_gr
                row_j = m[j]
                row_i = m[i]
                for k in active:
                    if row_i[k]:
                        row_j[k] = row_j[k] - f * row_i[k]
            continue
        # every remaining diagonal is zero: look for a 2x2 block
        pair = None
        for ip in range(len(active)):
            for jp in range(ip + 1, len(active)):
                if m[active[ip]][active[jp]]:
                    pair = (active[ip], active[jp])
                    break
            if pair:
                break
        if pair is None:
            break  # remaining block is identically zero
        i, j = pair
        c = m[i][j]
        gamma = c / Qi(c.norm_sq())
        gbar = conj(gamma)
        p_col = {k: m[k][i] for k in active}
        q_col = {k: m[k][j] for k in active}
        vec_p = [ZERO] * n
        vec_m = [ZERO] * n
        for k in active:
            gp = gamma * p_col[k]
            vec_p[k] = q_col[k] + gp
            vec_m[k] = q_col[k] - gp
        comps.append((1, Fraction(1, 2), vec_p))
        comps.append((-1, Fraction(1, 2), vec_m))
        active.remove(i)
        active.remove(j)
        for k in active:
            pk = p_col[k]
            qk = q_col[k]
            if not pk and not qk:
                continue
            row_k = m[k]
            for l in active:
                row_k[l] = (
                    row_k[l]
                    - gamma * pk * conj(q_col[l])
                    - gbar * qk * conj(p_col[l])
                )
    return comps


def rational_solve(a, b):
    """X with a X = b for a square invertible a: one Gauss-Jordan pass on [a | b] over Q(i)."""
    n = len(a)
    x = [[lift(v) for v in ra + rb] for ra, rb in zip(a, b)]
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


def cleared_solve(a, b):
    """linalg.solve on [a | b] of any Gaussian rationals, cleared together by one lcm."""
    n = len(a)
    rows = _cleared_row([v for ra, rb in zip(a, b) for v in (*ra, *rb)])
    w = len(rows) // n if n else 0
    x = solve([rows[i * w:i * w + n] for i in range(n)], [rows[i * w + n:(i + 1) * w] for i in range(n)])
    return [[lift(v) for v in row] for row in x]


def _gr_expansions(matrix, translation, n_dst, monomials):
    origin = zero_index(n_dst)
    one = {origin: gr(1)}
    powers = []
    for i, row in enumerate(matrix):
        li = {unit(n_dst, j): gr(0) + c for j, c in enumerate(row) if c}
        if translation is not None and translation[i]:
            li[origin] = gr(0) + translation[i]
        powers.append([one, li])
    table = {}
    for alpha in monomials:
        out = one
        for i, e in enumerate(alpha):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(poly_mul(powers[i][-1], powers[i][1]))
                out = poly_mul(out, powers[i][e])
        table[alpha] = out
    return table


def gr_compose_linear(form, matrix, translation=None):
    """r(Ez + t) summed entry by entry in Q(i), eagerly: the substitution loop that compose_linear's
    Gaussian-integer one replaced, kept as the reference."""
    n_dst = len(matrix[0]) if form.n else 0
    table = _gr_expansions(matrix, translation, n_dst, form.support())
    acc = {}
    for (alpha, beta), c in form.entries.items():
        anti = table[beta]
        for gamma, u in table[alpha].items():
            cu = lift(c) * u
            for delta, v in anti.items():
                key = (gamma, delta)
                w = acc.get(key, ZERO) + cu * conj(v)
                if w:
                    acc[key] = w
                else:
                    acc.pop(key, None)
    return HermitianForm(n_dst, acc)
