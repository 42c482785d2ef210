"""Top-level acceptance suite.

One test per numbered criterion; each prints a single pass/fail line
with its runtime so the gate can be read off the pytest output
directly.  Criteria with a stated time limit assert it.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial
from random import Random

import numpy as np
import pytest

from dense import bareiss_rank, conj, gr, matrix_form
from hyperq.cli import main
from hyperq.combinat import (
    green_G,
    green_K,
    hermitian_R,
    macaulay_rep,
    rigidity_bound,
    stability_region,
)
from hyperq.errors import NoPivotMonomial
from hyperq.forms import (
    WeightedHoloMap,
    _elimination,
    compose_linear,
    form_from_entries,
    form_from_real_poly,
    form_inertia,
    form_rank,
)
from hyperq.linalg import _signs
from hyperq.quadrics import (
    QuadricMap,
    SignedRealPoly,
    corner_move,
    identity_map,
    is_admissible,
    s_poly,
    tensor_extend,
    verify_map,
)
from hyperq.restrict import (
    embedding,
    generic_restriction_rank,
    quadric_subspace,
    restrict_form,
)
from tuple_polys import monomials_of_degree, restriction_matrix


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def runner(number, label, limit=None):
        start = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - start
            if limit is not None:
                assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s limit"
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"[criterion {number}] FAIL: {label} ({elapsed:.1f}s)")
            raise
        with capsys.disabled():
            print(f"[criterion {number}] PASS: {label} ({elapsed:.1f}s)")

    return runner


def test_criterion_1(criterion):
    with criterion(1, "macaulay and green bound suite", limit=10.0):
        for d in range(1, 9):
            for c in range(10**4 + 1):
                terms = list(macaulay_rep(c, d).terms())
                ks = [k for k, _ in terms]
                assert [i for _, i in terms] == list(range(d, 0, -1))
                assert all(x > y for x, y in zip(ks, ks[1:]))
                assert sum(comb(k, i) for k, i in terms) == c
        for n in range(2, 7):
            for d in range(1, 7):
                for N in range(comb(n + d, d) + 1):
                    assert green_G(n, d, N) == green_G(n, d + 1, N)
        for k in range(1, 31):
            assert green_K(2, k) == k * (k + 1) // 2
        for n in range(2, 7):
            for k in range(1, 21):
                assert green_K(n, k) <= k * (k + 1) // 2


def test_criterion_2(criterion, capsys):
    with criterion(2, "pinned bound values"):
        assert rigidity_bound(2, 1, 1) == 3
        assert green_K(3, 2) == 2
        assert main(["bound", "rigidity", "2", "1", "1"]) == 0
        assert capsys.readouterr().out == "3\n"
        assert main(["bound", "k", "3", "2"]) == 0
        assert capsys.readouterr().out == "2\n"


def test_criterion_3(criterion):
    with criterion(3, "green inequality on random linear systems", limit=60.0):
        rng = Random(2026)
        for n in (2, 3):
            for d in range(1, 5):
                ambient = n + 1
                v_amb = comb(ambient - 1 + d, d)
                v_sub = comb(n - 1 + d, d)
                for _ in range(100):
                    rows = [[rng.randint(1, 10**6) for _ in range(n)] for _ in range(ambient)]
                    embedding(rows)  # full column rank
                    t_int = restriction_matrix(rows, d)[2]
                    n_rows = rng.randint(1, v_sub + 3)
                    M = [[rng.randint(-9, 9) for _ in range(v_amb)] for _ in range(n_rows)]
                    N = bareiss_rank(M)
                    MT = [
                        [sum(M[i][k] * t_int[k][j] for k in range(v_amb)) for j in range(v_sub)]
                        for i in range(n_rows)
                    ]
                    k = bareiss_rank(MT)
                    assert N <= green_K(n, k)
                    # one certifying minor, degree d per entry, integer draws
                    assert Fraction(d * min(n_rows, v_sub), 10**6) < Fraction(1, 10**4)


def test_criterion_4(criterion):
    with criterion(4, "power-of-linear-form sharpness", limit=120.0):
        for d in range(1, 6):
            terms = {}
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    k = d - i - j
                    coeff = factorial(d) // (factorial(i) * factorial(j) * factorial(k))
                    terms[(i, j, k)] = coeff * (-1) ** k
            r = form_from_real_poly(terms)
            assert form_rank(r) == comb(2 + d, d)
            sig = form_inertia(r)
            assert sig.pos + sig.neg == comb(2 + d, d)
            assert generic_restriction_rank(r, 2, trials=3, seed=0) == d + 1
            for seed in range(20):
                line = quadric_subspace(2, 1, seed=seed)
                assert form_rank(restrict_form(r, line)) == 1
            assert comb(2 + d, d) <= hermitian_R(1, 2, d + 1)
            # plugging the in-quadric line rank into the same bound would
            # cap the rank at 1, so positivity is essential
            assert hermitian_R(1, 2, 1) == 1
            assert comb(2 + d, d) > 1


def test_criterion_5(criterion):
    with criterion(5, "rank and inertia invariance", limit=15.0):
        rng = Random(5)
        n = 3
        forms = []
        for _ in range(20):
            entries = []
            for _ in range(rng.randint(2, 6)):
                alpha = tuple(rng.randint(0, 1) for _ in range(n))
                beta = tuple(rng.randint(0, 1) for _ in range(n))
                if alpha == beta:
                    entries.append((alpha, beta, gr(rng.randint(-4, 4))))
                else:
                    if alpha > beta:
                        alpha, beta = beta, alpha
                    entries.append((alpha, beta, gr(rng.randint(-4, 4), rng.randint(-4, 4))))
            f = form_from_entries(n, entries)
            forms.append((f, form_rank(f), form_inertia(f)))
        for _ in range(50):
            lower = [
                [gr(1 if i == j else (rng.randint(-2, 2) if i > j else 0)) for j in range(n)]
                for i in range(n)
            ]
            upper = [
                [gr(1 if i == j else (rng.randint(-2, 2) if i < j else 0)) for j in range(n)]
                for i in range(n)
            ]
            change = [
                [sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            for f, rk, sig in forms:
                g = compose_linear(f, change)
                assert form_rank(g) == rk
                assert form_inertia(g) == sig
                assert _signs(_elimination(g)[1]) == sig  # g's own elimination, not the carried inertia


def test_criterion_6(criterion):
    with criterion(6, "inertia oracle equivalence"):
        rng = Random(6)
        for _ in range(200):
            n = rng.randint(1, 12)
            mat = [[None] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = gr(rng.randint(-9, 9))
                for j in range(i + 1, n):
                    c = gr(rng.randint(-9, 9), rng.randint(-9, 9))
                    mat[i][j] = c
                    mat[j][i] = conj(c)
            exact = form_inertia(matrix_form(mat))
            floating = np.array(
                [[complex(x.re, x.im) for x in row] for row in mat], dtype=complex
            )
            eigs = np.linalg.eigvalsh(floating)
            assert exact == (int((eigs > 1e-8).sum()), int((eigs < -1e-8).sum()))


def test_criterion_7(criterion, capsys, tmp_path):
    with criterion(7, "stability sector reproduction", limit=300.0):
        points = [
            (A, B)
            for A in range(2, 39)
            for B in range(2, 39)
            if 17 <= A + B <= 40 and stability_region(4, 2, A, B)
        ]
        assert len(points) > 300
        map_path = tmp_path / "map.txt"
        for A, B in points:
            assert main(["quadric", "construct", "4", "2", str(A), str(B)]) == 0
            out = capsys.readouterr().out
            assert out.startswith(
                f"map n=6 a=4 b=2 A={A} B={B} homogeneous=1 denominator=none\n"
            )
            map_path.write_text(out, encoding="utf-8")
            assert main(["quadric", "verify", str(map_path)]) == 0
            assert capsys.readouterr().out == "true\n"

        assert main(["quadric", "region", "4", "2", "--max", "20", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sector_only"] == []
        assert doc["budget_exhausted"] is False
        constructed = {tuple(p) for p in doc["constructed"]}
        for A, B in points:
            if A <= 20 and B <= 20:
                assert (A, B) in constructed

        # the grid marks exactly the lattice points construct can reach
        marked = [p for p in sorted(constructed) if p not in points][:3]
        for A, B in marked:
            assert main(["quadric", "construct", "4", "2", str(A), str(B)]) == 0
            capsys.readouterr()
        unmarked = [
            (A, B)
            for A in range(2, 21)
            for B in range(2, 21)
            if (A, B) not in constructed
        ][:3]
        for A, B in unmarked:
            assert main(["quadric", "construct", "4", "2", str(A), str(B)]) == 1
            assert capsys.readouterr().err.startswith("NotReached:")


def test_criterion_8(criterion):
    with criterion(8, "move-set soundness"):
        rng = Random(99)
        seeds = 0
        moved = 0
        for a, b in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
            n = a + b
            s = s_poly(a, b).terms
            shifts = []
            for shift in [
                (a, b),
                (b, a),
                (a - 1, b - 1),
                (b - 1, a - 1),
                (a, b - 1),
                (b - 1, a),
                (b, a - 1),
                (a - 1, b),
            ]:
                if shift not in shifts:
                    shifts.append(shift)
            for _ in range(40):
                degree = rng.randint(1, 3)
                monos = list(monomials_of_degree(n, degree))
                q = {}
                for _ in range(rng.randint(1, 4)):
                    mono = rng.choice(monos)
                    q[mono] = q.get(mono, 0) + rng.randint(1, 5)
                product = {}
                for al, c in s.items():
                    for be, w in q.items():
                        key = tuple(x + y for x, y in zip(al, be))
                        product[key] = product.get(key, 0) + c * w
                p = SignedRealPoly(a, b, product)
                ok, sig = is_admissible(p)
                assert ok
                seeds += 1
                for shift in shifts:
                    try:
                        out = corner_move(p, shift)
                    except NoPivotMonomial:
                        continue
                    assert out.signature() == (sig.pos + shift[0], sig.neg + shift[1])
                    assert is_admissible(out)[0]
                    moved += 1
        assert seeds == 200
        assert moved >= 1000


def test_criterion_9(criterion):
    with criterion(9, "tensor construction"):
        extended = tensor_extend(identity_map(2, 1), 2)
        assert extended.target() == (3, 2)
        assert verify_map(extended)

        square = tensor_extend(identity_map(2, 2), 2)
        assert square.target() == (4, 3) == (2 * 2, 2 * 2 - 1)
        assert verify_map(square)

        # the printed component ordering for a != b, reproduced verbatim,
        # must fail verification
        printed = QuadricMap(
            2,
            1,
            False,
            WeightedHoloMap(
                3,
                (
                    (1, Fraction(1), {(1, 0, 0): gr(1)}),
                    (1, Fraction(1), {(0, 1, 0): gr(1)}),
                    (1, Fraction(1), {(1, 0, 1): gr(1)}),
                    (1, Fraction(1), {(0, 1, 1): gr(1)}),
                    (-1, Fraction(1), {(0, 0, 2): gr(1)}),
                ),
            ),
            None,
        )
        assert not verify_map(printed)
