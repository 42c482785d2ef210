"""Every answer check rejects a wrong answer and accepts a right one.

    python3 -m pytest -q bench/test_checks.py

These tests need no hyperq: the right answers are built here from
closed forms and small hand computations.
"""

import sys
import types
from fractions import Fraction
from math import comb
from random import Random

import checks
import spans
import workloads

F = Fraction


def s_times(a, b, q):
    """Coefficients of s * q, with s = x_1 + .. + x_a - x_{a+1} - .. - x_{a+b}."""
    n = a + b
    out = {}
    for j in range(n):
        unit = tuple(1 if i == j else 0 for i in range(n))
        for beta, c in q.items():
            key = tuple(x + y for x, y in zip(unit, beta))
            out[key] = out.get(key, 0) + (c if j < a else -c)
    return {k: F(v) for k, v in out.items() if v}


def as_components(poly):
    return [(1 if c > 0 else -1, abs(c), {al: (F(1), F(0))}) for al, c in poly.items()]


def admissible_map():
    # s * (x_1 + 2 x_5) on the (4, 2) split: an admissible polynomial
    p = s_times(4, 2, {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 2})
    comps = as_components(p)
    pos = sum(1 for c in comps if c[0] > 0)
    return comps, pos, len(comps) - pos


def test_sector_map_accepts_admissible():
    comps, A, B = admissible_map()
    assert checks.check_sector_map(4, 2, A, B, comps, Random(1)) == []


def test_sector_map_rejects_perturbed_weight():
    comps, A, B = admissible_map()
    sign, weight, poly = comps[0]
    comps[0] = (sign, weight * F(8, 7), poly)
    assert checks.check_sector_map(4, 2, A, B, comps, Random(1))


def test_sector_map_rejects_wrong_signature():
    comps, A, B = admissible_map()
    assert checks.check_sector_map(4, 2, A + 1, B, comps, Random(1))


def test_sector_map_rejects_non_monomial_component():
    comps, A, B = admissible_map()
    sign, weight, poly = comps[0]
    comps[0] = (sign, weight, {**poly, (0, 0, 0, 0, 0, 2): (F(1), F(0))})
    assert checks.check_sector_map(4, 2, A, B, comps, Random(1))
    comps, A, B = admissible_map()
    sign, weight, poly = comps[0]
    comps[0] = (sign, weight, {al: (F(2), F(0)) for al in poly})
    assert checks.check_sector_map(4, 2, A, B, comps, Random(1))


def test_parse_map_lines_reads_the_map_format():
    comps = workloads.parse_map_lines(["+ 1/2 :: 1,0 3 0 ; 0,-1 1 2", "- 2 :: 1,0 0 3"])
    assert comps == [
        (1, F(1, 2), {(3, 0): (F(1), F(0)), (1, 2): (F(0), F(-1))}),
        (-1, F(2), {(0, 3): (F(1), F(0))}),
    ]


def test_rank_inertia_rejects_rank_off_by_one():
    assert checks.check_rank_inertia("f", 5, (3, 2)) == []
    assert checks.check_rank_inertia("f", 6, (3, 2))


def decomposition():
    # |z1 + i z2|^2 - 2 |z2|^2
    comps = [
        (1, F(1), {(1, 0): (F(1), F(0)), (0, 1): (F(0), F(1))}),
        (-1, F(2), {(0, 1): (F(1), F(0))}),
    ]
    entries = {
        ((1, 0), (1, 0)): (F(1), F(0)),
        ((1, 0), (0, 1)): (F(0), F(-1)),
        ((0, 1), (1, 0)): (F(0), F(1)),
        ((0, 1), (0, 1)): (F(-1), F(0)),
    }
    return comps, entries


def test_decomposition_accepts_exact_squares():
    comps, entries = decomposition()
    assert checks.check_decomposition(comps, entries) == []


def test_decomposition_rejects_perturbed_weight_and_sign():
    comps, entries = decomposition()
    bent = [comps[0], (-1, F(3), comps[1][2])]
    assert checks.check_decomposition(bent, entries)
    flipped = [comps[0], (1, F(2), comps[1][2])]
    assert checks.check_decomposition(flipped, entries)


def test_sylvester_rejects_changed_rank_or_inertia():
    assert checks.check_sylvester(4, (3, 1), 4, (3, 1)) == []
    assert checks.check_sylvester(4, (3, 1), 5, (3, 1))
    assert checks.check_sylvester(4, (3, 1), 4, (2, 2))


def test_float_inertia_counts_signs_with_tolerance():
    assert checks.float_inertia([2.0, -1.0, 1e-14, -3e-13], 9.0) == (1, 1)
    assert checks.check_float_inertia((1, 1), [2.0, -1.0, 1e-14], 9.0) == []
    assert checks.check_float_inertia((2, 0), [2.0, -1.0, 1e-14], 9.0)


def test_twist_targets_and_verdicts():
    # identity_map(2, 1) with its negative component tensored lands in (3, 2)
    assert checks.tensored_identity_target(2, 1, 2) == (3, 2)
    assert checks.tensored_identity_target(2, 2, 2) == (4, 3)
    assert checks.tensored_identity_target(2, 1, 0) == (3, 2)
    assert checks.check_twist(True, False, (3, 2), 2, 1, 2) == []
    assert checks.check_twist(False, False, (3, 2), 2, 1, 2)
    assert checks.check_twist(True, True, (3, 2), 2, 1, 2)
    assert checks.check_twist(True, False, (3, 3), 2, 1, 2)


def restrict_args(**change):
    # 5 squares of cubics in 3 variables, restricted to planes
    args = dict(
        n=3, d=3, r=5, sub_dim=2, form_rank=5, generic=4, affine=5, hermitian_bound=50,
        failure_bound=F(1, 10**8), trials=2, coeff_bound=10**6,
    )
    args.update(change)
    return checks.check_restrict(**args)


def test_restrict_accepts_closed_forms():
    assert restrict_args() == []


def test_restrict_rejects_wrong_ranks_and_bounds():
    assert restrict_args(generic=3)
    assert restrict_args(generic=5)
    assert restrict_args(affine=4)
    assert restrict_args(form_rank=4)
    assert restrict_args(hermitian_bound=4)
    assert restrict_args(failure_bound=F(0))
    assert restrict_args(failure_bound=F(1, 10**3))


def test_green_K_rejects_wrong_values():
    assert checks.check_green_K(2, 60, 1830) == []
    assert checks.check_green_K(2, 60, 1829)
    assert checks.check_green_K(2, 60, 1831)
    assert checks.check_green_K(3, 2, 2) == []
    assert checks.check_green_K(4, 10, 56)
    assert checks.check_green_K(4, 10, 9)


def test_macaulay_rejects_bad_expansions():
    # 10 = C(5,3) + C(1,2) + C(0,1)
    assert checks.check_macaulay(10, 3, [(5, 3), (1, 2), (0, 1)]) == []
    assert checks.check_macaulay(11, 3, [(5, 3), (1, 2), (0, 1)])
    assert checks.check_macaulay(10, 3, [(4, 3), (4, 2), (0, 1)])
    assert checks.check_macaulay(10, 3, [(5, 3), (1, 2)])


def test_green_G_rejects_degree_change_and_range():
    assert checks.check_green_G(2, 2, 4, 3, 3) == []
    assert checks.check_green_G(2, 2, 4, 3, 4)
    assert checks.check_green_G(2, 2, 4, 5, 5)


def test_rigidity_sweep_rejects_pinned_and_shape():
    assert checks.check_rigidity_sweep(2, 1, 1, [3, 10, 15]) == []
    assert checks.check_rigidity_sweep(2, 1, 1, [4, 10, 15])
    assert checks.check_rigidity_sweep(3, 2, 1, [2, 4, 3])
    assert checks.check_rigidity_sweep(3, 2, 1, [1, 4, 7])


def test_chain_rejects_values_below_the_chain():
    assert checks.check_chain("R", 36, 6, 20) == []
    assert checks.check_chain("R", 19, 6, 20)
    assert checks.check_chain("C", 5, 6, 6)


def test_sector_targets_cover_the_sector():
    pts = workloads.sector_targets()
    assert len(pts) == 376
    assert all(17 <= A + B <= 40 for A, B in pts)


def test_stratified_draws_one_value_per_slice():
    got = workloads.stratified(Random(3), 0, 99, 10)
    assert [v // 10 for v in got] == list(range(10))


def test_squares_form_lives_on_degree_d_monomials():
    entries = workloads.squares_form(Random(5), 3, 2, 3)
    monos = workloads.monomials(3, 2, 2)
    assert len(monos) == comb(4, 2)
    assert {al for al, _ in entries} <= set(monos)


def fake_package():
    """A package whose linalg module binds a combinat function under another name."""
    pkg = types.ModuleType("fakehq")
    a = types.ModuleType("fakehq.combinat")
    b = types.ModuleType("fakehq.linalg")

    def inner(x):
        return x + 1

    def outer(x):
        return b.inner_alias(x) * 2

    inner.__module__ = a.__name__
    outer.__module__ = b.__name__
    a.inner = inner
    b.inner_alias = inner
    b.outer = outer
    pkg.outer = outer
    return {"fakehq": pkg, "fakehq.combinat": a, "fakehq.linalg": b}


def test_tracer_wraps_every_binding_and_restores_them():
    mods = fake_package()
    sys.modules.update(mods)
    try:
        tracer = spans.Tracer()
        tracer.install("fakehq")
        assert mods["fakehq"].outer(1) == 4
        calls, self_s = tracer.totals()
        tracer.uninstall()
        assert calls == {"linalg.outer": 1, "combinat.inner": 1}
        assert all(v >= 0 for v in self_s.values())
        assert mods["fakehq.linalg"].inner_alias is mods["fakehq.combinat"].inner
        assert not hasattr(mods["fakehq"].outer, "__wrapped__")
    finally:
        for name in mods:
            sys.modules.pop(name, None)
