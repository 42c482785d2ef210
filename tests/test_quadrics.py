"""Signed polynomials, the eight lattice moves, and quadric map synthesis."""

import heapq
import sys
import threading
from fractions import Fraction
from itertools import count
from math import comb
from pathlib import Path
from random import Random

import pytest

from dense import conj
from hyperq import forms, quadrics
from hyperq.combinat import stability_region
from hyperq.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NoNegativeComponent,
    NoPivotMonomial,
    NotAdmissible,
    NotReached,
    NotVanishing,
)
from hyperq.formats import dump_map, parse_map
from hyperq.forms import (HermitianForm, WeightedHoloMap, _form_side, _holo_side, compose_linear, decompose,
                          form_from_entries, form_from_real_poly, norm_difference)
from hyperq.linalg import _cleared
from hyperq.multiindex import grlex_key, places, unit, unpack, zero_index
from hyperq.quadrics import (
    _SEARCHES,
    QuadricMap,
    SignedRealPoly,
    _clear_search_cache,
    _divides,
    _pack,
    _routes,
    _search,
    _unpack,
    _vanishes_on_quadric,
    construct_map,
    corner_move,
    dehomogenize,
    grow,
    identity_map,
    is_admissible,
    map_from_form,
    reachable_signatures,
    s_poly,
    tensor_extend,
    verify_map,
)
from hyperq.restrict import cayley_unitary
from hyperq.scalars import GaussianRational, gr
from tuple_polys import (criterion_8_seeds, diagonal_map, mi_add, poly_add_inplace, poly_mul, poly_shift,
                         scanning_pivot, tuple_corner_move, tuple_grow)

F1 = Fraction(1)
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def rp_mul(p, q):
    out = {}
    for al, c in p.items():
        for be, d in q.items():
            mono = tuple(x + y for x, y in zip(al, be))
            v = out.get(mono, 0) + c * d
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def all_shifts(a, b):
    # duplicates collapse when a == b; order mirrors the route table
    seen = []
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
        if shift not in seen:
            seen.append(shift)
    return seen


def test_s_poly_examples():
    s = s_poly(2, 1)
    assert s.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}
    assert s_poly(1, 1).terms == {(1, 0): 1, (0, 1): -1}
    for a, b in [(1, 1), (2, 1), (3, 2), (4, 4)]:
        assert s_poly(a, b).signature() == (a, b)


def test_signed_real_poly_validation():
    with pytest.raises(ValueError):
        SignedRealPoly(2, 1, {(1, 0, 0): 1, (2, 0, 0): 1})
    with pytest.raises(DimensionMismatch):
        SignedRealPoly(2, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        SignedRealPoly(2, 1, {(1, 0, -1): 1})
    with pytest.raises(ValueError):
        SignedRealPoly(0, 1, {})
    with pytest.raises(ValueError):
        SignedRealPoly(2, 1, {(-1, 1, 1): 1})
    p = SignedRealPoly(2, 1, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert p.terms == {(1, 0, 0): 1}
    assert not SignedRealPoly(2, 1, {}).terms
    # the signature is counted once, at construction, and skips dropped zeros
    assert p.signature() == (1, 0)
    q = SignedRealPoly(2, 1, {(1, 0, 0): Fraction(0), (0, 1, 0): -2, (0, 0, 1): Fraction(-1, 3)})
    assert q.terms == {(0, 1, 0): -2, (0, 0, 1): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in q.terms.values())
    assert q.signature() == (0, 2) and SignedRealPoly(2, 1, {}).signature() == (0, 0)


def test_is_admissible_examples():
    s_x1 = SignedRealPoly(2, 1, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})
    assert is_admissible(s_x1) == (True, (2, 1))
    assert is_admissible(SignedRealPoly(2, 1, {(2, 0, 0): 1})) == (False, (1, 0))
    tilde = SignedRealPoly(
        2,
        2,
        {
            (2, 0, 0, 0): 1,
            (1, 1, 0, 0): 1,
            (1, 0, 1, 0): -1,
            (0, 1, 0, 1): 1,
            (0, 0, 1, 1): -1,
            (0, 0, 0, 2): -1,
        },
    )
    assert is_admissible(tilde) == (True, (3, 3))


def test_grow_worked_example():
    # k = 2 collides on x1 x2, so k = 3: x1^2 s + x2^2 s
    out = grow(s_poly(2, 1))
    assert out.terms == {
        (3, 0, 0): 1,
        (2, 1, 0): 1,
        (2, 0, 1): -1,
        (1, 2, 0): 1,
        (0, 3, 0): 1,
        (0, 2, 1): -1,
    }
    assert out.signature() == (4, 2)
    assert is_admissible(out)[0]
    mirrored = grow(s_poly(2, 1), mirror=True)
    assert mirrored.signature() == (3, 3)
    assert is_admissible(mirrored)[0]
    with pytest.raises(NotAdmissible):
        grow(SignedRealPoly(2, 1, {(1, 0, 0): 1}))
    with pytest.raises(NotAdmissible):
        grow(SignedRealPoly(2, 1, {}))


def test_corner_move_tilde_exact():
    out = corner_move(s_poly(2, 2), (1, 1))
    assert out.terms == {
        (2, 0, 0, 0): 1,
        (1, 1, 0, 0): 1,
        (1, 0, 1, 0): -1,
        (0, 1, 0, 1): 1,
        (0, 0, 1, 1): -1,
        (0, 0, 0, 2): -1,
    }
    assert out.signature() == (3, 3)


def test_corner_move_hat_exact():
    out = corner_move(s_poly(2, 2), (2, 1))
    half = Fraction(1, 2)
    assert out.terms == {
        (2, 0, 0, 0): half,
        (1, 1, 0, 0): half,
        (1, 0, 1, 0): -half,
        (1, 0, 0, 1): half,
        (0, 1, 0, 1): 1,
        (0, 0, 1, 1): -1,
        (0, 0, 0, 2): -1,
    }
    assert out.signature() == (4, 3)


def test_corner_move_divides_out_common_factor():
    s = s_poly(2, 2)
    lifted = SignedRealPoly(2, 2, {tuple(e + (1 if j == 3 else 0) for j, e in enumerate(al)): c for al, c in s.terms.items()})
    assert corner_move(lifted, (1, 1)).terms == corner_move(s, (1, 1)).terms


def test_corner_move_validation():
    with pytest.raises(ValueError):
        corner_move(s_poly(2, 2), (5, 5))
    with pytest.raises(ValueError):
        corner_move(s_poly(2, 1), (1, 0))
    with pytest.raises(NotAdmissible):
        corner_move(SignedRealPoly(2, 2, {(1, 0, 0, 0): 1}), (1, 1))
    # a pivot of the required sign can only be missing for bad input, which corner_move refuses
    allpos = SignedRealPoly(2, 2, {(1, 0, 0, 0): -1, (0, 1, 0, 0): -1})
    with pytest.raises(NoPivotMonomial):
        quadrics._moved(allpos, (1, 1), _routes(2, 2)[(1, 1)], allpos.signature())


def test_all_shifts_sound_on_random_seeds():
    rng = Random(7)
    checked = 0
    skipped = 0
    for a, b in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        n = a + b
        s = s_poly(a, b).terms
        for _ in range(8):
            q = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 1) for _ in range(n))
                deg = sum(mono)
                pad = tuple(e + (rng.randint(0, 2 - deg) if j == 0 and deg < 2 else 0) for j, e in enumerate(mono))
                q[pad] = q.get(pad, 0) + rng.randint(1, 3)
            # keep q homogeneous: pad everything to the max degree via x1
            top = max(sum(al) for al in q)
            q = {tuple(e + (top - sum(al) if j == 0 else 0) for j, e in enumerate(al)): c for al, c in q.items()}
            p = SignedRealPoly(a, b, rp_mul(s, q))
            ok, sig = is_admissible(p)
            assert ok
            for shift in all_shifts(a, b):
                try:
                    out = corner_move(p, shift)
                except NoPivotMonomial:
                    skipped += 1
                    continue
                pos = sum(1 for c in out.terms.values() if c > 0)
                assert out.signature() == (pos, len(out.terms) - pos)
                assert out.signature() == (sig.pos + shift[0], sig.neg + shift[1])
                assert is_admissible(out)[0]
                checked += 1
    assert checked >= 100
    assert skipped == 0


def _move_outcome(move, p, *args):
    try:
        return move(p, *args)
    except NoPivotMonomial as exc:
        return ("NoPivotMonomial", str(exc))


def _with_factor(p, e, power):
    return SignedRealPoly(p.a, p.b, {al[:e] + (al[e] + power,) + al[e + 1:]: c for al, c in p.terms.items()})


def test_packed_moves_match_tuple_moves():
    seeds = list(criterion_8_seeds())
    assert len(seeds) == 200
    rng = Random(11)
    # the same products with coefficients over 3, 4 and 7, and with a common x_1 or x_n factor
    inputs = seeds + [
        SignedRealPoly(p.a, p.b, poly_mul(s_poly(p.a, p.b).terms, {al: Fraction(rng.randint(1, 9), d)
                                                                   for al in list(p.terms)[:3]}))
        for p in seeds[::4] for d in (3, 4, 7)
    ]
    inputs += [_with_factor(p, e, power) for p in seeds[::5] for e in (0, p.n - 1) for power in (1, 3)]
    assert any(c.denominator == 7 for p in inputs for c in p.terms.values())
    moved = missing = 0
    for p in inputs:
        for shift in _routes(p.a, p.b):
            got = _move_outcome(corner_move, p, shift)
            assert got == _move_outcome(tuple_corner_move, p, shift), (p, shift)
            moved += isinstance(got, SignedRealPoly)
        for mirror in (False, True):  # on a == b the mirrored grow has no route of its own
            assert grow(p, mirror) == tuple_grow(p, mirror)
    # the unchecked move lets a polynomial with no pivot of the wanted sign through
    negative = SignedRealPoly(3, 2, {al: -c for al, c in s_poly(3, 2).terms.items() if c > 0})
    for shift, route in _routes(negative.a, negative.b).items():
        got = _move_outcome(quadrics._moved, negative, shift, route, negative.signature())
        assert got == _move_outcome(tuple_corner_move, negative, shift, False), shift
        moved += isinstance(got, SignedRealPoly)
        missing += not isinstance(got, SignedRealPoly)
    assert moved >= 1800 and missing >= 1


def test_packed_walk_matches_tuple_walk():
    # full walks: every signature in the box, in the settle order of the tuple moves
    for a, b, size in [(2, 2, 10), (3, 2, 12), (3, 3, 12), (4, 2, 14), (5, 3, 16)]:
        _clear_search_cache()
        got = reachable_signatures(a, b, size)
        want = _lone_walk(a, b, size, size, 10**5, moves=(tuple_grow, tuple_corner_move))
        assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1] is False
        assert len(got[0]) >= 25
    _clear_search_cache()


def test_search_field_width_holds_every_exponent():
    for a, b, size in [(2, 2, 12), (3, 3, 14), (4, 2, 20), (5, 3, 16)]:
        _clear_search_cache()
        reachable_signatures(a, b, size)
        state = _SEARCHES[(a, b)]
        top = (1 << state.width) - 1
        assert top >= state.region[2]
        for (A, B), node in state.witnesses.items():
            assert _unpack(a, b, state.width, node).degree() == node[0] <= A + B - (a + b) + 1 <= state.region[2]
        # fields this wide hold 2^width - 1 in every position, next to full fields
        n = a + b
        full = {tuple(top if j == i else 0 for j in range(n)): Fraction(2 * i - 3, 7) for i in range(n)}
        full[(top - 1, 1) + (0,) * (n - 2)] = F1
        p = SignedRealPoly(a, b, full)
        assert _unpack(a, b, state.width, _pack(p, state.width)) == p
    _clear_search_cache()


def _key_and_build(a, b, width, shift, route, node):
    """_key's prediction and the (degree, term count) _move builds, or each one's NoPivotMonomial."""
    units = places(a + b, width)
    out, summary = [], quadrics._summary(units, node[2])
    for call in (quadrics._key, quadrics._move):
        try:
            got = call(a, b, units, shift, route, node, summary)
        except NoPivotMonomial as exc:
            got = ("NoPivotMonomial", str(exc))
        out.append(got if len(got) == 2 else (got[0], len(got[2])))
    return out


def test_predicted_key_matches_every_move():
    # every route of every settled node, and each key against the tuple moves as well
    late_grows = 0
    for a, b in [(2, 2), (3, 2), (3, 3), (4, 2), (5, 3), (6, 2)]:
        _clear_search_cache()
        reachable_signatures(a, b, 16)
        state = _SEARCHES[(a, b)]
        assert len(state.witnesses) >= 50
        for node in state.witnesses.values():
            p = _unpack(a, b, state.width, node)
            for shift, route in state.routes.items():
                key, built = _key_and_build(a, b, state.width, shift, route, node)
                want = tuple_corner_move(p, shift, verify=False)
                assert key == built == (want.degree(), len(want.terms)), (a, b, p, shift)
                late_grows += route[0] == "grow" and key[0] > node[0] + 1
    assert late_grows >= 100
    _clear_search_cache()
    # a common power of the eliminated variable, which the search never makes, and no pivot of the wanted sign
    seeds = list(criterion_8_seeds())[::10]
    inputs = [_with_factor(p, e, power) for p in seeds for e in (0, p.n - 1) for power in (1, 2)]
    inputs.append(SignedRealPoly(3, 2, {al: -c for al, c in s_poly(3, 2).terms.items() if c > 0}))
    missing = 0
    for p in inputs:
        width = (p.degree() + 2).bit_length()
        for shift, route in _routes(p.a, p.b).items():
            key, built = _key_and_build(p.a, p.b, width, shift, route, _pack(p, width))
            want = _move_outcome(tuple_corner_move, p, shift, False)
            assert key == built == (want if isinstance(want, tuple) else (want.degree(), len(want.terms))), (p, shift)
            missing += isinstance(want, tuple)
    assert missing >= 1


def _pivot_outcome(call, *args):
    try:
        return call(*args)
    except NoPivotMonomial as exc:
        return ("NoPivotMonomial", str(exc))


def test_summary_matches_scanning_pivot():
    # the summary read off a node when it settles gives every corner route what a rescan of its terms gives
    checked, missing, powered = 0, 0, 0
    for a, b, size in [(4, 2, 30), (3, 3, 30), (5, 3, 30), (2, 2, 20)]:
        _clear_search_cache()
        reachable_signatures(a, b, size)
        state = _SEARCHES[(a, b)]
        assert len(state.witnesses) >= 100
        nodes = [(state.width, node[2]) for node in state.witnesses.values()]
        # common powers of the eliminated variable, which the search never makes
        for node in list(state.witnesses.values())[::9]:
            p = _unpack(a, b, state.width, node)
            for e, power in ((0, 1), (a + b - 1, 2)):
                q = _with_factor(p, e, power)
                width = (q.degree() + 2).bit_length()
                nodes.append((width, _pack(q, width)[2]))
        # and no pivot of one sign: s with the other sign's terms dropped
        for keep in (1, -1):
            q = SignedRealPoly(a, b, {al: c for al, c in s_poly(a, b).terms.items() if c * keep > 0})
            nodes.append((2, _pack(q, 2)[2]))
        for width, terms in nodes:
            summary = quadrics._summary(places(a + b, width), terms)
            for shift, route in state.routes.items():
                if route[0] != "grow":
                    got = _pivot_outcome(quadrics._pivot, shift, route, summary)
                    want = _pivot_outcome(scanning_pivot, a + b, width, shift, route, terms)
                    assert got == want, (a, b, terms, shift)
                    checked += 1
                    missing += got[0] == "NoPivotMonomial"
                    powered += got[0] != "NoPivotMonomial" and got[1] > 0
    assert checked > 9000 and missing >= 8 and powered >= 500
    _clear_search_cache()


def test_search_moves_only_settled_nodes(monkeypatch):
    # a child is ranked by its predicted key and moved only when it settles: one move per settled non-seed
    moves = []
    move = quadrics._move
    monkeypatch.setattr(quadrics, "_move", lambda *args: moves.append(args) or move(*args))
    for call in (lambda: reachable_signatures(4, 2, 14), lambda: construct_map(4, 2, 21, 14)):
        _clear_search_cache()
        moves.clear()
        call()
        assert len(moves) == len(_SEARCHES[(4, 2)].witnesses) - 2 > 100
    _clear_search_cache()


def test_construct_one_grow():
    m = construct_map(2, 2, 4, 4)
    assert m.homogeneous
    assert (m.a, m.b) == (2, 2)
    assert m.target() == (4, 4)
    assert verify_map(m)
    for sign, weight, poly in m.components.components:
        assert sign in (1, -1) and weight > 0 and len(poly) == 1


def test_construct_deterministic():
    x = construct_map(3, 2, 8, 7)
    y = construct_map(3, 2, 8, 7)
    assert x == y
    assert verify_map(x)


def test_construct_not_reached():
    with pytest.raises(NotReached) as exc:
        construct_map(4, 2, 100, 2)
    assert "outside" in str(exc.value)
    with pytest.raises(NotReached) as exc:
        construct_map(4, 2, 20, 20, search_budget=2)
    assert "budget" in str(exc.value)


def test_construct_validation():
    with pytest.raises(ValueError):
        construct_map(2, 3, 4, 4)
    with pytest.raises(ValueError):
        construct_map(2, 1, 4, 4)
    with pytest.raises(ValueError):
        construct_map(2, 2, 1, 4)
    with pytest.raises(ValueError):
        construct_map(2, 2, 4, 4, search_budget=0)


def _outcome(call):
    try:
        out = call()
    except NotReached as exc:
        return ("NotReached", str(exc))
    if isinstance(out, tuple):  # reachable_signatures: keep the settle order
        return (list(out[0].items()), out[1])
    return out


def test_shared_search_matches_fresh_search():
    sector = [
        (A, B)
        for A in range(2, 27)
        for B in range(2, 27)
        if 17 <= A + B <= 27 and stability_region(4, 2, A, B)
    ]
    calls = [lambda A=A, B=B: construct_map(4, 2, A, B) for A, B in Random(7).sample(sector, 8)]
    calls += [
        # in the box, never reached: unmarked on the `quadric region 4 2` grid
        lambda: construct_map(4, 2, 5, 8),
        lambda: construct_map(4, 2, 9, 3),
        # the budget counts fresh expansions even when the shared walk went further
        lambda: construct_map(4, 2, 20, 20, search_budget=2),
        lambda: construct_map(4, 2, 14, 9, search_budget=300),
        lambda: construct_map(4, 2, 14, 9, search_budget=20),
        lambda: reachable_signatures(4, 2, 12, budget=50),
        lambda: reachable_signatures(4, 2, 12),
    ]
    _clear_search_cache()
    shared = [_outcome(call) for call in calls]
    fresh = []
    for call in calls:
        _clear_search_cache()
        fresh.append(_outcome(call))
    assert shared == fresh
    assert sum(isinstance(out, QuadricMap) for out in shared) == 9
    assert shared[10][0] == "NotReached" and "budget 2 exhausted" in shared[10][1]
    assert shared[-2][1] is True and len(shared[-2][0]) == 51

    witnesses, _ = reachable_signatures(4, 2, 12)
    witnesses.clear()
    witnesses.update(reachable_signatures(2, 2, 6)[0])
    assert _outcome(lambda: reachable_signatures(4, 2, 12)) == shared[-1]
    _clear_search_cache()


def _searched(a, b, *args, **kwargs):
    """_search with its packed witnesses unpacked, as reachable_signatures returns them."""
    nodes, hit, width = _search(a, b, *args, **kwargs)
    return {sig: _unpack(a, b, width, node) for sig, node in nodes.items()}, hit


def _lone_walk(a, b, box_a, box_b, budget, goal=None, moves=(grow, corner_move)):
    """The move search as one walk of the box from the two seeds, nothing shared,
    with the public moves or the given (grow, corner_move) pair."""
    grow_move, corner = moves
    routes = _routes(a, b)
    seed = s_poly(a, b)
    mirrored = SignedRealPoly(a, b, {al: -c for al, c in seed.terms.items()})
    witnesses = {}
    tick = count()
    heap = []

    def push(sig, poly):
        if sig[0] <= box_a and sig[1] <= box_b and sig not in witnesses:
            heapq.heappush(heap, (poly.degree(), len(poly.terms), next(tick), sig, poly))

    push((a, b), seed)
    push((b, a), mirrored)
    expansions = 0
    while heap:
        _, _, _, sig, poly = heapq.heappop(heap)
        if sig in witnesses:
            continue
        witnesses[sig] = poly
        if sig == goal:
            return witnesses, False
        if expansions >= budget:
            return witnesses, True
        expansions += 1
        for shift, route in routes.items():
            nsig = (sig[0] + shift[0], sig[1] + shift[1])
            if nsig[0] <= box_a and nsig[1] <= box_b and nsig not in witnesses:
                if route[0] == "grow":
                    push(nsig, grow_move(poly, route[1]))
                else:
                    push(nsig, corner(poly, shift))
    return witnesses, False


def test_shared_search_matches_lone_walk():
    # boxes that hold one seed but not the other, tiny budgets, cold and warm
    cold = [(4, 2, 7, 3, 1), (4, 2, 3, 7, 1), (4, 2, 8, 3, 2), (4, 2, 3, 8, 2)]
    for a, b, A, B, budget in cold:
        _clear_search_cache()
        got = _searched(a, b, A, B, budget, goal=(A, B))
        want = _lone_walk(a, b, A, B, budget, goal=(A, B))
        assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1]
    _clear_search_cache()
    rng = Random(3)
    for _ in range(120):
        if rng.random() < 0.15:
            _clear_search_cache()
        a, b = rng.choice([(4, 2), (2, 2), (3, 2), (3, 3)])
        A, B = rng.randint(2, 22), rng.randint(2, 22)
        if rng.random() < 0.5:
            A, B = rng.choice([(A, rng.randint(2, 5)), (rng.randint(2, 5), B)])
        budget = rng.choice([1, 2, 3, 10, 40, 10**5])
        goal = (A, B) if rng.random() < 0.7 else None
        got = _searched(a, b, A, B, budget, goal)
        want = _lone_walk(a, b, A, B, budget, goal)
        assert list(got[0].items()) == list(want[0].items()), (a, b, A, B, budget, goal)
        assert got[1] == want[1], (a, b, A, B, budget, goal)
    _clear_search_cache()


def test_shared_search_across_threads():
    queries = [(4, 2, A, B, budget) for A, B in [(9, 8), (14, 9), (7, 3), (5, 20), (12, 12)]
               for budget in (2, 40, 10**5)] + [(3, 2, 8, 7, 10**5), (2, 2, 6, 6, 10**5)]
    want = [_lone_walk(a, b, A, B, budget, goal=(A, B)) for a, b, A, B, budget in queries]
    got = {}

    def worker(k):
        order = Random(k).sample(range(len(queries)), len(queries))
        for i in order:
            a, b, A, B, budget = queries[i]
            got[k, i] = _searched(a, b, A, B, budget, goal=(A, B))

    _clear_search_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        _clear_search_cache()
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6 * len(queries)
    for (k, i), out in got.items():
        assert list(out[0].items()) == list(want[i][0].items()) and out[1] == want[i][1]


def test_shared_search_work_is_bounded():
    # (5, 20) lies outside the first box, so the walk is rebuilt over A + B <= 34,
    # where low-degree nodes outside the thin box come first
    _clear_search_cache()
    lone = _lone_walk(4, 2, 5, 20, 10**5, goal=(5, 20))[0]
    for budget in (30, 10**5):
        construct_map(4, 2, 9, 8)
        shared = _outcome(lambda: construct_map(4, 2, 5, 20, search_budget=budget))
        # the shared walk gives up after as many nodes outside the box as in it
        assert len(_SEARCHES[(4, 2)].witnesses) <= min(2 * len(lone) + 1, budget + 1)
        _clear_search_cache()
        assert shared == _outcome(lambda: construct_map(4, 2, 5, 20, search_budget=budget))
        assert shared[0] == "NotReached" and "exhausted the box" in shared[1]
        _clear_search_cache()


def test_reachable_signatures_box():
    witnesses, hit = reachable_signatures(2, 2, 6)
    assert not hit
    assert (2, 2) in witnesses and (4, 4) in witnesses
    for sig, poly in witnesses.items():
        assert sig[0] <= 6 and sig[1] <= 6
        ok, psig = is_admissible(poly)
        assert ok and tuple(psig) == sig
    with pytest.raises(ValueError):
        reachable_signatures(2, 1, 6)
    with pytest.raises(ValueError):
        reachable_signatures(2, 2, 1)


def test_reachable_signatures_refuses_budget_below_one():
    for budget in (0, -3):
        with pytest.raises(ValueError, match="search budget must be positive"):
            reachable_signatures(4, 2, 8, budget=budget)


def test_search_argument_messages():
    # one bad argument at a time, so the message does not depend on the order of the checks
    cases = [
        (lambda: construct_map(2, 3, 9, 9), "requires a >= b >= 2"),
        (lambda: construct_map(3, 1, 9, 9), "requires a >= b >= 2"),
        (lambda: construct_map(4, 2, 1, 9), "requires A >= 2 and B >= 2"),
        (lambda: construct_map(4, 2, 9, 1), "requires A >= 2 and B >= 2"),
        (lambda: construct_map(4, 2, 9, 9, search_budget=0), "search budget must be positive"),
        (lambda: construct_map(4, 2, 9, 9, search_budget=-3), "search budget must be positive"),
        (lambda: reachable_signatures(2, 3, 8), "requires a >= b >= 2"),
        (lambda: reachable_signatures(3, 1, 8), "requires a >= b >= 2"),
        (lambda: reachable_signatures(4, 2, 1), "size must be at least 2"),
        (lambda: reachable_signatures(4, 2, 8, budget=0), "search budget must be positive"),
        (lambda: reachable_signatures(4, 2, 8, budget=-3), "search budget must be positive"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError and str(exc.value) == message


def test_verify_identity_map():
    # the 26 pairs b <= 4, b + 3 <= a <= 11 are the ones whose rigidity bound ROADMAP item 23 finds below a
    pairs = [(2, 1), (2, 2), (3, 2)] + [(a, b) for b in range(1, 5) for a in range(b + 3, 12)]
    assert len(pairs) == 3 + 26
    for a, b in pairs:
        assert verify_map(identity_map(a, b))


def test_verify_rejects_wrong_signs():
    wrong = QuadricMap(
        2,
        1,
        False,
        WeightedHoloMap(3, ((1, F1, {(1, 0, 0): gr(1)}), (1, F1, {(0, 1, 0): gr(1)}), (1, F1, {(0, 0, 1): gr(1)}))),
        None,
    )
    assert not verify_map(wrong)


def test_printed_four_one_map_fails():
    # (z1, z2, w z1, w z2 | w^2) on Q(2,1): the norm difference is 1 + 2|w|^2
    comps = (
        (1, F1, {(1, 0, 0): gr(1)}),
        (1, F1, {(0, 1, 0): gr(1)}),
        (1, F1, {(1, 0, 1): gr(1)}),
        (1, F1, {(0, 1, 1): gr(1)}),
        (-1, F1, {(0, 0, 2): gr(1)}),
    )
    m = QuadricMap(2, 1, False, WeightedHoloMap(3, comps), None)
    assert not verify_map(m)


def test_verify_invariances():
    m = tensor_extend(identity_map(2, 1), 2)
    comps = list(m.components.components)
    comps[3], comps[4] = comps[4], comps[3]
    u = gr(Fraction(3, 5), Fraction(4, 5))
    assert u * conj(u) == gr(1)
    comps[0] = (comps[0][0], comps[0][1], {al: c * u for al, c in comps[0][2].items()})
    twisted = QuadricMap(m.a, m.b, m.homogeneous, WeightedHoloMap(m.n, tuple(comps)), m.denominator)
    assert verify_map(twisted)


def test_tensor_example():
    m = tensor_extend(identity_map(2, 1), 2)
    assert m.target() == (3, 2)
    assert verify_map(m)
    assert m.components.components == (
        (1, F1, {(1, 0, 0): gr(1)}),
        (1, F1, {(0, 1, 0): gr(1)}),
        (1, F1, {(0, 0, 2): gr(1)}),
        (-1, F1, {(1, 0, 1): gr(1)}),
        (-1, F1, {(0, 1, 1): gr(1)}),
    )


def test_tensor_square_case():
    m = tensor_extend(identity_map(2, 2), 2)
    assert m.target() == (4, 3)
    assert verify_map(m)
    again = tensor_extend(m, 0)
    assert again.target() == (4 + 2 - 1, 3 + 2)
    assert verify_map(again)


def test_tensor_errors():
    ident = identity_map(2, 1)
    with pytest.raises(IndexOutOfRange):
        tensor_extend(ident, 5)
    broken = QuadricMap(
        2,
        1,
        False,
        WeightedHoloMap(3, ((1, F1, {(1, 0, 0): gr(1)}), (1, F1, {(0, 1, 0): gr(1)}), (1, F1, {(0, 0, 1): gr(1)}))),
        None,
    )
    with pytest.raises(NotVanishing):
        tensor_extend(broken, 0)
    rational = dehomogenize(corner_move(s_poly(2, 2), (1, 1)))
    assert rational.denominator is not None
    with pytest.raises(IndexOutOfRange):
        tensor_extend(rational, rational.denominator)


def test_tensor_refuses_homogeneous_maps():
    m = construct_map(2, 2, 5, 4)
    assert verify_map(m)
    with pytest.raises(NotVanishing) as exc:
        tensor_extend(m, 0)
    assert "affine" in str(exc.value)
    # on HQ(1, 0) the block |f|^2 s is |f z_1|^2 itself, so the extension verifies
    line = QuadricMap(1, 0, True, WeightedHoloMap(1, ((1, F1, {(1,): gr(1)}),)), None)
    assert verify_map(tensor_extend(line, 0))


def test_dehomogenize_s_times_x1():
    p = SignedRealPoly(2, 1, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})
    m = dehomogenize(p)
    assert (m.a, m.b) == (2, 0)
    assert m.target() == (2, 0)
    assert m.denominator == 2
    assert m.components.components == (
        (1, F1, {(2, 0): gr(1)}),
        (1, F1, {(1, 1): gr(1)}),
        (-1, F1, {(1, 0): gr(1)}),
    )
    assert verify_map(m)


def test_dehomogenize_s_is_identity_like():
    m = dehomogenize(s_poly(2, 2))
    assert (m.a, m.b) == (2, 1)
    assert m.target() == (2, 1)
    # the constant denominator makes this a polynomial map
    denom = m.components.components[m.denominator]
    assert denom[2] == {(0, 0, 0): gr(1)}
    assert verify_map(m)


def test_dehomogenize_errors():
    with pytest.raises(NotAdmissible):
        dehomogenize(SignedRealPoly(2, 1, {(1, 0, 0): 1}))
    with pytest.raises(NotAdmissible):
        dehomogenize(SignedRealPoly(2, 1, {}))


def test_map_from_form_defining_polynomial():
    f = form_from_entries(
        3,
        [
            ((1, 0, 0), (1, 0, 0), 1),
            ((0, 1, 0), (0, 1, 0), 1),
            ((0, 0, 1), (0, 0, 1), -1),
            ((0, 0, 0), (0, 0, 0), -1),
        ],
    )
    m = map_from_form(f, 2, 1)
    assert m.target() == (2, 1)
    assert m.denominator == 2
    denom = m.components.components[2]
    assert denom[2] == {(0, 0, 0): gr(1)}
    assert verify_map(m)


def test_map_from_form_product():
    # (x1 + x2 - x3 - 1) * x1 vanishes on Q(2,1)
    f = form_from_real_poly({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1, (1, 0, 0): -1})
    m = map_from_form(f, 2, 1)
    assert m.target() == (2, 1)
    assert verify_map(m)


def test_map_from_form_errors():
    nonvanishing = form_from_real_poly({(1, 0, 0): 1})
    with pytest.raises(NotVanishing):
        map_from_form(nonvanishing, 2, 1)
    with pytest.raises(DimensionMismatch):
        map_from_form(nonvanishing, 2, 2)
    with pytest.raises(NoNegativeComponent):
        map_from_form(form_from_entries(3, []), 2, 1)


def test_map_from_form_clears_the_form_once(monkeypatch):
    # the vanishing test reads the cleared entries that decompose then finds memoized on the form;
    # every form hyperq builds starts cleared, so it is not cleared again and reduces no entry, and
    # a form built directly from its entries is cleared once
    defining = form_from_entries(3, [((1, 0, 0), (1, 0, 0), 1), ((0, 1, 0), (0, 1, 0), 1),
                                     ((0, 0, 1), (0, 0, 1), -1), ((0, 0, 0), (0, 0, 0), -1)])
    product = form_from_real_poly({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1, (1, 0, 0): -1})
    twisted = compose_linear(norm_difference(tensor_extend(identity_map(2, 1), 0).components, True),
                             [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    by_hand = HermitianForm(3, {((1, 0, 0), (1, 0, 0)): gr(1), ((0, 1, 0), (0, 1, 0)): gr(1),
                                ((0, 0, 1), (0, 0, 1)): gr(-1), ((0, 0, 0), (0, 0, 0)): gr(-1)})
    calls = []
    cleared = forms._cleared
    monkeypatch.setattr(forms, "_cleared", lambda values: calls.append(1) or cleared(values))
    for form, clears in ((defining, []), (product, []), (twisted, []), (by_hand, [1])):
        calls.clear()
        map_from_form(form, 2, 1)
        assert calls == clears
    assert not {"entries"} & (vars(defining).keys() | vars(product).keys() | vars(twisted).keys())


def _lead_key(comp):
    return min(grlex_key(mono) for mono in comp[2])


def _two_sort_map(form, a, b):
    """map_from_form's component order as first written, kept as the reference."""
    holo = decompose(form)
    pos = sorted((c for c in holo.components if c[0] > 0), key=_lead_key)
    neg = sorted((c for c in holo.components if c[0] < 0), key=_lead_key)
    return QuadricMap(a, b, False, WeightedHoloMap(form.n, tuple(pos + neg)), len(pos))


def _times_defining(a, b, h):
    """The form (|z_1|^2 + .. + |z_a|^2 - |z_{a+1}|^2 - .. - |z_{a+b}|^2 - 1) h for entries h."""
    n = a + b
    entries = [(alpha, beta, -c) for alpha, beta, c in h]
    for k in range(n):
        e = unit(n, k)
        entries += [(mi_add(alpha, e), mi_add(beta, e), c if k < a else -c) for alpha, beta, c in h]
    return form_from_entries(n, entries)


def _twist_form(a, b, j, rng):
    """The forms workload's twist: the norm difference of a tensored identity under block unitaries."""
    n = a + b
    form = norm_difference(tensor_extend(identity_map(a, b), j).components, True)
    ua, ub = cayley_unitary(a, rng, 9), cayley_unitary(b, rng, 9)
    block = [[0] * n for _ in range(n)]
    for i in range(a):
        block[i][:a] = ua[i]
    for i in range(b):
        block[a + i][a:] = ub[i]
    return compose_linear(form, block)


def test_map_from_form_matches_two_sorts():
    # zero diagonals force 2x2 pivots, whose two components share a leading monomial
    u, v, w = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    pivots = [
        (2, 1, [(u, v, gr(1)), (v, u, gr(1))]),
        (2, 1, [(u, w, gr(2, 1)), (w, u, gr(2, -1)), ((0, 0, 0), v, gr(0, 3)), (v, (0, 0, 0), gr(0, -3))]),
        (1, 2, [(u, v, gr(Fraction(1, 2))), (v, u, gr(Fraction(1, 2))), (v, w, gr(1, 1)), (w, v, gr(1, -1))]),
        (2, 2, [((1, 0, 0, 0), (0, 0, 0, 1), gr(1)), ((0, 0, 0, 1), (1, 0, 0, 0), gr(1)),
                ((0, 1, 0, 0), (0, 0, 1, 0), gr(0, 1)), ((0, 0, 1, 0), (0, 1, 0, 0), gr(0, -1))]),
    ]
    cases = [(_times_defining(a, b, h), a, b) for a, b, h in pivots]
    shared = 0
    for form, a, b in cases:
        leads = [_lead_key(c) for c in decompose(form).components]
        shared += len(leads) - len(set(leads))
    assert shared >= len(pivots)
    # random multipliers: components of one sign often share a leading monomial, and their order must hold
    rng, tied = Random(5), 0
    for _ in range(60):
        a, b = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        monos = list(dict.fromkeys(tuple(rng.randint(0, 1) for _ in range(a + b)) for _ in range(rng.randint(2, 4))))
        h = []
        for i, u in enumerate(monos):
            for v in monos[i + 1:]:
                c = gr(rng.randint(-3, 3), rng.randint(-3, 3))
                h += [(u, v, c), (v, u, conj(c))]
            h.append((u, u, gr(rng.randint(-3, 3))))
        form = _times_defining(a, b, h)
        keys = [(c[0], _lead_key(c)) for c in decompose(form).components]
        tied += len(keys) - len(set(keys))
        if keys and min(keys)[0] < 0:
            cases.append((form, a, b))
    assert tied >= 10
    rng = Random(17)
    for a, b in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cases += [(_twist_form(a, b, j, rng), a, b) for j in range(a + b)]
    for form, a, b in cases:
        got, want = map_from_form(form, a, b), _two_sort_map(form, a, b)
        assert got == want and dump_map(got) == dump_map(want)
        assert verify_map(got)


def _tagged_tensor(m, component_index):
    """tensor_extend's assembly as first written, kept as the reference; no verification."""
    comps = m.components.components
    n, a = m.n, m.a
    tagged = []
    for idx, (sign, weight, poly) in enumerate(comps):
        if idx == component_index:
            for j in range(n):
                shifted = {al[:j] + (al[j] + 1,) + al[j + 1:]: c for al, c in poly.items()}
                tagged.append((sign if j < a else -sign, weight, shifted, False))
        else:
            tagged.append((sign, weight, poly, idx == m.denominator))
    ordered = [t for t in tagged if t[0] > 0] + [t for t in tagged if t[0] < 0]
    denom = None
    for pos, t in enumerate(ordered):
        if t[3]:
            denom = pos
            break
    return QuadricMap(m.a, m.b, m.homogeneous, WeightedHoloMap(n, tuple((s, w, p) for s, w, p, _ in ordered)), denom)


def test_tensor_extend_matches_tagged_loop():
    maps = [parse_map((GOLDEN_INPUTS / name).read_text()) for name in ("dehomogenized.map", "rotated_identity.map")]
    maps.append(identity_map(3, 2))
    tried = 0
    for m in maps:
        for k in range(len(m.components.components)):
            if k == m.denominator:
                with pytest.raises(IndexOutOfRange):
                    tensor_extend(m, k)
                continue
            got, want = tensor_extend(m, k), _tagged_tensor(m, k)
            assert got == want and dump_map(got) == dump_map(want)
            tried += 1
    assert tried == 5 + 3 + 5


def test_diagonal_map_matches_two_sorts():
    for p in list(criterion_8_seeds())[::10]:
        pos = sorted((al for al, c in p.terms.items() if c > 0), key=grlex_key)
        neg = sorted((al for al, c in p.terms.items() if c < 0), key=grlex_key)
        comps = tuple([(1, p.terms[al], {al: gr(1)}) for al in pos] + [(-1, -p.terms[al], {al: gr(1)}) for al in neg])
        for affine in (False, True):
            want = QuadricMap(p.a, p.b, not affine, WeightedHoloMap(p.n, comps), len(pos) if affine else None)
            assert diagonal_map(p.a, p.b, p.terms, denominator=affine) == want


def test_quadric_map_validation():
    comps = WeightedHoloMap(3, ((1, F1, {(1, 0, 0): gr(1)}), (1, F1, {(0, 1, 0): gr(1)}), (-1, F1, {(0, 0, 1): gr(1)})))
    with pytest.raises(DimensionMismatch):
        QuadricMap(2, 2, False, comps, None)
    with pytest.raises(IndexOutOfRange):
        QuadricMap(2, 1, False, comps, 7)
    with pytest.raises(ValueError):
        QuadricMap(2, 1, False, comps, 0)
    # every exponent needs n entries, or dump_map would write a file that parse_map refuses
    short = WeightedHoloMap(3, ((1, F1, {(1, 0): gr(1)}), (-1, F1, {(0, 0, 0, 1): gr(1)})))
    with pytest.raises(DimensionMismatch):
        QuadricMap(2, 1, False, short, None)
    # nor a negative exponent, or verify_map would give a verdict: the map is refused at its first read
    negative = WeightedHoloMap(3, ((1, F1, {(-1, 0, 0): gr(1)}), (1, F1, {(0, 1, 0): gr(1)}),
                                   (-1, F1, {(0, 0, 1): gr(1)})))
    with pytest.raises(ValueError) as exc:
        QuadricMap(2, 1, False, negative, None)
    assert exc.type is ValueError and "nonnegative" in str(exc.value)


def test_viewed_maps_are_checked_on_their_view(monkeypatch):
    # every map that src builds passes QuadricMap's checks, read off its integer view: none reduces a component
    reduced = []
    getattr_ = forms.WeightedHoloMap.__getattr__
    monkeypatch.setattr(forms.WeightedHoloMap, "__getattr__", lambda self, name: reduced.append(name) or getattr_(self, name))
    rows = ((1, (1, 1), {(1, 0, 0): (1, 0)}), (1, (1, 2), {(0, 1, 0): (0, 3)}), (-1, (1, 1), {(0, 0, 1): (1, 0)}))
    assert quadrics._viewed(2, 1, False, 2, (3, rows)).target() == (2, 0)
    bad = [
        (None, ((1, (0, 1), {(1, 0, 0): (1, 0)}),) + rows[1:], ValueError, "component weights must be positive"),
        (None, ((1, (-1, 2), {(1, 0, 0): (1, 0)}),) + rows[1:], ValueError, "component weights must be positive"),
        (None, ((2, (1, 1), {(1, 0, 0): (1, 0)}),) + rows[1:], ValueError, "component signs must be +1 or -1"),
        (None, ((1, (1, 1), {}),) + rows[1:], ValueError, "components must be nonzero polynomials"),
        (None, ((1, (1, 1), {(1, 0): (1, 0)}),) + rows[1:], DimensionMismatch, "component exponents must have 3 entries"),
        (0, rows, ValueError, "the denominator must be a negative component"),
        (1, rows, ValueError, "the denominator must be a negative component"),
        (3, rows, IndexOutOfRange, "denominator index 3 out of range"),
    ]
    for denominator, view, error, message in bad:
        with pytest.raises(error) as exc:
            quadrics._viewed(2, 1, False, denominator, (3, view))
        assert str(exc.value) == message
    with pytest.raises(DimensionMismatch) as exc:
        quadrics._viewed(3, 1, False, None, (3, rows))
    assert str(exc.value) == "component exponents must have 4 entries"
    assert reduced == []


def test_map_from_form_and_verify_reduce_no_component(monkeypatch):
    # decompose starts the map from linalg's Gaussian integers, map_from_form orders that view and
    # verify_map reads it: no component is reduced, none is cleared again, and no GaussianRational is built
    cases = [(_twist_form(a, b, j, Random(40 + j)), a, b) for a, b in ((2, 1), (2, 2), (3, 1)) for j in range(a + b)]
    cases += [(form_from_real_poly({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1, (1, 0, 0): -1}), 2, 1),
              (_times_defining(2, 1, [((1, 0, 0), (0, 1, 0), gr(1)), ((0, 1, 0), (1, 0, 0), gr(1))]), 2, 1)]
    for form, _, _ in cases:
        _form_side(form)  # a form built from entries clears them once; that is the form's, not the map's
    reduced, cleared, built = [], [], []
    getattr_ = forms.WeightedHoloMap.__getattr__
    monkeypatch.setattr(forms.WeightedHoloMap, "__getattr__", lambda self, name: reduced.append(name) or getattr_(self, name))
    clear = forms._cleared
    monkeypatch.setattr(forms, "_cleared", lambda values: cleared.append(1) or clear(values))
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    maps = [map_from_form(form, a, b) for form, a, b in cases]
    assert all(verify_map(m) for m in maps)
    assert (reduced, cleared, built) == ([], [], [])


def _branch_verdicts(m):
    form = norm_difference(m.components, not m.homogeneous and m.denominator is None)
    support, flat, _ = _form_side(form)
    assert all(i == j for i, j in flat)
    affine = not m.homogeneous
    real = ((support[i][0], support[i][1:], re) for (i, _), (re, _) in flat.items())  # P(x) with x_j = z_j w_j
    return _divides(m.a, m.b, affine, False, real), _vanishes_on_quadric(form, m.a, m.b, affine)


def _bent(m):
    sign, weight, poly = m.components.components[0]
    comps = ((sign, weight * 2, poly),) + m.components.components[1:]
    return QuadricMap(m.a, m.b, m.homogeneous, WeightedHoloMap(m.n, comps), m.denominator)


def test_divisibility_branches_agree_on_diagonal_forms(monkeypatch):
    maps = [construct_map(4, 2, A, B) for A, B in ((9, 8), (10, 14), (12, 12), (13, 12))]
    witnesses, _ = reachable_signatures(2, 2, 6)
    maps += [dehomogenize(p) for p in witnesses.values()]
    maps += [identity_map(a, b) for a, b in ((1, 0), (2, 1), (3, 2))]
    for m in maps:
        assert _branch_verdicts(m) == (True, True)
        assert _branch_verdicts(_bent(m)) == (False, False)

    # verifying the diagonal map of p repeats the admissibility test of p, so
    # construct_map tests only its output and dehomogenize tests p and its output
    sector = [p for sig, p in reachable_signatures(4, 2, 14)[0].items() if stability_region(4, 2, *sig)]
    assert len(sector) > 50
    for p in sector + list(witnesses.values()):
        first = next(iter(p.terms))
        doubled = SignedRealPoly(p.a, p.b, {**p.terms, first: 2 * p.terms[first]})
        for q, verdict in ((p, True), (doubled, False)):
            built = diagonal_map(q.a, q.b, q.terms, denominator=False)
            assert is_admissible(q)[0] == verify_map(built) == verdict
    calls = []
    divides = quadrics._divides
    monkeypatch.setattr(quadrics, "_divides", lambda *args: calls.append(args) or divides(*args))
    construct_map(4, 2, 10, 14)
    assert len(calls) == 1
    dehomogenize(witnesses[(4, 4)])
    assert len(calls) == 3


def _sandwich_verdict(m):
    """verify_map's verdict through the norm-difference sandwich, the path of maps that are not diagonal."""
    form = norm_difference(m.components, not m.homogeneous and m.denominator is None)
    return _vanishes_on_quadric(form, m.a, m.b, affine=not m.homogeneous)


def _reshaped(m, rng):
    """m with the same norm difference: coefficients made Gaussian under rational weights, and
    every third component split into two with the same monomial."""
    comps = []
    for i, (sign, weight, poly) in enumerate(m.components.components):
        ((alpha, c),) = poly.items()
        g = rng.choice([gr(1), gr(Fraction(3, 5), Fraction(4, 5)), gr(Fraction(3, 2), 2), gr(0, -3)])
        weight = weight / g.norm_sq()
        if i % 3:
            comps.append((sign, weight, {alpha: c * g}))
        else:
            comps += [(sign, weight / 3, {alpha: c * g}), (sign, 2 * weight / 3, {alpha: c * g})]
    denominator = None if m.denominator is None else m.denominator + (m.denominator + 2) // 3
    return QuadricMap(m.a, m.b, m.homogeneous, WeightedHoloMap(m.n, tuple(comps)), denominator)


def test_diagonal_verify_matches_the_sandwich(monkeypatch):
    # verify_map reads a map whose every component is one monomial as the real
    # polynomial sum sign w |c|^2 x^alpha; the sandwich builds its norm difference
    maps = []
    for p in criterion_8_seeds():
        maps += [diagonal_map(p.a, p.b, p.terms, denominator=False), dehomogenize(p)]
    maps += [identity_map(a, b) for a, b in ((1, 0), (2, 1), (3, 2))] + [tensor_extend(identity_map(2, 1), 0)]
    rng = Random(13)
    maps += [_reshaped(m, rng) for m in maps]
    maps.append(parse_map((GOLDEN_INPUTS / "diagonal_repeated.map").read_text()))
    assert sum(m.homogeneous for m in maps) == 400 and sum(m.denominator is None for m in maps) == 409
    calls = []
    built = quadrics.norm_difference
    monkeypatch.setattr(quadrics, "norm_difference", lambda *args: calls.append(args) or built(*args))
    for m in maps:
        assert all(len(poly) == 1 for _, _, poly in m.components.components)
        for q, verdict in ((m, True), (_bent(m), False)):
            assert verify_map(q) is _sandwich_verdict(q) is verdict
    assert calls == []
    rotated = parse_map((GOLDEN_INPUTS / "rotated_identity.map").read_text())
    assert verify_map(rotated) is _sandwich_verdict(rotated) is True and len(calls) == 1


def test_construct_unpacks_only_the_returned_witness(monkeypatch):
    # quadrics reads a packed witness's exponent tuples through multiindex.unpack, one key per term,
    # for construct_map and _unpack alike; a witness of (A, B) has A + B terms
    calls = []
    monkeypatch.setattr(quadrics, "unpack", lambda *args: calls.append(args) or unpack(*args))
    _clear_search_cache()
    # cold, warm, a rebuilt region, another split
    for a, b, A, B in [(4, 2, 10, 14), (4, 2, 9, 8), (4, 2, 12, 12), (4, 2, 30, 10), (3, 3, 9, 8)]:
        calls.clear()
        m = construct_map(a, b, A, B)
        assert m.target() == (A, B)
        monomials = [next(iter(poly)) for _, _, poly in m.components.components]
        assert sorted(unpack(*args) for args in calls) == sorted(monomials) and len(calls) == A + B
    calls.clear()
    witnesses, _ = reachable_signatures(4, 2, 12)
    assert len(calls) == sum(len(p.terms) for p in witnesses.values()) and len(witnesses) > 50
    _clear_search_cache()


def test_relation_powers_across_threads():
    # verify_map shares no state between calls; any that crept in, such as a cache of
    # relation powers extended by two threads at once, would flip verdicts then and afterwards
    maps = [construct_map(4, 2, A, B) for A, B in ((20, 20), (18, 22), (25, 15), (22, 18))]
    maps += [_bent(m) for m in maps]
    want = [verify_map(m) for m in maps]
    assert want == [True] * 4 + [False] * 4
    got = {}

    def worker(k):
        for i in Random(k).sample(range(len(maps)), len(maps)):
            got[k, i] = verify_map(maps[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 * len(maps)
    assert [got[k, i] for k in range(8) for i in range(len(maps))] == want * 8
    assert [verify_map(m) for m in maps] == want


def _tuple_divides(a, b, affine, complexified, terms):
    """The tuple-exponent Fraction routine that _divides replaced, kept as the reference."""
    n = a + b
    width = 2 * n - 1 if complexified else n - 1
    solved = {zero_index(width): F1} if affine else {}
    for j in range(1, n):
        mono = mi_add(unit(width, j), unit(width, n + j - 1)) if complexified else unit(width, j - 1)
        solved[mono] = -F1 if j < a else F1
    powers = [{zero_index(width): F1}, solved]
    acc = {}
    for e, rest, coeff in terms:
        while len(powers) <= e:
            powers.append(poly_mul(powers[-1], powers[1]))
        poly_add_inplace(acc, {k: c * coeff for k, c in poly_shift(powers[e], rest).items()})
    return not acc


def _random_multiple(rng, a, b, affine, complexified, degree):
    """Terms (e, rest, coeff) of (s - c) Q for a sparse random Q; the largest e + |rest| is degree.

    Monomials are exponent tuples of x, or of z followed by w when
    complexified; coefficients have denominators 3, 7 and 12, and
    Gaussian ones have nonzero imaginary parts.
    """
    n = a + b
    width = 2 * n if complexified else n
    rel = {}
    for j in range(n):
        mono = mi_add(unit(width, j), unit(width, n + j)) if complexified else unit(width, j)
        rel[mono] = F1 if j < a else -F1
    if affine:
        rel[zero_index(width)] = -F1

    def coeff():
        parts = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([3, 7, 12])) for _ in range(2)]
        return gr(*parts) if complexified else parts[0]

    while True:
        q, top_q = {}, rng.randint(0, 2)
        for _ in range(rng.randint(2, 5)):
            d = rng.randint(0, top_q) if affine else top_q
            cuts = sorted(rng.randint(0, d) for _ in range(width - 1))
            q[tuple(y - x for x, y in zip([0] + cuts, cuts + [d]))] = coeff()
        product = rp_mul(rel, q)
        if complexified:
            top = max(al[n] for al in product)
            terms = [(al[n], (al[0] + top - al[n],) + al[1:n] + al[n + 1:], c) for al, c in product.items()]
        else:
            terms = [(al[0], al[1:], c) for al, c in product.items()]
        reach = max(e + sum(rest) for e, rest, _ in terms)
        if reach <= degree:
            break
    # times x_2, or z_1: still a multiple, and the largest e + |rest| becomes degree
    return [(e, (rest[0] + degree - reach,) + rest[1:], c) for e, rest, c in terms]


def _integer_terms(terms, complexified):
    """The terms over the lcm of every denominator: ints, or (re, im) pairs when complexified."""
    pairs, _ = _cleared(c for _, _, c in terms)
    return [(e, rest, p if complexified else p[0]) for (e, rest, _), p in zip(terms, pairs)]


def test_packed_divides_matches_tuple_routine():
    cases = 0
    for degree in (7, 8, 15, 16, 31, 32):
        for affine in (False, True):
            for complexified in (False, True):
                for a, b in [(2, 1), (1, 2), (2, 2), (3, 2)][: 2 if degree > 16 else 4]:
                    rng = Random(f"{degree}:{affine}:{complexified}:{a}:{b}")
                    terms = _random_multiple(rng, a, b, affine, complexified, degree)
                    assert max(e + sum(rest) for e, rest, _ in terms) == degree
                    i = rng.randrange(len(terms))
                    delta = Fraction(rng.randint(1, 5), rng.choice([3, 7, 12]))
                    if complexified:
                        delta = gr(0, delta) if rng.random() < 0.5 else gr(delta, 0)
                    e, rest, c = terms[i]
                    bent = terms[:i] + [(e, rest, c + delta)] + terms[i + 1:]
                    for t, verdict in ((terms, True), (bent, False)):
                        assert _tuple_divides(a, b, affine, complexified, t) is verdict
                        assert _divides(a, b, affine, complexified, iter(_integer_terms(t, complexified))) is verdict
                    cases += 1
    assert cases == 4 * (4 * 4 + 2 * 2)
    # non-multiples whose two monomials would share one packed int if the fields
    # were any narrower than the width rule makes them: x_2^d against x_3 and x_3^(d/2)
    for d in (8, 16, 32):
        for other in ((0, 1), (0, d // 2)):
            for affine in (False, True):
                terms = [(0, (d, 0), F1), (0, other, -F1)]
                assert _tuple_divides(2, 1, affine, False, terms) is False
                assert _divides(2, 1, affine, False, _integer_terms(terms, False)) is False
    # a lone q^20 leaves L^(20 - e) in every Horner step, and q^6 - L^6 has terms only
    # at e = 6 and e = 0, so every intermediate comes from the top row
    for a, b in [(2, 1), (2, 2)]:
        for affine in (False, True):
            for complexified in (False, True):
                n = a + b
                width = 2 * n - 1 if complexified else n - 1
                rel = {zero_index(width): F1} if affine else {}
                for j in range(1, n):
                    rel[mi_add(unit(width, j), unit(width, n + j - 1)) if complexified else unit(width, j - 1)] = (
                        -F1 if j < a else F1)
                power = {zero_index(width): F1}
                for _ in range(6):
                    power = poly_mul(power, rel)
                c = gr(2, -3) if complexified else F1
                lone = [(20, zero_index(width), c)]
                ends = [(6, zero_index(width), c)] + [(0, mono, -v * c) for mono, v in power.items()]
                bent = [(6, zero_index(width), 2 * c)] + ends[1:]
                for t, verdict in ((lone, False), (ends, True), (bent, False)):
                    assert _tuple_divides(a, b, affine, complexified, t) is verdict
                    assert _divides(a, b, affine, complexified, _integer_terms(t, complexified)) is verdict


def test_divides_skips_empty_rows_while_the_remainder_is_zero():
    # x_1^N s and s (x_1^N + x_2^N): Horner's remainder is 0 below the top row, so the loop jumps
    # to the next nonempty row instead of walking e down from N; a bend below the gap stays cheap
    s42 = s_poly(4, 2).terms
    for N in (12, 10**6, 10**21):
        p = SignedRealPoly(4, 2, {mi_add(al, (N, 0, 0, 0, 0, 0)): c for al, c in s42.items()})
        assert is_admissible(p) == (True, (4, 2))
        for m in (diagonal_map(4, 2, p.terms, False), parse_map(dump_map(diagonal_map(4, 2, p.terms, False))),
                  dehomogenize(p)):
            assert verify_map(m) is True
        two = SignedRealPoly(3, 2, rp_mul(s_poly(3, 2).terms, {(N, 0, 0, 0, 0): 1, (0, N, 0, 0, 0): 1}))
        low = max(two.terms, key=lambda al: (al[0] == 1, al[1]))  # x_1 x_2^N
        bent = SignedRealPoly(3, 2, {**two.terms, low: 2 * two.terms[low]})
        for q, verdict in ((two, True), (bent, False)):
            assert is_admissible(q)[0] is verdict
            assert verify_map(diagonal_map(3, 2, q.terms, False)) is verdict
            if N < 100:
                terms = [(al[0], al[1:], c) for al, c in q.terms.items()]
                assert _tuple_divides(3, 2, False, False, terms) is verdict


def _eager_dump(m):
    """dump_map as it read a map's components before maps kept an integer view."""
    comps = m.components.components
    pos = sum(c[0] > 0 for c in comps)
    denom = "none" if m.denominator is None else str(m.denominator)
    out = [f"map n={m.n} a={m.a} b={m.b} A={pos} B={len(comps) - pos} "
           f"homogeneous={1 if m.homogeneous else 0} denominator={denom}"]
    for sign, weight, poly in comps:
        terms = " ; ".join(f"{poly[al].re},{poly[al].im} {' '.join(map(str, al))}" for al in sorted(poly, key=grlex_key))
        out.append(f"{'+' if sign > 0 else '-'} {weight} :: {terms}")
    return "\n".join(out) + "\n"


def _eager_parse(text):
    """parse_map as it built Fraction and GaussianRational components, without its checks: well-formed text only."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    header, *body = [line for line in lines if line]
    fields = dict(token.split("=") for token in header.split()[1:])
    comps = []
    for line in body:
        head, terms = line.split("::")
        sign, weight = head.split()
        poly = {}
        for chunk in terms.split(";"):
            coeff, *exponents = chunk.split()
            c = gr(*map(Fraction, coeff.split(",")))
            alpha = tuple(map(int, exponents))
            value = poly[alpha] + c if alpha in poly else c
            if value:
                poly[alpha] = value
            else:
                poly.pop(alpha, None)
        comps.append((1 if sign == "+" else -1, Fraction(weight), poly))
    denominator = None if fields["denominator"] == "none" else int(fields["denominator"])
    return QuadricMap(int(fields["a"]), int(fields["b"]), fields["homogeneous"] == "1",
                      WeightedHoloMap(int(fields["n"]), tuple(comps)), denominator)


def _bent_view(m):
    """m with its first weight doubled, built from its integer view as parse_map builds a map."""
    d, ((sign, (wn, wd), poly), *rest) = _holo_side(m.components)
    w = Fraction(2 * wn, wd)
    return quadrics._viewed(m.a, m.b, m.homogeneous, m.denominator, (d, ((sign, (w.numerator, w.denominator), poly), *rest)))


def _check_view(m, ref):
    """A fresh map against its eagerly built reference: dump bytes, ==, repr, and verify against the sandwich."""
    assert dump_map(m) == _eager_dump(ref)
    assert m == ref and repr(m) == repr(ref)
    viewed = quadrics._viewed(ref.a, ref.b, ref.homogeneous, ref.denominator, _holo_side(ref.components))
    assert dump_map(viewed) == _eager_dump(ref) and viewed == ref and repr(viewed) == repr(ref)
    verdicts = [verify_map(q) for q in (m, _bent(m), _bent_view(m))]
    assert verdicts == [_sandwich_verdict(q) for q in (m, _bent(m), _bent_view(m))]
    return verdicts


def test_integer_view_maps_match_eager_references():
    cases = []
    for a, b, A, B in [(4, 2, 12, 18), (4, 2, 21, 14), (3, 3, 9, 8), (5, 3, 17, 14), (2, 2, 5, 4), (6, 2, 30, 12)]:
        _clear_search_cache()
        nodes, _, width = _search(a, b, A, B, 10**5, goal=(A, B))
        cases.append((construct_map(a, b, A, B), diagonal_map(a, b, _unpack(a, b, width, nodes[(A, B)]).terms, False)))
    _clear_search_cache()
    # not huge_exponent.map: a bent copy of it leaves R != 0 at its top row, and the division still walks
    # e down from 10^21 on a false verdict (the modular witness of ROADMAP item 19 is not built yet)
    inputs = [path for path in sorted(GOLDEN_INPUTS.glob("*.map")) if path.name != "huge_exponent.map"]
    assert len(inputs) == 8
    cases += [(parse_map(path.read_text()), _eager_parse(path.read_text())) for path in inputs]
    for p in list(criterion_8_seeds())[::20] + list(reachable_signatures(2, 2, 8)[0].values()):
        cases.append((dehomogenize(p), diagonal_map(p.a, p.b - 1, {al[:-1]: c for al, c in p.terms.items()}, True)))
    eager = [identity_map(2, 1), identity_map(3, 2), tensor_extend(identity_map(2, 1), 0),
             tensor_extend(_eager_parse((GOLDEN_INPUTS / "dehomogenized.map").read_text()), 1),
             map_from_form(_twist_form(2, 2, 1, Random(3)), 2, 2), map_from_form(_twist_form(3, 1, 0, Random(4)), 3, 1)]
    rng = Random(21)
    eager += [_reshaped(diagonal_map(p.a, p.b, p.terms, False), rng) for p in list(criterion_8_seeds())[::25]]
    cases += [(m, m) for m in eager]
    verdicts = [_check_view(m, ref) for m, ref in cases]
    assert sum(v[0] for v in verdicts) == len(cases) - 4  # the four bent golden inputs
    assert not any(v[1] or v[2] for v in verdicts if v[0])  # a true map bent is false


def test_view_reduction_across_threads():
    # two threads reading the components of one fresh map both reduce them; each gets the same components
    texts = [dump_map(construct_map(4, 2, A, B)) for A, B in ((20, 20), (25, 15))]
    texts += [(GOLDEN_INPUTS / name).read_text() for name in ("rotated_identity.map", "diagonal_repeated.map")]
    wants = [_eager_parse(text).components.components for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for text, want in zip(texts, wants):
                m, got = parse_map(text), []
                threads = [threading.Thread(target=lambda: got.append(m.components.components)) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [want] * 3 and m.components.components == want
    finally:
        sys.setswitchinterval(interval)


def test_sector_round_trip_reduces_no_component(monkeypatch):
    # construct, dump, parse and verify read the integer view only: no component is reduced to
    # GaussianRationals and nothing is cleared again, so the fast path cannot quietly fall back
    reduced, cleared = [], []
    getattr_ = forms.WeightedHoloMap.__getattr__
    monkeypatch.setattr(forms.WeightedHoloMap, "__getattr__", lambda self, name: reduced.append(name) or getattr_(self, name))
    clear = forms._cleared
    monkeypatch.setattr(forms, "_cleared", lambda values: cleared.append(1) or clear(values))
    _clear_search_cache()
    maps = []
    for a, b, A, B in [(4, 2, 21, 14), (4, 2, 12, 18), (4, 2, 30, 10), (3, 3, 12, 11), (5, 3, 17, 14)]:
        m = construct_map(a, b, A, B)
        back = parse_map(dump_map(m))
        assert verify_map(back) and back.target() == (A, B) and dump_map(back) == dump_map(m)
        maps += [m, back]
    assert reduced == [] and cleared == []
    assert maps[0] == maps[1] and reduced == ["components"] * 2
    _clear_search_cache()


def _group_invariant(r):
    """D'Angelo's group-invariant polynomial for m = 2r + 1, homogenized by t on HQ(2, 1): y^m plus
    (m / (m - k)) C(m - k, k) x^(m - 2k) y^k t^k for k = 0..r, minus t^m.  It is 1 on x + y = 1."""
    m = 2 * r + 1
    terms = {(0, m, 0): 1, (0, 0, m): -1}
    for k in range(r + 1):
        terms[(m - 2 * k, k, k)] = Fraction(m, m - k) * comb(m - k, k)
    return SignedRealPoly(2, 1, terms)


def test_group_invariant_sphere_maps_reach_degree_2n_minus_3():
    # with x = |z|^2 and y = |w|^2 each is a monomial map from the ball in C^2 into the ball in C^N,
    # N = r + 2, of degree 2N - 3: the sharp degree of D'Angelo, Kos and Riehl (2003), checked here
    # on these maps, not proved
    for r in range(1, 6):
        N, p = r + 2, _group_invariant(r)
        assert all(c.denominator == 1 for c in p.terms.values())
        assert is_admissible(p) == (True, (N, 1))
        ball = dehomogenize(p)
        assert (ball.a, ball.b, ball.target()) == (2, 0, (N, 0)) and verify_map(ball)
        assert max(sum(alpha) for *_, poly in ball.components.components for alpha in poly) == 2 * N - 3
        for alpha, c in p.terms.items():  # one coefficient changed
            assert not is_admissible(SignedRealPoly(2, 1, {**p.terms, alpha: c + 1}))[0]
        comps = ball.components.components
        for k, (sign, weight, poly) in enumerate(comps):  # one component's weight changed
            bent = comps[:k] + ((sign, weight * Fraction(8, 7), poly),) + comps[k + 1:]
            assert not verify_map(QuadricMap(2, 0, False, WeightedHoloMap(2, bent), ball.denominator))
    # (z^3, sqrt(3) zw, w^3) tensored at any of its components maps the ball into Q(4, 0)
    ball = dehomogenize(_group_invariant(1))
    for k in range(len(ball.components.components)):
        if k != ball.denominator:
            wider = tensor_extend(ball, k)
            assert wider.target() == (4, 0) and verify_map(wider)
