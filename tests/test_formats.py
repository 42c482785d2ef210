"""Round trips and error reporting for the three text formats."""

from fractions import Fraction
from random import Random

import pytest

from hyperq.errors import ParseError
from hyperq.formats import (
    _fraction,
    component_str,
    dump_form,
    dump_map,
    dump_realpoly,
    load_map,
    monomial_str,
    parse_form,
    parse_map,
    parse_realpoly,
    poly_str,
)
from hyperq.forms import form_from_entries
from hyperq.quadrics import (
    SignedRealPoly,
    construct_map,
    corner_move,
    dehomogenize,
    identity_map,
    s_poly,
    tensor_extend,
)
from hyperq.scalars import gr


def random_form(rng, n):
    entries = []
    for _ in range(rng.randint(1, 6)):
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        if alpha == beta:
            entries.append((alpha, beta, gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))))
        else:
            if alpha > beta:
                alpha, beta = beta, alpha
            c = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5)))
            entries.append((alpha, beta, c))
    return form_from_entries(n, entries)


def test_form_roundtrip():
    rng = Random(1)
    for _ in range(25):
        f = random_form(rng, rng.randint(1, 4))
        assert parse_form(dump_form(f)) == f


def test_realpoly_roundtrip():
    polys = [
        s_poly(2, 1),
        s_poly(3, 2),
        corner_move(s_poly(2, 2), (2, 1)),
        SignedRealPoly(2, 1, {(1, 2, 0): Fraction(7, 3), (0, 0, 3): -2}),
    ]
    for p in polys:
        q = parse_realpoly(dump_realpoly(p))
        assert (q.a, q.b, q.terms) == (p.a, p.b, p.terms)


def test_map_roundtrip():
    maps = [
        identity_map(2, 1),
        tensor_extend(identity_map(2, 1), 2),
        construct_map(2, 2, 5, 4),
        dehomogenize(corner_move(s_poly(2, 2), (2, 1))),
    ]
    for m in maps:
        assert parse_map(dump_map(m)) == m


def test_map_roundtrip_file(tmp_path):
    m = construct_map(3, 2, 6, 5)
    path = tmp_path / "map.txt"
    path.write_text(dump_map(m), encoding="utf-8")
    assert load_map(str(path)) == m


def test_comments_and_blanks():
    text = """
# leading comment
realpoly n=3 a=2 b=1   # trailing comment

1 0 0 ; 1
0 1 0 ; 1  # another
0 0 1 ; -1
"""
    p = parse_realpoly(text)
    assert (p.a, p.b, p.terms) == (2, 1, s_poly(2, 1).terms)


def test_repeated_monomials_accumulate():
    text = "realpoly n=2 a=1 b=1\n1 0 ; 2\n1 0 ; -1/2\n0 1 ; 1\n0 1 ; -1\n"
    p = parse_realpoly(text)
    assert p.terms == {(1, 0): Fraction(3, 2)}


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_form("", "f.txt")
    assert (exc.value.filename, exc.value.lineno) == ("f.txt", 1)
    assert str(exc.value).startswith("f.txt:1:")

    with pytest.raises(ParseError) as exc:
        parse_form("form n=2\n# fine\n1 0 ; 1 0 ; 1\n", "f.txt")
    assert exc.value.lineno == 3

    with pytest.raises(ParseError) as exc:
        parse_form("form n=2\n1 0 0 ; 1 0 ; 1 ; 0\n", "f.txt")
    assert exc.value.lineno == 2

    with pytest.raises(ParseError) as exc:
        parse_form("form n=2\n1 -1 ; 1 0 ; 1 ; 0\n", "f.txt")
    assert exc.value.lineno == 2

    with pytest.raises(ParseError) as exc:
        parse_form("form n=2\n1 0 ; 1 0 ; one ; 0\n", "f.txt")
    assert "rational" in exc.value.message


def test_number_tokens_read_as_fraction_reads_them():
    # integer tokens go through int(), the rest through Fraction(str): same values, same errors,
    # except that exponents are refused, since 1e10000000 would build a 33-million-bit integer
    tokens = ["3", "+3", "-0", "007", "1_0", "\u0663", "1.5", "1e3", "1E3", "-3/6", "2/1", "+-5", "--5", "\u00b2",
              "1/0", "one", "0x10", "-", "3/", "", "5 ", "+3/4", "3/04", "2/-1", "+-3/4", "\u0663/4", "3/\u00b2",
              "1_0/3", "/4", "3/4/5", "-0/7"]
    for token in tokens:
        want = None
        try:
            if "e" in token.lower():
                raise ValueError(token)
            want = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError) as exc:
                _fraction(token, "m.txt", 4)
            assert (exc.value.lineno, exc.value.message) == (4, f"expected a rational number, got {token!r}")
        else:
            got = _fraction(token, "m.txt", 4)
            assert type(got) is Fraction and got == want
        # a map coefficient goes through int() first, and reads the same value or the same error
        if token.strip() == token and token:
            text = f"map n=1 a=1 b=0 A=1 B=0 homogeneous=0 denominator=none\n+ 1 :: 1,{token} 1\n"
            if want is not None:
                assert parse_map(text).components.components[0][2] == {(1,): gr(1, want)}
            else:
                with pytest.raises(ParseError, match="expected a rational number"):
                    parse_map(text)


def test_parse_error_headers():
    with pytest.raises(ParseError):
        parse_form("realpoly n=2 a=1 b=1\n")
    with pytest.raises(ParseError):
        parse_realpoly("realpoly n=2 a=1\n")
    with pytest.raises(ParseError):
        parse_realpoly("realpoly n=4 a=2 b=1\n")
    with pytest.raises(ParseError):
        parse_realpoly("realpoly n=0 a=0 b=0\n")
    with pytest.raises(ParseError):
        parse_map("map n=3 a=2 b=2 A=1 B=1 homogeneous=0 denominator=none\n")
    with pytest.raises(ParseError):
        parse_map("map n=3 a=2 b=1 A=1 B=1 homogeneous=2 denominator=none\n")


MAP_KEYS = "n=... a=... b=... A=... B=... homogeneous=... denominator=..."


@pytest.mark.parametrize("parse, text, lineno, message", [
    (parse_form, "", 1, "empty input, expected a form header"),
    (parse_form, "# only a comment\n\n   # another\n", 1, "empty input, expected a form header"),
    (parse_form, "\n# c\nrealpoly n=2 a=1 b=1\n", 3, "expected a 'form' header line"),
    (parse_form, "form\n", 1, "form header needs fields n=..."),
    (parse_form, "form n=2 a=1\n", 1, "form header needs fields n=..."),
    (parse_form, "# c\nform m=2\n", 2, "expected n=..., got 'm=2'"),
    (parse_form, "form n=x\n", 1, "expected an integer, got 'x'"),
    (parse_form, "form n=0\n", 1, "n must be at least 1"),
    (parse_realpoly, "", 1, "empty input, expected a realpoly header"),
    (parse_realpoly, "#\n", 1, "empty input, expected a realpoly header"),
    (parse_realpoly, "form n=2\n", 1, "expected a 'realpoly' header line"),
    (parse_realpoly, "realpoly n=2 a=1\n", 1, "realpoly header needs fields n=... a=... b=..."),
    (parse_realpoly, "\nrealpoly n=2 a=1 c=1\n", 2, "expected b=..., got 'c=1'"),
    (parse_realpoly, "realpoly n=2 b=1 a=1\n", 1, "expected a=..., got 'b=1'"),
    (parse_map, "", 1, "empty input, expected a map header"),
    (parse_map, "  \n# x\n", 1, "empty input, expected a map header"),
    (parse_map, "# c\n\nform n=3\n", 3, "expected a 'map' header line"),
    (parse_map, "map n=3 a=2 b=1 A=2 B=1 homogeneous=0\n", 1, f"map header needs fields {MAP_KEYS}"),
    (parse_map, "map n=3 a=2 b=1 A=2 B=1 homogeneous=0 denom=none\n", 1, "expected denominator=..., got 'denom=none'"),
    (parse_map, "map n=3 a=2 b=1 A=2 B=1 denominator=none homogeneous=0\n", 1,
     "expected homogeneous=..., got 'denominator=none'"),
])
def test_header_errors(parse, text, lineno, message):
    with pytest.raises(ParseError) as exc:
        parse(text, "h.txt")
    assert (exc.value.filename, exc.value.lineno, exc.value.message) == ("h.txt", lineno, message)


def test_parse_map_component_errors():
    header = "map n=2 a=1 b=1 A=1 B=1 homogeneous=0 denominator=none\n"
    with pytest.raises(ParseError) as exc:
        parse_map(header + "+ 1 1,0 1 0\n", "m.txt")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError):
        parse_map(header + "* 1 :: 1,0 1 0\n- 1 :: 1,0 0 1\n")
    with pytest.raises(ParseError):
        parse_map(header + "+ 0 :: 1,0 1 0\n- 1 :: 1,0 0 1\n")
    with pytest.raises(ParseError):
        parse_map(header + "+ 1 :: 1 1 0\n- 1 :: 1,0 0 1\n")


def test_parse_map_cancelling_component_is_parse_error():
    text = (
        "map n=2 a=1 b=1 A=1 B=1 homogeneous=0 denominator=none\n"
        "+ 1 :: 1,0 1 0 ; -1,0 1 0\n"
        "- 1 :: 1,0 0 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_map(text, "m.txt")
    assert exc.value.lineno == 2
    assert "cancel" in exc.value.message


def test_parse_map_drops_zero_and_cancelled_terms():
    # a new monomial's coefficient is stored as read, but only when nonzero
    text = (
        "map n=2 a=1 b=1 A=1 B=1 homogeneous=0 denominator=none\n"
        "+ 1 :: 0,0 1 0 ; 1,0 0 1 ; 2,1 1 1 ; -2,-1 1 1 ; 1/2,0 0 1\n"
        "- 1 :: 0,1 1 0\n"
    )
    comps = parse_map(text).components.components
    assert [poly for _, _, poly in comps] == [{(0, 1): gr(Fraction(3, 2))}, {(1, 0): gr(0, 1)}]


def test_parse_map_header_count_mismatch():
    text = (
        "map n=2 a=1 b=1 A=2 B=0 homogeneous=0 denominator=none\n"
        "+ 1 :: 1,0 1 0\n"
        "- 1 :: 1,0 0 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_map(text, "m.txt")
    assert exc.value.lineno == 1
    assert "count (1, 1)" in exc.value.message


def test_parse_map_bad_denominator_is_parse_error():
    text = (
        "map n=2 a=1 b=1 A=1 B=1 homogeneous=0 denominator=0\n"
        "+ 1 :: 1,0 1 0\n"
        "- 1 :: 1,0 0 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert exc.value.lineno == 1
    text2 = (
        "map n=2 a=1 b=1 A=1 B=1 homogeneous=0 denominator=9\n"
        "+ 1 :: 1,0 1 0\n"
        "- 1 :: 1,0 0 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_map(text2)
    assert exc.value.lineno == 1


def test_pretty_printers():
    assert monomial_str((2, 0, 1)) == "z1^2*z3"
    assert monomial_str((0, 0)) == "1"
    assert poly_str({(1, 0): gr(1), (0, 1): gr(0, 1)}) == "z1 + (1i)*z2"
    assert poly_str({}) == "0"
    assert component_str(1, Fraction(1, 2), {(1, 0): gr(1), (0, 1): gr(1)}) == "+ |sqrt(1/2)*(z1 + z2)|^2"
    assert component_str(-1, Fraction(1), {(1, 1): gr(1)}) == "- |(z1*z2)|^2"
