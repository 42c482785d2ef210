"""Round trips and error reporting for the three text formats."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from hyperq.cli import main
from hyperq.errors import ParseError
from hyperq.formats import (
    _fraction,
    component_str,
    dump_form,
    dump_map,
    dump_realpoly,
    load_form,
    load_map,
    monomial_str,
    parse_form,
    parse_map,
    parse_realpoly,
    poly_str,
)
from hyperq.forms import HermitianForm, WeightedHoloMap, _form_side, _holo_side, decompose, form_from_entries
from hyperq.multiindex import grlex_key
from hyperq.quadrics import (
    SignedRealPoly,
    construct_map,
    corner_move,
    dehomogenize,
    identity_map,
    s_poly,
    tensor_extend,
)
from hyperq.scalars import GaussianRational, gr

GOLDEN_FORMS = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.form"))


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
    # tokens that int() reads give an int, the rest go through Fraction(str): same values, same errors,
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
            try:
                int(token)
            except ValueError:
                kind = Fraction
            else:
                kind = int
            assert type(got) is kind and got == want
        # a map coefficient reads the same value or the same error
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
    assert poly_str({(1, 0): (1, 0), (0, 1): (0, 1)}, 1) == "z1 + (1i)*z2"
    assert poly_str({(1, 0): (3, 0), (0, 1): (0, 3)}, 3) == "z1 + (1i)*z2"
    assert poly_str({}, 1) == "0"
    assert component_str(1, (1, 2), {(1, 0): (1, 0), (0, 1): (1, 0)}, 1) == "+ |sqrt(1/2)*(z1 + z2)|^2"
    assert component_str(-1, (1, 1), {(1, 1): (2, 0)}, 2) == "- |(z1*z2)|^2"


def _form_text(rng, n):
    """A Hermitian form file: entries split over repeated lines, pairs with one or both mirrors
    listed, listed zeros with no mirror, signed integer and p/q tokens over 1, 2, 3, 5 and 7."""
    def token(x):
        return f"+{x}" if x >= 0 and rng.random() < 0.3 else str(x)

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7)))

    lines, used = [f"form n={n}"], set()
    for _ in range(rng.randint(0, 9)):
        alpha, beta = (tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2))
        if (alpha, beta) in used:
            continue
        used |= {(alpha, beta), (beta, alpha)}
        if rng.random() < 0.15:  # a listed zero with no mirror
            lines.append(f"{' '.join(map(str, alpha))} ; {' '.join(map(str, beta))} ; 0 ; {token(0)}")
            continue
        re, im = value(), (value() if alpha != beta else 0)
        keys = [(alpha, beta, re, im)] + ([(beta, alpha, re, -im)] if alpha != beta and rng.random() < 0.5 else [])
        for a, b, x, y in keys:
            part_x, part_y = value(), (value() if a != b else 0)
            pieces = [(part_x, part_y), (x - part_x, y - part_y)] if rng.random() < 0.4 else [(x, y)]
            for px, py in pieces:  # two pieces of one entry are two repeated lines that accumulate
                lines.append(f"{' '.join(map(str, a))} ; {' '.join(map(str, b))} ; {token(px)} ; {token(py)}")
    rng.shuffle(lines[1:])
    return "\n".join(lines) + "\n"


def test_parsed_form_side_equals_the_side_its_entries_clear_to():
    # parse_form builds the side from its tokens; a form built directly from the entries that side
    # reduces to is cleared at its first read: the two paths must give the same side and bytes
    rng = Random(2532)
    texts = [path.read_text(encoding="utf-8") for path in GOLDEN_FORMS]
    texts += [_form_text(rng, rng.randint(1, 3)) for _ in range(150)]
    assert len(GOLDEN_FORMS) >= 5
    for text in texts:
        form = parse_form(text)
        plain = HermitianForm(form.n, dict(form.entries))
        assert _form_side(form) == _form_side(plain)
        assert dump_form(form) == dump_form(plain)
        assert form == plain and parse_form(dump_form(form)) == form


def _gr_coeff_str(c):
    text = str(c)
    if c.im != 0 or c.re < 0:
        return f"({text})"
    return text


def _gr_poly_str(poly):
    """The component printer on GaussianRational coefficients that the view printer replaced."""
    if not poly:
        return "0"
    parts = []
    for alpha in sorted(poly, key=grlex_key):
        c = GaussianRational.coerce(poly[alpha])
        mono = monomial_str(alpha)
        if mono == "1":
            parts.append(_gr_coeff_str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{_gr_coeff_str(c)}*{mono}")
    return " + ".join(parts)


def _gr_component_str(sign, weight, poly):
    scale = "" if weight == 1 else f"sqrt({weight})*"
    return f"{'+' if sign > 0 else '-'} |{scale}({_gr_poly_str(poly)})|^2"


def test_view_printer_matches_the_gaussian_rational_printer():
    rng = Random(2533)
    kinds = set()

    def coeff():
        x, y = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3))), Fraction(rng.randint(-7, 7), rng.choice((1, 5)))
        kind = rng.choice(("unit", "negative unit", "real", "imaginary", "mixed"))
        return {"unit": gr(1), "negative unit": gr(-1), "real": gr(x or 1), "imaginary": gr(0, y or 1),
                "mixed": gr(x or 1, y or 1)}[kind]

    holos = [decompose(parse_form(path.read_text(encoding="utf-8"))) for path in GOLDEN_FORMS]
    holos += [decompose(parse_form(_form_text(rng, rng.randint(1, 3)))) for _ in range(40)]
    for _ in range(60):
        n = rng.randint(1, 3)
        holos.append(WeightedHoloMap(n, tuple(
            (rng.choice((1, -1)), Fraction(rng.randint(1, 9), rng.randint(1, 4)),
             {tuple(rng.randint(0, 2) for _ in range(n)): coeff() for _ in range(rng.randint(1, 4))})
            for _ in range(rng.randint(1, 3)))))
    for holo in holos:
        d, rows = _holo_side(holo)
        assert [component_str(*row, d) for row in rows] == [_gr_component_str(*c) for c in holo.components]
        for _, _, poly in holo.components:
            for alpha, c in poly.items():
                kinds.add(("constant " if not any(alpha) else "")
                          + ("unit" if c == 1 else "negative unit" if c == -1 else "real" if not c.im
                             else "imaginary" if not c.re else "mixed"))
    assert kinds >= {"unit", "negative unit", "real", "imaginary", "mixed",
                     "constant unit", "constant negative unit", "constant real", "constant imaginary", "constant mixed"}


def test_form_files_and_form_commands_build_no_gaussian_rational(monkeypatch, capsys):
    built = []
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for path in GOLDEN_FORMS:
        load_form(str(path))
        for leaf in ("rank", "inertia", "decompose"):
            for json in ([], ["--json"]):
                assert main(["form", leaf, str(path), *json]) == 0
    assert built == []
    assert capsys.readouterr().out.count("signature") == 2 * len(GOLDEN_FORMS)
    gr(1)
    assert built
