"""Text formats for forms, real polynomials, and quadric maps.

Three line-oriented formats, each with a single header line followed by
one record per line.  `#` begins a comment anywhere; blank lines are
skipped.  Rationals are written `p/q` or as plain integers.

    form n=<n>
    a1 ... an ; b1 ... bn ; re ; im

    realpoly n=<a+b> a=<a> b=<b>
    e1 ... en ; p/q

    map n=<vars> a=<a> b=<b> A=<A> B=<B> homogeneous=<0|1> denominator=<index|none>
    <+|-> <weight p/q> :: <re>,<im> e1 ... en [; <re>,<im> e1 ... en]...

The map header's A and B count the positive and negative components as
listed (the denominator, when present, is counted among the negatives).

Forms and maps are read into, written from and printed from their integer
views, Gaussian integers (re, im) over one lcm: no GaussianRational here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ParseError
from .forms import HermitianForm, _entries_side, _form_side, _from_side, _holo_side, _PairPoly
from .linalg import _cleared
from .multiindex import MultiIndex, grlex_key
from .quadrics import QuadricMap, SignedRealPoly, _viewed
from .scalars import Rat


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fraction(token: str, filename: str, lineno: int) -> Rat:
    """The number a token writes: int(token) wherever int() reads it, else Fraction(token).  A token with an
    exponent is refused, as it asks for any size of integer."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        if "e" not in token and "E" not in token:
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(filename, lineno, f"expected a rational number, got {token!r}")


def _integer(token: str, filename: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(filename, lineno, f"expected an integer, got {token!r}") from None


def _header(text: str, kind: str, keys: Sequence[str], filename: str
            ) -> Tuple[Dict[str, str], int, Iterator[Tuple[int, str]]]:
    """The header's fields by key, its line number, and the content lines after it."""
    lines = _content_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError(filename, 1, f"empty input, expected a {kind} header") from None
    tokens = line.split()
    if not tokens or tokens[0] != kind:
        raise ParseError(filename, lineno, f"expected a {kind!r} header line")
    if len(tokens) != 1 + len(keys):
        raise ParseError(
            filename, lineno,
            f"{kind} header needs fields {' '.join(k + '=...' for k in keys)}",
        )
    out: Dict[str, str] = {}
    for key, token in zip(keys, tokens[1:]):
        prefix = key + "="
        if not token.startswith(prefix):
            raise ParseError(filename, lineno, f"expected {prefix}..., got {token!r}")
        out[key] = token[len(prefix):]
    return out, lineno, lines


def _exponents(tokens: Sequence[str], n: int, filename: str, lineno: int) -> MultiIndex:
    if len(tokens) != n:
        raise ParseError(filename, lineno, f"expected {n} exponents, got {len(tokens)}")
    try:
        alpha = tuple(map(int, tokens))
    except ValueError:  # names the first token that is not an integer
        alpha = tuple(_integer(t, filename, lineno) for t in tokens)
    if min(alpha, default=0) < 0:
        raise ParseError(filename, lineno, "exponents must be nonnegative")
    return alpha


def parse_form(text: str, filename: str = "<form>") -> HermitianForm:
    """The form of a form file, started from its integer view: `_cleared` puts the re and im tokens over the
    lcm of their denominators, as in parse_map, and `_entries_side` sums, mirrors and checks them."""
    fields, lineno, lines = _header(text, "form", ["n"], filename)
    n = _integer(fields["n"], filename, lineno)
    if n < 1:
        raise ParseError(filename, lineno, "n must be at least 1")
    rows, seen = [], {}  # seen: each exponent string is read once
    for lineno, line in lines:
        parts = line.split(";")
        if len(parts) != 4:
            raise ParseError(filename, lineno, "expected `alpha ; beta ; re ; im`")
        for part in parts[:2]:
            if part not in seen:
                seen[part] = _exponents(part.split(), n, filename, lineno)
        key = seen[parts[0]], seen[parts[1]]
        re, im = parts[2].strip(), parts[3].strip()
        rows.append((key, (_fraction(re, filename, lineno), _fraction(im, filename, lineno))))
    pairs, d = _cleared(x for _, x in rows)
    return _from_side(HermitianForm(n), "entries", _entries_side(((key, x) for (key, _), x in zip(rows, pairs)), d))


def dump_form(form: HermitianForm) -> str:
    support, flat, d = _form_side(form)
    out = [f"form n={form.n}"]
    for (i, j), (re, im) in sorted(flat.items()):  # support is grlex-sorted: the grlex order of (alpha, beta)
        out.append(f"{' '.join(map(str, support[i]))} ; {' '.join(map(str, support[j]))} ; "
                   f"{_ratio(re, d)} ; {_ratio(im, d)}")
    return "\n".join(out) + "\n"


def parse_realpoly(text: str, filename: str = "<realpoly>") -> SignedRealPoly:
    fields, lineno, lines = _header(text, "realpoly", ["n", "a", "b"], filename)
    n = _integer(fields["n"], filename, lineno)
    a = _integer(fields["a"], filename, lineno)
    b = _integer(fields["b"], filename, lineno)
    if a < 1 or b < 1:
        raise ParseError(filename, lineno, "the split needs a >= 1 and b >= 1")
    if n != a + b:
        raise ParseError(filename, lineno, f"n={n} does not equal a+b={a + b}")
    terms: Dict[MultiIndex, Fraction] = {}
    for lineno, line in lines:
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 2:
            raise ParseError(filename, lineno, "expected `e1 ... en ; p/q`")
        alpha = _exponents(parts[0].split(), n, filename, lineno)
        coeff = _fraction(parts[1], filename, lineno)
        terms[alpha] = terms.get(alpha, Fraction(0)) + coeff
    return SignedRealPoly(a, b, terms)


def dump_realpoly(p: SignedRealPoly) -> str:
    out = [f"realpoly n={p.n} a={p.a} b={p.b}"]
    for alpha in sorted(p.terms, key=grlex_key):
        out.append(f"{' '.join(map(str, alpha))} ; {p.terms[alpha]}")
    return "\n".join(out) + "\n"


def parse_map(text: str, filename: str = "<map>") -> QuadricMap:
    fields, lineno, lines = _header(text, "map", ["n", "a", "b", "A", "B", "homogeneous", "denominator"], filename)
    header_lineno = lineno
    n = _integer(fields["n"], filename, lineno)
    a = _integer(fields["a"], filename, lineno)
    b = _integer(fields["b"], filename, lineno)
    big_a = _integer(fields["A"], filename, lineno)
    big_b = _integer(fields["B"], filename, lineno)
    if a < 1 or b < 0:
        raise ParseError(filename, lineno, "the split needs a >= 1 and b >= 0")
    if n != a + b:
        raise ParseError(filename, lineno, f"n={n} does not equal a+b={a + b}")
    if fields["homogeneous"] not in ("0", "1"):
        raise ParseError(filename, lineno, "homogeneous must be 0 or 1")
    homogeneous = fields["homogeneous"] == "1"
    denominator: Optional[int]
    if fields["denominator"] == "none":
        denominator = None
    else:
        denominator = _integer(fields["denominator"], filename, lineno)

    rows: List[Tuple[int, Tuple[int, int], Dict[MultiIndex, Tuple[Rat, Rat]]]] = []
    for lineno, line in lines:
        halves = line.split("::")
        if len(halves) != 2:
            raise ParseError(filename, lineno, "expected `<sign> <weight> :: <terms>`")
        head = halves[0].split()
        if len(head) != 2 or head[0] not in ("+", "-"):
            raise ParseError(filename, lineno, "component must start with `+ <weight>` or `- <weight>`")
        sign = 1 if head[0] == "+" else -1
        weight = _fraction(head[1], filename, lineno)
        if weight.numerator <= 0:
            raise ParseError(filename, lineno, "weights must be positive")
        poly: Dict[MultiIndex, Tuple[Rat, Rat]] = {}
        for chunk in halves[1].split(";"):
            tokens = chunk.split()
            if not tokens:
                raise ParseError(filename, lineno, "empty term in component")
            if "," not in tokens[0]:
                raise ParseError(filename, lineno, "each term starts with `<re>,<im>`")
            re_tok, _, im_tok = tokens[0].partition(",")
            re, im = _fraction(re_tok, filename, lineno), _fraction(im_tok, filename, lineno)
            alpha = _exponents(tokens[1:], n, filename, lineno)
            if alpha in poly:
                re, im = re + poly[alpha][0], im + poly[alpha][1]
            if re or im:
                poly[alpha] = (re, im)
            else:
                poly.pop(alpha, None)
        if not poly:
            raise ParseError(filename, lineno, "the terms of this component cancel to zero")
        rows.append((sign, (weight.numerator, weight.denominator), poly))

    pos = sum(row[0] > 0 for row in rows)
    if (pos, len(rows) - pos) != (big_a, big_b):
        raise ParseError(
            filename, header_lineno,
            f"header says A={big_a} B={big_b} but the components count ({pos}, {len(rows) - pos})",
        )
    if denominator is not None and not (0 <= denominator < len(rows) and rows[denominator][0] < 0):
        raise ParseError(filename, header_lineno, f"denominator={denominator} names no negative component")
    pairs, d = _cleared(x for _, _, poly in rows for x in poly.values())  # the map's integer view, as in _holo_side
    it = iter(pairs)
    return _viewed(a, b, homogeneous, denominator, (d, tuple((sign, weight, {alpha: next(it) for alpha in poly})
                                                              for sign, weight, poly in rows)))


def _ratio(x: int, d: int) -> str:
    """x / d, d > 0, as Fraction prints it."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def dump_map(m: QuadricMap) -> str:
    d, rows = _holo_side(m.components)
    pos, neg = m.sign_counts()
    denom = "none" if m.denominator is None else str(m.denominator)
    out = [
        f"map n={m.n} a={m.a} b={m.b} A={pos} B={neg} "
        f"homogeneous={1 if m.homogeneous else 0} denominator={denom}"
    ]
    for sign, (wn, wd), poly in rows:
        ordered = sorted(poly.items(), key=lambda term: grlex_key(term[0])) if len(poly) > 1 else poly.items()
        terms = " ; ".join(f"{_ratio(re, d)},{_ratio(im, d)} {' '.join(map(str, alpha))}" for alpha, (re, im) in ordered)
        out.append(f"{'+' if sign > 0 else '-'} {_ratio(wn, wd)} :: {terms}")
    return "\n".join(out) + "\n"


def load_form(path: str) -> HermitianForm:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_form(fh.read(), path)


def load_realpoly(path: str) -> SignedRealPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_realpoly(fh.read(), path)


def load_map(path: str) -> QuadricMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map(fh.read(), path)


def monomial_str(alpha: MultiIndex) -> str:
    parts = []
    for i, e in enumerate(alpha):
        if e == 1:
            parts.append(f"z{i + 1}")
        elif e > 1:
            parts.append(f"z{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _coeff_str(re: int, im: int, d: int) -> str:
    """(re + i im) / d as `re`, `imi` or `re+imi`, in parentheses unless it is real and not negative."""
    text = f"{_ratio(re, d) if re else ''}{'+' if re and im > 0 else ''}{_ratio(im, d)}i" if im else _ratio(re, d)
    return f"({text})" if im or re < 0 else text


def poly_str(poly: _PairPoly, d: int) -> str:
    """Human-readable sum of monomials, grlex order, with exact coefficients (re + i im) / d."""
    parts = []
    for alpha in sorted(poly, key=grlex_key):
        mono, coeff = monomial_str(alpha), _coeff_str(*poly[alpha], d)
        parts.append(coeff if mono == "1" else mono if poly[alpha] == (d, 0) else f"{coeff}*{mono}")
    return " + ".join(parts) or "0"


def component_str(sign: int, weight: Tuple[int, int], poly: _PairPoly, d: int) -> str:
    """One decomposition summand, a row of `_holo_side` over d, its weight kept under a symbolic sqrt."""
    scale = "" if weight == (1, 1) else f"sqrt({_ratio(*weight)})*"
    return f"{'+' if sign > 0 else '-'} |{scale}({poly_str(poly, d)})|^2"
