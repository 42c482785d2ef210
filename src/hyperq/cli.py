"""Command line front end.

One subcommand per library operation, text output by default, a single
JSON document with --json.  Identical invocations produce byte-identical
output.  Exit codes: 0 on success (a false verdict is still success), 1
on domain errors, 2 on parse or usage errors.

Each cmd_* returns (doc, text): the JSON fields and the exact text
output, --quiet already applied; main prints one of the two.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Tuple

from .combinat import (
    compose_K,
    green_G,
    green_K,
    hermitian_R,
    macaulay_rep,
    rigidity_bound,
    stability_region,
)
from .errors import HyperqError, ParseError
from .formats import _ratio, component_str, dump_map, load_form, load_map, load_realpoly
from .forms import WeightedHoloMap, _holo_side, decompose, form_inertia, form_rank
from .multiindex import grlex_key
from .quadrics import (
    QuadricMap,
    _reachable,
    construct_map,
    dehomogenize,
    is_admissible,
    tensor_extend,
    verify_map,
)
from .restrict import generic_restriction_rank, max_affine_rank, sz_failure_bound


def _components_doc(holo: WeightedHoloMap) -> list:
    """The components as JSON, read off their integer view, so none is reduced to GaussianRationals."""
    d, rows = _holo_side(holo)
    return [
        {
            "sign": sign,
            "weight": _ratio(wn, wd),
            "terms": [
                {"exponents": list(alpha), "re": _ratio(poly[alpha][0], d), "im": _ratio(poly[alpha][1], d)}
                for alpha in sorted(poly, key=grlex_key)
            ],
        }
        for sign, (wn, wd), poly in rows
    ]


def _lines(*values) -> str:
    """Text output, one value per line; booleans print as true/false."""
    words = (("true" if v else "false") if isinstance(v, bool) else v for v in values)
    return "".join(f"{word}\n" for word in words)


def _whole(render, *args, **kwargs):
    """render(*args, **kwargs) with no limit on the digits of an int printed: the limit bounds int() of
    input, all parsed by then, and a computed value prints exactly at any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(limit)


def _map_output(doc: dict, m: QuadricMap) -> Tuple[dict, str]:
    """doc with the map's fields added, and the map file text."""
    doc.update(
        {
            "n": m.n,
            "a": m.a,
            "b": m.b,
            "homogeneous": m.homogeneous,
            "denominator": m.denominator,
            "target": list(m.target()),
            "components": _components_doc(m.components),
        }
    )
    return doc, dump_map(m)


def cmd_macaulay(args) -> Tuple[dict, str]:
    rep = macaulay_rep(args.c, args.d)
    terms, lower = list(rep.terms()), rep.lower()
    doc = {"c": args.c, "d": args.d, "terms": [[k, i] for k, i in terms], "lower": lower}
    body = " + ".join(f"C({k},{i})" for k, i in terms)
    return doc, _lines(f"{args.c} = {body}", f"lower: {lower}")


# kind -> (function, argument names in order, help text)
_BOUNDS = {
    "g": (green_G, ("n", "d", "N"), "Green's bound G(n, d, N)"),
    "k": (green_K, ("n", "k"), "the subspace-restriction bound K_n(k)"),
    "compose": (compose_K, ("m", "n", "k"), "composed bound for m-plane restrictions"),
    "hermitian": (hermitian_R, ("m", "n", "k"), "Hermitian-form variant R(m, n, k)"),
    "rigidity": (rigidity_bound, ("a", "b", "B"), "largest target A for maps Q(a,b) -> Q(A,B)"),
    "stability": (stability_region, ("a", "b", "A", "B"), "membership in the constructive sector"),
}


def cmd_bound(args) -> Tuple[dict, str]:
    func, names, _ = _BOUNDS[args.subcommand]
    inputs = {name: getattr(args, name) for name in names}
    value = func(*inputs.values())
    return {**inputs, "value": value}, _whole(_lines, value)


def cmd_form_rank(args) -> Tuple[dict, str]:
    rank = form_rank(load_form(args.file))
    return {"file": args.file, "value": rank}, _lines(rank)


def cmd_form_inertia(args) -> Tuple[dict, str]:
    sig = form_inertia(load_form(args.file))
    return {"file": args.file, "value": list(sig)}, _lines(sig)


def cmd_form_decompose(args) -> Tuple[dict, str]:
    holo = decompose(load_form(args.file))
    doc = {
        "file": args.file,
        "signature": list(holo.signature()),
        "components": _components_doc(holo),
    }
    d, rows = _holo_side(holo)
    lines = [component_str(*row, d) for row in rows]
    if not args.quiet:
        lines.append(f"signature: {holo.signature()}")
    return doc, _lines(*lines)


def cmd_restrict_generic(args) -> Tuple[dict, str]:
    form = load_form(args.file)
    rank = generic_restriction_rank(
        form, args.dim, trials=args.trials, seed=args.seed, coeff_bound=args.coeff_bound
    )
    bound = sz_failure_bound(form, args.dim, args.trials, args.coeff_bound)
    doc = {
        "file": args.file,
        "dim": args.dim,
        "trials": args.trials,
        "seed": args.seed,
        "value": rank,
        "failure_bound": str(bound),
    }
    lines = [rank] if args.quiet else [rank, f"failure bound: {bound}"]
    return doc, _lines(*lines)


def cmd_restrict_max(args) -> Tuple[dict, str]:
    form = load_form(args.file)
    rank = max_affine_rank(
        form, args.dim, samples=args.samples, seed=args.seed, coeff_bound=args.coeff_bound
    )
    doc = {"file": args.file, "dim": args.dim, "samples": args.samples, "seed": args.seed, "value": rank}
    return doc, _lines(rank)


def cmd_quadric_construct(args) -> Tuple[dict, str]:
    m = construct_map(args.a, args.b, args.A, args.B, search_budget=args.budget)
    return _map_output({"source": [args.a, args.b]}, m)


def cmd_quadric_verify(args) -> Tuple[dict, str]:
    m = load_map(args.file)
    verdict = verify_map(m)
    doc = {"file": args.file, "source": [m.a, m.b], "target": list(m.target()), "value": verdict}
    return doc, _lines(verdict)


def cmd_quadric_tensor(args) -> Tuple[dict, str]:
    out = tensor_extend(load_map(args.file), args.component)
    return _map_output({"file": args.file, "component": args.component}, out)


def cmd_quadric_dehomogenize(args) -> Tuple[dict, str]:
    out = dehomogenize(load_realpoly(args.file))
    return _map_output({"file": args.file}, out)


def cmd_quadric_admissible(args) -> Tuple[dict, str]:
    ok, sig = is_admissible(load_realpoly(args.file))
    doc = {"file": args.file, "value": ok, "signature": list(sig)}
    return doc, _lines(f"admissible: {'true' if ok else 'false'}", f"signature: {sig}")


def cmd_quadric_region(args) -> Tuple[dict, str]:
    a, b, size = args.a, args.b, args.max
    witnesses, hit, _ = _reachable(a, b, size, args.budget)
    sector_only = {
        (A, B)
        for A in range(2, size + 1)
        for B in range(2, size + 1)
        if (A, B) not in witnesses and stability_region(a, b, A, B)
    }
    floor = a * a + a * b - 2 * a + 1
    sector_lines = [
        f"A + B = {floor}",
        f"{a}*(B - {b - 1}) = {b - 1}*A",
        f"{a}*(A - {b - 1}) = {b - 1}*B",
    ]
    doc = {
        "a": a,
        "b": b,
        "max": size,
        "budget": args.budget,
        "constructed": sorted(list(s) for s in witnesses),
        "sector_only": sorted(list(s) for s in sector_only),
        "lines": sector_lines,
        "budget_exhausted": hit,
    }
    width = len(str(size))
    lines = []
    for B in range(size, 0, -1):
        cells = "".join(
            "@" if (A, B) in witnesses else "#" if (A, B) in sector_only else "."
            for A in range(1, size + 1)
        )
        lines.append(f"B={B:<{width}} {cells}")
    lines.append(f"{' ' * (width + 2)} A=1..{size}")
    if not args.quiet:
        lines.append("legend: @ constructed, # in sector without a witness, . unknown")
        lines.append(f"sector lines: {'; '.join(sector_lines)}")
        if hit:
            lines.append("note: search budget exhausted; unmarked points may be reachable")
    return doc, _lines(*lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first main() call and reused."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one machine-readable JSON document")
    common.add_argument("--quiet", action="store_true", help="suppress supplementary text output")
    randomized = argparse.ArgumentParser(add_help=False, parents=[common])
    randomized.add_argument("--seed", type=int, default=0, help="master seed for randomized operations")
    randomized.add_argument(
        "--coeff-bound",
        dest="coeff_bound",
        type=int,
        default=10**6,
        help="random parameters x + iy use 1 <= x, y <= this bound",
    )
    searched = argparse.ArgumentParser(add_help=False, parents=[common])
    searched.add_argument("--budget", type=int, default=10**5, help="search budget for lattice walks")

    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Exact rank bounds, Hermitian forms, restrictions, and hyperquadric maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def leaf(group, name, func, text, *positionals, parent=common):
        # positionals are ints, except a file name
        p = group.add_parser(name, parents=[parent], help=text)
        for arg in positionals:
            p.add_argument(arg, type=str if arg == "file" else int)
        p.set_defaults(func=func)
        return p

    leaf(sub, "macaulay", cmd_macaulay, "Macaulay representation of c in degree d", "c", "d")

    bound = sub.add_parser("bound", help="combinatorial rank bounds")
    bsub = bound.add_subparsers(dest="subcommand", required=True, metavar="kind")
    for kind, (_, names, text) in _BOUNDS.items():
        leaf(bsub, kind, cmd_bound, text, *names)

    form = sub.add_parser("form", help="Hermitian form operations")
    fsub = form.add_subparsers(dest="subcommand", required=True, metavar="op")
    leaf(fsub, "rank", cmd_form_rank, "exact rank of a form file", "file")
    leaf(fsub, "inertia", cmd_form_inertia, "exact signature pair of a form file", "file")
    leaf(fsub, "decompose", cmd_form_decompose, "signed weighted squares decomposition", "file")

    restrict = sub.add_parser("restrict", help="restriction ranks on random subspaces")
    rsub = restrict.add_subparsers(dest="subcommand", required=True, metavar="op")
    p = leaf(
        rsub, "generic", cmd_restrict_generic, "rank on a generic linear subspace", "file", parent=randomized
    )
    p.add_argument("--trials", type=int, default=3, help="independent random trials")
    p.add_argument("--dim", type=int, required=True, help="subspace dimension")
    p = leaf(
        rsub, "max", cmd_restrict_max, "max rank over sampled affine subspaces", "file", parent=randomized
    )
    p.add_argument("--dim", type=int, required=True, help="subspace dimension")
    p.add_argument("--samples", type=int, default=8, help="number of sampled subspaces")

    quadric = sub.add_parser("quadric", help="maps between hyperquadrics")
    qsub = quadric.add_subparsers(dest="subcommand", required=True, metavar="op")
    leaf(
        qsub, "construct", cmd_quadric_construct, "search for HQ(a,b) -> HQ(A,B)",
        "a", "b", "A", "B", parent=searched,
    )
    leaf(qsub, "verify", cmd_quadric_verify, "exact verification of a map file", "file")
    p = leaf(qsub, "tensor", cmd_quadric_tensor, "tensor one component by the coordinates", "file")
    p.add_argument("--component", type=int, required=True, help="index of the component to tensor")
    leaf(qsub, "dehomogenize", cmd_quadric_dehomogenize, "rational affine map from a realpoly file", "file")
    leaf(qsub, "admissible", cmd_quadric_admissible, "admissibility and signature of a realpoly file", "file")
    p = leaf(
        qsub, "region", cmd_quadric_region, "text grid of reachable target signatures",
        "a", "b", parent=searched,
    )
    p.add_argument("--max", type=int, required=True, help="grid extent in each coordinate")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, text = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except HyperqError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        leaf = [args.command] + ([args.subcommand] if "subcommand" in args else [])
        doc.update(command=".".join(leaf), schema=1)
        print(_whole(json.dumps, doc, sort_keys=True, default=str))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
