"""Command line front end.

One subcommand per library operation, text output by default, a single
JSON document with --json.  Identical invocations produce byte-identical
output.  Exit codes: 0 on success (a false verdict is still success), 1
on domain errors, 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

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
from .formats import component_str, dump_map, load_form, load_map, load_realpoly
from .forms import decompose, form_inertia, form_rank
from .multiindex import grlex_key
from .quadrics import (
    QuadricMap,
    construct_map,
    dehomogenize,
    is_admissible,
    reachable_signatures,
    tensor_extend,
    verify_map,
)
from .restrict import generic_restriction_rank, max_affine_rank, sz_failure_bound


def _print_json(doc: dict) -> None:
    doc["schema"] = 1
    print(json.dumps(doc, sort_keys=True, default=str))


def _components_doc(components) -> list:
    return [
        {
            "sign": sign,
            "weight": str(weight),
            "terms": [
                {"exponents": list(alpha), "re": str(poly[alpha].re), "im": str(poly[alpha].im)}
                for alpha in sorted(poly, key=grlex_key)
            ],
        }
        for sign, weight, poly in components
    ]


def _map_doc(m: QuadricMap) -> dict:
    return {
        "n": m.n,
        "a": m.a,
        "b": m.b,
        "homogeneous": m.homogeneous,
        "denominator": m.denominator,
        "target": list(m.target()),
        "components": _components_doc(m.components.components),
    }


def cmd_macaulay(args) -> int:
    rep = macaulay_rep(args.c, args.d)
    terms = list(rep.terms())
    if args.json:
        _print_json(
            {
                "command": "macaulay",
                "c": args.c,
                "d": args.d,
                "terms": [[k, i] for k, i in terms],
                "lower": rep.lower(),
            }
        )
        return 0
    body = " + ".join(f"C({k},{i})" for k, i in terms) if terms else "0"
    print(f"{args.c} = {body}")
    print(f"lower: {rep.lower()}")
    return 0


def _emit_value(args, command: str, inputs: dict, value) -> int:
    if args.json:
        doc = {"command": command, "value": value}
        doc.update(inputs)
        _print_json(doc)
    else:
        if isinstance(value, bool):
            print("true" if value else "false")
        else:
            print(value)
    return 0


# kind -> (function, argument names in order, help text)
_BOUNDS = {
    "g": (green_G, ("n", "d", "N"), "Green's bound G(n, d, N)"),
    "k": (green_K, ("n", "k"), "the subspace-restriction bound K_n(k)"),
    "compose": (compose_K, ("m", "n", "k"), "composed bound for m-plane restrictions"),
    "hermitian": (hermitian_R, ("m", "n", "k"), "Hermitian-form variant R(m, n, k)"),
    "rigidity": (rigidity_bound, ("a", "b", "B"), "largest target A for maps Q(a,b) -> Q(A,B)"),
    "stability": (stability_region, ("a", "b", "A", "B"), "membership in the constructive sector"),
}


def cmd_bound(args) -> int:
    func, names, _ = _BOUNDS[args.subcommand]
    inputs = {name: getattr(args, name) for name in names}
    return _emit_value(args, f"bound.{args.subcommand}", inputs, func(*inputs.values()))


def cmd_form_rank(args) -> int:
    form = load_form(args.file)
    return _emit_value(args, "form.rank", {"file": args.file}, form_rank(form))


def cmd_form_inertia(args) -> int:
    form = load_form(args.file)
    sig = form_inertia(form)
    if args.json:
        _print_json({"command": "form.inertia", "file": args.file, "value": list(sig)})
        return 0
    print(sig)
    return 0


def cmd_form_decompose(args) -> int:
    form = load_form(args.file)
    holo = decompose(form)
    if args.json:
        _print_json(
            {
                "command": "form.decompose",
                "file": args.file,
                "signature": list(holo.signature()),
                "components": _components_doc(holo.components),
            }
        )
        return 0
    for sign, weight, poly in holo.components:
        print(component_str(sign, weight, poly))
    if not args.quiet:
        print(f"signature: {holo.signature()}")
    return 0


def cmd_restrict_generic(args) -> int:
    form = load_form(args.file)
    rank = generic_restriction_rank(
        form, args.dim, trials=args.trials, seed=args.seed, coeff_bound=args.coeff_bound
    )
    if args.json:
        bound = sz_failure_bound(form, args.dim, args.trials, args.coeff_bound)
        _print_json(
            {
                "command": "restrict.generic",
                "file": args.file,
                "dim": args.dim,
                "trials": args.trials,
                "seed": args.seed,
                "value": rank,
                "failure_bound": str(bound),
            }
        )
        return 0
    print(rank)
    if not args.quiet:
        bound = sz_failure_bound(form, args.dim, args.trials, args.coeff_bound)
        print(f"failure bound: {bound}")
    return 0


def cmd_restrict_max(args) -> int:
    form = load_form(args.file)
    rank = max_affine_rank(
        form, args.dim, samples=args.samples, seed=args.seed, coeff_bound=args.coeff_bound
    )
    if args.json:
        _print_json(
            {
                "command": "restrict.max",
                "file": args.file,
                "dim": args.dim,
                "samples": args.samples,
                "seed": args.seed,
                "value": rank,
            }
        )
        return 0
    print(rank)
    return 0


def cmd_quadric_construct(args) -> int:
    m = construct_map(args.a, args.b, args.A, args.B, search_budget=args.budget)
    if args.json:
        doc = {"command": "quadric.construct", "source": [args.a, args.b]}
        doc.update(_map_doc(m))
        _print_json(doc)
        return 0
    sys.stdout.write(dump_map(m))
    return 0


def cmd_quadric_verify(args) -> int:
    m = load_map(args.file)
    verdict = verify_map(m)
    if args.json:
        _print_json(
            {
                "command": "quadric.verify",
                "file": args.file,
                "source": [m.a, m.b],
                "target": list(m.target()),
                "value": verdict,
            }
        )
        return 0
    print("true" if verdict else "false")
    return 0


def cmd_quadric_tensor(args) -> int:
    m = load_map(args.file)
    out = tensor_extend(m, args.component)
    if args.json:
        doc = {"command": "quadric.tensor", "file": args.file, "component": args.component}
        doc.update(_map_doc(out))
        _print_json(doc)
        return 0
    sys.stdout.write(dump_map(out))
    return 0


def cmd_quadric_dehomogenize(args) -> int:
    p = load_realpoly(args.file)
    out = dehomogenize(p)
    if args.json:
        doc = {"command": "quadric.dehomogenize", "file": args.file}
        doc.update(_map_doc(out))
        _print_json(doc)
        return 0
    sys.stdout.write(dump_map(out))
    return 0


def cmd_quadric_admissible(args) -> int:
    p = load_realpoly(args.file)
    ok, sig = is_admissible(p)
    if args.json:
        _print_json(
            {
                "command": "quadric.admissible",
                "file": args.file,
                "value": ok,
                "signature": list(sig),
            }
        )
        return 0
    print(f"admissible: {'true' if ok else 'false'}")
    print(f"signature: {sig}")
    return 0


def _sector(a: int, b: int, A: int, B: int) -> bool:
    return A >= 2 and B >= 2 and stability_region(a, b, A, B)


def cmd_quadric_region(args) -> int:
    a, b, size = args.a, args.b, args.max
    witnesses, hit = reachable_signatures(a, b, size, budget=args.budget)
    floor = a * a + a * b - 2 * a + 1
    lines = [
        f"A + B = {floor}",
        f"{a}*(B - {b - 1}) = {b - 1}*A",
        f"{a}*(A - {b - 1}) = {b - 1}*B",
    ]
    if args.json:
        sector_only = sorted(
            (A, B)
            for A in range(1, size + 1)
            for B in range(1, size + 1)
            if (A, B) not in witnesses and _sector(a, b, A, B)
        )
        _print_json(
            {
                "command": "quadric.region",
                "a": a,
                "b": b,
                "max": size,
                "budget": args.budget,
                "constructed": sorted(list(s) for s in witnesses),
                "sector_only": [list(s) for s in sector_only],
                "lines": lines,
                "budget_exhausted": hit,
            }
        )
        return 0
    width = len(str(size))
    for B in range(size, 0, -1):
        cells = []
        for A in range(1, size + 1):
            if (A, B) in witnesses:
                cells.append("@")
            elif _sector(a, b, A, B):
                cells.append("#")
            else:
                cells.append(".")
        print(f"B={B:<{width}} {''.join(cells)}")
    print(f"{' ' * (width + 2)} A=1..{size}")
    if not args.quiet:
        print("legend: @ constructed, # in sector without a witness, . unknown")
        print(f"sector lines: {lines[0]}; {lines[1]}; {lines[2]}")
        if hit:
            print("note: search budget exhausted; unmarked points may be reachable")
    return 0


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
        help="random rational coefficients use numerators and denominators up to this bound",
    )
    searched = argparse.ArgumentParser(add_help=False, parents=[common])
    searched.add_argument("--budget", type=int, default=10**5, help="search budget for lattice walks")

    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Exact rank bounds, Hermitian forms, restrictions, and hyperquadric maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("macaulay", parents=[common], help="Macaulay representation of c in degree d")
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_macaulay)

    bound = sub.add_parser("bound", help="combinatorial rank bounds")
    bsub = bound.add_subparsers(dest="subcommand", required=True, metavar="kind")

    for kind, (_, names, text) in _BOUNDS.items():
        p = bsub.add_parser(kind, parents=[common], help=text)
        for name in names:
            p.add_argument(name, type=int)
        p.set_defaults(func=cmd_bound)

    form = sub.add_parser("form", help="Hermitian form operations")
    fsub = form.add_subparsers(dest="subcommand", required=True, metavar="op")

    p = fsub.add_parser("rank", parents=[common], help="exact rank of a form file")
    p.add_argument("file")
    p.set_defaults(func=cmd_form_rank)

    p = fsub.add_parser("inertia", parents=[common], help="exact signature pair of a form file")
    p.add_argument("file")
    p.set_defaults(func=cmd_form_inertia)

    p = fsub.add_parser("decompose", parents=[common], help="signed weighted squares decomposition")
    p.add_argument("file")
    p.set_defaults(func=cmd_form_decompose)

    restrict = sub.add_parser("restrict", help="restriction ranks on random subspaces")
    rsub = restrict.add_subparsers(dest="subcommand", required=True, metavar="op")

    p = rsub.add_parser("generic", parents=[randomized], help="rank on a generic linear subspace")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=3, help="independent random trials")
    p.add_argument("--dim", type=int, required=True, help="subspace dimension")
    p.set_defaults(func=cmd_restrict_generic)

    p = rsub.add_parser("max", parents=[randomized], help="max rank over sampled affine subspaces")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True, help="subspace dimension")
    p.add_argument("--samples", type=int, default=8, help="number of sampled subspaces")
    p.set_defaults(func=cmd_restrict_max)

    quadric = sub.add_parser("quadric", help="maps between hyperquadrics")
    qsub = quadric.add_subparsers(dest="subcommand", required=True, metavar="op")

    p = qsub.add_parser("construct", parents=[searched], help="search for HQ(a,b) -> HQ(A,B)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)
    p.set_defaults(func=cmd_quadric_construct)

    p = qsub.add_parser("verify", parents=[common], help="exact verification of a map file")
    p.add_argument("file")
    p.set_defaults(func=cmd_quadric_verify)

    p = qsub.add_parser("tensor", parents=[common], help="tensor one component by the coordinates")
    p.add_argument("file")
    p.add_argument("--component", type=int, required=True, help="index of the component to tensor")
    p.set_defaults(func=cmd_quadric_tensor)

    p = qsub.add_parser("dehomogenize", parents=[common], help="rational affine map from a realpoly file")
    p.add_argument("file")
    p.set_defaults(func=cmd_quadric_dehomogenize)

    p = qsub.add_parser("admissible", parents=[common], help="admissibility and signature of a realpoly file")
    p.add_argument("file")
    p.set_defaults(func=cmd_quadric_admissible)

    p = qsub.add_parser("region", parents=[searched], help="text grid of reachable target signatures")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--max", type=int, required=True, help="grid extent in each coordinate")
    p.set_defaults(func=cmd_quadric_region)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
