"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations, runs one
operation at a time against the hyperq package it is handed, and checks
the answers afterwards.  Inputs depend only on the seed and the number
of rounds; hyperq sees only the generated inputs.  Costly input
parameters are stratified over the batch (every stratum gets one draw),
so two seeds give batches of nearly the same total cost.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb
from random import Random
from typing import Callable, Dict, List, Sequence, Tuple

import checks


def stratified(rng: Random, lo: int, hi: int, count: int) -> List[int]:
    """count integers in [lo, hi], one drawn from each of count equal slices."""
    span = hi - lo + 1
    out = []
    for i in range(count):
        a = lo + (i * span) // count
        b = lo + ((i + 1) * span) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


def monomials(n: int, max_deg: int, min_deg: int = 0) -> List[Tuple[int, ...]]:
    """Exponent tuples of total degree in [min_deg, max_deg]."""
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], left: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), left - e, slots - 1)

    for deg in range(min_deg, max_deg + 1):
        rec((), deg, n)
    return out


def write_form(path: str, n: int, entries) -> None:
    """Form file with one line per stored (alpha, beta) entry."""
    lines = [f"form n={n}"]
    for (alpha, beta), (re, im) in entries.items():
        lines.append(f"{' '.join(map(str, alpha))} ; {' '.join(map(str, beta))} ; {re} ; {im}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def plain_components(holo) -> List[checks.Component]:
    """hyperq WeightedHoloMap components as (sign, weight, {alpha: (re, im)})."""
    return [
        (sign, Fraction(weight), {al: (c.re, c.im) for al, c in poly.items()})
        for sign, weight, poly in holo.components
    ]


class Workload:
    """A batch is a whole number of rounds; each round holds the same op kinds."""

    name = ""
    # rounds per second of batch on the reference machine; sizes the fixed batch
    rounds_per_s = 1.0

    def rounds(self, seconds: int) -> int:
        """Whole rounds in a batch that lasts about `seconds` on the reference machine."""
        return max(1, round(seconds * self.rounds_per_s))

    def make_inputs(self, hq, seed: int, rounds: int, workdir: str) -> List:
        """Generate the ops (writing and parsing input files); this is set-up."""
        raise NotImplementedError

    def run(self, hq, op):
        raise NotImplementedError

    def check(self, hq, seed: int, ops: List, results: List) -> List[str]:
        raise NotImplementedError

    def cli(self, workdir: str) -> Tuple[List[str], Callable[[str], List[str]]]:
        """The workload's CLI command, on inputs that are the same for every
        seed, and a check of its stdout."""
        raise NotImplementedError


# -- sector ------------------------------------------------------------


def in_sector(a: int, b: int, A: int, B: int) -> bool:
    """The stability-sector inequalities, written out independently."""
    return (
        A + B >= a * a + a * b - 2 * a + 1
        and a * (B - b + 1) >= A * (b - 1)
        and a * (A - b + 1) >= B * (b - 1)
    )


def sector_targets() -> List[Tuple[int, int]]:
    """The (4,2) sector targets with 17 <= A+B <= 40, by cost proxy."""
    pts = [
        (A, B)
        for A in range(2, 39)
        for B in range(2, 39)
        if 17 <= A + B <= 40 and in_sector(4, 2, A, B)
    ]
    # witness degree grows with A + B, and balanced targets search a larger box
    return sorted(pts, key=lambda p: (p[0] + p[1], min(p)))


class Sector(Workload):
    """One op per round: construct, dump, parse and verify one target."""

    name = "sector"
    rounds_per_s = 2.7
    cli_target = (12, 18)

    def make_inputs(self, hq, seed, rounds, workdir):
        rng = Random(f"sector:{seed}")
        pts = sector_targets()
        n_ops = min(rounds, len(pts))
        picks = [pts[i] for i in stratified(rng, 0, len(pts) - 1, n_ops)]
        rng.shuffle(picks)
        return picks

    def run(self, hq, op):
        A, B = op
        m = hq.construct_map(4, 2, A, B)
        text = hq.dump_map(m)
        back = hq.parse_map(text)
        return m, back, hq.verify_map(back)

    def check(self, hq, seed, ops, results):
        rng = Random(f"sector-check:{seed}")
        errors: List[str] = []
        for (A, B), res in zip(ops, results):
            if isinstance(res, Exception):
                continue
            m, back, ok = res
            errors += checks.expect(f"verify_map({A},{B})", ok, True)
            errors += checks.expect(f"parse_map(dump_map(m)) == m at ({A},{B})", back == m, True)
            comps = plain_components(m.components)
            errors += checks.check_sector_map(4, 2, A, B, comps, rng)
        return errors

    def cli(self, workdir):
        A, B = self.cli_target
        header = f"map n=6 a=4 b=2 A={A} B={B} homogeneous=1 denominator=none"

        def check_out(out: str) -> List[str]:
            lines = out.splitlines()
            if not lines or lines[0] != header:
                return [f"construct output starts {lines[:1]}, expected {header!r}"]
            return checks.check_sector_map(4, 2, A, B, parse_map_lines(lines[1:]), Random(0))

        return ["quadric", "construct", "4", "2", str(A), str(B)], check_out


def parse_map_lines(lines: Sequence[str]) -> List[checks.Component]:
    """Component lines of the map text format, read without hyperq."""
    comps = []
    for line in lines:
        head, _, body = line.partition("::")
        sign_tok, weight_tok = head.split()
        poly = {}
        for chunk in body.split(";"):
            tokens = chunk.split()
            re, _, im = tokens[0].partition(",")
            poly[tuple(int(t) for t in tokens[1:])] = (Fraction(re), Fraction(im))
        comps.append((1 if sign_tok == "+" else -1, Fraction(weight_tok), poly))
    return comps


# -- forms -------------------------------------------------------------

# (variables, largest degree of the monomial pool, support size): one form op each per
# round.  Changed 3-variable forms fill 20 monomials and 4-variable ones 15, so the
# 4-variable forms are cheaper; keeping them and the twists under half of the round puts
# the median op inside the 3-variable forms instead of on the edge between two clusters.
FORM_SHAPES = [(3, 3, size) for size in range(8, 21)] + [(4, 2, size) for size in (9, 12, 15)]
TWISTS_PER_ROUND = 5
TWIST_SPLITS = [(2, 1), (2, 2), (3, 1), (3, 2)]
NONZERO = [v for v in range(-9, 10) if v]


def degree_counts(n: int, max_deg: int, size: int) -> List[int]:
    """How many support monomials each degree 0..max_deg gets.

    Every degree gets at least one, so a change of variables fills the
    whole pool and the changed form has the same size for every seed;
    the rest go where the block has the most room left, in proportion.
    """
    blocks = [comb(n - 1 + d, d) for d in range(max_deg + 1)]
    counts = [1] * len(blocks)
    while sum(counts) < size:
        d = max(range(len(blocks)), key=lambda d: ((blocks[d] - counts[d]) / blocks[d], d))
        counts[d] += 1
    return counts


def random_hermitian(rng: Random, n: int, max_deg: int, size: int):
    """Support of `size` monomials and Gaussian-integer entries in [-9, 9]."""
    support = []
    for d, k in enumerate(degree_counts(n, max_deg, size)):
        support += rng.sample(monomials(n, d, d), k)
    entries = {(alpha, alpha): (Fraction(rng.choice(NONZERO)), Fraction(0)) for alpha in support}
    # half of the off-diagonal pairs, so every form of one shape has as many entries
    pairs = [(support[i], beta) for i in range(size) for beta in support[i + 1:]]
    for key in rng.sample(pairs, len(pairs) // 2):
        entries[key] = (Fraction(rng.choice(NONZERO)), Fraction(rng.randint(-9, 9)))
    return support, entries


def unimodular(rng: Random, n: int) -> List[List[int]]:
    """L U with unit-diagonal triangular factors and off-diagonal entries of L and U in {-1, 1}."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def full_entries(entries):
    """Both orientations of every stored entry."""
    out = dict(entries)
    for (alpha, beta), (re, im) in entries.items():
        out[(beta, alpha)] = (re, -im)
    return out


def eigenvalues(support, full):
    """numpy eigvalsh of the form's matrix, and its largest entry for the tolerance."""
    import numpy as np  # only after the metrics are taken

    mat = np.array([[complex(*full.get((al, be), (0, 0))) for be in support] for al in support])
    return np.linalg.eigvalsh(mat).tolist(), float(np.abs(mat).max())


class Forms(Workload):
    """A round is one form op per entry of FORM_SHAPES plus five twisted maps."""

    name = "forms"
    rounds_per_s = 0.185

    def make_inputs(self, hq, seed, rounds, workdir):
        rng = Random(f"forms:{seed}")
        offset = rng.randrange(len(TWIST_SPLITS))
        ops = []
        for i, (n, max_deg, size) in enumerate(FORM_SHAPES * rounds):
            support, entries = random_hermitian(rng, n, max_deg, size)
            path = os.path.join(workdir, f"form{i:04d}.form")
            write_form(path, n, entries)
            ops.append({"kind": "form", "path": path, "n": n, "support": support,
                        "entries": entries, "change": unimodular(rng, n)})
        for i in range(TWISTS_PER_ROUND * rounds):
            a, b = TWIST_SPLITS[(offset + i) % len(TWIST_SPLITS)]
            ops.append({"kind": "twist", "a": a, "b": b, "j": rng.randrange(a + b),
                        "rng": f"forms:{seed}:twist:{i}", "perturb": rng.randrange(1000)})
        rng.shuffle(ops)
        for op in ops:
            if op["kind"] == "form":
                op["form"] = hq.load_form(op["path"])
        return ops

    def run(self, hq, op):
        if op["kind"] == "form":
            f = op["form"]
            rank, sig, holo = hq.form_rank(f), hq.form_inertia(f), hq.decompose(f)
            g = hq.compose_linear(f, op["change"])
            return rank, sig, holo, hq.form_rank(g), hq.form_inertia(g)
        a, b, n = op["a"], op["b"], op["a"] + op["b"]
        tensored = hq.tensor_extend(hq.identity_map(a, b), op["j"])
        form = hq.norm_difference(tensored.components, True)
        rng = Random(op["rng"])
        ua, ub = hq.cayley_unitary(a, rng, 9), hq.cayley_unitary(b, rng, 9)
        block = [[0] * n for _ in range(n)]
        for i in range(a):
            block[i][:a] = ua[i]
        for i in range(b):
            block[a + i][a:] = ub[i]
        twisted = hq.map_from_form(hq.compose_linear(form, block), a, b)
        ok = hq.verify_map(twisted)
        comps = list(twisted.components.components)
        k = op["perturb"] % len(comps)
        sign, weight, poly = comps[k]
        comps[k] = (sign, weight * Fraction(8, 7), poly)
        bent = hq.QuadricMap(a, b, False, hq.WeightedHoloMap(n, tuple(comps)), twisted.denominator)
        return ok, hq.verify_map(bent), tuple(twisted.target())

    def check(self, hq, seed, ops, results):
        errors: List[str] = []
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                continue
            if op["kind"] == "twist":
                ok, bad, target = res
                errors += checks.check_twist(ok, bad, target, op["a"], op["b"], op["j"])
                continue
            rank, sig, holo, rank_g, sig_g = res
            errors += checks.check_rank_inertia("form", rank, sig)
            errors += checks.check_rank_inertia("changed form", rank_g, sig_g)
            full = full_entries(op["entries"])
            errors += checks.check_decomposition(plain_components(holo), full)
            errors += checks.check_sylvester(rank, sig, rank_g, sig_g)
            errors += checks.check_float_inertia(sig, *eigenvalues(op["support"], full))
        return errors

    def cli(self, workdir):
        # a form of the largest shape
        n, max_deg, size = max(FORM_SHAPES, key=lambda shape: shape[2])
        support, entries = random_hermitian(Random("forms:cli"), n, max_deg, size)
        path = os.path.join(workdir, "cli.form")
        write_form(path, n, entries)

        def check_out(out: str) -> List[str]:
            want = checks.float_inertia(*eigenvalues(support, full_entries(entries)))
            lines = out.splitlines()
            comps = [ln for ln in lines if ln.startswith(("+ ", "- "))]
            signs = (sum(1 for ln in comps if ln[0] == "+"), sum(1 for ln in comps if ln[0] == "-"))
            return checks.expect(
                "decompose signature line", lines[-1:], [f"signature: ({want[0]}, {want[1]})"]
            ) + checks.expect("decompose component signs", signs, want)

        return ["form", "decompose", path], check_out


# -- restrict ----------------------------------------------------------

# (variables, degree) of the squared polynomials: one op each per round
RESTRICT_SHAPES = [(3, 2), (3, 3), (4, 2), (4, 3)]
MAX_SQUARES = 8
SUB_DIM = 2
TRIALS = 2
COEFF_BOUND = 10**6


def squares_form(rng: Random, n: int, d: int, r: int):
    """Entries of sum of eps_i |p_i|^2, p_i random of degree d, full support."""
    monos = monomials(n, d, d)
    acc = {}
    for _ in range(r):
        eps = rng.choice((-1, 1))
        p = [(al, (rng.choice(NONZERO), rng.randint(-9, 9))) for al in monos]
        for i, (alpha, (ar, ai)) in enumerate(p):
            for beta, (br, bi) in p[i:]:
                old = acc.get((alpha, beta), (0, 0))
                acc[(alpha, beta)] = (old[0] + eps * (ar * br + ai * bi), old[1] + eps * (ai * br - ar * bi))
    return {k: v for k, v in acc.items() if v != (0, 0)}


class Restrict(Workload):
    """A round is one form per entry of RESTRICT_SHAPES, with 2..8 squares."""

    name = "restrict"
    rounds_per_s = 0.38
    cli_shape = (3, 3, 4)

    def make_inputs(self, hq, seed, rounds, workdir):
        rng = Random(f"restrict:{seed}")
        ops = []
        for i, (n, d) in enumerate(RESTRICT_SHAPES * rounds):
            # r <= the monomial count keeps the p_i independent
            r = rng.randint(2, min(MAX_SQUARES, comb(n - 1 + d, d)))
            path = os.path.join(workdir, f"squares{i:04d}.form")
            write_form(path, n, squares_form(rng, n, d, r))
            ops.append({"path": path, "n": n, "d": d, "r": r, "seed": rng.randrange(10**6)})
        rng.shuffle(ops)
        for op in ops:
            op["form"] = hq.load_form(op["path"])
        return ops

    def run(self, hq, op):
        f, s = op["form"], op["seed"]
        generic = hq.generic_restriction_rank(f, SUB_DIM, trials=TRIALS, seed=s, coeff_bound=COEFF_BOUND)
        affine = hq.max_affine_rank(f, SUB_DIM, samples=TRIALS, seed=s, coeff_bound=COEFF_BOUND)
        return generic, affine, hq.sz_failure_bound(f, SUB_DIM, TRIALS, COEFF_BOUND)

    def check(self, hq, seed, ops, results):
        errors: List[str] = []
        bounds: Dict[Tuple[int, int], int] = {}
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                continue
            generic, affine, failure = res
            n = op["n"]
            if (n, affine) not in bounds:
                bounds[(n, affine)] = hq.hermitian_R(SUB_DIM, n, affine)
            errors += checks.check_restrict(
                n, op["d"], op["r"], SUB_DIM, hq.form_rank(op["form"]), generic, affine,
                bounds[(n, affine)], failure, TRIALS, COEFF_BOUND,
            )
        return errors

    def cli(self, workdir):
        n, d, r = self.cli_shape
        path = os.path.join(workdir, "cli.form")
        write_form(path, n, squares_form(Random("restrict:cli"), n, d, r))
        rank = min(r, comb(SUB_DIM - 1 + d, d))
        worst = Fraction(4 * d * comb(SUB_DIM + d, d), COEFF_BOUND) ** TRIALS

        def check_out(out: str) -> List[str]:
            lines = out.splitlines()
            errors = checks.expect("restrict generic rank line", lines[:1], [str(rank)])
            if len(lines) != 2 or not lines[1].startswith("failure bound: "):
                return errors + [f"restrict generic output {lines!r} lacks a failure bound"]
            bound = Fraction(lines[1][len("failure bound: "):])
            if not 0 < bound <= worst:
                errors.append(f"failure bound {bound} outside (0, {worst}]")
            return errors

        argv = ["restrict", "generic", path, "--dim", str(SUB_DIM), "--trials", str(TRIALS)]
        return argv, check_out


# -- bounds ------------------------------------------------------------

RIGIDITY_SPLITS = [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]
HERMITIAN_ARGS = [(2, 3), (2, 4), (3, 4), (3, 5)]
COMPOSE_ARGS = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]


class Bounds(Workload):
    """A round is K_n for n = 2..6, a G sweep, compose_K, hermitian_R, a
    rigidity sweep and a macaulay batch; three pinned ops open the batch."""

    name = "bounds"
    rounds_per_s = 7.0

    def make_inputs(self, hq, seed, rounds, workdir):
        rng = Random(f"bounds:{seed}")
        ks = {n: stratified(rng, 20, 120, rounds) for n in range(2, 7)}
        for n in ks:
            rng.shuffle(ks[n])
        # pinned values from the paper, and the costliest Hermitian query once
        ops = [("rigidity", 2, 1, 1, 12), ("K", 3, 2), ("R", 1, 4, 5)]
        for i in range(rounds):
            for n in range(2, 7):
                ops.append(("K", n, ks[n][i]))
            n, d = rng.randint(2, 6), rng.randint(1, 6)
            top = comb(n + d, d)
            start = rng.randint(0, max(0, top - 40))
            ops.append(("G", n, d, start, min(top, start + 40)))
            m, n = COMPOSE_ARGS[i % len(COMPOSE_ARGS)]
            ops.append(("C", m, n, rng.randint(2, 8)))
            m, n = HERMITIAN_ARGS[i % len(HERMITIAN_ARGS)]
            ops.append(("R", m, n, rng.randint(2, 10)))
            a, b = RIGIDITY_SPLITS[i % len(RIGIDITY_SPLITS)]
            ops.append(("rigidity", a, b, rng.randint(1, 4), 10))
            d = rng.randint(2, 8)
            ops.append(("macaulay", rng.randint(0, 10**4), d, 100))
        head, tail = ops[:3], ops[3:]
        rng.shuffle(tail)
        return head + tail

    def run(self, hq, op):
        kind = op[0]
        if kind == "K":
            return hq.green_K(op[1], op[2])
        if kind == "G":
            _, n, d, lo, hi = op
            return [hq.green_G(n, d, N) for N in range(lo, hi + 1)]
        if kind == "C":
            return hq.compose_K(*op[1:])
        if kind == "R":
            return hq.hermitian_R(*op[1:])
        if kind == "rigidity":
            _, a, b, first, count = op
            return [hq.rigidity_bound(a, b, B) for B in range(first, first + count)]
        _, c0, d, count = op
        return [list(hq.macaulay_rep(c, d).terms()) for c in range(c0, c0 + count)]

    def check(self, hq, seed, ops, results):
        errors: List[str] = []
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                continue
            kind = op[0]
            if kind == "K":
                errors += checks.check_green_K(op[1], op[2], res)
                if op[1:] == (3, 2):
                    errors += checks.expect("K_3(2)", res, 2)
            elif kind == "G":
                _, n, d, lo, hi = op
                for N, v in zip(range(lo, hi + 1), res):
                    errors += checks.check_green_G(n, d, N, v, hq.green_G(n, d + 1, N))
            elif kind == "C":
                k = op[3]
                errors += checks.check_chain(f"compose_K{op[1:]}", res, k, k)
            elif kind == "R":
                _, m, n, k = op
                errors += checks.check_chain(f"hermitian_R{op[1:]}", res, k, hq.compose_K(m, n, k))
            elif kind == "rigidity":
                errors += checks.check_rigidity_sweep(op[1], op[2], op[3], res)
            else:
                _, c0, d, _ = op
                for c, terms in enumerate(res, c0):
                    errors += checks.check_macaulay(c, d, terms)
        return errors

    def cli(self, workdir):
        def check_out(out: str) -> List[str]:
            return checks.expect("bound k 2 60", out, f"{60 * 61 // 2}\n")

        return ["bound", "k", "2", "60"], check_out


WORKLOADS = {w.name: w for w in (Sector(), Forms(), Restrict(), Bounds())}
