"""Seeded mutations of the golden form files through the form commands.

Each mutant is a golden `.form` input with 1-3 edits, each one token (split on whitespace)
replaced, deleted, inserted or doubled.  `form rank`, `form inertia` and `form decompose` run
in process on it.  Each must exit 0, 1 or 2 within a wall limit and print no traceback, and a
mutant that parse_form refuses must exit 2 from all three.  The restrict and map commands are
left out: `restrict` on hostile forms has no work budget yet, and map files need their own
mutations.
"""

import contextlib
import io
import time
from pathlib import Path
from random import Random

from hyperq.cli import main
from hyperq.errors import ConjugateMismatch, NonRealDiagonal, ParseError
from hyperq.formats import parse_form

INPUTS = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.form"))
HOSTILE = ["0", "-1", "+2", "1/0", "3/-4", "x", ";", "#", "form", "n=0", "n=2", "n=4", "1e3", "0.5",
           "+-1", "99999", "-0", "7/3", "1_0", "--"]
MUTANTS_PER_FILE = 80
WALL_LIMIT_S = 0.5


def mutate(rng, text):
    """text with 1-3 token edits outside its comments, at tokens drawn evenly over the file.
    Most are replacements of a number, which keep a line's shape, so that about a quarter of
    the mutants get past the parser to the elimination."""
    lines = [line.split() for line in text.splitlines() if not line.startswith("#")]
    pool = [token for line in lines for token in line if token != ";"] + HOSTILE
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("replace",) * 6 + ("delete", "insert", "double"))
        line, k = rng.choice([(line, k) for line in lines for k, token in enumerate(line) if token != ";"])
        if edit == "replace":
            line[k] = rng.choice(pool)
        elif edit == "delete":
            del line[k]
        elif edit == "insert":
            line.insert(k, rng.choice(pool))
        else:
            line.insert(k, line[k])
    return "\n".join(" ".join(line) for line in lines) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


def test_mutated_form_files_exit_cleanly(tmp_path):
    rng = Random("form mutations")
    path = tmp_path / "mutant.form"
    failures, refused, codes = [], 0, set()
    assert len(INPUTS) >= 5
    for source in INPUTS:
        for _ in range(MUTANTS_PER_FILE):
            text = mutate(rng, source.read_text(encoding="utf-8"))
            path.write_text(text, encoding="utf-8")
            try:
                parse_form(text)
                parsed = True
            except ParseError:
                parsed, refused = False, refused + 1
            except (ConjugateMismatch, NonRealDiagonal):
                parsed = True  # a domain error: the commands report it and exit 1
            for leaf in ("rank", "inertia", "decompose"):
                code, err, seconds = run(["form", leaf, str(path)])
                codes.add(code)
                if code not in (0, 1, 2) or "Traceback" in err or seconds > WALL_LIMIT_S or (not parsed and code != 2):
                    failures.append((source.name, leaf, code, err, round(seconds, 3), text))
    assert not failures, failures[:3]
    assert codes == {0, 1, 2} and 0 < refused < len(INPUTS) * MUTANTS_PER_FILE
