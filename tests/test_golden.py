"""Byte-for-byte command line outputs pinned under tests/golden.

golden/cases.txt lists one case per line: the file under golden/expected
holding the exact stdout, then the argv.  Each case runs through
hyperq.cli.main in-process with tests/golden as the working directory
and must exit 0.  `PYTHONPATH=src python tests/test_golden.py` rewrites
the expected files; do that only for an output that is meant to change.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperq.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def golden_cases():
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = line.split()
            yield name, argv


def run_case(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8")


def wrong_cases():
    """Every case that does not exit 0 or whose stdout differs from its expected file."""
    wrong = []
    for name, argv in golden_cases():
        code, out = run_case(argv)
        if code != 0 or out != (GOLDEN / "expected" / name).read_bytes():
            wrong.append(f"{name} (exit {code})")
    return wrong


def test_golden_outputs():
    assert len(list(golden_cases())) >= 40
    wrong = wrong_cases()
    assert not wrong, f"outputs differ from tests/golden/expected: {wrong}"


@pytest.mark.parametrize("seed", ["1", "4242"])
def test_golden_outputs_under_other_hash_seeds(seed):
    # identical invocations give byte-identical output: every case again in a fresh interpreter, where the
    # hash seed changes the hashes of strings and so the order of any set or dict keyed by them
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run([sys.executable, "-c", "from test_golden import wrong_cases; print(wrong_cases())"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stdout + done.stderr


def leaves(parser, path=()):
    """The argv prefix of every leaf command under parser."""
    groups = [act for act in parser._actions if isinstance(act, argparse._SubParsersAction)]
    if not groups:
        yield path
    for group in groups:
        for name, child in group.choices.items():
            yield from leaves(child, path + (name,))


def test_every_leaf_has_text_and_json_goldens():
    all_leaves = list(leaves(_build_parser()))
    assert len(all_leaves) == 18
    missing = []
    for leaf in all_leaves:
        argvs = [argv for _, argv in golden_cases() if tuple(argv[: len(leaf)]) == leaf]
        if not any("--json" not in argv for argv in argvs):
            missing.append(" ".join(leaf))
        if not any("--json" in argv for argv in argvs):
            missing.append(" ".join(leaf) + " --json")
    assert not missing, f"no golden case pins: {missing}"


if __name__ == "__main__":
    for name, argv in golden_cases():
        code, out = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / "expected" / name).write_bytes(out)
