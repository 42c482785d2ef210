"""End-to-end command line tests through main()."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hyperq import forms, quadrics
from hyperq.cli import main
from hyperq.combinat import green_G
from hyperq.formats import dump_map, dump_realpoly, parse_map
from hyperq.quadrics import identity_map, s_poly

FORM_RANK2 = "form n=2\n1 0 ; 0 1 ; 1 ; 0\n"
FORM_DIAG3 = "form n=3\n1 0 0 ; 1 0 0 ; 1 ; 0\n0 1 0 ; 0 1 0 ; 1 ; 0\n0 0 1 ; 0 0 1 ; 1 ; 0\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_macaulay_text(capsys):
    code, out, err = run(capsys, ["macaulay", "10", "3"])
    assert code == 0 and err == ""
    assert out == "10 = C(5,3) + C(1,2) + C(0,1)\nlower: 4\n"


def test_macaulay_json(capsys):
    code, out, _ = run(capsys, ["macaulay", "10", "3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "macaulay"
    assert doc["terms"] == [[5, 3], [1, 2], [0, 1]]
    assert doc["lower"] == 4


def test_bound_pins(capsys):
    assert run(capsys, ["bound", "k", "3", "2"])[1] == "2\n"
    assert run(capsys, ["bound", "k", "2", "5"])[1] == "15\n"
    assert run(capsys, ["bound", "rigidity", "2", "1", "1"])[1] == "3\n"
    assert run(capsys, ["bound", "hermitian", "1", "2", "1"])[1] == "1\n"
    assert run(capsys, ["bound", "compose", "1", "3", "2"])[1] == "3\n"
    assert run(capsys, ["bound", "stability", "4", "2", "9", "8"])[1] == "true\n"
    assert run(capsys, ["bound", "stability", "4", "2", "8", "8"])[1] == "false\n"


def test_bound_g_matches_library(capsys):
    code, out, _ = run(capsys, ["bound", "g", "2", "1", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == green_G(2, 1, 2)


def test_bound_domain_error(capsys):
    code, out, err = run(capsys, ["bound", "g", "1", "2", "0"])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_bound_k_of_large_rank_finishes(capsys):
    # K_5(10^20) is about 4.4 * 10^24, so its last G probes run at degree 221,334
    start = time.perf_counter()
    code, out, err = run(capsys, ["bound", "k", "5", str(10**20)])
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and int(out) >= 10**20


def test_form_commands(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(FORM_RANK2, encoding="utf-8")
    assert run(capsys, ["form", "rank", str(path)])[1] == "2\n"
    assert run(capsys, ["form", "inertia", str(path)])[1] == "(1, 1)\n"
    code, out, _ = run(capsys, ["form", "decompose", str(path)])
    assert code == 0
    assert out == (
        "+ |sqrt(1/2)*(z1 + z2)|^2\n"
        "- |sqrt(1/2)*(z1 + (-1)*z2)|^2\n"
        "signature: (1, 1)\n"
    )
    quiet = run(capsys, ["form", "decompose", str(path), "--quiet"])[1]
    assert "signature" not in quiet


def test_form_inertia_json(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(FORM_RANK2, encoding="utf-8")
    doc = json.loads(run(capsys, ["form", "inertia", str(path), "--json"])[1])
    assert doc["value"] == [1, 1]


def test_restrict_generic(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(FORM_DIAG3, encoding="utf-8")
    code, out, _ = run(capsys, ["restrict", "generic", str(path), "--dim", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2"
    assert lines[1].startswith("failure bound: ")
    assert run(capsys, ["restrict", "generic", str(path), "--dim", "2", "--quiet"])[1] == "2\n"
    doc = json.loads(run(capsys, ["restrict", "generic", str(path), "--dim", "2", "--json"])[1])
    assert doc["value"] == 2
    assert 0 < Fraction(doc["failure_bound"]) < 1


def test_restrict_max(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(FORM_DIAG3, encoding="utf-8")
    code, out, _ = run(capsys, ["restrict", "max", str(path), "--dim", "1", "--samples", "2"])
    assert code == 0
    assert out.strip().isdigit()


@pytest.mark.parametrize("leaf", ["generic", "max"])
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_restrict_coeff_bound_must_be_positive(capsys, tmp_path, leaf, bound):
    path = tmp_path / "f.txt"
    path.write_text(FORM_DIAG3, encoding="utf-8")
    code, out, err = run(capsys, ["restrict", leaf, str(path), "--dim", "2", "--coeff-bound", bound])
    assert (code, out, err) == (1, "", "error: coeff_bound must be at least 1\n")


def test_restrict_smallest_legal_values_finish():
    # at --coeff-bound 1 every generic entry is 1 + i, which used to retry forever at --dim 2
    root = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=str(root.parent / "src"))
    for name in ("mixed.form", "quadratic.form"):
        for leaf, count in (("generic", "--trials"), ("max", "--samples")):
            for dim in ("1", "2"):
                for bound in ("1", "2"):
                    argv = ["restrict", leaf, str(root / "golden" / "inputs" / name), "--dim", dim,
                            count, "1", "--coeff-bound", bound]
                    done = subprocess.run([sys.executable, "-m", "hyperq.cli", *argv], env=env,
                                          capture_output=True, text=True, timeout=20)
                    if (leaf, dim, bound) == ("generic", "2", "1"):
                        assert (done.returncode, done.stdout) == (1, ""), argv
                        assert "coeff_bound" in done.stderr
                    else:
                        assert done.returncode == 0, (argv, done.stderr)


def test_cli_imports_only_the_standard_library():
    # isolated (-I) and without site (-S), so only what importing hyperq.cli loads is new; -B writes no
    # .pyc into src, which -I would otherwise do whatever PYTHONDONTWRITEBYTECODE says
    src = str(Path(__file__).parent.parent / "src")
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); import hyperq.cli; "
            "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))")
    done = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    tops = done.stdout.split()
    assert "hyperq" in tops
    assert [name for name in tops if name != "hyperq" and name not in sys.stdlib_module_names] == []


def test_construct_verify_roundtrip(capsys, tmp_path):
    code, out, err = run(capsys, ["quadric", "construct", "2", "2", "4", "4"])
    assert code == 0 and err == ""
    assert out.startswith("map n=4 a=2 b=2 A=4 B=4 homogeneous=1 denominator=none\n")
    path = tmp_path / "m.txt"
    path.write_text(out, encoding="utf-8")
    assert run(capsys, ["quadric", "verify", str(path)]) == (0, "true\n", "")


def test_construct_byte_identical(capsys):
    first = run(capsys, ["quadric", "construct", "3", "2", "8", "7"])
    second = run(capsys, ["quadric", "construct", "3", "2", "8", "7"])
    assert first == second and first[0] == 0


def test_construct_json(capsys):
    doc = json.loads(run(capsys, ["quadric", "construct", "2", "2", "4", "4", "--json"])[1])
    assert doc["target"] == [4, 4]
    assert doc["homogeneous"] is True
    assert len(doc["components"]) == 8


def test_construct_not_reached(capsys):
    code, out, err = run(capsys, ["quadric", "construct", "4", "2", "100", "2"])
    assert code == 1 and out == ""
    assert err.startswith("NotReached:")


def test_verify_false_is_exit_zero(capsys, tmp_path):
    text = (
        "map n=3 a=2 b=1 A=4 B=1 homogeneous=0 denominator=none\n"
        "+ 1 :: 1,0 1 0 0\n"
        "+ 1 :: 1,0 0 1 0\n"
        "+ 1 :: 1,0 1 0 1\n"
        "+ 1 :: 1,0 0 1 1\n"
        "- 1 :: 1,0 0 0 2\n"
    )
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, ["quadric", "verify", str(path)]) == (0, "false\n", "")
    doc = json.loads(run(capsys, ["quadric", "verify", str(path), "--json"])[1])
    assert doc["value"] is False


def test_tensor_cli(capsys, tmp_path):
    path = tmp_path / "id.txt"
    path.write_text(dump_map(identity_map(2, 1)), encoding="utf-8")
    code, out, _ = run(capsys, ["quadric", "tensor", str(path), "--component", "2"])
    assert code == 0
    m = parse_map(out)
    assert m.target() == (3, 2)
    code, _, err = run(capsys, ["quadric", "tensor", str(path), "--component", "9"])
    assert code == 1 and err.startswith("IndexOutOfRange:")


def test_dehomogenize_cli(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(dump_realpoly(s_poly(2, 2)), encoding="utf-8")
    code, out, _ = run(capsys, ["quadric", "dehomogenize", str(path)])
    assert code == 0
    m = parse_map(out)
    assert (m.a, m.b) == (2, 1)
    assert m.target() == (2, 1)
    assert m.denominator is not None


def test_admissible_cli(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(dump_realpoly(s_poly(2, 1)), encoding="utf-8")
    code, out, _ = run(capsys, ["quadric", "admissible", str(path)])
    assert code == 0
    assert out == "admissible: true\nsignature: (2, 1)\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("realpoly n=3 a=2 b=1\n2 0 0 ; 1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["quadric", "admissible", str(bad)])
    assert code == 0
    assert out == "admissible: false\nsignature: (1, 0)\n"


def test_region_grid(capsys):
    code, out, err = run(capsys, ["quadric", "region", "2", "2", "--max", "6"])
    assert code == 0 and err == ""
    again = run(capsys, ["quadric", "region", "2", "2", "--max", "6"])[1]
    assert out == again
    lines = out.splitlines()
    assert lines[0].startswith("B=6")
    assert lines[5].startswith("B=1")
    assert lines[6].endswith("A=1..6")
    assert lines[7].startswith("legend:")
    assert lines[8].startswith("sector lines: A + B = 5;")
    by_b = {line.split()[0]: line.split()[1] for line in lines[:6]}
    assert by_b["B=2"][1] == "@"  # the seed (2, 2)
    assert by_b["B=4"][3] == "@"  # one grow reaches (4, 4)
    quiet = run(capsys, ["quadric", "region", "2", "2", "--max", "6", "--quiet"])[1]
    assert len(quiet.splitlines()) == 7


def test_region_json_sector_covered(capsys):
    doc = json.loads(run(capsys, ["quadric", "region", "2", "2", "--max", "6", "--json"])[1])
    assert doc["sector_only"] == []
    assert [2, 2] in doc["constructed"] and [4, 4] in doc["constructed"]
    assert doc["budget_exhausted"] is False
    assert doc["lines"][0] == "A + B = 5"


def test_region_reads_signatures_without_unpacking(capsys, monkeypatch):
    # the grid prints signatures only, so no witness polynomial is built
    unpacked = []
    unpack = quadrics._unpack
    monkeypatch.setattr(quadrics, "_unpack", lambda *args: unpacked.append(args) or unpack(*args))
    code, out, _ = run(capsys, ["quadric", "region", "4", "2", "--max", "12"])
    assert code == 0 and "@" in out and unpacked == []
    assert run(capsys, ["quadric", "region", "4", "2", "--max", "1"]) == (1, "", "error: size must be at least 2\n")


def test_region_refuses_budget_below_one(capsys):
    for budget in ("0", "-3"):
        for argv in (["quadric", "region", "4", "2", "--max", "8"], ["quadric", "construct", "4", "2", "9", "8"]):
            code, out, err = run(capsys, argv + ["--budget", budget])
            assert (code, out, err) == (1, "", "error: search budget must be positive\n")


def test_file_and_parse_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["form", "rank", str(tmp_path / "missing.txt")])
    assert code == 2 and err.startswith("file error:")
    bad = tmp_path / "bad.txt"
    bad.write_text("form n=2\n1 0 ; 1\n", encoding="utf-8")
    code, _, err = run(capsys, ["form", "rank", str(bad)])
    assert code == 2 and err.startswith("parse error:")


def test_non_hermitian_form_is_domain_error(capsys, tmp_path):
    files = {
        "form n=2\n1 0 ; 1 0 ; 1 ; 1/2\n0 1 ; 0 1 ; 1 ; 0\n":
            "NonRealDiagonal: diagonal entry at (1, 0) has imaginary part 1/2\n",
        "form n=2\n1 0 ; 0 1 ; 1 ; 0\n0 1 ; 1 0 ; 2 ; 0\n":
            "ConjugateMismatch: entries at ((1, 0), (0, 1)) and ((0, 1), (1, 0)) are not mutual conjugates\n",
    }
    path = tmp_path / "f.form"
    for text, message in files.items():
        path.write_text(text, encoding="utf-8")
        for argv in (["form", "rank"], ["form", "inertia"], ["form", "decompose"],
                     ["restrict", "generic", "--dim", "1"], ["restrict", "max", "--dim", "1"]):
            assert run(capsys, [*argv[:2], str(path), *argv[2:]]) == (1, "", message)


def test_exponent_token_is_parse_error_at_once(capsys, tmp_path):
    # Fraction("1e10000000") would build a 33-million-bit integer first
    huge = tmp_path / "huge.form"
    huge.write_text("form n=1\n1 ; 1 ; 1e10000000 ; 0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["form", "rank", str(huge)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "expected a rational number, got '1e10000000'" in err


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["quadric"])[0] == 2
    assert run(capsys, ["bound", "nope", "1"])[0] == 2
    assert run(capsys, ["macaulay", "ten", "3"])[0] == 2


def test_unread_flags_are_usage_errors(capsys):
    assert run(capsys, ["bound", "k", "2", "3", "--budget", "5"])[0] == 2
    assert run(capsys, ["macaulay", "10", "3", "--seed", "1"])[0] == 2
    assert run(capsys, ["quadric", "construct", "2", "2", "4", "4", "--trials", "2"])[0] == 2
    assert run(capsys, ["bound", "k", "2", "3", "--quiet", "--json"])[0] == 0


MAP_ROWS = "+ 1 :: 1,0 1 0 0\n+ 1 :: 1,0 0 1 0\n- 1 :: 1,0 0 0 1\n"


@pytest.mark.parametrize(
    "header",
    [
        "map n=3 a=0 b=3 A=2 B=1 homogeneous=1 denominator=none",
        "map n=3 a=2 b=1 A=2 B=1 homogeneous=0 denominator=5",
        "map n=3 a=2 b=1 A=2 B=1 homogeneous=0 denominator=0",
    ],
    ids=["split", "denominator-range", "denominator-sign"],
)
def test_bad_map_header_is_parse_error(capsys, tmp_path, header):
    path = tmp_path / "m.txt"
    path.write_text(header + "\n" + MAP_ROWS, encoding="utf-8")
    code, out, err = run(capsys, ["quadric", "verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("parse error:")


def test_cancelling_component_is_parse_error(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "map n=3 a=2 b=1 A=2 B=1 homogeneous=0 denominator=none\n"
        "+ 1 :: 1,0 1 0 0 ; -1,0 1 0 0\n+ 1 :: 1,0 0 1 0\n- 1 :: 1,0 0 0 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["quadric", "verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: {path}:2:")


def test_tensor_of_homogeneous_map_is_domain_error(capsys, tmp_path):
    code, text, _ = run(capsys, ["quadric", "construct", "2", "2", "5", "4"])
    assert code == 0
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["quadric", "tensor", str(path), "--component", "0"])
    assert code == 1 and out == ""
    assert err.startswith("NotVanishing:") and "affine" in err


def test_map_commands_reduce_no_component(capsys, monkeypatch):
    # construct and tensor print text and JSON from the map's integer view: no component is
    # reduced to GaussianRationals, so the output cannot quietly fall back to them
    reduced = []
    getattr_ = forms.WeightedHoloMap.__getattr__
    monkeypatch.setattr(forms.WeightedHoloMap, "__getattr__", lambda self, name: reduced.append(name) or getattr_(self, name))
    tensor_input = str(Path(__file__).parent / "golden" / "inputs" / "dehomogenized.map")
    for argv in (["quadric", "construct", "4", "2", "12", "18"], ["quadric", "tensor", tensor_input, "--component", "0"]):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, argv + extra)
            assert code == 0 and err == "" and out
    assert reduced == []
