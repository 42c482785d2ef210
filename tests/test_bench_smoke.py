"""One round of each benchmark workload, judged by the benchmark's own checks.

The benchmark under `bench/` is imported by path; every workload runs one
round at seed 1, and its CLI command runs in process through
`hyperq.cli.main`, so a wrong answer shows here before a timed run.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

import hyperq
from hyperq import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports checks.py beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["sector", "forms", "restrict", "bounds"])
def test_one_round_passes_the_bench_checks(workloads, name, tmp_path):
    assert sorted(workloads.WORKLOADS) == ["bounds", "forms", "restrict", "sector"]
    workload = workloads.WORKLOADS[name]
    ops = workload.make_inputs(hyperq, 1, 1, str(tmp_path))
    results = [workload.run(hyperq, op) for op in ops]
    assert workload.check(hyperq, 1, ops, results) == []
    argv, check_out = workload.cli(str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    assert status == 0 and check_out(out.getvalue()) == []
