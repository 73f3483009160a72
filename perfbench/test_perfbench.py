"""Tests of the benchmark itself, at smoke size.

Run from the repository root:

  PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import startup  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bfa import core, operators  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [name for name, unit, _ in spans.SPAN_METRICS if unit in ("count", "bytes")]


def smoke(name, workdir, trace=0):
    return worker.run(name, seed=3, seconds=0.01, trace=trace, smoke=True, workdir=workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_checks_pass(name, tmp_path):
    out = smoke(name, tmp_path)
    assert out["attempted"] >= 1
    assert out["failed"] == 0
    assert all(value > 0 for value in out["metrics"].values())


def test_perturbed_coefficient_fails(monkeypatch, tmp_path):
    real = core.wht

    def perturbed(f):
        s = real(f)
        coeffs = s.coeffs.copy()
        coeffs[1] += 1e-3
        return core.Spectrum(s.n, coeffs)

    monkeypatch.setattr(core, "wht", perturbed)
    assert smoke("spectral", tmp_path)["failed"] > 0


def test_non_identical_rerun_fails(monkeypatch, tmp_path):
    real = operators.stability_mc
    calls = itertools.count()

    def drifting(f, rho, samples, seed):
        # every estimate stays near the exact value; only the rerun differs
        return real(f, rho, samples, seed + next(calls) % 2)

    monkeypatch.setattr(operators, "stability_mc", drifting)
    assert smoke("sampling", tmp_path)["failed"] > 0


def test_cli_output_change_fails(tmp_path):
    cli = workloads.Cli(3, True, tmp_path)
    cli.setup()
    passes = [worker.run_pass(cli, 0)]
    cli.first = {name: out + b"x" for name, out in cli.first.items()}
    passes.append(worker.run_pass(cli, 1))
    assert all(r.ok for r in passes[0])
    assert not any(r.ok for r in passes[1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    original = core.wht
    a = smoke(name, tmp_path / "a", trace=1)
    b = smoke(name, tmp_path / "b", trace=1)
    assert core.wht is original  # tracing is removed after the run
    assert a["failed"] == b["failed"] == 0
    assert {m: a["metrics"][m] for m in COUNTS} == {m: b["metrics"][m] for m in COUNTS}
    assert a["metrics"]["core.wht.calls"] > 0
    if name in ("labelcover", "cli"):
        for metric in ("ulc.neighborhood_average.calls", "ulc.UlcInstance.adjacency.calls",
                       "ulc.permutation_map.calls"):
            assert a["metrics"][metric] > 0


def test_per_layer_names_match_benchmark_json(tmp_path):
    out = smoke("spectral", tmp_path, trace=1)
    names = list(out["units"]) + startup.METRICS
    assert [m["name"] for m in SPEC["per_layer"]] == names
    units = {**out["units"], **{m: "ms" for m in startup.METRICS}}
    assert all(m["unit"] == units[m["name"]] for m in SPEC["per_layer"])


def test_end_to_end_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(21, 400):
        p = worker.tail_percentile(n)
        beyond = lambda q: n - 1 - int(q / 100 * (n - 1))  # noqa: E731
        assert beyond(p) >= 10 and (p == 99 or beyond(p + 1) < 10)
    assert [worker.tail_percentile(n) for n in (216, 114, 34, 33)] == [95, 92, 72, 71]
    assert worker.tail_percentile(12) == 50  # too few samples: the median
    assert worker.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_parse_importtime_splits_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       500 |        500 |       scipy.special",
        "import time:        50 |        550 |     scipy.stats",
        "import time:        40 |        590 |   bfa.invariance",
        "import time:        10 |        900 | bfa",
    ])
    assert startup.parse_importtime(text) == {
        "startup.import_numpy_ms": 0.3,
        "startup.import_scipy_ms": 0.55,
        "startup.import_bfa_self_ms": 0.9 - 0.3 - 0.55,
    }


def test_cli_output_parser():
    assert workloads.parses(b'{"rows": []}\n')
    assert workloads.parses(b"# seed=0\nname\tlhs\trhs\tmargin\tstderr\nx\t1.0\t\t\t\n")
    assert not workloads.parses(b"# seed=0\nname\tlhs\trhs\tmargin\tstderr\nx\tnan?\t\t\t\n")
    assert not workloads.parses(b"Traceback (most recent call last):\n")


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    proc = _bench(ROOT, "--workload", "labelcover", "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expect = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expect
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "spectral", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
