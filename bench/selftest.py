"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench/selftest.py``.

They pin the deterministic per-pass call counts of every workload, so a
change to the tracer that misses a binding, or a change to the program that
moves work between layers, shows here first.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

PINNED_CALLS = {
    "grid": {
        "cli.main": 4,
        "chsh.s_parameter": 34571,
        "chsh.quantum_bounds": 362,
        "chsh.bell_operator": 362,
        "linalg.herm_eigenvalues": 362,
        "expsim.estimate_s": 0,
        "rng.binomial": 0,
        "rng.derive_seed": 0,
        "rng.standard_normal": 0,
    },
    "simulate_many": {
        "cli.main": 1,
        "chsh.s_parameter": 25,
        "chsh.quantum_bounds": 0,
        "linalg.herm_eigenvalues": 500,
        "expsim.estimate_s": 500,
        "expsim.noisy_state": 500,
        "expsim.setting_probabilities": 2000,
        "rng.binomial": 6000,
        "rng.derive_seed": 2500,
    },
    "simulate_deep": {
        "chsh.s_parameter": 1,
        "linalg.herm_eigenvalues": 5,
        "expsim.estimate_s": 5,
        "expsim.noisy_state": 5,
        "expsim.setting_probabilities": 20,
        "rng.binomial": 60,
        "rng.derive_seed": 25,
    },
    "sample": {
        "chsh.s_parameter": 0,
        "chsh.haar_sample_s": 1,
        "chsh.quantum_bounds": 1,
        "chsh.bell_operator": 2,
        "linalg.herm_eigenvalues": 1,
        "rng.standard_normal": 1,
        "rng.binomial": 0,
    },
}


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


@pytest.fixture
def workdir():
    run.WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)


def _declared(section: str) -> set[str]:
    return {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(quick, capsys, trace, section):
    assert run.main(["--workload", "simulate_many", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared(section)
    declared_units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared_units[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_benchmark_json_workloads_are_the_implemented_ones():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _one_pass(name, workdir, main=None, seed=11):
    client = run.Client(workloads.WORKLOADS[name], workdir, main=main)
    record = client.run_pass(seed)
    return client, record


def test_corrupted_grid_csv_is_a_failure(workdir):
    from chshlab import cli

    def corrupting_main(argv):
        code = cli.main(argv)
        if argv[0] == "bounds":
            with open(argv[argv.index("--out") + 1], "ab") as fh:
                fh.write(b"0,0,0,0,0\n")
        return code

    client, record = _one_pass("grid", workdir, corrupting_main)
    assert client.attempted == 4
    assert len(client.failures) == 1 and "sha256" in client.failures[0]
    assert record.digests[-1] is None and all(record.digests[:-1])


@pytest.mark.parametrize("main", [lambda argv: 1, lambda argv: sys.exit(2)])
def test_forced_non_zero_exit_is_a_failure(workdir, main):
    client, record = _one_pass("simulate_deep", workdir, main)
    assert client.attempted == 1 and len(client.failures) == 1
    assert "exit code" in client.failures[0]


def test_unparsable_output_is_a_failure(workdir):
    def garbage_main(argv):
        row = f"{float(workloads.PI_4):.12g},0,not-a-number,1,2\n"
        Path(argv[argv.index("--out") + 1]).write_text("theta,xi,s_hat,std_err,s_ideal\n" + row * 5)
        return 0

    client, _ = _one_pass("simulate_deep", workdir, garbage_main)
    assert len(client.failures) == 1 and "check failed" in client.failures[0]


def test_exception_is_a_failure(workdir):
    def crashing_main(argv):
        raise RuntimeError("boom")

    client, _ = _one_pass("sample", workdir, crashing_main)
    assert len(client.failures) == 1 and "RuntimeError: boom" in client.failures[0]


def test_sixty_sigma_count_fails_the_simulate_check():
    theta = float(workloads.PI_4)
    ideal = workloads.s_closed_form(theta, 0.0)
    shrink = (1 - workloads.DEFAULT_ACCIDENTALS) * workloads.DEFAULT_VISIBILITY
    std_err = 4.5e-5
    good = [f"{theta:.12g},0,{shrink * ideal:.12g},{std_err:.12g},{ideal:.12g}" for _ in range(5)]
    check = workloads.WORKLOADS["simulate_deep"].invocations(1)[0].check

    def csv(rows):
        return ("theta,xi,s_hat,std_err,s_ideal\n" + "\n".join(rows) + "\n").encode()

    assert check(csv(good), "") == 5
    bad = good[:4] + [f"{theta:.12g},0,{shrink * ideal + 60 * std_err:.12g},{std_err:.12g},{ideal:.12g}"]
    with pytest.raises(workloads.CheckError, match="std_err"):
        check(csv(bad), "")
    with pytest.raises(workloads.CheckError, match="rows"):
        check(csv(good[:4]), "")


def test_seed_changes_stochastic_argv_but_not_grid_digests(workdir):
    seeds = [next(workloads.pass_seeds(s)) for s in (1, 2)]
    assert seeds[0] != seeds[1] and seeds[0] == next(workloads.pass_seeds(1))
    for name in ("simulate_many", "simulate_deep", "sample"):
        argvs = [workloads.WORKLOADS[name].invocations(s)[0].argv for s in seeds]
        assert argvs[0] != argvs[1]
    digests = []
    for seed in seeds:
        client, record = _one_pass("grid", workdir, seed=seed)
        assert client.failures == []
        digests.append(record.digests)
    assert digests[0] == digests[1] == list(workloads.GRID_SHA256.values())


@pytest.mark.parametrize("name", list(PINNED_CALLS))
def test_traced_call_counts_are_pinned_and_outputs_unchanged(workdir, name):
    client = run.Client(workloads.WORKLOADS[name], workdir)
    plain = client.run_pass(5)
    tracer = tracing.Tracer()
    with tracer:
        traced = client.run_pass(5)
    assert client.failures == []
    assert traced.digests == plain.digests
    calls = tracer.snapshot()
    for span, expected in PINNED_CALLS[name].items():
        assert calls.get(span, (0, 0.0))[0] == expected, span
    if name in ("grid", "sample"):
        assert not [span for span in calls if span.startswith(("rng.binomial", "rng.derive_seed", "expsim."))]
    # Every wrapper is removed again.
    assert tracer.snapshot() == calls
    client.run_pass(5)
    assert tracer.snapshot() == calls


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 21)])
    assert (value, beyond) == (10.0, 10) and percentile == 50.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_without_sources_it_fails_without_a_result():
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR))
    try:
        shutil.copy(BENCHMARK_JSON, bare)
        shutil.copytree(Path(run.__file__).parent, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
