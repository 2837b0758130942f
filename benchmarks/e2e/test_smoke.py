"""Smoke test of the repo benchmark: names, units, exact counts, teardown.

One 0.3 s round per workload and a four-batch replay — nothing here is a
measurement.  The workloads run side by side to keep the test short.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from .run import ROOT, load_spec

RUN = Path(__file__).with_name("run.py")
WORKLOAD_NAMES = [workload["name"] for workload in load_spec()["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[+-]?\d+)?) (\S+)$")
#: metrics that are counts of the program's structure, not timings
EXACT = (
    "core.flops_per_example",
    "core.flop_reduction_rate",
    "hw.sim_latency_ms",
    "hw.sim_energy_mj_per_image",
    "hw.sim_dsp_used",
    "server.probe_request_bytes",
    "server.probe_response_bytes",
)


def _invoke(workload: str, seed: int, trace: str) -> dict:
    """One tiny run; returns what it printed, parsed."""
    done = subprocess.run(
        [
            sys.executable,
            str(RUN),
            f"--workload={workload}",
            f"--seed={seed}",
            f"--trace={trace.strip()}",
            "--seconds=0.3",
            "--round-seconds=0.3",
            "--replay-batches=4",
            "--setup-runs=1",
        ],
        capture_output=True,
        text=True,
        timeout=110,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {}
    hashes = {}
    for line in done.stdout.splitlines():
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
        elif "_hash" in line:
            key, value = line.split()
            hashes[key] = value
    return {
        "printed": printed,
        "hashes": hashes,
        "driver": json.loads(done.stdout.splitlines()[-1]),
    }


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every workload traced at seed 0, plus the repeat and other-seed runs."""
    jobs = [(w, 0, "1") for w in WORKLOAD_NAMES]
    jobs.append(("http_closed", 0, "1 "))  # the same seed again
    jobs.append(("http_closed", 1, "0"))  # another seed, untraced
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        futures = {job: pool.submit(_invoke, *job) for job in jobs}
        return {job: future.result() for job, future in futures.items()}


def test_every_metric_is_printed_by_name_with_its_unit(runs):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    outputs = [(runs[w, 0, "1"], spec["per_layer"]) for w in WORKLOAD_NAMES]
    outputs.append((runs["http_closed", 1, "0"], spec["end_to_end"]))
    for run, metrics in outputs:
        for metric in metrics:
            value, unit = run["printed"][metric["name"]]
            assert unit == metric["unit"]
            assert math.isfinite(value)
        driver = run["driver"]
        assert set(driver) == {"correct", "attempted", "failed", "metrics"}
        assert driver["correct"] is True
        assert driver["attempted"] >= 1 and driver["failed"] == 0
        assert set(driver["metrics"]) == {m["name"] for m in metrics}
    untraced = runs["http_closed", 1, "0"]["driver"]["metrics"]
    assert all(entry["value"] > 0 for entry in untraced.values())


def test_invariants_of_the_workloads(runs):
    flood = runs["direct_flood", 0, "1"]["printed"]
    assert flood["workers.ring_batches_share"][0] == 1.0
    for workload in WORKLOAD_NAMES:
        printed = runs[workload, 0, "1"]["printed"]
        assert printed["inference.cache_hit_ratio"][0] == 0.0
        assert printed["engine.requests_failed"][0] == 0.0
        assert printed["server.non_200"][0] == 0.0
        assert printed["core.flops_per_example"][0] > 0
        trace = json.loads(
            (RUN.parent / "out" / f"trace-{workload}.json").read_text("utf-8")
        )
        names = {span[0]: span[1] for span in trace["spans"]}
        assert {"workload", "round", "op", "engine.submit"} <= set(names.values())
        # the engine's call is recorded inside the batch that caused it
        parents = {
            names.get(span[4])
            for span in trace["spans"]
            if span[1] == "inference.predict_mc"
        }
        assert "engine.submit" in parents
        assert all(entry["self_s"] >= 0 for entry in trace["self_time_s"].values())


def test_exact_counts_repeat_and_inputs_follow_the_seed(runs):
    first = runs["http_closed", 0, "1"]
    again = runs["http_closed", 0, "1 "]
    other = runs["http_closed", 1, "0"]
    for name in EXACT:
        assert first["printed"][name] == again["printed"][name], name
    assert first["hashes"] == again["hashes"]
    assert other["hashes"]["input_hash"] != first["hashes"]["input_hash"]
    assert other["hashes"]["probe_bit_hash"] != first["hashes"]["probe_bit_hash"]


def test_a_checkout_without_the_program_is_refused(tmp_path):
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in RUN.parent.glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload=conv_mc", "--seed=0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
