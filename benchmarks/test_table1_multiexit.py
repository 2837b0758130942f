"""Benchmark: Table I — SE vs MCD vs ME vs MCD+ME on a CIFAR-100-like task.

Regenerates the accuracy / ECE / relative-FLOPs comparison for ResNet-18 and
VGG-19 multi-exit MCD BayesNNs and checks the claims that survive the
scaled-down synthetic substitution (see README.md, "Reproducing the
paper", for the full discussion):

* the multi-exit variants stay accuracy-competitive with the single-exit
  baselines;
* MCD+ME always has a configuration (ensemble / early exit) that is both
  well calibrated and cheaper than — or as cheap as — its accuracy-optimal
  configuration;
* every variant costs roughly one backbone forward pass (relative FLOPs
  near 1), and confidence-based exiting pushes the ECE-optimal cost below it.

The output is also pinned: sha256 over ``json.dumps(results,
sort_keys=True, default=repr)``, as ``tests/analysis/test_paper_digests.py``
pins the other drivers.  Table I trains, so its figures go through BLAS
reductions; the digest is recorded per runner fingerprint and NumPy
version, and a platform with no recorded digest fails with the digest to
record.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.analysis import format_rows
from repro.experiments.runner import runner_fingerprint

from .conftest import benchmark_table1_settings, once

#: (runner fingerprint, NumPy version) -> sha256 of run_table1's output at
#: benchmark_table1_settings()
TABLE1_DIGESTS = {
    ("linux-x86_64-cpu2", "2.4.6"): (
        "9a669f555d045aa46f0aee889b0986a601e18bdf4c321001c862fb7bcff78bc4"
    ),
}


def _rows(results: dict) -> list[dict]:
    rows = []
    for arch, variants in results.items():
        if arch == "_meta":
            continue
        for variant in ("SE", "MCD", "ME", "MCD+ME"):
            for opt in ("acc_opt", "ece_opt"):
                entry = variants[variant][opt]
                rows.append(
                    {
                        "architecture": arch,
                        "variant": variant,
                        "objective": opt,
                        "config": entry["config"],
                        "accuracy": round(entry["accuracy"], 4),
                        "ece": round(entry["ece"], 4),
                        "relative_flops": round(entry["relative_flops"], 3),
                    }
                )
    return rows


def test_table1_multi_exit_bayesnns(benchmark):
    from repro.analysis import run_table1

    settings = benchmark_table1_settings()
    results = once(benchmark, lambda: run_table1(settings))

    print()
    print(
        format_rows(
            _rows(results),
            [
                "architecture",
                "variant",
                "objective",
                "config",
                "accuracy",
                "ece",
                "relative_flops",
            ],
            title="Table I (reproduced): SE vs MCD vs ME vs MCD+ME",
        )
    )

    for arch, variants in results.items():
        if arch == "_meta":
            continue
        acc = {
            v: variants[v]["acc_opt"]["accuracy"] for v in ("SE", "MCD", "ME", "MCD+ME")
        }
        ece = {v: variants[v]["ece_opt"]["ece"] for v in ("SE", "MCD", "ME", "MCD+ME")}
        flops = {
            v: variants[v]["acc_opt"]["relative_flops"]
            for v in ("SE", "MCD", "ME", "MCD+ME")
        }

        # multi-exit variants stay accuracy-competitive with single-exit models
        assert max(acc["ME"], acc["MCD+ME"]) >= max(acc["SE"], acc["MCD"]) - 0.10, arch
        # MCD+ME reaches good absolute calibration through its exit/ensemble configs
        assert ece["MCD+ME"] <= 0.16, arch
        assert (
            variants["MCD+ME"]["ece_opt"]["ece"]
            <= variants["MCD+ME"]["acc_opt"]["ece"] + 1e-9
        ), arch
        # cost stays in the vicinity of a single backbone pass
        assert all(f < 1.6 for f in flops.values()), arch
        # ECE-optimal configurations are not more expensive than the full ensemble
        ece_flops = variants["MCD+ME"]["ece_opt"]["relative_flops"]
        assert ece_flops <= variants["MCD+ME"]["acc_opt"]["relative_flops"] + 0.05, arch

    text = json.dumps(results, sort_keys=True, default=repr)
    digest = hashlib.sha256(text.encode()).hexdigest()
    key = (runner_fingerprint(), np.__version__)
    assert key in TABLE1_DIGESTS, (
        f"no Table I digest recorded for {key}; record this run's: {digest}"
    )
    assert digest == TABLE1_DIGESTS[key], (
        f"Table I output moved on {key}: {digest} != {TABLE1_DIGESTS[key]}"
    )
