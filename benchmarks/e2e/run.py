"""Runner of the repo benchmark (see README.md in this directory).

``PYTHONPATH=src python -m benchmarks.e2e --seed N [--workload NAME]
[--trace] [--json PATH] [--selfcheck]`` runs the workloads one after
another, each in a fresh interpreter, prints every metric by name with its
unit, checks outputs and teardown, and exits non-zero on any failed check.

The driver form — ``python3 benchmarks/e2e/run.py --workload NAME --seed N
--seconds S --trace 0|1`` — prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: fixed by the benchmark, identical on both commits; ``--seconds`` only
#: chooses how many rounds there are
ROUND_SECONDS = 3.0
#: set-ups measured per untraced run; ``setup_s`` is their median
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# one child, with teardown asserted
# ---------------------------------------------------------------------- #
def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _orphaned(names: set[str]) -> set[str]:
    """The ``/dev/shm`` entries among ``names`` that no live process maps.

    Another process on the box may create segments while a workload runs;
    those are mapped by their owner.  What the workload's dead process
    group left behind is mapped by nobody.
    """
    mapped = set()
    for maps in Path("/proc").glob("[0-9]*/maps"):
        try:
            text = maps.read_text()
        except OSError:
            continue
        mapped.update(name for name in names if f"/dev/shm/{name}" in text)
    return (names - mapped) & _shm_entries()


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def child_env() -> dict[str, str]:
    """The workload processes' environment: import path, one BLAS thread."""
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), *inherited])
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"  # before NumPy is imported; grandchildren inherit it
    return env


def run_child(options: list[str]) -> tuple[dict | None, list[str]]:
    """One ``benchmarks.e2e.child`` in its own process group: (result, problems).

    Whatever happens inside, nothing the child started survives this
    call: the whole group is killed if anything is left, and that — like
    a new ``/dev/shm`` entry — is reported as a problem.
    """
    problems: list[str] = []
    shm_before = _shm_entries()
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", *options],
        stdout=subprocess.PIPE,
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
        stdout = b""
    # multiprocessing's resource tracker outlives its parent by a moment
    deadline = time.monotonic() + 3.0
    while process.poll() is not None and time.monotonic() < deadline:
        if not _group_members(process.pid):
            break
        time.sleep(0.05)
    left = _group_members(process.pid)
    if left:
        if process.poll() is not None:
            problems.append(f"processes left behind: {left}")
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()
    leaked = _orphaned(_shm_entries() - shm_before)
    if leaked:
        time.sleep(0.2)  # a segment between its creation and its first map
        leaked = _orphaned(leaked)
    if leaked:
        problems.append(f"/dev/shm entries left behind: {sorted(leaked)}")
    if process.returncode != 0:
        problems.append(f"workload process exited with {process.returncode}")
    result = None
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if lines and not problems:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            problems.append("workload process printed no result")
    return result, problems


def run_workload(
    name: str,
    seed: int,
    rounds: int,
    round_seconds: float,
    trace: bool,
    replay_batches: int,
    setup_runs: int = SETUP_RUNS,
) -> dict:
    """One workload, untraced or traced; returns the printable outcome."""
    if trace:  # rounds alternate untraced, traced: it takes one of each
        rounds = max(rounds, 2)

    def options(*extra: str) -> list[str]:
        return [
            f"--workload={name}",
            f"--seed={seed}",
            f"--rounds={rounds}",
            f"--round-seconds={round_seconds}",
            f"--trace={int(trace)}",
            f"--replay-batches={replay_batches}",
            f"--spawned-at={time.time()!r}",
            *extra,
        ]

    problems: list[str] = []
    setups: list[float] = []
    if not trace:  # the traced run reports no set-up time
        for _ in range(setup_runs - 1):
            result, bad = run_child(options("--setup-only"))
            problems += bad
            if result is not None:
                setups.append(result["setup_s"])
    result, bad = run_child(options())
    problems += bad
    outcome = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": 1,
        "failed": 1,
        "metrics": {},
        "problems": problems,
    }
    if result is None:
        return outcome
    metrics = result.pop("layers") if trace else result["e2e"]
    if not trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        outcome["setup_runs_s"] = setups
    for check, passed in result["checks"].items():
        if not passed:
            problems.append(f"check failed: {check}")
    for metric, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{metric} is not finite")
    outcome.update(
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=metrics,
        probe_bit_hash=result["probe_bit_hash"],
        input_hash=result["input_hash"],
        rounds=result["rounds"],
    )
    return outcome


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
def report(outcome: dict, units: dict[str, str], wanted: list[str]) -> dict:
    """Print one outcome by metric name and unit; returns the driver object."""
    kind = "traced" if outcome["trace"] else "end to end"
    print(f"== {outcome['workload']}  seed {outcome['seed']}  ({kind}) ==")
    metrics = outcome["metrics"]
    problems = list(outcome["problems"])
    for name in wanted:
        if name not in metrics and outcome["trace"] and metrics:
            # its probe found the program API gone (see layers.skipping)
            metrics[name] = 0.0
            print(f"  NOTE: {name} was not measured; reported as 0")
        if name in metrics:
            print(f"  {name:<38} {metrics[name]:>16.6f} {units[name]}")
        else:
            problems.append(f"metric missing: {name}")
    for key in ("probe_bit_hash", "input_hash"):
        if key in outcome:
            print(f"  {key:<38} {outcome[key]}")
    print(
        f"  operations: {outcome['attempted']} attempted, "
        f"{outcome['attempted'] - outcome['failed']} ok, {outcome['failed']} failed"
    )
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    driver = {
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(driver), flush=True)
    return driver


def selfcheck(first: list[dict], second: list[dict], spec: dict) -> bool:
    """Two back-to-back suites against the bounds; ``True`` when all hold."""
    print("== selfcheck: second suite against the first ==")
    print(
        f"  {'workload':<14} {'metric':<16} {'first':>12} {'second':>12} "
        f"{'worse by':>9} {'bound':>6}"
    )
    holds = True
    for a, b in zip(first, second):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["metrics"] or name not in b["metrics"]:
                holds = False
                continue
            x, y = a["metrics"][name], b["metrics"][name]
            worse = (x - y) / x if metric["better"] == "higher" else (y - x) / x
            ok = worse <= metric["bound"]
            holds &= ok
            print(
                f"  {a['workload']:<14} {name:<16} {x:>12.4f} {y:>12.4f} "
                f"{worse:>+9.1%} {metric['bound']:>6.0%}{'' if ok else '  EXCEEDED'}"
            )
    return holds


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=workloads, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help=f"timed seconds per workload, in rounds of {ROUND_SECONDS} s",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=("0", "1", "both"),
        help="0: end-to-end metrics; 1: per-layer metrics from a traced run; "
        "bare --trace: both, one run after the other",
    )
    parser.add_argument("--json", default=None, help="also write all outcomes here")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the untraced suite twice and compare against the bounds",
    )
    parser.add_argument(
        "--round-seconds", type=float, default=ROUND_SECONDS, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--replay-batches", type=int, default=64, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--setup-runs", type=int, default=SETUP_RUNS, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [args.workload] if args.workload else workloads
    rounds = max(1, round(args.seconds / args.round_seconds))
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    if args.selfcheck:
        modes = [False]

    def suite() -> list[dict]:
        outcomes = []
        for name in names:
            for trace in modes:
                outcome = run_workload(
                    name,
                    args.seed,
                    rounds,
                    args.round_seconds,
                    trace,
                    args.replay_batches,
                    args.setup_runs,
                )
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                outcome["driver"] = report(
                    outcome, units, [metric["name"] for metric in wanted]
                )
                outcomes.append(outcome)
        return outcomes

    outcomes = suite()
    ok = all(outcome["driver"]["correct"] for outcome in outcomes)
    if args.selfcheck:
        again = suite()
        ok &= all(outcome["driver"]["correct"] for outcome in again)
        ok &= selfcheck(outcomes, again, spec)
        outcomes += again
    if args.json:
        Path(args.json).write_text(json.dumps(outcomes, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
