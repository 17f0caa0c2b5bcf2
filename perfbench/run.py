"""causalrd benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each measurement runs in a fresh worker
process (perfbench/worker.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` is the median wall
time of one pass over the workload's operations (the timed phase, repeated
for S seconds), ``setup_s`` the median of five fresh-process set-ups (import
plus input construction), ``peak_rss_mb`` the measuring process's ru_maxrss.
``--trace 1`` runs an untraced and a traced worker for S/2 seconds each and
reports the per-layer metrics of the traced passes, plus the tracing overhead
as traced minus untraced median pass time.

Operations attempted and failed (raised, did not converge, exited non-zero,
failed a CLI check or missed the reference) are ``attempted`` and ``failed``
of the last line; ``correct`` is true when none failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("markov_long", "fullhist_batch", "cli_verify", "oracle_grid")
# A worker runs passes for about its --seconds; past that it gets this long
# to finish its last pass and print its result.
WORKER_GRACE_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    return "count" if name.endswith((".calls", ".iters", ".sweeps")) else "s"


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, mode, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--mode", mode,
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(result line, run record) for one run."""
    if not trace:
        # Set-up samples before and after the timed phase, so that the
        # median spans the host's state over the whole run.
        setups = [run_worker(workload, seed, 0, "setup")["setup_s"] for _ in range(2)]
        main_run = run_worker(workload, seed, seconds, "plain")
        setups += [run_worker(workload, seed, 0, "setup")["setup_s"] for _ in range(2)]
        setups.append(main_run["setup_s"])
        values = {"wall_s": statistics.median(main_run["passes"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main_run["maxrss_kb"] / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        runs = [main_run]
        record = {"setup_samples_s": setups}
    else:
        plain = run_worker(workload, seed, seconds / 2, "plain")
        traced = run_worker(workload, seed, seconds / 2, "traced")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (statistics.median(traced["passes"])
                                      - statistics.median(plain["passes"]))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        runs = [plain, traced]
        record = {"counts": traced["counts"], "counts_repeat": traced["counts_repeat"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": runs[-1]["inputs"], "meta": runs[-1]["meta"],
        "ops": attempted, "ops_failed": failed,
        "failures": [f for r in runs for f in r["failures"]],
        "passes_s": {r["mode"]: r["passes"] for r in runs},
        "op_s": {r["mode"]: r["op_s"] for r in runs},
    })
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="causalrd benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "causalrd" / "__init__.py").is_file():
        print(f"no causalrd package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        line, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for name, m in line["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} ops = {record['ops']}, ops_failed = {record['ops_failed']}",
          file=sys.stderr)
    for f in record["failures"]:
        print(f"  failed: {f}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
