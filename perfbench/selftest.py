"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, at seed 0, it runs one pass in two fresh processes:

1. under the count-only tracer, checked against perturbed references
   (rates moved by 1e-3 nats, oracle values by one ulp): every operation
   must count as failed;
2. under the timing tracer, against the true references: no operation may
   fail.

The calls, sweeps and Blahut-Arimoto iterations of the two passes must be
equal, which shows that timing and replays do not change the work done.
Exits 0 when every check holds.
"""
from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, WorkerError, run_worker

SEED = 0


def check_workload(workload: str, seed: int) -> list:
    problems = []
    perturbed = run_worker(workload, seed, 0, "count", "--perturb-refs")
    traced = run_worker(workload, seed, 0, "traced")
    if perturbed["failed"] != perturbed["attempted"]:
        problems.append(f"{perturbed['attempted'] - perturbed['failed']} of "
                        f"{perturbed['attempted']} ops passed perturbed references")
    if traced["failed"]:
        problems.append(f"{traced['failed']} ops failed the true references: "
                        f"{traced['failures']}")
    a, b = perturbed["counts"], traced["counts"]
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            problems.append(f"count {key}: untimed {a.get(key)} != timed {b.get(key)}")
    print(f"{workload}: {perturbed['attempted']} ops; counts "
          f"{ {k: v for k, v in b.items() if k.endswith(('sweeps', 'iters'))} }; "
          f"{'ok' if not problems else 'FAILED'}", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    problems = []
    for w in WORKLOADS:
        try:
            problems += [f"{w}: {p}" for p in check_workload(w, SEED)]
        except WorkerError as exc:
            problems.append(f"{w}: {exc}")
    for p in problems:
        print(p, file=sys.stderr)
    print("self-test " + ("passed" if not problems else "FAILED"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
