"""Run one workload in this fresh process and print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` times import plus input construction and stops; ``plain``
runs untraced passes; ``traced`` runs passes under the timing tracer and
replays each solved point; ``count`` runs passes under the count-only tracer.
Passes repeat, one operation after the previous one returns, until the next
pass would end past ``--seconds``; there is always at least one.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import causalrd  # noqa: E402
import workloads as wl  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_FAILURES_SHOWN = 10


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata() -> dict:
    """What a result depends on besides the benchmark code itself."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "causalrd").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "causalrd": causalrd.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_passes(ops, seconds, tracer=None):
    passes, op_s, walls, failures, per_pass = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        op_s.append([])
        for op in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:     # an op that raises is a failed op
                op_s[-1].append(time.perf_counter() - t)
                failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
                continue
            op_s[-1].append(time.perf_counter() - t)
            try:
                miss = op.check(out)
            except Exception as exc:     # so is one whose output cannot be read
                miss = f"check raised {type(exc).__name__}: {exc}"
            if miss:
                failures.append(f"{op.name}: {miss}")
            del out
        passes.append(sum(op_s[-1]))
        if tracer is not None:
            if tracer.timed:
                tracer.replay()
            per_pass.append((tracer.counts(), tracer.layer_metrics()))
            tracer.reset()
        walls.append(time.perf_counter() - t_iter)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return passes, op_s, attempted, failures, per_pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "traced", "count"))
    ap.add_argument("--perturb-refs", action="store_true",
                    help="check against perturbed references (self-test)")
    args = ap.parse_args(argv)

    work_root = wl.HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        refs = wl.load_refs()
        if args.perturb_refs:
            refs = wl.perturb_refs(refs)
        ops, inputs = wl.WORKLOADS[args.workload](args.seed, refs, workdir)
        setup_s = time.perf_counter() - T0
        out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
               "setup_s": setup_s}
        if args.mode != "setup":
            tracer = None
            if args.mode != "plain":
                from tracer import Tracer
                tracer = Tracer(timed=args.mode == "traced")
            if tracer is None:
                res = run_passes(ops, args.seconds)
            else:
                with tracer.installed():
                    res = run_passes(ops, args.seconds, tracer)
            passes, op_s, attempted, failures, per_pass = res
            out.update(passes=passes, op_s=op_s, attempted=attempted, failed=len(failures),
                       failures=failures[:MAX_FAILURES_SHOWN], inputs=inputs,
                       maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       meta=metadata())
            if per_pass:
                out["counts"] = per_pass[0][0]
                out["counts_repeat"] = all(c == per_pass[0][0] for c, _ in per_pass)
                out["layers"] = {k: statistics.median(m[k] for _, m in per_pass)
                                 for k in per_pass[0][1]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
