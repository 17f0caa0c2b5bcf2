"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/ab_pairs.py --parent REF --out BENCH_<n>.json
        [--pairs 10] [--seed 1] [--seconds 25] [--workloads W ...]
        [--trace-seconds S]

Run from the repository root.  Both sides are ``git archive`` copies under a
temporary directory: the commit ``REF``, and the working tree (tracked and
untracked files that git does not ignore), so neither side sees the other's
build products.  For each workload, pair k runs ``perfbench/run.py --trace 0``
once on each side, the parent first in odd pairs and the change first in even
ones, so slow drift of the host falls on both sides alike.  With
``--trace-seconds`` each pair also runs ``perfbench/run.py --trace 1`` once
on each side, in the same order, after its untraced runs.

The output has the top-level keys ``what``, ``host``, ``workloads`` (every
result line, by workload, pair and side), ``summary`` (per metric and side
the median and quartile spread, the relative change of the medians, the
median of the per-pair change/parent ratios and the pairs the change won) and,
with traces, ``traces`` (per workload the traced runs and their summary, with
every per-layer metric).  The tool only runs ``perfbench/run.py``; it reads
nothing else under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("markov_long", "fullhist_batch", "cli_verify", "oracle_grid")
SIDES = ("parent", "change")


def git(*args, cwd, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(root: Path, tree: str, dest: Path) -> None:
    """Unpack ``git archive`` of ``tree`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree(root: Path, tmp: Path) -> str:
    """A tree object of the working tree, written through a temporary index
    so that the repository's own index is left alone."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    git("add", "-A", ".", cwd=root, env=env)
    return git("write-tree", cwd=root, env=env)


def run_once(copy: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last stdout line (the result line) of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {copy} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs):
    """(first quartile, median, third quartile) of ``xs``."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(runs: list) -> dict:
    """Per-metric medians, quartile spreads and pair ratios of one workload's
    ``runs`` ({"pair", "side", "result"} records); a metric is lower-better.
    A ratio to a parent value of 0 is None."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES)]
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            out[f"{name}.{side}.median"] = med
            out[f"{name}.{side}.iqr"] = q3 - q1
        base = out[f"{name}.parent.median"]         # a count or a time may read 0
        out[f"{name}.change_vs_parent"] = (
            (out[f"{name}.change.median"] - base) / base if base else None)
        ratios = [c / p if p else None for p, c in zip(values["parent"], values["change"])]
        out[f"{name}.pair_ratios"] = ratios
        defined = [r for r in ratios if r is not None]
        out[f"{name}.pair_ratio.median"] = statistics.median(defined) if defined else None
        out[f"{name}.pairs_change_lower"] = sum(c < p for p, c in
                                                zip(values["parent"], values["change"]))
    out["pairs"] = len(pairs)
    out["failed"] = sum(r["result"]["failed"] for r in runs)
    out["correct"] = all(r["result"]["correct"] for r in runs)
    return out


def host() -> str:
    import numpy
    return (f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit the change is measured against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--trace-seconds", type=int, default=0)
    args = ap.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    parent = git("rev-parse", "--short", args.parent, cwd=root)
    report = {
        "what": (f"perfbench/run.py result lines, parent commit {parent} against the working "
                 f"tree, each from its own git-archive copy, alternating which side runs "
                 f"first in each pair (parent first in odd pairs), --seed {args.seed} "
                 f"--seconds {args.seconds} --trace 0"
                 + (f"; 'traces' holds one --seconds {args.trace_seconds} --trace 1 result "
                    "line per side and pair, run after the pair's untraced lines in the same "
                    "order, and their summary" if args.trace_seconds else "")),
        "host": host(),
        "workloads": {},
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        tmp = Path(tmp)
        copies = {"parent": tmp / "parent", "change": tmp / "change"}
        export(root, parent, copies["parent"])
        export(root, working_tree(root, tmp), copies["change"])
        for w in args.workloads:
            runs, traced = [], []
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    result = run_once(copies[side], w, args.seed, args.seconds, 0)
                    runs.append({"pair": pair, "side": side, "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{w} pair {pair} {side}: wall_s {wall:.4g}", file=sys.stderr)
                for side in order if args.trace_seconds else ():
                    result = run_once(copies[side], w, args.seed, args.trace_seconds, 1)
                    traced.append({"pair": pair, "side": side, "result": result})
            report["workloads"][w] = {"seed": args.seed, "seconds": args.seconds, "runs": runs}
            report["summary"][w] = summarize(runs)
            if traced:
                report.setdefault("traces", {})[w] = {
                    "seed": args.seed, "seconds": args.trace_seconds, "runs": traced,
                    "summary": summarize(traced)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
