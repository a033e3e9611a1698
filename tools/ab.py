#!/usr/bin/env python3
"""Paired A/B timing of this checkout against a parent commit.

    python3 tools/ab.py --parent REF --workload W --pairs N --seconds S --seed0 K

Run from a triad checkout: the "change" side is this working tree, edits
included; the "parent" side is REF, checked out into a detached git worktree
at .ab_build/parent (removed again when the script ends, also on SIGTERM).
Each pair runs `perfbench/run.py --trace 0` once in each tree, on the same
seed (K, K+1, ...), with a separate CARGO_TARGET_DIR per side, and alternates
which side runs first. perfbench is driven as a black box: only its last
output line (one JSON object) is read.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the change/parent ratio of the medians, how many pairs the
change won and lost (ties count for neither), whether the medians differ by
more than the parent's quartile distance, and every pair's values. The
exit code is non-zero when any run fails or reports "correct": false.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree, target, workload, seed, seconds):
    """One perfbench run; returns its final JSON object."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(proc.stderr[-2000:])
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode} "
                           "without a result line") from None
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}")
    return result


def summary(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the worktree is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    work = root / ".ab_build"
    work.mkdir(exist_ok=True)
    sha = git(root, "rev-parse", "--verify", args.parent + "^{commit}")
    parent_tree = work / "parent"
    if parent_tree.exists():
        git(root, "worktree", "remove", "--force", str(parent_tree))
    git(root, "worktree", "prune")
    git(root, "worktree", "add", "--detach", str(parent_tree), sha)
    sides = {"parent": (parent_tree, work / "target-parent"),
             "change": (root, work / "target-change")}

    values = {"parent": [], "change": []}  # one metrics dict per pair
    incorrect = 0
    try:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree, target = sides[side]
                log(f"pair {i + 1}/{args.pairs} seed {seed}: {side}")
                result = run_side(tree, target, args.workload, seed,
                                  args.seconds)
                if not result["correct"]:
                    incorrect += 1
                    log(f"  {side} seed {seed}: correct = false")
                values[side].append(
                    {n: m["value"] for n, m in result["metrics"].items()})
    finally:
        git(root, "worktree", "remove", "--force", str(parent_tree))
        git(root, "worktree", "prune")

    print(f"workload {args.workload}  parent {sha[:12]}  pairs {args.pairs}"
          f"  seconds {args.seconds:g}  seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}")
    print("per pair (parent -> change):")
    for name, _ in metrics:
        pairs = " ".join(f"{p[name]:.4g}->{c[name]:.4g}" for p, c in
                         zip(values["parent"], values["change"]))
        print(f"  {name:15} {pairs}")
    print(f"{'metric':15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'won-lost':>8} "
          f"{'gap>IQR':>7}")
    for name, better in metrics:
        p = [v[name] for v in values["parent"]]
        c = [v[name] for v in values["change"]]
        pm, pq1, pq3 = summary(p)
        cm, cq1, cq3 = summary(c)
        won = sum(1 for a, b in zip(p, c)
                  if (b < a if better == "lower" else b > a))
        lost = sum(1 for a, b in zip(p, c)
                   if (b > a if better == "lower" else b < a))
        ratio = cm / pm if pm else float("nan")
        gap = abs(cm - pm) > (pq3 - pq1)
        print(f"{name:15} {pm:12.5g} [{pq1:9.5g}, {pq3:9.5g}] "
              f"{cm:12.5g} [{cq1:9.5g}, {cq3:9.5g}] {ratio:7.3f} "
              f"{won:3d}-{lost:<3d} {'yes' if gap else 'no':>7}")
    if incorrect:
        print(f"{incorrect} run(s) reported correct: false")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
