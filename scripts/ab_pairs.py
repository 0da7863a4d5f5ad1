#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

Usage: python3 scripts/ab_pairs.py --base REV --workload W --seed S
           [--metric M] [--pairs 10] [--seconds 45]

REV is exported with `git archive`, and this checkout's files (tracked and
untracked, less what .gitignore names, with their uncommitted edits) are
copied, each into its own temporary directory; nothing is written into the
checkout. Each pair runs `perfbench/run.py --workload W --seed S --seconds
T --trace 0` once in each tree, one after the other, and the side that
runs first alternates from pair to pair. Each pair's end-to-end metrics
are printed as they come, then each metric's medians, quartiles and the
change's wins.

The verdict follows the rule for a claimed gain: the change must win at
least nine tenths of the pairs on the claimed metric M (a tie wins for
neither side), and its median must beat the base's by more than the
distance between the base's quartiles; every other end-to-end metric's
median must be no worse than the base's by more than its bound, and the
change may fail no larger share of operations. Without --metric no gain
is claimed, and only the last two rules apply. A metric whose base
quartile distance, relative to the base median, exceeds its bound is
"unresolved", which fails the verdict, unless every change run is better
than every base run. Bounds and directions are read from BENCHMARK.json.
Exit status 0 when the verdict holds, 1 when it does not.
"""

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_base(rev, dest):
    """The files of revision ``rev`` under ``dest``, by `git archive`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(dest):
    """This checkout's files, as they are on disk, under ``dest``."""
    names = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True,
        text=True).stdout.split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def bench_once(tree, workload, seed, seconds):
    """One untraced perfbench run in ``tree``: its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(runs, name):
    """One metric's value in each of a side's runs."""
    return [r["metrics"][name]["value"] for r in runs]


def quartiles(xs):
    """(first quartile, median, third quartile)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def wins(base, change, better):
    """Pairs in which the change is strictly better."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - b) > 0.0 for b, c in zip(base, change))


def verdict(base_runs, change_runs, claim, end_to_end):
    """The rule for a claimed gain, or for no regression, on paired runs.

    ``base_runs`` and ``change_runs`` are the JSON objects perfbench
    printed, pair by pair; ``claim`` names the claimed metric, or is None
    when no gain is claimed; ``end_to_end`` is BENCHMARK.json's list of
    metrics, each with its ``name``, ``better`` ("higher" or "lower") and
    ``bound``.  Returns (holds, one line per finding).
    """
    pairs = len(base_runs)
    lines = []
    holds = True
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        base, change = values(base_runs, name), values(change_runs, name)
        b1, b_med, b3 = quartiles(base)
        c_med = statistics.median(change)
        gain = c_med - b_med if better == "higher" else b_med - c_med
        if name == claim:
            won = wins(base, change, better)
            need = math.ceil(0.9 * pairs)
            ok = won >= need and gain > b3 - b1
            lines.append(
                f"{name}: claim {'holds' if ok else 'fails'}: {won} of "
                f"{pairs} pairs won (need {need}); median gain {gain:.6g} "
                f"against the base's quartile distance {b3 - b1:.6g}")
        else:
            worse = -gain / abs(b_med) if b_med else 0.0
            spread = (b3 - b1) / abs(b_med) if b_med else 0.0
            sign = 1.0 if better == "higher" else -1.0
            all_better = (min(sign * c for c in change)
                          > max(sign * b for b in base))
            if worse > bound:
                word, ok = "beyond its bound", False
            elif spread > bound and not all_better:
                word, ok = "unresolved", False
            else:
                word, ok = "within its bound", True
            lines.append(
                f"{name}: {word}: {worse:+.3f} worse (base spread "
                f"{spread:.3f}, bound {bound})")
        holds = holds and ok

    def failed_share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    base_fail, change_fail = failed_share(base_runs), failed_share(change_runs)
    ok = change_fail <= base_fail
    lines.append(f"failed operations: {'no larger' if ok else 'larger'} "
                 f"share ({base_fail:.3g} base, {change_fail:.3g} change)")
    return holds and ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--metric",
                        help="the end-to-end metric claimed to improve; "
                             "without it no gain is claimed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    names = [m["name"] for m in end_to_end]
    if args.metric is not None and args.metric not in names:
        parser.error(f"{args.metric!r} is not an end-to-end metric of "
                     f"BENCHMARK.json")

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {"base": os.path.join(tmp, "base"),
                 "change": os.path.join(tmp, "change")}
        export_base(args.base, trees["base"])
        copy_checkout(trees["change"])
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(bench_once(trees[side], args.workload,
                                             args.seed, args.seconds))
            cells = "  ".join(
                f"{m['name']} {values(runs['base'], m['name'])[i]:.4g} -> "
                f"{values(runs['change'], m['name'])[i]:.4g}"
                for m in end_to_end)
            print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)

    for m in end_to_end:
        name = m["name"]
        base, change = values(runs["base"], name), values(runs["change"], name)
        bq, cq = quartiles(base), quartiles(change)
        print(f"{name} ({m['better']} is better): base median {bq[1]:.6g} "
              f"[{bq[0]:.6g}, {bq[2]:.6g}], change median {cq[1]:.6g} "
              f"[{cq[0]:.6g}, {cq[2]:.6g}], change won "
              f"{wins(base, change, m['better'])} of {args.pairs}")
    holds, lines = verdict(runs["base"], runs["change"], args.metric,
                           end_to_end)
    for line in lines:
        print(line)
    print(f"verdict: {'holds' if holds else 'fails'}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
