#!/usr/bin/env python3
"""Build one BENCH_history.jsonl line from interleaved perfbench runs.

    python3 bench/bench_history.py --label TEXT --parent-rev REV \\
        --parent P1.txt P2.txt ... --change C1.txt C2.txt ... \\
        >> BENCH_history.jsonl

Each input file is the stdout of one `perfbench/run.py --trace 0` run
of a single workload: report lines (host fingerprint, digest) followed
by the JSON record on the last line. Give the parent's and the
change's runs in the order they were taken, one pair per seed, run
alternately on one host. The line records the host fingerprint, both
sides' per-run end-to-end metrics with their medians, and the change's
median relative to the parent's. docs/perf.md describes the format.
"""

import argparse
import datetime
import json
import re
import statistics
import sys

HOST_RE = re.compile(
    r'^host: nproc=(\d+) cpu="([^"]*)" compiler="([^"]*)" build=(\S+)')
HEADER_RE = re.compile(r"^howsim benchmark: workload=(\S+) seed=(\d+)")
DIGEST_RE = re.compile(r"^digest: (\S+)")


def read_run(path):
    """Workload, seed, host, digest and metrics of one run's stdout."""
    with open(path) as f:
        lines = f.read().splitlines()
    run = {"path": path}
    for line in lines:
        if m := HEADER_RE.match(line):
            run["workload"], run["seed"] = m.group(1), int(m.group(2))
        elif m := HOST_RE.match(line):
            run["host"] = {"nproc": int(m.group(1)), "cpu": m.group(2),
                           "compiler": m.group(3),
                           "build_type": m.group(4)}
        elif m := DIGEST_RE.match(line):
            run["digest"] = m.group(1)
    record = json.loads(lines[-1])
    if not record.get("correct"):
        sys.exit(f"{path}: run was not correct")
    for key in ("workload", "host", "digest"):
        if key not in run:
            sys.exit(f"{path}: no {key} line; not a perfbench report")
    run["metrics"] = record["metrics"]
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="one line saying what the change does")
    parser.add_argument("--parent-rev", required=True,
                        help="git revision the change was measured against")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("give one parent run per change run")

    parent = [read_run(p) for p in args.parent]
    change = [read_run(p) for p in args.change]
    runs = parent + change
    for key in ("workload", "host"):
        if len({json.dumps(r[key]) for r in runs}) != 1:
            sys.exit(f"runs disagree on {key}: "
                     + ", ".join(f"{r['path']}={r[key]}" for r in runs))
    seeds = [r["seed"] for r in parent]
    if seeds != [r["seed"] for r in change]:
        sys.exit("parent and change runs must pair up by seed")
    for old, new in zip(parent, change):
        if old["digest"] != new["digest"]:
            sys.exit(f"{old['path']} and {new['path']}: simulated "
                     f"results differ ({old['digest']} vs "
                     f"{new['digest']})")
    digests = sorted({r["digest"] for r in parent})

    metrics = {}
    for name, first in parent[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        metrics[name] = {
            "unit": first["unit"],
            "parent": p,
            "change": c,
            "parent_median": pm,
            "change_median": cm,
            "change_vs_parent": (cm / pm - 1.0) if pm else None,
        }

    line = {
        "date": datetime.date.today().isoformat(),
        "workload": parent[0]["workload"],
        "label": args.label,
        "parent_rev": args.parent_rev,
        "host": parent[0]["host"],
        "seeds": seeds,
        "digests": digests,
        "metrics": metrics,
    }
    print(json.dumps(line, sort_keys=False))


if __name__ == "__main__":
    main()
