#!/usr/bin/env python3
"""Howsim benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (BENCHMARK.json gives the reason for each):

    fig_batch        Figure 1 at 16 and 128 disks, 48 experiments,
                     core::runExperiments with jobs = nproc
    serial128        the 128-disk Active Disk and cluster slices,
                     16 experiments, jobs = 1
    traffic_faulted  traffic::runTraffic on active, cluster and smp at
                     64 disks under a seeded fault plan

The program under test is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. Lines
before it are a human-readable report: host fingerprint, the digest of
all simulated results, the Figure 1 band table and every metric with
its unit. README.md in this directory says which layer metric should
move which end-to-end metric.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig_batch", "serial128", "traffic_faulted")
BUSES = ("fc-al", "pci", "bte", "xio", "numalink")
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850
PROBE_MAX_OPS = 50000
PROBE_MIN_OPS = 1000


class BenchError(Exception):
    pass


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


# ---------------------------------------------------------------- arithmetic


def median(values):
    return statistics.median(values)


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest value with at least a
    q share of the values at or below it (q = 1 gives the maximum)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def band_distance(ratio, lo, hi):
    """How far a ratio lies outside [lo, hi], as a multiplicative
    excess: 0 inside, max(ratio/hi, lo/ratio) - 1 outside."""
    if lo <= ratio <= hi:
        return 0.0
    return max(ratio / hi, lo / ratio) - 1.0


def op_outcome(op):
    """The simulated part of an operation's record (no host times)."""
    skip = ("worker", "start_s", "host_s", "ref_s", "error")
    return {k: v for k, v in op.items() if k not in skip}


def digest(ops):
    """Order-sensitive digest of the simulated results of @p ops."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op_outcome(op), sort_keys=True).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------- the program


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build howbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("howsim sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found on PATH")
    out = build_dir()
    steps = [["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    # A configured tree re-runs cmake by itself when a build file
    # changed, so configure only once.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        if execute(cmd, BUILD_TIMEOUT_S, sys.stderr)[0] != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "howbench")


def execute(cmd, timeout, stdout):
    """Run @p cmd in its own process group, which is killed and reaped
    when it outlives @p timeout; returns (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} did not "
                         f"finish in time")
    return proc.returncode, out


def call(binary, args, deadline):
    """Run howbench; return the JSON record on its last stdout line."""
    code, out = execute([binary] + args, deadline - time.monotonic(),
                        subprocess.PIPE)
    if code != 0:
        raise BenchError(f"howbench {args[0]} exited with {code}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"howbench {args[0]} printed nothing")
    return json.loads(lines[-1])


# -------------------------------------------------------------------- checks


class Checker:
    """Counts operations attempted and failed; records why."""

    def __init__(self, expected_output):
        self.expected = expected_output
        self.attempted = 0
        self.failures = []

    def fail(self, op, why):
        self.failures.append(f"{op['id']}: {why}")

    def section(self, sec):
        """Per-operation checks; returns the ids that failed."""
        bad = set()
        for op in sec["ops"]:
            self.attempted += 1
            why = self.op_problem(op)
            if why:
                self.fail(op, f"{sec['name']}: {why}")
                bad.add(op["id"])
        return bad

    def op_problem(self, op):
        if not op["ok"]:
            return "threw: " + op.get("error", "")
        if "submitted" in op:
            settled = op["completed"] + op["rejected"] + op["shed"]
            if settled != op["submitted"]:
                return (f"completed+rejected+shed={settled} != "
                        f"submitted={op['submitted']}")
            return None
        want = self.expected.get(op["id"])
        if want is None:
            return "no expected outputBytes committed"
        if op["output_bytes"] != want:
            return f"outputBytes {op['output_bytes']} != {want}"
        return None

    def same(self, base, other, label, bad):
        """Fail every op of @p other whose result differs from the op
        with the same id in @p base (not already failed)."""
        by_id = {op["id"]: op for op in base["ops"]}
        for op in other["ops"]:
            ref = by_id.get(op["id"])
            if op["id"] in bad or ref is None:
                continue
            if op_outcome(op) != op_outcome(ref):
                self.fail(op, f"{label}: simulated result differs")
                bad.add(op["id"])


def check_record(rec, expected_output):
    chk = Checker(expected_output)
    secs = rec["sections"]
    bad_by_sec = [chk.section(s) for s in secs]
    first = secs[0]
    for sec, bad in zip(secs[1:], bad_by_sec[1:]):
        if sec["name"] in ("timed", "traced"):
            chk.same(first, sec, f"pass '{sec['name']}' vs first pass",
                     bad)
        elif sec["name"] == "reference":
            chk.same(first, sec, "jobs=1 reference vs jobs=nproc", bad)
    return chk


# ------------------------------------------------------------------- metrics


def paper_rows(ops, bands):
    """(row, ratio, distance) for every band row the ops cover."""
    secs = {op["id"]: op["elapsed_ticks"] for op in ops
            if "elapsed_ticks" in op}
    rows = []
    for b in bands["rows"]:
        if b["num"] in secs and b["den"] in secs and secs[b["den"]] > 0:
            ratio = secs[b["num"]] / secs[b["den"]]
            rows.append((b, ratio, band_distance(ratio, b["lo"], b["hi"])))
    return rows


def paper_err(rows):
    return sum(d for _, _, d in rows) / len(rows) if rows else 0.0


def normalized_pass(sec):
    """A pass's makespan in reference-kernel units. Operations are
    taken in start order over all workers; each one's host time is
    divided by the median of the reference times taken before it and
    before its two neighbours in that order (the host's speed around
    it), and the busiest worker's sum is the pass's value."""
    ops = sorted(sec["ops"], key=lambda op: op["start_s"])
    busy = {}
    for i, op in enumerate(ops):
        near = [o.get("ref_s") for o in ops[max(0, i - 1):i + 2]]
        if None in near:
            raise BenchError(f"{op['id']}: no reference time")
        busy[op["worker"]] = (busy.get(op["worker"], 0.0)
                              + op["host_s"] / median(near))
    return max(busy.values())


def timed_passes(rec):
    return [s for s in rec["sections"] if s["name"] == "timed"]


def end_to_end(rec, chk):
    norm = [normalized_pass(s) for s in timed_passes(rec)]
    return {
        "wall_norm": (median(norm), "ref"),
        "setup_s": (median(rec["setup_round_s"]), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "ok_frac": (1 - len(chk.failures) / chk.attempted, "fraction"),
    }


def read_metrics(directory):
    files = sorted(glob.glob(os.path.join(directory, "*.metrics.json")))
    if not files:
        raise BenchError(f"traced run wrote no metrics JSON in "
                         f"{directory}")
    docs = []
    for path in files:
        with open(path) as f:
            docs.append(json.load(f))
    return docs


def sum_counters(docs, pattern):
    rx = re.compile(pattern)
    return sum(v for d in docs for k, v in d["counters"].items()
               if rx.fullmatch(k))


def sum_hist(docs, pattern):
    rx = re.compile(pattern)
    return sum(v["sum"] for d in docs for k, v in d["histograms"].items()
               if rx.fullmatch(k))


def runner_stats(sec):
    """Busy share of the runner's workers and its tail share of wall."""
    wall = sec["wall_s"]
    busy = sum(op["host_s"] for op in sec["ops"])
    last_end = {}
    for op in sec["ops"]:
        end = op["start_s"] + op["host_s"]
        last_end[op["worker"]] = max(last_end.get(op["worker"], 0), end)
    ends = list(last_end.values())
    tail = max(ends) - min(ends)
    return busy / (sec["jobs"] * wall), tail / wall


def per_layer(rec, docs, probe, bands):
    secs = {s["name"]: s for s in rec["sections"]}
    plain, traced = secs["untraced"], secs["traced"]
    ops = plain["ops"]
    batch = [op for op in ops if "elapsed_ticks" in op]
    flows = [op for op in ops if "submitted" in op]
    m = {}
    sim_s = 1e-9

    host = [op["host_s"] for op in ops]
    build_s = median(rec["setup_round_s"]) / rec["machines"]
    busy_frac, tail_frac = runner_stats(plain)
    m["core.exp_host_s.p50"] = (nearest_rank(host, 0.5), "s")
    m["core.exp_host_s.max"] = (nearest_rank(host, 1.0), "s")
    m["core.runner.busy_frac"] = (busy_frac, "fraction")
    m["core.runner.tail_frac"] = (tail_frac, "fraction")
    m["core.build_s"] = (build_s, "s")

    events = plain["events"]
    loop_s = sum(host) - build_s * len(ops)
    simulated = (sum(op["elapsed_ticks"] for op in batch)
                 + sum(op["last_completion_ticks"] for op in flows))
    m["sim.events"] = (events, "count")
    m["sim.host_ns_per_event"] = (loop_s * 1e9 / events, "ns/event")
    m["sim.simulated_s"] = (simulated * sim_s, "sim_s")

    dev = r"(ad|node|smpdisk)\d+\."
    reqs = sum_counters(docs, dev + "requests")
    read = sum_counters(docs, dev + "bytes_read")
    moved = read + sum_counters(docs, dev + "bytes_written")
    hits = sum_counters(docs, dev + "cache_hit_bytes")
    m["disk.requests"] = (reqs, "count")
    m["disk.bytes"] = (moved, "bytes")
    m["disk.seeks"] = (sum_counters(docs, dev + "seeks"), "count")
    m["disk.cache_hit_frac"] = (hits / read if read else 0.0, "fraction")
    m["disk.busy_s"] = (sum_hist(docs, dev + "service_ticks") * sim_s,
                        "sim_s")
    m["disk.queue_s"] = (sum_hist(docs, dev + "queue_ticks") * sim_s,
                         "sim_s")
    m["disk.probe.host_ns_per_request"] = (probe["disk_ns_per_request"],
                                           "ns/request")

    for bus in BUSES:
        key = re.escape(bus)
        m[f"bus.{bus}.transfers"] = (sum_counters(docs, key + r"\.transfers"),
                                     "count")
        m[f"bus.{bus}.bytes"] = (sum_counters(docs, key + r"\.bytes"),
                                 "bytes")
        m[f"bus.{bus}.wait_s"] = (sum_hist(docs, key + r"\.wait_ticks")
                                  * sim_s, "sim_s")
    m["bus.probe.host_ns_per_transfer"] = (probe["bus_ns_per_transfer"],
                                           "ns/transfer")

    m["net.transfers"] = (sum_counters(docs, r"net\.h\d+\.tx\.transfers"),
                          "count")
    m["net.bytes_moved"] = (sum_counters(docs, r"net\.bytes_moved"),
                            "bytes")
    m["net.switch_wait_s"] = (sum_hist(docs,
                                       r"net\.sw\d+\.(up|down)\.wait_ticks")
                              * sim_s, "sim_s")
    m["msg.sent"] = (sum_counters(docs, r"msg\.sent"), "count")
    m["net.probe.host_ns_per_message"] = (probe["net_ns_per_message"],
                                          "ns/message")

    m["frontend.buffers.wait_s"] = (
        sum_hist(docs, r"frontend\.buffers\.wait_ticks") * sim_s, "sim_s")
    m["comm_buffers.wait_s"] = (
        sum_hist(docs, r"ad\d+\.comm_buffers\.wait_ticks") * sim_s, "sim_s")

    m["cpu.busy_s"] = (sum(v for op in batch
                           for k, v in op["buckets"].items()
                           if not k.endswith(".elapsed")), "sim_s")
    m["tasks.output_bytes"] = (sum(op["output_bytes"] for op in batch),
                               "bytes")
    m["tasks.interconnect_bytes"] = (
        sum(op["interconnect_bytes"] for op in batch), "bytes")

    submitted = sum(op["submitted"] for op in flows)
    classes = [c for op in flows for c in op["classes"]]
    m["traffic.submitted"] = (submitted, "count")
    m["traffic.completed"] = (sum(op["completed"] for op in flows), "count")
    m["traffic.retried"] = (sum(op["retried"] for op in flows), "count")
    m["traffic.peak_inflight"] = (
        max((op["peak_inflight"] for op in flows), default=0), "count")
    m["traffic.peak_queued"] = (
        max((op["peak_queued"] for op in flows), default=0), "count")
    m["traffic.p50_ms"] = (
        max((c["p50_ticks"] for c in classes), default=0) * 1e-6, "sim_ms")
    m["traffic.p99_ms"] = (
        max((c["p99_ticks"] for c in classes), default=0) * 1e-6, "sim_ms")
    flow_s = sum(op["host_s"] for op in flows)
    m["traffic.host_ms_per_query"] = (
        flow_s * 1e3 / submitted if submitted else 0.0, "ms/query")

    m["fault.disk.retries"] = (sum_hist(docs, dev + r"fault\.retries"),
                               "count")
    m["fault.disk.media_errors"] = (
        sum_counters(docs, dev + r"fault\.media_errors"), "count")
    m["fault.disk.remaps"] = (sum_counters(docs, dev + r"fault\.remap_hits"),
                              "count")
    m["fault.net.retransmits"] = (
        sum_counters(docs, r"(adloop|msg)\.fault\.retransmits"), "count")
    free = secs.get("fault_free")
    overhead = (flow_s / sum(op["host_s"] for op in free["ops"]) - 1
                if free else 0.0)
    m["fault.host_overhead_frac"] = (overhead, "fraction")

    m["obs.trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1,
                                    "fraction")

    rows = paper_rows(batch, bands)
    m["paper_err"] = (paper_err(rows), "fraction")
    m["paper.rows_out"] = (sum(1 for _, _, d in rows if d > 0), "count")
    return m


def probe_args(docs):
    """Probe sizes from the workload's own counters, clamped."""
    def clamp(n):
        return int(min(max(n, PROBE_MIN_OPS), PROBE_MAX_OPS))

    dev = r"(ad|node|smpdisk)\d+\."
    reqs = sum_counters(docs, dev + "requests")
    moved = (sum_counters(docs, dev + "bytes_read")
             + sum_counters(docs, dev + "bytes_written"))
    xfers = sum(sum_counters(docs, re.escape(b) + r"\.transfers")
                for b in BUSES)
    xbytes = sum(sum_counters(docs, re.escape(b) + r"\.bytes")
                 for b in BUSES)
    msgs = sum_counters(docs, r"msg\.sent")
    mbytes = sum_counters(docs, r"msg\.bytes")
    return [
        f"disk.requests={clamp(reqs)}",
        f"disk.sectors={max(1, round(moved / reqs / 512)) if reqs else 128}",
        f"bus.transfers={clamp(xfers)}",
        f"bus.bytes={round(xbytes / xfers) if xfers else 65536}",
        f"net.messages={clamp(msgs)}",
        f"net.bytes={round(mbytes / msgs) if msgs else 65536}",
    ]


# -------------------------------------------------------------------- report


def metric_names(bench, kind):
    return [m["name"] for m in bench[kind]]


def check_names(metrics, bench, kind):
    want = metric_names(bench, kind)
    if sorted(metrics) != sorted(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise BenchError(f"metric names differ from BENCHMARK.json "
                         f"{kind}: missing {missing}, extra {extra}")
    units = {m["name"]: m["unit"] for m in bench[kind]}
    for name, (_, unit) in metrics.items():
        if units[name] != unit:
            raise BenchError(f"{name}: unit {unit} != BENCHMARK.json "
                             f"{units[name]}")


def report(rec, chk, bands, args):
    host = rec["host"]
    print(f"howsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: nproc={host['nproc']} cpu=\"{host['cpu']}\" "
          f"compiler=\"{host['compiler']}\" build={host['build_type']}")
    for sec in rec["sections"]:
        print(f"section {sec['name']}: {len(sec['ops'])} ops, "
              f"jobs={sec['jobs']}, {sec['events']} events, "
              f"wall {sec['wall_s']:.3f} s")
    timed = timed_passes(rec)
    if timed:
        refs = [op["ref_s"] for s in timed for op in s["ops"]]
        norm = ", ".join(f"{normalized_pass(s):.3f}" for s in timed)
        print(f"reference kernel: median {median(refs) * 1e3:.2f} ms, "
              f"range {min(refs) * 1e3:.2f}-{max(refs) * 1e3:.2f} ms "
              f"over {len(refs)} runs; passes in reference units: "
              f"{norm}; median pass wall "
              f"{median(s['wall_s'] for s in timed):.4f} s")
    first = rec["sections"][0]
    print(f"digest: {digest(first['ops'])} (simulated results of the "
          f"first pass; equal in every pass of every run of this "
          f"workload and seed)")
    flows = [op for op in first["ops"] if "fingerprint" in op]
    for op in flows:
        print(f"traffic {op['id']}: submitted={op['submitted']} "
              f"completed={op['completed']} retried={op['retried']} "
              f"fingerprint={op['fingerprint']}")
    rows = paper_rows(first["ops"], bands)
    if rows:
        print(f"paper bands ({len(rows)} Figure 1 rows):")
        for b, ratio, d in rows:
            status = "in" if d == 0 else "OUT"
            print(f"  {b['row']:<26} {ratio:8.3f}  "
                  f"[{b['lo']}, {b['hi']}]  {status:<3} {d:.4f}")
        outside = sum(1 for _, _, d in rows if d > 0)
        print(f"paper_err = {paper_err(rows):.6f} fraction "
              f"({outside} of {len(rows)} rows outside)")
    print(f"operations: {chk.attempted} attempted, "
          f"{len(chk.failures)} failed "
          f"(failed_frac = {len(chk.failures) / chk.attempted:.6f})")
    for why in chk.failures:
        print(f"  FAILED {why}")


def run(args):
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    bands = load_json("paper_bands.json")
    expected = load_json("expected_output.json")["output_bytes"]
    binary = build()
    # Only the first run in a checkout compiles anything; the run's
    # own allowance starts after the build.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    cmd = ["run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_dir = os.path.join(build_dir(), "trace", args.workload)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(os.path.join(trace_dir, "metrics"))
        cmd += ["--trace-dir", trace_dir]
    rec = call(binary, cmd, deadline)
    chk = check_record(rec, expected)
    report(rec, chk, bands, args)

    if args.trace:
        docs = read_metrics(os.path.join(trace_dir, "metrics"))
        probe = call(binary, ["probe"] + probe_args(docs), deadline)
        metrics = per_layer(rec, docs, probe, bands)
        check_names(metrics, bench, "per_layer")
        print(f"spans: {os.path.join(trace_dir, 'spans.json')}")
    else:
        metrics = end_to_end(rec, chk)
        check_names(metrics, bench, "end_to_end")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not chk.failures,
        "attempted": chk.attempted,
        "failed": len(chk.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def check_environment():
    knobs = sorted(k for k in os.environ if k.startswith("HOWSIM_"))
    if knobs:
        raise BenchError(
            f"environment variable {knobs[0]} is set; the benchmark runs "
            f"howsim with its defaults, so unset every HOWSIM_* variable "
            f"({', '.join(knobs)})")


# ----------------------------------------------------------------- self-test


def self_test():
    """Checks of the benchmark's own arithmetic and metric names."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    expect(band_distance(9.0, 8.5, 9.5) == 0.0, "inside band is 0")
    expect(band_distance(8.5, 8.5, 9.5) == 0.0, "band edges are inside")
    expect(abs(band_distance(19.0, 8.5, 9.5) - 1.0) < 1e-12,
           "2x above the band is 1")
    expect(abs(band_distance(2.0, 4, 6) - 1.0) < 1e-12,
           "2x below the band is 1")
    expect(abs(band_distance(12.76, 8.5, 9.5) - (12.76 / 9.5 - 1)) < 1e-12,
           "above band measured from hi")

    vals = [5, 1, 4, 2, 3]
    expect(nearest_rank(vals, 0.5) == 3, "p50 of 1..5 is 3")
    expect(nearest_rank(vals, 1.0) == 5, "p100 is the maximum")
    expect(nearest_rank(vals, 0.01) == 1, "tiny q is the minimum")
    expect(nearest_rank(list(range(1, 101)), 0.99) == 99, "p99 of 1..100")
    expect(median([3, 1, 2, 10]) == 2.5, "even-count median averages")

    a = {"id": "active/select/16", "ok": True, "worker": 0, "start_s": 1.0,
         "host_s": 0.5, "elapsed_ticks": 7, "output_bytes": 9,
         "buckets": {"x.elapsed": 0.1, "y": 2.0}}
    b = dict(a, worker=3, start_s=9.0, host_s=0.7, ref_s=0.2,
             buckets={"y": 2.0, "x.elapsed": 0.1})
    c = dict(a, elapsed_ticks=8)
    expect(digest([a]) == digest([b]), "digest ignores host fields and "
           "key order")
    expect(digest([a]) != digest([c]), "digest sees a tick change")
    expect(digest([a, c]) != digest([c, a]), "digest is order-sensitive")

    bands = load_json("paper_bands.json")
    expect(len(bands["rows"]) == 16, "16 Figure 1 band rows")
    expected = load_json("expected_output.json")["output_bytes"]
    chk = Checker(expected)
    sec = {"name": "timed", "ops": [dict(a, output_bytes=expected[a["id"]]),
                                    dict(a, id="cluster/select/16",
                                         output_bytes=1)]}
    expect(chk.section(sec) == {"cluster/select/16"},
           "outputBytes mismatch fails only its op")
    flow = {"id": "smp/traffic/64", "ok": True, "submitted": 5,
            "completed": 3, "rejected": 1, "shed": 0}
    expect(Checker(expected).op_problem(flow) is not None,
           "unsettled traffic queries fail")

    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    ops = [dict(a, id=i, output_bytes=expected[i], elapsed_ticks=n + 1,
                interconnect_bytes=0, ref_s=0.1)
           for n, i in enumerate(expected)]
    rec = {"setup_round_s": [0.1, 0.2, 0.3], "machines": 3,
           "peak_rss_mb": 10.0,
           "sections": [{"name": "timed", "wall_s": 1.0, "jobs": 1,
                         "events": 10, "ops": ops}]}
    try:
        check_names(end_to_end(rec, check_record(rec, expected)), bench,
                    "end_to_end")
    except BenchError as e:
        failures.append(str(e))
    docs = [{"counters": {"ad0.requests": 4, "ad0.bytes_read": 4096,
                          "ad0.bytes_written": 0, "ad0.cache_hit_bytes": 0,
                          "ad0.seeks": 1},
             "gauges": {}, "histograms": {}}]
    traced = dict(rec, sections=[
        {"name": "untraced", "wall_s": 1.0, "jobs": 1, "events": 10,
         "ops": ops},
        {"name": "traced", "wall_s": 1.1, "jobs": 1, "events": 10,
         "ops": ops}])
    probe = {"disk_ns_per_request": 1.0, "bus_ns_per_transfer": 1.0,
             "net_ns_per_message": 1.0}
    try:
        layers = per_layer(traced, docs, probe, bands)
        check_names(layers, bench, "per_layer")
        expect(layers["cpu.busy_s"][0] == 2.0 * len(ops),
               "cpu.busy_s leaves out the .elapsed buckets")
    except BenchError as e:
        failures.append(str(e))
    names = metric_names(bench, "end_to_end") + metric_names(bench,
                                                             "per_layer")
    expect(len(names) == len(set(names)), "metric names are unique")

    def op(worker, start, host, ref):
        return {"id": f"op{worker}.{start}", "worker": worker,
                "start_s": start, "host_s": host, "ref_s": ref}

    sec = {"ops": [op(0, 3, 8.0, 4.0), op(0, 1, 3.0, 1.0),
                   op(1, 2, 4.0, 2.0), op(1, 4, 9.0, 9.0)]}
    # In start order the references are 1, 2, 4, 9; the local medians
    # are 1.5, 2, 4 and 6.5. Worker 0: 3/1.5 + 8/4 = 4; worker 1:
    # 4/2 + 9/6.5.
    expect(abs(normalized_pass(sec) - 4.0) < 1e-12,
           "each operation over the median reference around it; the "
           "busiest worker sets the pass")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "workloads match BENCHMARK.json")

    for f in failures:
        print(f"self-test FAILED: {f}")
    print(f"self-test: {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        check_environment()
        if args.workload is None:
            raise BenchError("--workload is required")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        run(args)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
