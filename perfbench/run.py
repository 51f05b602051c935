#!/usr/bin/env python3
"""The repository benchmark: one workload on all four deployments.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the simulator and the
benchmark binary (perfbench/src) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The binary runs xv6_bento, xv6_vfs,
xv6_fuse and ext4j through the workload and checks every read against the
content model; see perfbench/README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics of a traced round: span self times and block-layer latencies from
the binary, and counts from the difference of two Kernel::dump_stats()
snapshots. bench/blkparse.py cross-checks the dumped trace's event counts
against the DeviceStats deltas.

The last line of standard output is one JSON object:
  {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
LOG_OF = {"xv6_bento": "xv6fs.log", "xv6_vfs": "xv6fs_c.log",
          "xv6_fuse": "xv6fs.log", "ext4j": "ext4.jbd"}
BLOCK = 4096
CHANNELS = 8  # blk::DeviceParams::channels, the benches' device model


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as log:
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "--target", "perfbench",
                     "-j", "4"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def load(path):
    with open(path) as f:
        return json.load(f)


def structs(snapshot, name):
    """All stats objects of type `name` in a snapshot (devices and mounts)."""
    out = [d for d in snapshot.get("devices", []) if d.get("struct") == name]
    for m in snapshot.get("mounts", []):
        out += [s for s in m.get("stats", []) if s.get("struct") == name]
    return out


def total(snapshot, name, field):
    return sum(s.get(field, 0) for s in structs(snapshot, name))


def leaf_devices(snapshot):
    names = [d["device"] for d in structs(snapshot, "DeviceStats")]
    return [n for n in names if not any(o.startswith(n + "/") for o in names)]


def device_delta(end, start, names, field):
    def pick(snap):
        return sum(d.get(field, 0) for d in structs(snap, "DeviceStats")
                   if d["device"] in names)
    return pick(end) - pick(start)


def ratio(num, den):
    return num / den if den else 0.0


def blkparse_check(trace_path, pre, end, out_dir, dep, problems):
    """bench/blkparse.py cross-checks the trace trailer's exact per-device
    event counts against the DeviceStats deltas: end minus the snapshot
    taken before the traced mount armed the ring. (The binary rebuilds
    per-request latencies from the same ring in memory; parsing millions
    of JSON events here would cost more time and memory than the run.)"""
    devices = []
    for d in structs(end, "DeviceStats"):
        before = next((p for p in structs(pre, "DeviceStats")
                       if p["device"] == d["device"]), {})
        devices.append({"struct": "DeviceStats", "device": d["device"],
                        **{k: d[k] - before.get(k, 0) for k in
                           ("read_requests", "write_requests", "merges",
                            "flushes")}})
    delta_path = os.path.join(out_dir, f"{dep}.stats_delta.json")
    with open(delta_path, "w") as f:
        json.dump({"type": "stats_snapshot", "devices": devices}, f)
    with open(trace_path, "rb") as f:
        f.seek(max(0, os.path.getsize(trace_path) - (1 << 20)))
        trailer = json.loads(f.read().splitlines()[-1])
    if trailer.get("type") != "trailer" or trailer.get("dropped", 0):
        problems.append(f"{dep}: trace is truncated or dropped events")
    print(f"  {dep}: ", end="", flush=True)
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import blkparse  # noqa: E402  (the program's own trace analyzer)
    try:
        blkparse.cross_check(trailer, delta_path)
    except SystemExit:  # blkparse reports a failed check by exiting
        problems.append(f"{dep}: blkparse.py trace/stats cross-check failed")
    sys.stdout.flush()


def layer_metrics(dep, art, out_dir, problems):
    """Per-layer metrics of one deployment from its snapshots and trace."""
    pre, start, end = (load(art[k]) for k in
                       ("stats_pre", "stats_start", "stats_end"))
    m = {}
    p = dep + "."

    def delta(name, field):
        return total(end, name, field) - total(start, name, field)

    hits, misses = (delta("AddressSpaceStats", f) for f in ("hits", "misses"))
    m[p + "kernel.page_cache.hit_ratio"] = ratio(hits, hits + misses)
    m[p + "kernel.page_cache.readahead_pages"] = delta(
        "AddressSpaceStats", "readahead_pages")
    if dep != "xv6_fuse":  # the FUSE daemon does O_DIRECT I/O
        hits, misses = (delta("BufferCacheStats", f)
                        for f in ("hits", "misses"))
        m[p + "kernel.buffer_cache.hit_ratio"] = ratio(hits, hits + misses)
        m[p + "kernel.buffer_cache.evictions"] = delta("BufferCacheStats",
                                                       "evictions")
    if structs(start, "FlusherStats"):  # xv6_bento and xv6_vfs attach one
        m[p + "kernel.flusher.throttled_ms"] = delta(
            "FlusherStats", "throttled_ns") / 1e6
        m[p + "kernel.flusher.pages_flushed"] = delta("FlusherStats",
                                                      "pages_flushed")

    user_blocks = art["bytes_written"] / BLOCK
    log = p + LOG_OF[dep]
    if dep == "ext4j":
        commits = delta("JournalStats", "commits")
        logged = delta("JournalStats", "blocks_journaled")
        ops = art["mutations"]  # jbd keeps no per-op count
    else:
        struct = "CLogStats" if dep == "xv6_vfs" else "LogStats"
        commits = delta(struct, "commits")
        logged = delta(struct, "blocks_logged")
        ops = delta(struct, "ops_committed")
    m[log + ".commits"] = commits
    m[log + ".ops_per_commit"] = ratio(ops, commits)
    m[log + ".blocks_logged_per_user_block"] = ratio(logged, user_blocks)

    leaves = leaf_devices(end)
    dev = {f: device_delta(end, start, leaves, f) for f in
           ("writes", "merges", "read_requests", "write_requests", "flushes",
            "busy_ns")}
    m[p + "blockdev.write_amp"] = ratio(dev["writes"], user_blocks)
    m[p + "blockdev.merge_ratio"] = ratio(
        dev["merges"],
        dev["merges"] + dev["read_requests"] + dev["write_requests"])
    # Device time is charged per request; a device serves CHANNELS at once.
    m[p + "blockdev.busy_frac"] = ratio(
        dev["busy_ns"], art["elapsed_ns"] * len(leaves) * CHANNELS)
    m[p + "blockdev.flushes_per_fsync"] = ratio(dev["flushes"], art["fsyncs"])
    blkparse_check(art["trace"], pre, end, out_dir, dep, problems)

    if dep == "xv6_bento":
        m[p + "bento.dispatches_per_syscall"] = ratio(
            delta("ModuleStats", "dispatches"), art["syscalls"])
    if dep == "xv6_fuse":
        m[p + "fuse.requests_per_syscall"] = ratio(
            delta("FuseConnStats", "requests"), art["syscalls"])

    os.remove(art["trace"])  # hundreds of MB on stream
    return m


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    spec = load(path)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if name.endswith("ops_s"):
        return "1/s"
    if last.endswith("_us"):
        return "us"
    if last.endswith("_ns"):
        return "ns"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last in ("commits", "evictions", "pages_flushed", "readahead_pages"):
        return "count"
    return "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    started = time.monotonic()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    fresh = not os.path.exists(os.path.join(build_dir, "perfbench"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    budget = (880 if fresh else 175) - (time.monotonic() - started)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail(f"perfbench binary exceeded its {budget:.0f} s budget")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench binary printed nothing (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench binary output is not JSON: {lines[-1][:200]}")

    problems = list(res.get("problems", []))
    metrics = dict(res["metrics"])
    if args.trace == 1:
        for dep, art in res.get("artifacts", {}).items():
            metrics.update(layer_metrics(dep, art, out_dir, problems))
        metrics["fail_ratio"] = ratio(res["failed"], res["attempted"])
    shutil.rmtree(out_dir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        problems.append("metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(declared.symmetric_difference(metrics))))
    correct = bool(res["correct"]) and not problems and r.returncode == 0
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
