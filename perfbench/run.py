#!/usr/bin/env python3
"""MopEye real-cost benchmark: builds perfbench_runner and runs one workload.

    python3 perfbench/run.py --workload relay_bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload crowd_ingest --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

The runner is configured and built (Release) under .bench_build/perfbench in
the checkout on first use. Every metric is printed as a readable line with
its unit and better-direction; the last line of standard output is the JSON
result: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The exit status is 0 only when the run completed and every output check
held. perfbench/README.md documents the workloads, metrics and predictions.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")

DEFAULT_SEED = 1
HELDOUT_SEED = 20160516
RUN_SECONDS = 20

RELAY = ("relay_bulk", "relay_short_flows")
CROWD = ("crowd_ingest",)
ALL = RELAY + CROWD

WORKLOADS = [
    ("relay_bulk",
     "table3 saturated profile (8 lanes x 8 tun queues, stealing, lane egress, ACK coalescing, "
     "telemetry) with 48 long flows, a third uploading: per-byte relay cost"),
    ("relay_short_flows",
     "paper model, 16 users in a closed loop of connect/512 B request/4 KiB response/close at "
     "Table 2's RTT scales: per-connection relay cost"),
    ("crowd_ingest",
     "device-clustered upload batches routed over 3 collectors with dedup, health frames, "
     "snapshots and merged queries, no simulator: collector and fleet cost"),
]

# name, unit, better, bound. Every workload reports every one of these.
END_TO_END = [
    ("work_per_cpu_s", "work/CPU-s", "higher", 0.25),
    ("step_p50_us", "us", "lower", 0.25),
    ("step_p99_us", "us", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better, workloads that exercise it (0 elsewhere).
PER_LAYER = [
    ("sim.events", "count", "lower", RELAY),
    ("sim.events_per_tun_packet", "events/packet", "lower", RELAY),
    ("sim.events_per_flow", "events/flow", "lower", RELAY),
    ("sim.pending_events_max", "count", "lower", RELAY),
    ("sim.event_ns", "ns", "lower", RELAY),
    ("sim.actor_submit_ns", "ns", "lower", RELAY),
    ("netpkt.parse_ns", "ns", "lower", RELAY),
    ("netpkt.parse_64b_ns", "ns", "lower", RELAY),
    ("netpkt.template_emit_ns", "ns", "lower", RELAY),
    ("netpkt.checksum_ns_per_kib", "ns/KiB", "lower", RELAY),
    ("netpkt.bufpool_pair_ns", "ns", "lower", RELAY),
    ("netpkt.bufpool_acquires", "count", "lower", RELAY),
    ("netpkt.bufpool_slab_allocs", "count", "lower", RELAY),
    ("netpkt.bufpool_copies", "count", "lower", RELAY),
    ("core.tcp_sm_ns", "ns", "lower", RELAY),
    ("core.tun_packets", "count", "lower", RELAY),
    ("core.data_segments", "count", "lower", RELAY),
    ("core.syns", "count", "lower", RELAY),
    ("core.connects_failed", "count", "lower", RELAY),
    ("core.acks_coalesced", "count", "higher", RELAY),
    ("core.pure_acks_produced", "count", "lower", RELAY),
    ("core.ack_coalesce_ratio", "ratio", "higher", RELAY),
    ("core.steal_handoffs", "count", "lower", RELAY),
    ("core.packets_per_lane_burst", "packets/burst", "higher", RELAY),
    ("core.busy_reader_ms", "ms_virtual", "lower", RELAY),
    ("core.busy_writer_ms", "ms_virtual", "lower", RELAY),
    ("core.busy_main_ms", "ms_virtual", "lower", RELAY),
    ("core.busy_workers_ms", "ms_virtual", "lower", RELAY),
    ("android.tun_packets_out", "count", "lower", RELAY),
    ("android.tun_packets_in", "count", "lower", RELAY),
    ("net.socket_read_events", "count", "lower", RELAY),
    ("telemetry.observes", "count", "lower", RELAY),
    ("telemetry.observe_ns", "ns", "lower", RELAY),
    ("collector.encode_ns_per_record", "ns/record", "lower", CROWD),
    ("collector.decode_ns_per_record", "ns/record", "lower", CROWD),
    ("collector.fold_ns_per_record", "ns/record", "lower", CROWD),
    ("collector.folds_per_record", "folds/record", "lower", CROWD),
    ("collector.health_fold_us", "us", "lower", CROWD),
    ("collector.wire_bytes_per_record", "B/record", "lower", CROWD),
    ("collector.batches_duplicate", "count", "lower", CROWD),
    ("collector.aggregate_keys", "count", "lower", CROWD),
    ("collector.aggregate_bytes_per_key", "B/key", "lower", CROWD),
    ("fleet.snapshot_encode_ms", "ms", "lower", CROWD),
    ("fleet.snapshot_decode_ms", "ms", "lower", CROWD),
    ("fleet.snapshot_bytes", "B", "lower", CROWD),
    ("fleet.view_refresh_ms", "ms", "lower", CROWD),
    ("fleet.query_ms", "ms", "lower", CROWD),
    ("attrib.explained_share", "ratio", "higher", ALL),
    ("attrib.remainder_ns_per_unit", "ns/unit", "lower", ALL),
    ("bench.trace_overhead_pct", "%", "lower", ALL),
    ("modelled_mbps", "Mbit/s_virtual", "higher", ("relay_bulk",)),
    ("modelled_connect_overhead_p50_ms", "ms_virtual", "lower", ("relay_short_flows",)),
    ("modelled_connect_overhead_p99_ms", "ms_virtual", "lower", ("relay_short_flows",)),
    ("modelled_rtt_err_p95_ms", "ms_virtual", "lower", ("relay_short_flows",)),
]

# Workload-specific names for the shared end-to-end metrics, printed in the
# readable report: (workload, name, metric, unit).
ALIASES = [
    ("relay_bulk", "relay_mb_per_s", "work_per_cpu_s", "MB/CPU-s"),
    ("relay_short_flows", "flows_per_s", "work_per_cpu_s", "flows/CPU-s"),
    ("crowd_ingest", "ingest_records_per_s", "work_per_cpu_s", "rec/CPU-s"),
    ("crowd_ingest", "ingest_batch_p50_us", "step_p50_us", "us"),
    ("crowd_ingest", "ingest_batch_p99_us", "step_p99_us", "us"),
    ("crowd_ingest", "query_p50_ms", "query_p50_ms", "ms"),
]
# Modelled (virtual-time) metrics, printed in every run's report.
MODELLED = [m for m in PER_LAYER if m[0].startswith("modelled_")]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(RUNNER)


def source_revision():
    """The git commit when run from a git checkout, else 'unknown'."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the runner is built from (src/ and perfbench/),
    so a result names its code even where git is absent."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="traffic seed (default %d; held-out seed %d)" % (DEFAULT_SEED,
                                                                         HELDOUT_SEED))
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every phase (self-test only)")
    ap.add_argument("--write-manifest", action="store_true",
                    help="rewrite BENCHMARK.json from the metric catalog and exit")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2

    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.size == "tiny":
        cmd += ["--size", "tiny"]
    trace_file = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: runner printed nothing (exit %d)" % proc.returncode)
        return 3
    run = json.loads(lines[-1])
    got = run["metrics"]

    env = dict(run["env"], seed=args.seed, source_revision=source_revision(),
               source_sha256=source_digest(), workload=args.workload, trace=args.trace)
    print("environment: " + json.dumps(env, sort_keys=True))
    for why in run["failures"]:
        print("FAILED CHECK: " + why)

    problems = []
    selected = {}
    catalog = END_TO_END if args.trace == 0 else PER_LAYER
    for entry in catalog:
        name, unit, better = entry[0], entry[1], entry[2]
        if args.trace == 1 and args.workload not in entry[3]:
            value = 0.0  # layer not exercised by this workload
        elif name in got and math.isfinite(got[name]):
            value = got[name]
        else:
            problems.append("metric %s missing" % name)
            continue
        if args.trace == 0 and value <= 0:
            problems.append("end-to-end metric %s is %r" % (name, value))
        selected[name] = {"value": value, "unit": unit}
        print("%-36s %16.6g %-15s (%s is better)" % (name, value, unit, better))
    for workload, alias, metric, unit in ALIASES:
        if workload == args.workload and metric in got:
            print("%-36s %16.6g %-15s (= %s)" % (alias, got[metric], unit, metric))
    if args.trace == 0:
        for name, unit, better, where in MODELLED:
            if args.workload in where:
                print("%-36s %16.6g %-15s (%s is better; virtual time)" % (name, got[name], unit,
                                                                          better))
    print("samples: %d passes over %d chunks, %d steps kept (median pass: %.6g work/CPU-s)%s" % (
        got.get("bench.passes", 0), got.get("bench.chunks", 0), got.get("bench.steps", 0),
        got.get("bench.median_pass_work_per_cpu_s", 0),
        ", %d handshakes in the window" % got["modelled.handshakes"]
        if "modelled.handshakes" in got else ""))
    if trace_file:
        print("spans written to %s" % os.path.relpath(trace_file, ROOT))
    for p in problems:
        print("PROBLEM: " + p)

    correct = proc.returncode == 0 and run["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
