#!/usr/bin/env python3
"""Coverage self-test of the perfbench benchmark.

Runs every workload at a tiny size through perfbench/run.py (traced, so the
per-layer metrics are printed) and asserts, as counts, that each workload
still exercises the layers it exists for and bypasses the ones it must not
touch, that every output check passed, and that the modelled (virtual-time)
metrics are bit-identical across two runs of one seed.

    python3 perfbench/tests/selftest.py
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
MODELLED = ("modelled_mbps", "modelled_connect_overhead_p50_ms",
            "modelled_connect_overhead_p99_ms", "modelled_rtt_err_p95_ms")


def run(workload, seed=7):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0.5", "--trace", "1", "--size", "tiny"],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s failed (exit %d):\n%s\n%s" % (
            workload, proc.returncode, proc.stdout[-4000:], proc.stderr[-4000:]))
    result = json.loads(lines[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


class Coverage(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in ("relay_bulk", "relay_short_flows", "crowd_ingest"):
            cls.runs[w] = run(w)

    def test_every_workload_passes_its_output_checks(self):
        for w, (result, _) in self.runs.items():
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertGreater(result["attempted"], 0, w)

    def test_relay_bulk_coalesces_and_steals(self):
        m = self.runs["relay_bulk"][1]
        self.assertGreater(m["core.acks_coalesced"], 0)
        self.assertGreaterEqual(m["core.steal_handoffs"], 1)
        self.assertGreater(m["telemetry.observes"], 0)
        self.assertGreater(m["modelled_mbps"], 0)

    def test_relay_short_flows_bypasses_telemetry_and_coalescing(self):
        m = self.runs["relay_short_flows"][1]
        self.assertEqual(m["telemetry.observes"], 0)
        self.assertEqual(m["core.acks_coalesced"], 0)
        self.assertGreater(m["core.syns"], 0)
        self.assertGreater(m["modelled_connect_overhead_p50_ms"], 0)

    def test_crowd_ingest_runs_no_simulator(self):
        m = self.runs["crowd_ingest"][1]
        self.assertEqual(m["sim.events"], 0)
        self.assertEqual(m["core.tun_packets"], 0)
        self.assertGreater(m["collector.aggregate_keys"], 0)
        self.assertGreater(m["collector.batches_duplicate"], 0)
        self.assertGreater(m["collector.health_fold_us"], 0)

    def test_relay_workloads_report_no_collector_or_fleet_cost(self):
        for w in ("relay_bulk", "relay_short_flows"):
            m = self.runs[w][1]
            for name in ("collector.fold_ns_per_record", "fleet.snapshot_encode_ms"):
                self.assertEqual(m[name], 0, "%s %s" % (w, name))
            self.assertGreater(m["attrib.explained_share"], 0, w)

    def test_modelled_metrics_repeat_exactly_for_a_seed(self):
        for w in ("relay_bulk", "relay_short_flows"):
            again = run(w)[1]
            for name in MODELLED:
                self.assertEqual(self.runs[w][1][name], again[name], "%s %s" % (w, name))

    def test_seed_changes_traffic_not_shape(self):
        other = run("relay_short_flows", seed=8)[1]
        base = self.runs["relay_short_flows"][1]
        self.assertNotEqual(base["modelled_connect_overhead_p50_ms"],
                            other["modelled_connect_overhead_p50_ms"])
        # Same closed loop: flow count per virtual window moves by a few percent at most.
        self.assertAlmostEqual(other["core.syns"] / base["core.syns"], 1.0, delta=0.1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
