#!/usr/bin/env python3
"""Fixture suite for tools/moplint.py.

Known-bad snippets must be flagged (with the right rule on the right line);
known-good snippets must pass. Registered in ctest as `moplint_test`, so a
regression that blinds the linter fails the build like any other test.
"""

import importlib.util
import os
import sys
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TOOLS_DIR, "moplint_fixtures")

spec = importlib.util.spec_from_file_location(
    "moplint", os.path.join(TOOLS_DIR, "moplint.py"))
moplint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(moplint)


def lint_fixture(fixture_name, pseudo_path):
    """Lints a fixture file as though it lived at `pseudo_path` in the repo."""
    with open(os.path.join(FIXTURES, fixture_name), encoding="utf-8") as f:
        content = f.read()
    return moplint.lint_file(pseudo_path, content)


def rules(findings):
    return sorted(f.rule for f in findings)


class OwnerCaptureTest(unittest.TestCase):
    def test_bad_fixture_flags_both_shapes(self):
        findings = lint_fixture("bad_owner_capture.cc", "src/net/bad.cc")
        self.assertEqual(rules(findings), ["owner-capture", "owner-capture"])
        messages = " ".join(f.message for f in findings)
        self.assertIn("copy-captures `chan`", messages)
        self.assertIn("shared_from_this", messages)

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("good_owner_capture.cc", "src/net/good.cc")
        self.assertEqual(findings, [])

    def test_multiline_assignment_is_caught(self):
        code = "void F(std::shared_ptr<C> c) {\n  c->on_x =\n      [c] { Use(c); };\n}\n"
        findings = moplint.lint_file("src/net/multiline.cc", code)
        self.assertEqual(rules(findings), ["owner-capture"])
        self.assertEqual(findings[0].line, 2)

    def test_suppression_comment_is_honored(self):
        code = ("void F(std::shared_ptr<C> c) {\n"
                "  // moplint-allow: owner-capture\n"
                "  c->on_x = [c] { Use(c); };\n"
                "}\n")
        self.assertEqual(moplint.lint_file("src/net/waived.cc", code), [])


class LayeringTest(unittest.TestCase):
    def test_bad_fixture_flags_upward_includes(self):
        findings = lint_fixture("bad_layering.cc", "src/netpkt/bad_layering.cc")
        self.assertEqual(rules(findings), ["layering", "layering"])
        self.assertEqual([f.line for f in findings], [3, 4])  # net/, core/

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("good_layering.cc", "src/net/good_layering.cc")
        self.assertEqual(findings, [])

    def test_util_may_not_include_anything_above(self):
        code = '#include "netpkt/ip.h"\n'
        findings = moplint.lint_file("src/util/bad.cc", code)
        self.assertEqual(rules(findings), ["layering"])

    def test_fleet_sees_whole_dag(self):
        code = ('#include "collector/server.h"\n#include "core/engine.h"\n'
                '#include "netpkt/ip.h"\n#include "util/logging.h"\n')
        self.assertEqual(moplint.lint_file("src/fleet/ok.cc", code), [])

    def test_non_src_files_are_exempt(self):
        code = '#include "core/engine.h"\n#include "apps/app.h"\n'
        self.assertEqual(moplint.lint_file("tests/whatever_test.cc", code), [])

    def test_dag_is_acyclic_and_complete(self):
        # Guard against someone editing LAYER_DEPS into a cycle: the closure
        # must never contain the subsystem itself.
        for subsystem, deps in moplint.ALLOWED_INCLUDE_DIRS.items():
            self.assertNotIn(subsystem, deps, f"cycle through {subsystem}")


class RawMutexTest(unittest.TestCase):
    def test_bad_fixture_flags_each_primitive(self):
        findings = lint_fixture("bad_raw_mutex.cc", "src/net/bad_mutex.cc")
        self.assertEqual(rules(findings), ["raw-mutex"] * 4)
        lines = [f.line for f in findings]
        self.assertEqual(lines, sorted(lines))

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("good_mutex.cc", "src/net/good_mutex.cc")
        self.assertEqual(findings, [])

    def test_wrapper_header_is_exempt(self):
        code = "std::mutex mu_;\nstd::condition_variable cv_;\n"
        self.assertEqual(
            moplint.lint_file("src/util/thread_annotations.h", code), [])

    def test_comment_mention_is_not_a_finding(self):
        code = "// prefer moputil::Mutex over std::mutex\nint x;\n"
        self.assertEqual(moplint.lint_file("src/net/doc.cc", code), [])


class RawCounterTest(unittest.TestCase):
    def test_bad_fixture_flags_each_suffix(self):
        findings = lint_fixture("bad_raw_counter.cc", "src/collector/bad.cc")
        self.assertEqual(rules(findings), ["raw-counter"] * 12)
        messages = " ".join(f.message for f in findings)
        for name in ("frames_count_", "retries_total", "drop_counter_",
                     "batches_totals_", "packets_read_", "empty_polls_",
                     "queue_high_water_", "in_use_high_water",
                     "queue_drops_total_", "queue_frames_count",
                     "queue_high_waters_", "local_frames_total"):
            self.assertIn(name, messages)
        self.assertNotIn("bytes_sent_", messages)
        self.assertNotIn("small_count_", messages)
        self.assertNotIn("bytes_per_queue_", messages)
        self.assertNotIn("tiny_counts_", messages)

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("good_raw_counter.cc", "src/collector/good.cc")
        self.assertEqual(findings, [])

    def test_health_fold_path_fixture(self):
        # The crowd-health fold path keeps value-semantic tallies (folds_,
        # conflicts_) that the snapshot codec round-trips and the server
        # mirrors onto the registry; the rule must flag suffix-convention
        # tallies grown beside them without flagging that legitimate shape.
        findings = lint_fixture("bad_raw_counter_health.cc",
                                "src/collector/health_store.cc")
        self.assertEqual(rules(findings), ["raw-counter"] * 5)
        messages = " ".join(f.message for f in findings)
        for name in ("frames_folded_count_", "duplicates_total",
                     "entries_read_", "conflict_drop_counter_",
                     "gauge_high_water_"):
            self.assertIn(name, messages)
        for clean in ("folds_", "conflicts_", "fold_sum_",
                      "waived_scratch_count_"):
            self.assertNotIn(clean + " ", messages)

    def test_telemetry_layer_is_exempt(self):
        code = "struct S { uint64_t cells_total_ = 0; };\n"
        self.assertEqual(
            moplint.lint_file("src/telemetry/metrics_impl.cc", code), [])
        self.assertEqual(rules(moplint.lint_file("src/net/s.cc", code)),
                         ["raw-counter"])

    def test_waiver_on_preceding_line_is_honored(self):
        code = ("struct S {\n"
                "  // moplint-allow: raw-counter\n"
                "  uint64_t forks_count_ = 0;\n"
                "};\n")
        self.assertEqual(moplint.lint_file("src/util/rng2.h", code), [])


class RealTreeTest(unittest.TestCase):
    def test_repo_is_clean(self):
        root = os.path.dirname(TOOLS_DIR)
        findings = moplint.lint_tree(root)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    sys.exit(unittest.main())
