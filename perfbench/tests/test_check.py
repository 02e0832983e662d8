"""Self-test of the explore benchmark's output checker.

    python3 -m unittest discover -s perfbench/tests

A run whose rows carry one altered cycle value, miss a row, or claim a
static lower bound above the measured value must count as failed; so must
a warm report that differs from the cold one and a no-op cold run. The
metric definitions in perfbench/metrics.json must agree with
BENCHMARK.json.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import check  # noqa: E402

HEADER = ("sequence,round,variant,status,cycles_per_iteration_min,"
          "cached,pred_cpi_lo")
CSV = "\n".join([
    HEADER,
    "0,0,loadstore_u1_seqL,ok,2.3921,0,2.0000",
    "1,0,loadstore_u1_seqS,ok,2.0008,0,2.0000",
    "2,0,loadstore_u2_seqLL,ok,1.5000,0,1.0000",
])


def rows():
    return check.read_rows(CSV)[1]


class SimRowsTest(unittest.TestCase):
    def test_identical_rows_in_any_order_pass(self):
        actual = list(reversed(rows()))
        self.assertEqual(check.check_sim_rows(rows(), actual), {})

    def test_altered_cycle_value_fails(self):
        actual = rows()
        actual[1]["cycles_per_iteration_min"] = "2.0009"
        bad = check.check_sim_rows(rows(), actual)
        self.assertEqual(set(bad), {"loadstore_u1_seqS"})

    def test_missing_row_fails(self):
        actual = rows()[:2]
        bad = check.check_sim_rows(rows(), actual)
        self.assertEqual(set(bad), {"loadstore_u2_seqLL"})

    def test_bound_above_measured_fails_even_when_recorded(self):
        expected = rows()
        expected[2]["pred_cpi_lo"] = "1.6000"
        actual = copy.deepcopy(expected)
        bad = check.check_sim_rows(expected, actual)
        self.assertEqual(set(bad), {"loadstore_u2_seqLL"})

    def test_duplicate_and_unexpected_rows_fail(self):
        actual = rows() + [dict(rows()[0])]
        extra = dict(rows()[0], variant="loadstore_u9_x")
        bad = check.check_sim_rows(rows(), actual + [extra])
        self.assertEqual(set(bad), {"loadstore_u1_seqL", "loadstore_u9_x"})

    def test_failures_count_once_per_variant(self):
        actual = rows()
        actual[0]["cycles_per_iteration_min"] = "9"
        actual[0]["pred_cpi_lo"] = "10"
        del actual[2]
        bad = check.check_sim_rows(rows(), actual)
        self.assertEqual(check.failed_variants(3, ["a"], [bad], []), 2)


class NativeRowsTest(unittest.TestCase):
    NAMES = ["loadstore_u1_seqL", "loadstore_u1_seqS", "loadstore_u2_seqLL"]

    def test_ok_rows_pass(self):
        self.assertEqual(check.check_native_rows(self.NAMES, rows()), {})

    def test_missing_error_and_non_positive_rows_fail(self):
        actual = rows()
        actual[0]["status"] = "error"
        actual[1]["cycles_per_iteration_min"] = "0.0000"
        del actual[2]
        bad = check.check_native_rows(self.NAMES, actual)
        self.assertEqual(set(bad), set(self.NAMES))


class ReportAndGuardTest(unittest.TestCase):
    REPORT = b"rank,variant,cycles\n1,a,1.0\n2,b,2.0\n"

    def test_equal_reports_pass(self):
        self.assertEqual(check.check_reports(self.REPORT, self.REPORT), {})

    def test_differing_report_fails_its_variants(self):
        warm = self.REPORT.replace(b"2.0", b"2.1")
        self.assertEqual(set(check.check_reports(self.REPORT, warm)), {"b"})

    def summary(self):
        return {
            "cold": {"generated": 3, "measured": 3, "hits": 0},
            "warm": [{"measured": 0, "hits": 3, "record_file_reads": 0,
                      "backend_used": 0}],
        }

    def test_good_guards_pass(self):
        self.assertEqual(check.check_guards(self.summary(), 3), [])

    def test_warm_only_process_checks_its_warm_runs(self):
        s = self.summary()
        del s["cold"]
        self.assertEqual(check.check_guards(s, 3), [])
        s["warm"][0]["backend_used"] = 1
        self.assertEqual(len(check.check_guards(s, 3)), 1)

    def test_no_op_cold_run_fails_every_variant(self):
        s = self.summary()
        s["cold"].update(measured=0, hits=3)
        problems = check.check_guards(s, 3)
        self.assertEqual(len(problems), 1)
        self.assertEqual(check.failed_variants(3, ["a"], [], problems), 3)

    def test_warm_run_that_measures_or_reads_records_fails(self):
        s = self.summary()
        s["warm"][0].update(measured=1, record_file_reads=2)
        self.assertEqual(len(check.check_guards(s, 3)), 1)


class MetricSpecTest(unittest.TestCase):
    def test_metrics_file_matches_benchmark_json(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        spec = json.loads((HERE.parent / "metrics.json").read_text())
        for kind in ("end_to_end", "per_layer"):
            ours = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
            theirs = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
            self.assertEqual(ours, theirs, kind)


if __name__ == "__main__":
    unittest.main()
