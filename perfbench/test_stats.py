"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_median_alone_under_forty_samples(self):
        for n in (1, 10, 39):
            self.assertIsNone(stats.tail_percentile(n))
            summary = stats.summarize(list(range(n)))
            self.assertEqual(set(summary), {"n", "p50"})

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_summary_reports_median_and_tail(self):
        xs = list(range(1, 1001))  # 1..1000
        summary = stats.summarize(xs)
        self.assertEqual(summary["n"], 1000)
        self.assertEqual(summary["p50"], 500.5)
        self.assertAlmostEqual(summary["p99"], 990.01)
        beyond = [x for x in xs if x > summary["p99"]]
        self.assertEqual(len(beyond), 10)

    def test_percentile_of_empty_sample_is_none(self):
        self.assertIsNone(stats.percentile([], 50.0))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))

    def test_relative_spread(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.relative_spread(xs), (q3 - q1) / q2)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        spans = [("gemm", 10, 30, -1, 0)]
        self.assertEqual(stats.self_times(spans), [20])

    def test_children_subtracted(self):
        spans = [("replay", 0, 100, -1, 0),
                 ("gemm", 10, 40, 0, 0),
                 ("check", 50, 60, 0, 0)]
        self.assertEqual(stats.self_times(spans), [60, 30, 10])

    def test_overlapping_children_counted_once(self):
        # Two children overlap on [20, 30): the parent's covered time is
        # the union [10, 40), not the sum of the children.
        spans = [("phase", 0, 100, -1, -1),
                 ("request", 10, 30, 0, 1),
                 ("request", 20, 40, 0, 2),
                 ("request", 35, 38, 0, 3)]
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_child_outside_parent_is_clipped(self):
        spans = [("parent", 0, 50, -1, -1), ("late", 40, 90, 0, -1)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_grandchildren_do_not_count_against_grandparent(self):
        spans = [("root", 0, 100, -1, 0),
                 ("child", 0, 50, 0, 0),
                 ("grandchild", 0, 50, 1, 0)]
        self.assertEqual(stats.self_times(spans), [50, 0, 50])

    def test_median_by_name_in_ms(self):
        spans = [("gemm", 0, 1_000_000, -1, 0),
                 ("gemm", 0, 3_000_000, -1, 1),
                 ("gemm", 0, 2_000_000, -1, 2)]
        self.assertEqual(stats.self_time_ms_by_name(spans), {"gemm": 2.0})


class ComputedBytes(unittest.TestCase):
    def test_bytes_from_tensor_sizes(self):
        # FP16: (M*K + K*N + M*N) * 2 bytes.
        self.assertEqual(stats.gemm_bytes(2048, 512, 512),
                         (2048 * 512 + 512 * 512 + 2048 * 512) * 2)
        self.assertEqual(stats.gemm_bytes(1, 512, 13), (13 + 13 * 512 + 512) * 2)

    def test_ops_per_byte(self):
        nbytes = stats.gemm_bytes(64, 64, 64)
        self.assertAlmostEqual(stats.ops_per_byte(2 * 64 ** 3, nbytes),
                               2 * 64 ** 3 / nbytes)

    def test_failed_measurements_are_null_not_guessed(self):
        self.assertIsNone(stats.gemm_bytes(None, 64, 64))
        self.assertIsNone(stats.ops_per_byte(1000, None))
        self.assertIsNone(stats.ops_per_byte(1000, 0))
        self.assertIsNone(stats.ops_per_byte(None, 100))
        self.assertIsNone(stats.gflops(1000, None))
        self.assertIsNone(stats.gflops(1000, 0.0))
        self.assertIsNone(stats.ratio(1.0, 0))
        self.assertIsNone(stats.ratio(None, 2.0))

    def test_gflops_over_useful_macs(self):
        # 1e9 MACs in 1000 ms = 2 GFLOP/s.
        self.assertAlmostEqual(stats.gflops(1e9, 1000.0), 2.0)


if __name__ == "__main__":
    unittest.main()
