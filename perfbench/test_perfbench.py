"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import perfbench as pb

POOL = [[s, 100 + s, 1000 * s, 2000 * s] for s in range(1, 41)]
SERVE_POOLS = {cls: [[50, (7 * i) % 31] for i in range(40)]
               for cls, _ in pb.SERVE_CLASSES}


class InputsTest(unittest.TestCase):
    def test_heavy_corpus_is_a_function_of_the_seed(self):
        self.assertEqual(pb.heavy_corpus(7, POOL), pb.heavy_corpus(7, POOL))
        self.assertNotEqual(pb.heavy_corpus(7, POOL), pb.heavy_corpus(8, POOL))
        self.assertEqual(sorted(pb.heavy_corpus(7, POOL)),
                         sorted(pb.heavy_corpus(8, POOL)))

    def test_heavy_corpus_spans_the_pool_cost_range(self):
        corpus = pb.heavy_corpus(3, POOL, size=8)
        seeds = sorted(int(s.rsplit("=", 1)[1]) for s in corpus)
        self.assertEqual(seeds, [3, 8, 13, 18, 23, 28, 33, 38])
        self.assertTrue(all(s.startswith(pb.HEAVY_FAMILY) for s in corpus))

    def test_serve_stream_is_a_function_of_the_seed(self):
        a = pb.serve_stream(1, SERVE_POOLS, per_pair=6)
        self.assertEqual(a, pb.serve_stream(1, SERVE_POOLS, per_pair=6))
        b = pb.serve_stream(2, SERVE_POOLS, per_pair=6)
        self.assertNotEqual(a[0], b[0])
        self.assertNotEqual(a[1], b[1])
        # Only the order and the repeats depend on the seed.
        self.assertEqual(sorted(a[0]), sorted(b[0]))

    def test_serve_stream_repeats_the_configured_share(self):
        specs, stream = pb.serve_stream(5, SERVE_POOLS, per_pair=10)
        keys = [tuple(r) for r in stream]
        pairs = len(pb.SERVE_CLASSES) * len(pb.SERVE_ENGINES)
        self.assertEqual(len(set(keys)), 10 * pairs)
        self.assertEqual(len(keys) - len(set(keys)),
                         round(len(keys) * pb.SERVE_REPEAT))
        classes = {}
        for spec_index, engine in stream:
            cls = specs[spec_index].rsplit(" seed=", 1)[0]
            classes[cls, engine] = classes.get((cls, engine), 0) + 1
        self.assertEqual(len(classes), pairs)
        self.assertEqual(len(specs), len({r[0] for r in stream}))
        self.assertTrue(all(0 <= r[1] < len(pb.SERVE_ENGINES) for r in stream))

    def test_serve_picks_span_the_pool_cost_range(self):
        rows = [[50, 1000 - i] for i in range(100)]  # seed 100 is cheapest
        self.assertEqual(pb.serve_picks(rows, size=4), [88, 63, 38, 13])


class StatsTest(unittest.TestCase):
    def test_percentile(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(pb.percentile(xs, 0), 1)
        self.assertEqual(pb.percentile(xs, 50), 3)
        self.assertEqual(pb.percentile(xs, 25), 2)
        self.assertEqual(pb.percentile(xs, 100), 5)
        self.assertAlmostEqual(pb.percentile([1, 2], 50), 1.5)
        self.assertAlmostEqual(pb.percentile(list(range(101)), 99), 99)
        self.assertEqual(pb.percentile([], 50), 0.0)

    def test_ratio_with_a_zero_base_is_zero(self):
        self.assertEqual(pb.ratio(3, 4), 0.75)
        self.assertEqual(pb.ratio(3, 0), 0.0)
        self.assertEqual(pb.ratio(0, 0), 0.0)

    def test_median_by_takes_each_elements_median_over_passes(self):
        recs = [{"i": 0, "s": 3.0}, {"i": 1, "s": 5.0}, {"i": 0, "s": 2.0},
                {"i": 1, "s": 6.0}, {"i": 0, "s": 9.0}]
        self.assertEqual(pb.median_by(recs, "i", "s"), {0: 3.0, 1: 5.5})
        self.assertEqual(pb.median_by([], "i", "s"), {})

    def test_self_times_subtract_covered_child_time(self):
        spans = [
            {"tid": 0, "id": 0, "parent": None, "name": "solve", "start": 0.0, "end": 10.0},
            {"tid": 0, "id": 1, "parent": 0, "name": "build", "start": 0.0, "end": 2.0},
            {"tid": 0, "id": 2, "parent": 0, "name": "api", "start": 2.0, "end": 9.0},
            {"tid": 0, "id": 3, "parent": 2, "name": "search", "start": 3.0, "end": 9.0},
        ]
        self.assertEqual(pb.self_times(spans),
                         {"solve": 1.0, "build": 2.0, "api": 1.0, "search": 6.0})
        self.assertAlmostEqual(pb.unattributed_frac(spans), 0.1)

    def test_self_times_merge_overlapping_children(self):
        spans = [
            {"tid": 1, "id": 0, "parent": None, "name": "r", "start": 0.0, "end": 4.0},
            {"tid": 1, "id": 1, "parent": 0, "name": "a", "start": 0.0, "end": 2.0},
            {"tid": 1, "id": 2, "parent": 0, "name": "b", "start": 1.0, "end": 3.0},
        ]
        self.assertEqual(pb.self_times(spans)["r"], 1.0)


def synthetic_records(workload):
    """Minimal harness output of one traced run of `workload`."""
    spec = pb.heavy_spec(1)
    stats = {k: 1.0 for k in (
        "expanded", "generated", "duplicates_dropped", "pruned_upper_bound",
        "loads_full", "loads_incremental", "assignments_replayed",
        "max_open_size", "peak_memory_bytes", "search_s", "steal_attempts",
        "steals", "states_transferred", "shard_hits", "states_serialized",
        "batches_sent", "termination_rounds", "states_deduped_at_send",
        "bytes_sent")}
    stats["expanded_per_ppe"] = [1, 1]
    recs = [{"kind": "setup", "materialize_s": 0.1},
            {"kind": "span", "tid": 0, "id": 0, "parent": None,
             "name": "solve", "start": 0.0, "end": 1.0}]
    for phase in (0, 1):
        recs.append({"kind": "pass", "phase": phase, "wall_s": 1.0})
        recs.append({"kind": "solve", "phase": phase, "i": 0, "spec": spec,
                     "solve_s": 1.0, "build_s": 0.1, "stats": stats})
        recs.append({"kind": "request", "phase": phase, "k": 0, "spec": spec,
                     "engine": "astar", "rtt_s": 0.01, "hit": False,
                     "queue_wait_s": 0.0, "engine_s": 0.005, "cache_bytes": 10})
    recs.append({"kind": "startup", "spec": spec, "solve_s": 0.01})
    return pb.by_kind(recs)


class LayerMetricsTest(unittest.TestCase):
    def test_every_workload_reports_exactly_the_per_layer_metrics(self):
        refs = {pb.heavy_spec(1): (100.0, 2)}
        for workload in ("heavy_serial", "heavy_ws2", "heavy_dist2", "serve_mix"):
            recs = synthetic_records(workload)
            m = pb.layer_metrics(workload, recs, refs, recs["span"])
            self.assertEqual(sorted(m), sorted(pb.PER_LAYER), workload)


class ReferenceCheckTest(unittest.TestCase):
    def test_exact_engine_must_match_the_optimum(self):
        self.assertIsNone(pb.check_result(100.0, "optimal", True, None, 100.0, 0.0))
        self.assertIsNotNone(pb.check_result(101.0, "optimal", True, None, 100.0, 0.0))
        self.assertIsNotNone(pb.check_result(99.0, "optimal", True, None, 100.0, 0.0))

    def test_bounded_engine_stays_within_its_factor(self):
        eps = pb.engine_epsilon("aeps:epsilon=0.2")
        self.assertEqual(eps, 0.2)
        self.assertIsNone(pb.check_result(120.0, "bounded-optimal", True, None, 100.0, eps))
        self.assertIsNotNone(pb.check_result(120.5, "bounded-optimal", True, None, 100.0, eps))
        self.assertEqual(pb.engine_epsilon("chenyu"), 0.0)

    def test_invalid_schedule_error_or_budget_hit_fails(self):
        self.assertIsNotNone(pb.check_result(100.0, "optimal", False, None, 100.0, 0.0))
        self.assertIsNotNone(pb.check_result(100.0, "optimal", True, "reject:overloaded", 100.0, 0.0))
        self.assertIsNotNone(pb.check_result(100.0, "memory-limit", True, None, 100.0, 0.0))
        self.assertIsNotNone(pb.check_result(100.0, "bounded-optimal", True, None, 100.0, 0.0))

    def test_failures_count_a_wrong_makespan(self):
        spec = pb.heavy_spec(1)
        refs = {spec: (100.0, 5)}
        ok = {"spec": spec, "makespan": 100.0, "termination": "optimal", "valid": True}
        bad = dict(ok, makespan=104.0)
        attempted, failed = pb.failures([ok, bad], refs, "astar")
        self.assertEqual((attempted, len(failed)), (2, 1))


if __name__ == "__main__":
    unittest.main()
