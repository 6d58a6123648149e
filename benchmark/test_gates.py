"""Tests for the benchmark's own gates.

Run from the root of a checkout:

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from posetalg import LCG, Poset, build_rewrite_system, chain, diamond, dimension_up_to  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from run import NullTracer  # noqa: E402


def recover(inp):
    return workloads.RecoverWorkload.run(NullTracer(), inp)


class RecoveryGate(unittest.TestCase):
    def setUp(self):
        self.inp = workloads.genuine_input(workloads.ordinal_sum([1, 2, 1]), LCG(5))

    def test_recovered_poset_passes(self):
        self.assertTrue(workloads.RecoverWorkload.judge(self.inp, recover(self.inp)))

    def test_wrongly_relabelled_poset_is_rejected(self):
        via_products, via_links, text = recover(self.inp)
        labels = list(via_products.labels)
        # swap the bottom element with one of the middle two
        bottom = next(i for i in range(4) if via_products.up[i].bit_count() == 3)
        middle = next(i for i in range(4) if via_products.up[i].bit_count() == 1)
        labels[bottom], labels[middle] = labels[middle], labels[bottom]
        relabelled = Poset(labels, via_products.up)
        self.assertFalse(
            gates.recovered_matches(relabelled, self.inp.poset, self.inp.sources)
        )
        self.assertFalse(
            workloads.RecoverWorkload.judge(self.inp, (relabelled, via_links, text))
        )

    def test_missing_cover_in_text_is_rejected(self):
        via_products, via_links, text = recover(self.inp)
        head, rels = text.splitlines()
        shortened = "%s\n%s\n" % (head, " ".join(rels.split()[:-1]))
        self.assertFalse(
            workloads.RecoverWorkload.judge(self.inp, (via_products, via_links, shortened))
        )


class RefusalGate(unittest.TestCase):
    def setUp(self):
        self.tampered = workloads.tampered_input(chain(6), LCG(9))
        self.genuine = workloads.genuine_input(chain(4), LCG(9))

    def test_tampered_table_is_refused_by_the_library(self):
        self.assertTrue(self.tampered.must_refuse)
        self.assertTrue(workloads.RecoverWorkload.judge(self.tampered, recover(self.tampered)))

    def test_accepted_tampered_table_counts_as_failed_op(self):
        accepted = recover(self.genuine)
        self.assertFalse(workloads.RecoverWorkload.judge(self.tampered, accepted))
        tally = gates.Tally()
        tally.record(0, False, must_refuse=True)
        tally.record(1, True, must_refuse=False)
        self.assertEqual(tally.failed, {0})
        self.assertTrue(tally.correct)

    def test_wrong_answer_on_genuine_table_makes_run_incorrect(self):
        tally = gates.Tally()
        tally.record(0, False, must_refuse=False)
        self.assertEqual(tally.failed, {0})
        self.assertFalse(tally.correct)


class WordCount(unittest.TestCase):
    def test_chain2_distinct_only_matches_closed_form(self):
        sides = gates.rewrite_left_sides(chain(2), "distinct_only")
        got = gates.irreducible_word_counts(2, sides, 6)
        self.assertEqual(got, [2, 5, 9, 14, 20, 27])
        self.assertEqual(got, [d * (d + 3) // 2 for d in range(1, 7)])

    def test_count_matches_enumeration_on_small_posets(self):
        for P in (chain(3), diamond()):
            for conv in workloads.CONVENTIONS:
                sides = gates.rewrite_left_sides(P, conv)
                R = build_rewrite_system(P, conv)
                self.assertEqual(
                    gates.irreducible_word_counts(P.n, sides, 5),
                    dimension_up_to(R, 5),
                )


class CheckCorpusGuard(unittest.TestCase):
    def test_op_gives_what_run_poset_checks_gives(self):
        self.assertEqual(len(workloads.CheckWorkload.setup(3)), 343)

    def test_a_changed_suite_stops_the_set_up(self):
        suite = workloads._checks.run_poset_checks
        with mock.patch.object(workloads._checks, "run_poset_checks",
                               lambda *args: suite(*args)[:-1]):
            with self.assertRaises(RuntimeError):
                workloads.CheckWorkload.setup(3)


class MetricNames(unittest.TestCase):
    """The printed metrics are exactly the ones BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_end_to_end(self):
        ref = [run.REF_SECONDS] * 4
        plain = [run.Pass([0.5, 1.0, 2.0], ref, NullTracer()),
                 run.Pass([0.7, 1.0, 1.5], ref, NullTracer())]
        got = run.end_to_end(plain, [0.1, 0.2, 0.3])
        self.assertEqual({k: u for k, (_, u) in got.items()}, self.declared("end_to_end"))
        self.assertEqual(got["op_p50_s"][0], 1.0)
        self.assertEqual(got["setup_s"][0], 0.2)

    def test_per_layer(self):
        ref = [run.REF_SECONDS] * 2
        traced = [run.Pass([1.0], ref, run.Tracer(0.0))]
        got = run.per_layer([run.Pass([1.0], ref, NullTracer())], traced,
                            workloads.CHECK_NAMES)
        self.assertEqual({k: u for k, (_, u) in got.items()}, self.declared("per_layer"))


class ReferenceScale(unittest.TestCase):
    def test_op_on_a_host_twice_as_slow_keeps_its_time(self):
        slow = run.Pass([2.0, 4.0], [2 * run.REF_SECONDS] * 3, NullTracer())
        self.assertEqual(slow.scaled(), [1.0, 2.0])

    def test_op_is_scaled_by_the_timings_near_it(self):
        w = run.REF_WINDOW
        n = 4 * w
        # the host runs at full speed for the first half of the pass and at
        # half speed for the second
        refs = [run.REF_SECONDS] * (n // 2) + [2 * run.REF_SECONDS] * (n // 2 + 1)
        times = [1.0] * (n // 2) + [2.0] * (n // 2)
        got = run.Pass(times, refs, NullTracer()).scaled()
        self.assertEqual(got[0], 1.0)
        self.assertEqual(got[-1], 1.0)

    def test_p90_leaves_ten_values_above(self):
        values = list(range(100))
        self.assertEqual(sum(v > run.p90(values) for v in values), 10)


if __name__ == "__main__":
    unittest.main()
