"""Self-tests of the benchmark.  From the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The seed and empty-result tests build netrev and perfbench_tool first (into
$CARGO_TARGET_DIR, default .bench_build), as run.py does.
"""

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import harness as H  # noqa: E402
import run  # noqa: E402


def span(start, end, parent=-1, name="s"):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "cpu_ns": 0}


class TailRule(unittest.TestCase):
    def test_few_samples_report_interpolated_p90(self):
        self.assertEqual(H.tail([7]), (7, 90.0, 1))
        value, percentile, n = H.tail([3, 1, 2])
        self.assertAlmostEqual(value, 2.8)
        self.assertEqual((percentile, n), (90.0, 3))
        # With 11 samples the one with ten beyond it is the minimum: no tail.
        self.assertEqual(H.tail(list(range(11))), (9, 90.0, 11))
        value, _, _ = H.tail(list(range(99)))
        self.assertAlmostEqual(value, 88.2)

    def test_one_slow_sample_of_a_few_does_not_set_the_tail(self):
        value, _, _ = H.tail([1.0] * 8 + [100.0])
        self.assertAlmostEqual(value, 1.0 + 0.2 * 99.0)

    def test_the_two_rules_nearly_agree_at_100_samples(self):
        below, _, _ = H.tail(list(range(99)))
        at, _, _ = H.tail(list(range(100)))
        self.assertLess(abs(at - below), 1.0)

    def test_the_sample_with_ten_beyond_it(self):
        self.assertEqual(H.tail(list(range(100, 0, -1))), (90, 90.0, 100))
        value, percentile, n = H.tail(list(range(1000)))
        self.assertEqual((value, n), (989, 1000))
        self.assertAlmostEqual(percentile, 99.0)

    def test_exactly_ten_samples_are_larger(self):
        values = [5.0] * 150 + [float(v) for v in range(100, 110)]
        value, _, _ = H.tail(values)
        self.assertEqual(value, 5.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(0, 100),           # root
                 span(10, 40, 0),        # child
                 span(15, 25, 1),        # grandchild: only its parent shrinks
                 span(60, 70, 0)]        # second child
        self.assertEqual(H.self_times(spans), [60, 20, 10, 10])

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, 100), span(10, 50, 0), span(30, 80, 0)]
        self.assertEqual(H.self_times(spans)[0], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 100), span(90, 130, 0)]
        self.assertEqual(H.self_times(spans)[0], 90)

    def test_repetitions_follow_the_root_span(self):
        def entry_span(name, start, end, parent=-1, entry="d"):
            return dict(span(start, end, parent, name), entry=entry)
        spans = [entry_span("replay", 0, 10),
                 entry_span("propagate", 1, 4, 0),
                 entry_span("propagate", 5, 6, 0),
                 entry_span("replay", 10, 20),
                 entry_span("propagate", 11, 19, 3),
                 entry_span("replay", 0, 5, entry="e"),
                 entry_span("other", 30, 40)]
        reps = [{name: round(seconds * 1e9) for name, seconds in r.items()}
                for r in H.repetitions(spans, "replay")]
        # Repetition 0 holds the first replay of each entry, d and e.
        self.assertEqual(reps, [{"replay": 15, "propagate": 4},
                                {"replay": 10, "propagate": 8}])

    def test_table_sums_by_name(self):
        spans = [span(0, 2_000_000_000, name="a"),
                 span(0, 500_000_000, 0, name="b"),
                 span(2_000_000_000, 3_000_000_000, name="a")]
        table = H.span_table(spans)
        self.assertEqual(table["a"]["count"], 2)
        self.assertAlmostEqual(table["a"]["total_s"], 3.0)
        self.assertAlmostEqual(table["a"]["self_s"], 2.5)


class Binaries(unittest.TestCase):
    """Tests that need the built netrev and perfbench_tool."""

    @classmethod
    def setUpClass(cls):
        root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.netrev, cls.tool = run.build(root)
        cls.scratch = tempfile.mkdtemp(prefix="perfbench-test-",
                                       dir=os.path.abspath(root))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def inputs(self, workload, seed, name):
        directory = os.path.join(self.scratch, name)
        run.fresh_dir(directory)
        return run.Inputs(self.tool, workload, seed, directory)


class Seeds(Binaries):
    def assert_same_files(self, a, b):
        names = sorted(os.listdir(a))
        self.assertEqual(names, sorted(os.listdir(b)))
        for name in names:
            if name != "manifest.json":  # holds the directory in its paths
                self.assertTrue(
                    filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                                shallow=False), name)

    def test_same_seed_same_inputs_and_outputs(self):
        first = self.inputs("family-batch", 7, "f7a")
        second = self.inputs("family-batch", 7, "f7b")
        other = self.inputs("family-batch", 8, "f8")
        self.assert_same_files(os.path.dirname(first.paths[0]),
                               os.path.dirname(second.paths[0]))
        self.assertEqual([d["planted"] for d in first.designs],
                         [d["planted"] for d in second.designs])
        with open(first.paths[-1], "rb") as a, open(other.paths[-1], "rb") as b:
            self.assertNotEqual(a.read(), b.read())

        ledger = H.Ledger()
        for inputs in (first, second):
            child = run.Child([self.netrev, "identify", inputs.paths[-1],
                               "--json"], None)
            self.assertEqual(child.code, 0)
            self.assertIsNone(ledger.same_bytes("identify", H.digest(child.out)))


class RequestScript(unittest.TestCase):
    def test_same_seed_same_script(self):
        self.assertEqual(H.request_script(3, 50), H.request_script(3, 50))
        self.assertNotEqual(H.request_script(3, 50), H.request_script(4, 50))

    def test_three_revisits_after_each_session(self):
        units = H.request_script(0, 40)
        self.assertEqual(len(units), 40 * (1 + H.REVISITS_PER_SESSION))
        for design in range(40):
            unit = design * (1 + H.REVISITS_PER_SESSION)
            self.assertEqual(units[unit], [design, -1])
            revisits = units[unit + 1:unit + 1 + H.REVISITS_PER_SESSION]
            for target, kind in revisits:
                self.assertTrue(0 <= target <= design)
                self.assertTrue(0 <= kind < H.REVISIT_KINDS)
        requests = sum(len(u) for u in H.expand_units(units))
        self.assertEqual(requests,
                         40 * (len(H.SESSION) + H.REVISITS_PER_SESSION))

    def test_response_id_and_body_digest(self):
        line = b'{"id":"r000001","status":"ok","result":{"a":1}}'
        self.assertEqual(H.response_id(line), "r000001")
        self.assertEqual(H.body_digest(line),
                         H.body_digest(line.replace(b"r000001", b"r9")))


class FakeInputs:
    def __init__(self, path, planted):
        self.paths = [path]
        self.by_path = {path: {"planted": planted}}


class EmptyResult(Binaries):
    PLANTED = [["a", "b"]]

    def test_rule(self):
        doc = {"words": [{"bits": ["x"]}]}
        self.assertIsNotNone(H.empty_result_error(doc, self.PLANTED))
        self.assertIsNone(H.empty_result_error(doc, []))
        doc["words"].append({"bits": ["a", "b", "c"]})
        self.assertIsNone(H.empty_result_error(doc, self.PLANTED))
        self.assertEqual(H.words_fully_found(doc, self.PLANTED + [["a", "z"]]), 1)

    def check(self, path):
        ledger = H.Ledger()
        child = run.Child([self.netrev, "identify", path, "--json"], None)
        self.assertEqual(child.code, 0)  # the program itself reports success
        run.check_identify_child(child, FakeInputs(path, self.PLANTED), ledger,
                                 {}, run.Coverage())
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_empty_bench_file_fails(self):
        path = os.path.join(self.scratch, "empty.bench")
        open(path, "w").close()
        self.check(path)

    def test_generated_directory_named_like_a_file_fails(self):
        path = os.path.join(self.scratch, "X.bench")
        child = run.Child([self.netrev, "generate", "b03s", "--output", path],
                          None)
        self.assertEqual(child.code, 0)
        self.assertTrue(os.path.isdir(path))
        self.check(path)

    def test_non_zero_exit_fails(self):
        ledger = H.Ledger()
        child = run.Child([self.netrev, "identify", "missing.bench", "--json"],
                          subprocess.DEVNULL)
        run.check_identify_child(child, FakeInputs("missing.bench", []),
                                 ledger, {}, run.Coverage())
        self.assertEqual(ledger.failed, 1)

    def test_differing_repeats_fail(self):
        ledger = H.Ledger()
        self.assertIsNone(ledger.same_bytes("k", "1-2"))
        self.assertIsNotNone(ledger.same_bytes("k", "1-3"))


if __name__ == "__main__":
    unittest.main()
