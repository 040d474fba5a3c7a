"""Self-test of the benchmark on a tiny operation count.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit by every workload, that nested wraps give self times that add up
to the parent span, that another seed changes the inputs but not the
metric set, and that refresh keys never collide across rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
import unittest

import common
import layers
import run
from workloads import (WORKLOADS, RefreshKeys, RefreshMix, ServeSmall,
                       TpchPower)

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY_SECONDS = 0.5


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Toy:
    """Three nested calls, each doing some work of its own."""

    def outer(self):
        _spin(0.002)
        self.middle()
        self.middle()

    def middle(self):
        _spin(0.001)
        self.inner()

    def inner(self):
        _spin(0.001)


class TestNestedWraps(unittest.TestCase):
    WRAPS = [("toy.outer", ("__main__:Toy.outer",)),
             ("toy.middle", ("__main__:Toy.middle",)),
             ("toy.inner", ("__main__:Toy.inner",))]

    def test_self_times_sum_to_parent_span(self):
        recorder = layers.SpanRecorder()
        originals = dict(vars(Toy))
        with layers.installed(recorder, self.WRAPS), recorder.op("toy"):
            Toy().outer()
        self.assertEqual(dict(vars(Toy)), originals)
        self.assertEqual(recorder.calls, {"toy.inner": 2, "toy.middle": 2,
                                          "toy.outer": 1, "op.toy": 1})
        spans = {s[0]: s for s in recorder.spans}
        for sid, parent, _op, _name, start, end in recorder.spans:
            children = [s for s in recorder.spans if s[1] == sid]
            own = (end - start) - sum(c[5] - c[4] for c in children)
            self.assertGreaterEqual(own, 0.0)
            if parent:
                self.assertLessEqual(end - start,
                                     spans[parent][5] - spans[parent][4])
        # self times of everything under the root add up to the root span
        root = [s for s in recorder.spans if not s[1]][0]
        total = sum(recorder.self_s.values())
        self.assertAlmostEqual(total, root[5] - root[4], places=9)
        recomputed = layers.self_times(recorder.spans)
        for name, value in recorder.self_s.items():
            self.assertAlmostEqual(recomputed[name], value, places=9)
        self.assertGreater(recorder.self_s["toy.outer"], 0.0015)
        self.assertAlmostEqual(layers.reconcile(recorder.spans)["error"],
                               0.0, places=9)
        self.assertEqual(len({s[2] for s in recorder.spans}), 1)

    def test_every_wrapped_entry_point_resolves(self):
        recorder = layers.SpanRecorder()
        with layers.installed(recorder):
            pass
        self.assertEqual(
            {name.split(".")[0] for name, _t in layers.WRAPS},
            set(layers.LAYERS))


class TestReference(unittest.TestCase):
    def test_scale_is_nominal_over_median_tick(self):
        ref = common.Reference()
        ref.samples = [1e-3, 2e-3, 4e-3]
        nominal = common.REFERENCE_NOMINAL_S
        self.assertAlmostEqual(ref.scale(0), nominal / 2e-3)
        self.assertAlmostEqual(ref.scale(1), nominal / 3e-3)
        self.assertEqual(ref.scale(3), 1.0)

    def test_ticks_record_their_cpu_time(self):
        ref = common.Reference()
        ref.tick()
        ref.tick()
        self.assertEqual(len(ref.samples), 2)
        self.assertGreater(min(ref.samples), 0.0)
        self.assertAlmostEqual(ref.spent, sum(ref.samples))

    def test_tail_is_geomean_of_per_kind_percentiles(self):
        samples = ([("a", float(v)) for v in range(1, 101)]
                   + [("b", 10.0 * v) for v in range(1, 51)])
        value, fewest = common.tail(samples)
        self.assertAlmostEqual(value, (90.1 * 451.0) ** 0.5)
        self.assertEqual(fewest, 50)


class TestInputs(unittest.TestCase):
    def test_seed_changes_inputs(self):
        data = common.tpch_data()
        domains = ServeSmall.domains(data)
        self.assertEqual(TpchPower(1).inputs(3), TpchPower(1).inputs(3))
        self.assertNotEqual(TpchPower(1).inputs(3), TpchPower(2).inputs(3))
        self.assertEqual(ServeSmall(1).inputs(200, domains),
                         ServeSmall(1).inputs(200, domains))
        self.assertNotEqual(ServeSmall(1).inputs(200, domains),
                            ServeSmall(2).inputs(200, domains))
        rounds = {seed: self._refresh_rounds(data, seed, 3)
                  for seed in (1, 2)}
        self.assertNotEqual(rounds[1], rounds[2])
        self.assertEqual(rounds[1], self._refresh_rounds(data, 1, 3))

    @staticmethod
    def _refresh_rounds(data, seed: int, n: int):
        bench = RefreshMix(seed)
        keys = RefreshKeys(data["orders"]["o_orderkey"])
        rng = random.Random(seed)
        sizes = (15_000, 1_500, 2_000, 100)
        out = []
        for _ in range(n):
            orders, lines, victims, updates = bench.round_inputs(
                keys, rng, sizes)
            out.append((orders["o_orderkey"].tolist(),
                        lines["l_quantity"].tolist(), victims, updates))
        return out

    def test_refresh_keys_never_collide(self):
        data = common.tpch_data()
        initial = set(int(k) for k in data["orders"]["o_orderkey"])
        bench = RefreshMix(7)
        keys = RefreshKeys(data["orders"]["o_orderkey"])
        rng = random.Random(7)
        issued, deleted = set(), set()
        for _ in range(200):
            live_before = set(keys.live)
            orders, lines, victims, updates = bench.round_inputs(
                keys, rng, (15_000, 1_500, 2_000, 100))
            new = set(orders["o_orderkey"].tolist())
            self.assertEqual(len(new), len(orders["o_orderkey"]))
            self.assertFalse(new & (initial | issued))
            self.assertTrue(set(lines["l_orderkey"].tolist()) <= new)
            issued |= new
            # victims are live keys (possibly this round's new ones) and
            # never deleted twice
            self.assertTrue(set(victims) <= live_before | new)
            self.assertFalse(set(victims) & deleted)
            deleted |= set(victims)
            self.assertTrue({k for k, _d in updates} <= keys.live)
        self.assertEqual(keys.live, (initial | issued) - deleted)


class TestMetrics(unittest.TestCase):
    """Each workload, once untraced and once traced, on a tiny run."""

    runs: dict = {}

    @classmethod
    def _run(cls, workload: str, seed: int, trace: bool):
        """(result, printed lines), run once per argument set. Untraced
        runs set up twice, so the GeoDiff probe has its twin."""
        key = (workload, seed, trace)
        if key not in cls.runs:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                result = run.run(workload, seed, TINY_SECONDS, trace,
                                 setup_repeats=1 if trace else 2)
            cls.runs[key] = (result, printed.getvalue())
        return cls.runs[key]

    def _check(self, result: dict, spec_key: str) -> None:
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, metric in got.items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], want[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["correct"], result["failed"] == 0)

    def test_every_metric_for_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self._check(self._run(workload, 1, False)[0], "end_to_end")
                traced = self._run(workload, 1, True)[0]
                self._check(traced, "per_layer")
                values = {k: v["value"]
                          for k, v in traced["metrics"].items()}
                self.assertGreater(values["trace.op_wall_s"], 0.0)
                self.assertLess(values["trace.reconcile_error_s"],
                                1e-6 * max(1.0, values["trace.op_wall_s"]))

    def test_answers_are_correct(self):
        for workload in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, printed = self._run(workload, 1, trace)
                    self.assertTrue(result["correct"], printed)

    def test_other_seed_keeps_the_metric_set(self):
        a = self._run("refresh-mix", 1, False)[0]["metrics"]
        b = self._run("refresh-mix", 2, False)[0]["metrics"]
        self.assertEqual({k: v["unit"] for k, v in a.items()},
                         {k: v["unit"] for k, v in b.items()})


if __name__ == "__main__":
    unittest.main()
