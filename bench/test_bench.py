"""
Tests of the benchmark itself: seeded generators, output checks, traced
rebuilds and the metric contract.  Run from the repository root with

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import math
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ambc import AffinePerm, PartialPerm, channels, phi, psi, t_multiply, theta1, theta1_inverse  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def first_pair() -> wl.Op:
    return wl.composable_pairs(random.Random(3))[0]


class TestGenerators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(wl.roundtrip_pass(5, 2), wl.roundtrip_pass(5, 2))
        self.assertEqual(wl.channel_pass(5, 2), wl.channel_pass(5, 2))
        self.assertEqual(wl.cell_sequence(5), wl.cell_sequence(5))
        self.assertNotEqual(wl.roundtrip_pass(5, 2), wl.roundtrip_pass(6, 2))
        self.assertNotEqual(wl.channel_pass(5, 2), wl.channel_pass(5, 3))
        self.assertNotEqual(wl.cell_sequence(5), wl.cell_sequence(6))

    def test_roundtrip_pass_covers_sizes_and_spreads(self):
        ops = wl.roundtrip_pass(1, 0)
        for s in wl.SPREADS:
            sizes = [op.n for op in ops if op.spread == s]
            self.assertEqual(sorted(sizes), sorted(n for n, k in wl.ROUNDTRIP_MIX.items() for _ in range(k)))
        for op in ops:
            w = op.args[0]
            self.assertTrue(all(-op.spread * op.n < v <= (op.spread + 1) * op.n for v in w.window))

    def test_channel_counts_are_block_products(self):
        rng = random.Random(9)
        cases = [op.args for i in range(3) for op in wl.channel_pass(4, i) if op.n <= 16]
        for n in (6, 9, 12):
            blocks = []
            while sum(blocks) < n:
                blocks.append(rng.randint(1, min(3, n - sum(blocks))))
            cases.append((wl.reversed_blocks(blocks), math.prod(blocks)))
        for w, count in cases:
            self.assertEqual(len(channels(PartialPerm(w.n, w.window))), count, w.window)

    def test_channel_sizes_stay_in_band(self):
        for op in wl.channel_pass(2, 0):
            lo, hi = wl.CHANNEL_BANDS[op.n]
            self.assertTrue(lo <= op.args[1] <= hi)

    def test_defect_window(self):
        self.assertEqual(wl.DEFECT_WINDOW.window[:4], (2, 1, 4, 3))
        self.assertEqual(wl.DEFECT_WINDOW.window[-2:], (38, 37))

    def test_cell_sequence_puts_readme_commands_first(self):
        passes = wl.cell_sequence(1)
        self.assertEqual(sum(op.kind == "cli" for op in passes[0]), len(wl.README_CLI))
        kinds = {op.kind for ops in passes for op in ops}
        self.assertEqual(kinds, set(wl.CHECKS) - {"roundtrip"})

    def test_composable_pairs_share_the_middle_tabloid(self):
        for op in wl.composable_pairs(random.Random(1))[:8]:
            u, v, p, r = op.args
            tu, tv = phi(u), phi(v)
            self.assertEqual((tu.p, tv.q), (p, r))
            self.assertEqual(tu.q, tv.p)


class TestChecks(unittest.TestCase):
    """Each check accepts the real output and rejects a corrupted one."""

    def assert_rejects(self, op, good, *bad):
        wl.CHECKS[op.kind](op, good)
        for result in bad:
            with self.assertRaises(wl.CheckError):
                wl.CHECKS[op.kind](op, result)

    def test_roundtrip(self):
        op = wl.roundtrip_pass(1, 0)[0]
        (triple, back), _ = wl.run_op(op)
        win = list(back.window)
        win[0], win[1] = win[1], win[0]
        self.assert_rejects(op, (triple, back), (triple, AffinePerm(back.n, tuple(win))))

    def test_t_multiply(self):
        op = first_pair()
        good, _ = wl.run_op(op)
        (w, c), *rest = good.items()
        self.assert_rejects(
            op,
            good,
            dict(rest),
            {**good, w: c + 1},
            {op.args[0]: c, **dict(rest)},
            {},
        )

    def test_theta(self):
        op = wl.Op("theta", ((3, 1, 1, 0, -2),), 5)
        (pair, back), _ = wl.run_op(op)
        self.assert_rejects(op, (pair, back), (pair, (3, 1, 1, 0, -1)))

    def test_involutions(self):
        op = wl.Op("involutions", ((2, 1, 1), 4), 4)
        good, _ = wl.run_op(op)
        not_involution = AffinePerm(4, (2, 3, 4, 1))
        self.assert_rejects(op, good, good[1:], good[1:] + [not_involution], good[1:] + good[1:2])

    def test_star(self):
        star_ops = [op for ops in wl.cell_sequence(1)[:8] for op in ops if op.kind == "star"]
        defined = next(op for op in star_ops if wl.run_op(op)[0] is not None)
        good, _ = wl.run_op(defined)
        t, i = defined.args
        self.assert_rejects(defined, good, t)
        wl.CHECKS["star"](defined, None)  # undefined is a valid answer

    def test_tensor(self):
        op = wl.Op("tensor", ((2, 1, 0), (2, 0, 0)), 3)
        good, _ = wl.run_op(op)
        (k, c), *rest = good.items()
        self.assert_rejects(op, good, dict(rest), {**good, k: c + 1}, {**good, (5, 0, 0): 1})

    def test_cli(self):
        for case in wl.README_CLI:
            op = wl.Op("cli", case)
            (code, out), _ = wl.run_op(op)
            self.assert_rejects(op, (code, out), (2, out), (code, out.replace("1", "2")), (code, ""))


class TestTracedRebuilds(unittest.TestCase):
    def test_phi_and_psi(self):
        tr = tracing.Tracer()
        windows = [op.args[0] for op in wl.roundtrip_pass(3, 0) if op.n <= 32]
        windows += [op.args[0] for op in wl.channel_pass(3, 0) if op.n == 16]
        for w in windows:
            triple = phi(w)
            self.assertEqual(tracing.phi_steps(tr, w), triple)
            self.assertEqual(tracing.psi_steps(tr, triple.p, triple.q, triple.rho), w)
            self.assertEqual(psi(triple.p, triple.q, triple.rho), w)
        self.assertGreater(tr.counts["forward_steps"], len(windows))

    def test_t_multiply(self):
        tr = tracing.Tracer()
        for op in wl.composable_pairs(random.Random(5))[:12]:
            u, v = op.args[:2]
            self.assertEqual(tracing.t_multiply_steps(tr, u, v), t_multiply(u, v))
        u = op.args[0]
        self.assertEqual(tracing.t_multiply_steps(tr, u, u), t_multiply(u, u))

    def test_theta1(self):
        tr = tracing.Tracer()
        for mu in wl.dominant_weights(4)[::7]:
            pair = theta1(mu)
            self.assertEqual(tracing.theta1_steps(tr, mu), pair)
            self.assertEqual(tracing.theta1_inverse_steps(tr, pair.shape, pair.weight), theta1_inverse(pair.shape, pair.weight))

    def test_traced_run_reports_every_layer(self):
        tr = tracing.Tracer()
        execute = run.traced_executor(wl, tracing, tr, run.Properties())
        records = run.measure(iter([wl.roundtrip_pass(1, 0)[:3]]), execute, run.Speed(), seconds=0, min_ops=1)
        self.assertTrue(all(r.error is None and r.wrong is None for r in records))
        values, from_probe, wrong = run.layer_values(wl, tracing, tr, records, seed=1, scale=1.0)
        self.assertEqual(wrong, [])
        self.assertIn("cli.main.ms", from_probe)
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertTrue(all(isinstance(v, float) for v in values.values()))


class TestContract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_metrics_of_a_short_run(self):
        props = run.Properties()
        speed = run.Speed()
        reference = run.Reference(wl)
        records = run.measure(
            iter([wl.roundtrip_pass(2, 0)[:6]]), run.plain_executor(wl, props), speed,
            seconds=0, min_ops=2, interleave=reference.calls()[:4],
        )
        self.assertEqual(len(reference.samples), 8)
        values = run.end_to_end(records, reference.per_size(speed.scale), [0.1], 20.0, speed.scale)
        self.assertTrue(set(values) <= set(run.END_TO_END))
        self.assertTrue(all(v > 0 for v in values.values()))

    def test_missing_sources_exit_nonzero(self):
        saved = run.SRC
        try:
            run.SRC = BENCH / "no-such-src"
            self.assertEqual(run.main(["--workload", "cell_tables", "--seed", "1", "--seconds", "1"]), 2)
        finally:
            run.SRC = saved


if __name__ == "__main__":
    unittest.main()
