#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check the generators' known answers against exact evaluation through
the package's parser, the benchmark's certificate check, seed determinism,
and that tracing leaves `certify` output byte-identical.  The file is not
named test_*.py so that the package's pytest run does not collect it.
"""

import os
import random
import shutil
import tempfile
import time
import unittest
from fractions import Fraction

import instances
import run
from tracing import Tracer

cli = run.import_program()

from soscert import problem_io  # noqa: E402
from soscert.polyring import evaluate  # noqa: E402


def _univariate_coeffs(p, i):
    """High-to-low coefficients of a polynomial in x_i alone, else None."""
    degree = max(m.exponents[i] for m in p.terms)
    coeffs = [Fraction(0)] * (degree + 1)
    for m, c in p.terms.items():
        if any(e for k, e in enumerate(m.exponents) if k != i):
            return None
        coeffs[degree - m.exponents[i]] = c
    return coeffs


def _deflate(coeffs, r):
    """coeffs / (x - r) if r is a root, else None (synthetic division)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + r * out[-1])
    return out[:-1] if out[-1] == 0 else None


class TestGenerators(unittest.TestCase):
    def all_instances(self):
        for workload in instances.WORKLOADS:
            for seed in (0, 7):
                for round_ in instances.generate(workload, seed, 2):
                    yield from round_

    def test_oracle_agrees_with_exact_evaluation(self):
        for inst in self.all_instances():
            parsed = problem_io.parse_problem(inst.problem_text())
            for pt in inst.points:
                self.assertTrue(all(evaluate(h, list(pt)) == 0 for h in parsed.h))
            in_s = [pt for pt in inst.points
                    if all(evaluate(g, list(pt)) >= 0 for g in parsed.g)]
            low = min(evaluate(parsed.f, list(pt)) for pt in in_s)
            self.assertEqual(low, inst.min_f, inst.name)
            if inst.mode == "strict":
                self.assertEqual(inst.expected, 0 if low > 0 else 2)
            else:
                self.assertEqual(inst.expected, 0 if low >= 0 else 2)

    def test_points_are_all_real_points(self):
        """Each h_i is univariate; after dividing out the listed roots only
        a constant or a quadratic without real roots is left, so no real
        point escapes the oracle."""
        for inst in self.all_instances():
            if inst.name.startswith(("cusp", "fourpts")):
                continue
            parsed = problem_io.parse_problem(inst.problem_text())
            for i, h in enumerate(parsed.h):
                rest = _univariate_coeffs(h, i)
                self.assertIsNotNone(rest, inst.name)
                for r in {pt[i] for pt in inst.points}:
                    self.assertIsNotNone(_deflate(rest, r), inst.name)
                    while (q := _deflate(rest, r)) is not None:
                        rest = q
                self.assertIn(len(rest), (1, 3), inst.name)
                if len(rest) == 3:
                    a, b, c = rest
                    self.assertLess(b * b - 4 * a * c, 0, inst.name)

    def test_negative_controls_present(self):
        for workload in ("radical", "lift"):
            codes = [inst.expected for round_ in instances.generate(workload, 3, 1)
                     for inst in round_]
            self.assertIn(2, codes)
            self.assertIn(0, codes)

    def test_same_seed_same_list(self):
        for workload in instances.WORKLOADS:
            texts = [[i.problem_text() for r in instances.generate(workload, 5, 3)
                      for i in r] for _ in range(2)]
            self.assertEqual(texts[0], texts[1])
        for workload in instances.WORKLOADS:
            a, b = ([i.problem_text() for r in instances.generate(workload, s, 1) for i in r]
                    for s in (5, 6))
            self.assertNotEqual(a, b, workload)

    def test_every_pass_is_the_catalogue(self):
        for workload in instances.WORKLOADS:
            catalogue = instances.CATALOGUES[workload]()
            want = sorted((i.name, i.expected, i.min_f) for i in catalogue)
            for pass_ in instances.generate(workload, 9, 3):
                self.assertEqual(sorted((i.name, i.expected, i.min_f) for i in pass_), want)

    def test_reflection_moves_the_points(self):
        inst = instances.four_points(random.Random(4), Fraction(1, 3))
        flipped = inst.reflected([-1, -1])
        self.assertEqual([tuple(-x for x in pt) for pt in inst.points], flipped.points)
        self.assertEqual((flipped.min_f, flipped.expected), (inst.min_f, inst.expected))
        self.assertNotEqual(flipped.problem_text(), inst.problem_text())


class TestCertificateCheck(unittest.TestCase):
    def test_eval_text(self):
        env = {"x": Fraction(2), "y": Fraction(-1, 2)}
        self.assertEqual(run.eval_text("-3/2*x^2*y + x - 7", env), Fraction(-2))

    def test_rejects_mutated_certificate(self):
        inst = instances.cube(random.Random(1), 3, 1)
        with tempfile.TemporaryDirectory() as tmp:
            prob, cert = os.path.join(tmp, "p.prob"), os.path.join(tmp, "p.cert")
            with open(prob, "w") as fh:
                fh.write(inst.problem_text())
            op = run.run_op(cli, inst, prob, cert)
            self.assertEqual((op.code, op.error), (0, None))
            with open(cert) as fh:
                text = fh.read()
        self.assertIsNone(run.check_certificate(inst, text))
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("weight"))
        parts = lines[k].split(None, 2)
        lines[k] = f"weight {Fraction(parts[1]) * 2} {parts[2]}"
        self.assertIsNotNone(run.check_certificate(inst, "\n".join(lines)))


class TestHostSpeed(unittest.TestCase):
    def test_speed_averages_the_kernel_around_each_call(self):
        samples = iter([0.010, 0.020, 0.040, 0.005])
        saved = run.reference_kernel
        run.reference_kernel = lambda: next(samples)
        speed = run.HostSpeed()
        try:
            def op():
                speed.sample()          # as the timer would, mid-call
                return run.Op(None)
            timed = speed.scaled(op)
            first = timed()
        finally:
            run.reference_kernel = saved
        ref = run.REFERENCE_S
        self.assertAlmostEqual(first.speed, (ref / 0.010 + ref / 0.020 + ref / 0.040) / 3)
        self.assertEqual(speed.samples, [0.010, 0.020, 0.040])

    def test_ticking_leaves_the_handler_time_out(self):
        speed = run.HostSpeed()
        saved = run.SPEED
        run.SPEED = speed
        cli = type("Cli", (), {"main": staticmethod(lambda argv: time.sleep(0.6) or 0)})
        try:
            with speed.ticking():
                start = time.perf_counter()
                code, elapsed, _ = run._call(cli, [])
                wall = time.perf_counter() - start
        finally:
            run.SPEED = saved
        self.assertEqual(code, 0)
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertGreater(speed.paused_s, 0)
        self.assertAlmostEqual(elapsed, wall - speed.paused_s, delta=0.005)


class TestTracing(unittest.TestCase):
    def certify_all(self, cases, tmp, tag):
        out = []
        for k, inst in enumerate(cases):
            prob = os.path.join(tmp, f"{k}.prob")
            cert = os.path.join(tmp, f"{k}-{tag}.cert")
            with open(prob, "w") as fh:
                fh.write(inst.problem_text())
            op = run.run_op(cli, inst, prob, cert)
            body = None
            if os.path.exists(cert):
                with open(cert, "rb") as fh:
                    body = fh.read()
            out.append((op.code, op.error, body))
        return out

    def test_wrapping_is_transparent(self):
        rng = random.Random(2)
        cases = [instances.cube(rng, 3, 1), instances.grid(rng, (3, 3), Fraction(1, 8), with_g=True),
                 instances.multiple(rng, 2, 1, True, False, 1),
                 instances.grid(rng, (3, 3), -1)]
        tmp = tempfile.mkdtemp()
        try:
            plain = self.certify_all(cases, tmp, "plain")
            originals = dict(vars(cli))
            tracer = Tracer()
            traced = []
            for k in range(len(cases)):   # installed once per op, as run.py does
                tracer.install()
                try:
                    traced += self.certify_all(cases[k:k + 1], tmp, f"traced{k}")
                finally:
                    tracer.uninstall()
            self.assertEqual(dict(vars(cli)), originals)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(plain, traced)
        self.assertEqual([c for c, _, _ in plain], [0, 0, 0, 2])
        self.assertEqual(tracer.calls["cli.main"], 7)
        self.assertEqual(tracer.calls["certifier.certify"], 4)
        self.assertGreater(tracer.calls["certifier.hensel_sqrt"], 0)
        self.assertEqual(tracer.stack, [])

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            from soscert import exactla
            exactla.solve([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]],
                          [Fraction(1), Fraction(1)])
        finally:
            tracer.uninstall()
        (solve, t0, t1, parent, _), (rref, r0, r1, rparent, _) = tracer.spans
        self.assertEqual((tracer.names[solve], tracer.names[rref]), ("exactla.solve", "exactla.rref"))
        self.assertEqual((parent, rparent), (None, 0))
        self.assertLessEqual(t0, r0)
        self.assertLessEqual(r1, t1)
        self.assertAlmostEqual(tracer.self_s["exactla.solve"], (t1 - t0) - (r1 - r0), places=12)
        self.assertEqual(tracer.counts["exactla.rref.cells"], 2 * 3)


if __name__ == "__main__":
    unittest.main()
