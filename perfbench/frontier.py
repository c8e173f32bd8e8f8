#!/usr/bin/env python3
"""Known-answer instances that the code got wrong when the benchmark was
added, or that ran too slowly to time.  They are kept out of the
benchmark's workloads, whose operations must all succeed, so that later
changes can cite them.

    python3 perfbench/frontier.py            # all, about 2.5 minutes
    python3 perfbench/frontier.py tiny_e52   # by name

Each instance runs once through `soscert certify` (and `verify` when a
certificate is written), with the same checks as run.py; it prints the
known answer, the exit code and the time.  The exit status is 1 only if a
returned certificate is wrong.
"""

import os
import random
import sys
from fractions import Fraction

import run
from instances import (Instance, add, conjugate, const, cube, grid, mul,
                       sdp_draws, var)


def _tiny(e):
    """f = x + 1 + 2^-e on x^2 = 1, y^2 = y: minimum 2^-e at x = -1."""
    x, y = var(0, 2), var(1, 2)
    f = add(x, const(1 + Fraction(1, 2 ** e), 2))
    h = [add(mul(x, x), const(1, 2), -1), add(mul(y, y), y, -1)]
    return Instance(f"tiny_e{e}", ["x", "y"], f, [], h,
                    [(-1, 0), (-1, 1), (1, 0), (1, 1)])


def _cliff():
    """x^2 (x - 1), y^2 (y - 2) with f = x + y + 1: about 30 s, 95% of it
    in exactla.rref under quotient.inverse_mod in the Hensel lift."""
    x, y = var(0, 2), var(1, 2)
    h = [add(mul(mul(x, x), x), mul(x, x), -1),
         add(mul(mul(y, y), y), mul(y, y), -2)]
    f = add(add(x, y), const(1, 2))
    return Instance("lift_cliff", ["x", "y"], f, [], h,
                    [(0, 0), (0, 2), (1, 0), (1, 2)])


def frontier():
    rng = random.Random("frontier")
    draws = sdp_draws()
    out = {
        # float64 cannot see the margin: exit 3 instead of a certificate
        "tiny_e48": _tiny(48),
        "tiny_e52": _tiny(52),
        "tiny_e64": _tiny(64),
        "cube3_margin_2^-64": cube(rng, 3, Fraction(1, 2 ** 64)),
        # margin below the tolerance of certifier.perturb (1e6 times the
        # root tolerance, about 2^-18 here): exit 2, "no rational
        # perturbation", although f > 0 on S
        "perturb_cube4_2^-20": cube(rng, 4, Fraction(1, 2 ** 20), with_g=True),
        "perturb_conj_2^-32": conjugate(rng, Fraction(1, 2 ** 32), with_g=True),
        # SDP engine: the four-points draws the sdp workload leaves out, and
        # larger sizes
        "sdp_fourpts_draw2": draws[2],
        "sdp_fourpts_draw5": draws[5],
        "sdp_fourpts_draw8": draws[8],
        "sdp_cube3": cube(rng, 3, 1, f_degree=1, coeff=2, engine="sdp"),
        "sdp_grid3": grid(rng, (3, 3), 1, f_degree=1, coeff=2, engine="sdp"),
        "lift_cliff": _cliff(),
    }
    for name, inst in out.items():
        inst.name = name
    return out


def main(names):
    cli = run.import_program()
    cases = frontier()
    directory = os.path.join(run.WORK, "frontier")
    os.makedirs(directory, exist_ok=True)
    wrong = False
    print(f"{'instance':22s} {'engine':12s} known  exit  certify_s  verify_s  bits")
    for name in names or cases:
        inst = cases[name]
        stem = os.path.join(directory, name)
        with open(stem + ".prob", "w", encoding="utf-8") as fh:
            fh.write(inst.problem_text())
        op = run.run_op(cli, inst, stem + ".prob", stem + ".cert")
        wrong |= op.error is not None
        verify = "-" if op.verify_s is None else f"{op.verify_s:.3f}"
        print(f"{name:22s} {inst.engine:12s} {op.expected:5d} {op.code!s:>5} "
              f"{op.certify_s:10.3f} {verify:>9s} {op.height_bits or '-':>5}"
              + (f"  WRONG: {op.error}" if op.error else ""), flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
