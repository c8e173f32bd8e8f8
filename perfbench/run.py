#!/usr/bin/env python3
"""Known-answer certify/verify benchmark for soscert.

    python3 perfbench/run.py --workload radical --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  For the seed it generates problem files whose answer is known
exactly (see instances.py), then runs a closed loop with one client in
this process: each operation is `cli.main(["certify", ...])` followed, when
a certificate was written, by `cli.main(["verify", ...])`, and the next
operation starts only after the previous one finished.  After one untimed
warm-up operation, whole passes over the workload's catalogue run, as many
as fit best in --seconds.

Every certificate must pass `verify` and the benchmark's own exact check
of the identity at the known rational points; a certificate for a
negative control, or any such failure, makes the run incorrect (exit 1).
An exit code that differs from the known answer otherwise (for example 3,
numerical exhaustion, on a positive instance) is counted in `failed`.

With --trace 0 the end-to-end metrics are printed, their times scaled to
a reference host speed (see HostSpeed); with --trace 1 the per-layer
metrics of tracing.py, plus the tracing overhead measured by running every
operation both untraced and traced.  The last line of standard output is
one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

import numpy as np  # noqa: E402

import instances  # noqa: E402

PASSES = 8           # distinct passes generated per seed, cycled
SETUP_PROBES = 5     # fresh processes timed for setup_s
TAIL = 0.9           # certify_tail_p90_s percentile
# A verify call takes 5-50 ms, so single slow calls move its median.  The
# end-to-end loop repeats the short ones (see run_op); traced runs call
# verify once per operation, as the CLI user does.
VERIFY_CALLS = 5
VERIFY_MIN_S = 0.025


def import_program():
    if not os.path.isfile(os.path.join(SRC, "soscert", "cli.py")):
        sys.exit(f"perfbench: no soscert sources under {SRC}")
    sys.path.insert(0, SRC)
    from soscert import cli, sdp_backend  # noqa: F401  (sdp_backend: import cost)
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported soscert from {cli.__file__}, not {SRC}")
    return cli


def write_instances(workload, seed, directory):
    """Problem files for every pass; returns one list of
    (Instance, problem path, certificate path) per pass, in run order."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    out = []
    for r, pass_ in enumerate(instances.generate(workload, seed, PASSES)):
        out.append([])
        for s, inst in enumerate(pass_):
            stem = os.path.join(directory, f"p{r}i{s:02d}-{inst.name}")
            with open(stem + ".prob", "w", encoding="utf-8") as fh:
                fh.write(inst.problem_text())
            out[-1].append((inst, stem + ".prob", stem + ".cert"))
    return out


def measure_setup(args):
    """Median wall time of fresh processes that import the program and
    write the problem files, i.e. process start to first operation:
    (host-speed scaled, raw)."""

    def probe(k):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe-dir", os.path.join(WORK, f"probe-{os.getpid()}-{k}")]
        op = Op(None)
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        op.certify_s = time.perf_counter() - start
        shutil.rmtree(cmd[-1], ignore_errors=True)
        return op

    timed = SPEED.scaled(probe)
    probes = [timed(k) for k in range(SETUP_PROBES)]
    return (statistics.median(op.certify_s * op.speed for op in probes),
            statistics.median(op.certify_s for op in probes))


# -- the benchmark's own exact check ------------------------------------------

_TERM = re.compile(r"([+-]?)\s*([^+-]+)")


def eval_text(text, env):
    """Evaluate printed polynomial text at a rational point."""
    total = Fraction(0)
    for sign, body in _TERM.findall(text):
        value = Fraction(1)
        for factor in body.split("*"):
            base, _, exp = factor.strip().partition("^")
            value *= (env[base] if base in env else Fraction(base)) ** int(exp or 1)
        total += -value if sign == "-" else value
    return total


def check_certificate(inst, text):
    """None if sum_i g_i(xi) sum_k w_ik q_ik(xi)^2 = f(xi) with w >= 0 at
    every known rational point xi of V(I) (the cofactor terms vanish
    there), else a description of the first failure."""
    blocks = []
    for line in text.splitlines():
        parts = line.split(None, 3)
        if parts and parts[0] == "variables" and line.split()[1:] != inst.names:
            return f"variables {line.split()[1:]}"
        if parts and parts[0] == "block":
            blocks.append([])
        elif parts and parts[0] == "weight":
            if parts[2] != "square":
                return f"bad line {line!r}"
            blocks[-1].append((Fraction(parts[1]), parts[3]))
    if len(blocks) != 1 + len(inst.g):
        return f"{len(blocks)} blocks for {len(inst.g)} inequalities"
    if any(w < 0 for block in blocks for w, _ in block):
        return "negative weight"
    for pt in inst.points:
        env = dict(zip(inst.names, pt))
        mults = [Fraction(1)] + [instances.evaluate(gi, pt) for gi in inst.g]
        total = sum(m * sum(w * eval_text(q, env) ** 2 for w, q in block)
                    for m, block in zip(mults, blocks))
        if total != instances.evaluate(inst.f, pt):
            return f"identity fails at {pt}"
    return None


# -- the closed loop ------------------------------------------------------------


class Op:
    __slots__ = ("name", "expected", "code", "certify_s", "verify_s",
                 "height_bits", "cert_bytes", "error", "speed")

    def __init__(self, inst):
        self.name = inst and inst.name
        self.expected = inst and inst.expected
        self.code = None
        self.certify_s = 0.0
        self.verify_s = None
        self.height_bits = None
        self.cert_bytes = None
        self.error = None
        self.speed = 1.0


def _call(cli, argv):
    """(exit code, seconds, standard output) of one CLI call; an exception
    escaping the CLI is reported as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        paused = SPEED.paused_s
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a wrong outcome, not a benchmark crash
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - (SPEED.paused_s - paused)
    return code, elapsed, out.getvalue()


def run_op(cli, inst, prob, cert, verify_calls=1):
    """One certify and, if a certificate was written, up to `verify_calls`
    verify calls, repeated while they have run less than VERIFY_MIN_S in
    all; `verify_s` is their median."""
    op = Op(inst)
    if os.path.exists(cert):
        os.remove(cert)
    op.code, op.certify_s, _ = _call(
        cli, ["certify", "--input", prob, "--out", cert] + inst.certify_args())
    if isinstance(op.code, str):
        op.error = op.code
    if op.error or not os.path.exists(cert):
        return op
    times = []
    while True:
        code, elapsed, report = _call(
            cli, ["verify", "--input", prob, "--certificate", cert])
        times.append(elapsed)
        if code != 0 or len(times) == verify_calls or sum(times) >= VERIFY_MIN_S:
            break
    op.verify_s = statistics.median(times)
    bits = [int(v) for v in re.findall(r"max (?:numerator|denominator) bits: (\d+)", report)]
    op.height_bits = max(bits) if bits else None
    op.cert_bytes = os.path.getsize(cert)
    with open(cert, encoding="utf-8") as fh:
        text = fh.read()
    try:
        problem = check_certificate(inst, text)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        problem = f"unreadable certificate: {exc!r}"
    if inst.expected != 0:
        op.error = f"certificate returned for a negative control (exit {op.code})"
    elif op.code != 0:
        op.error = f"certify wrote a certificate and exited {op.code}"
    elif code != 0:
        op.error = f"verify rejected the certificate (exit {code})"
    elif problem:
        op.error = f"exact check: {problem}"
    return op


def run_loop(passes, seconds, run):
    """`run(inst, prob, cert)` over whole passes, as many as come nearest
    to `seconds` (at least one), so that every run weighs each catalogue
    instance alike."""
    ops = []
    start = time.perf_counter()
    done = 0
    while True:
        for files in passes[done % len(passes)]:
            ops.append(run(*files))
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            return ops


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _busy(ops):
    return sum(op.certify_s + (op.verify_s or 0.0) for op in ops)


# -- host speed -------------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host.  A core's speed
# flips between two levels up to 1.8x apart every few seconds while a
# neighbour is busy, and over tens of minutes the whole host runs up to 2x
# faster or slower, so raw times of the same work spread by 20-30% between
# runs.  A fixed reference kernel is therefore timed between consecutive
# operations and, from a timer signal, every PERIOD_S seconds during them;
# the kernel's time inside an operation is left out of the operation's
# time.  Each operation's times are scaled by the mean of REFERENCE_S / k
# over the kernel times k from just before it to just after it: they read
# as on a host that runs the kernel in REFERENCE_S (about its time on the
# 2-core Xeon host where the benchmark was written, with nothing else
# running).  The kernel does the program's kinds of work (exact rationals
# on growing integers, small dense float linear algebra) and never calls
# the program.  Raw times are printed too.

REFERENCE_S = 0.011
PERIOD_S = 0.25
_KERNEL_MATRIX = np.add.outer(np.arange(32.0), np.arange(32.0)) % 7 - 3


def reference_kernel():
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(1, k)
    for _ in range(48):
        np.linalg.eigh(_KERNEL_MATRIX)
    return time.perf_counter() - start


class HostSpeed:
    """Reference-kernel samples, taken on request and, while ticking,
    from a SIGALRM handler every PERIOD_S seconds."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0      # wall time spent in the handler
        self._sampling = False

    def sample(self):
        self._sampling = True    # a tick inside a sample would lengthen it
        try:
            self.samples.append(reference_kernel())
        finally:
            self._sampling = False

    def _tick(self, signum, frame):
        if self._sampling:
            return
        start = time.perf_counter()
        self.sample()
        self.paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, run):
        """`run(*args)` wrapped so that the kernel is sampled after each
        call and the Op's `speed` is the mean of REFERENCE_S / k over the
        samples from the one before the call to the one after it."""
        self.sample()

        def wrapper(*args):
            first = len(self.samples) - 1
            op = run(*args)
            self.sample()
            around = self.samples[first:]
            op.speed = sum(REFERENCE_S / k for k in around) / len(around)
            return op

        return wrapper


SPEED = HostSpeed()


def pin_to_one_core():
    """Keep this process (and the setup probes, which inherit it) on the
    highest-numbered core it may use, so that the kernel samples and the
    operations between them run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end(ops, setup_s, raw=False):
    """The end-to-end metrics, host-speed scaled unless `raw`."""
    speed = [1.0 if raw else op.speed for op in ops]
    certify = [op.certify_s * k for op, k in zip(ops, speed)]
    made = [(op, k) for op, k in zip(ops, speed) if op.verify_s is not None]
    busy = sum((op.certify_s + (op.verify_s or 0.0)) * k for op, k in zip(ops, speed))
    return {
        "certify_p50_s": (statistics.median(certify), "s"),
        "certify_tail_p90_s": (percentile(certify, TAIL), "s"),
        "verify_p50_s": (statistics.median(op.verify_s * k for op, k in made), "s"),
        "throughput_ops_per_s": (len(ops) / busy, "1/s"),
        "cert_height_bits_p50": (statistics.median(op.height_bits for op, _ in made), "bits"),
        "cert_bytes_p50": (statistics.median(op.cert_bytes for op, _ in made), "bytes"),
        "setup_s": (setup_s[1 if raw else 0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(cli, files, seconds, tag):
    """Each op runs twice, untraced and traced, alternating which goes
    first, so that the overhead is measured on the same ops and a slow
    stretch of the machine hits both sides alike."""
    from tracing import Tracer

    tracer = Tracer()
    plain = []

    def paired(inst, prob, cert):
        tracer.op = len(plain)
        if tracer.op % 2 == 0:
            plain.append(run_op(cli, inst, prob, cert))
        tracer.install()
        try:
            op = run_op(cli, inst, prob, cert)
        finally:
            tracer.uninstall()
        if tracer.op % 2 == 1:
            plain.append(run_op(cli, inst, prob, cert))
        return op

    ops = run_loop(files, seconds, paired)
    tracer.dump(os.path.join(WORK, f"spans-{tag}.json"))
    metrics = tracer.metrics(len(ops))
    base = _busy(plain)
    extra = _busy(ops) - base
    metrics["trace.overhead_s"] = (extra / len(ops), "s/op")
    metrics["trace.overhead_share"] = (extra / base, "ratio")
    return plain + ops, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    pin_to_one_core()
    cli = import_program()
    if args.setup_probe:
        write_instances(args.workload, args.seed, args.probe_dir)
        return 0
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    directory = os.path.join(WORK, tag)
    os.makedirs(WORK, exist_ok=True)
    setup_s = None if args.trace else measure_setup(args)
    files = write_instances(args.workload, args.seed, directory)

    warm = instances.cube(random.Random("warm-up"), 2, 1, f_degree=1,
                          engine=files[0][0][0].engine)
    with open(os.path.join(directory, "warm-up.prob"), "w", encoding="utf-8") as fh:
        fh.write(warm.problem_text())
    run_op(cli, warm, fh.name, os.path.join(directory, "warm-up.cert"))

    if args.trace:
        ops, metrics = traced(cli, files, args.seconds, tag)
    else:
        timed = SPEED.scaled(lambda *f: run_op(cli, *f, verify_calls=VERIFY_CALLS))
        with SPEED.ticking():
            ops = run_loop(files, args.seconds, timed)
        metrics = end_to_end(ops, setup_s)
        raw = end_to_end(ops, setup_s, raw=True)
        kernel = SPEED.samples
        with open(os.path.join(WORK, f"raw-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"kernel_s": kernel,
                       "raw": {k: v for k, (v, _) in raw.items()}}, fh)
        print(f"reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms, "
              f"range {min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms over "
              f"{len(kernel)} samples (nominal {REFERENCE_S * 1e3:g} ms)")
        for key, (value, unit) in raw.items():
            if unit in ("s", "1/s"):
                print(f"raw {key}  {value:.6g} {unit}")
    shutil.rmtree(directory, ignore_errors=True)

    errors = [f"{op.name}: {op.error}" for op in ops if op.error]
    failed = sum(op.code != op.expected or op.error is not None for op in ops)
    with open(os.path.join(WORK, f"ops-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump([{k: getattr(op, k) for k in Op.__slots__} for op in ops], fh)
    for line in errors:
        print("WRONG", line, file=sys.stderr)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"{key:<{width}}  {value:.6g} {unit}")
    print(f"{'operations':<{width}}  {len(ops)} attempted, {failed} failed")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
