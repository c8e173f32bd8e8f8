"""Command-line interface.

Exit codes: 0 success; 1 usage, parse or I/O error; 2 the requested certificate
cannot exist (failed mathematical precondition); 3 numerical exhaustion
(precision ceiling reached, float64 margin used up, an SDP dual bound at
or below 0, or the SDP solver stopped without an answer); 4 verification
failure, including an exact identity that failed inside `certify`.
`certify` and `verify` share one rule: exit 0 exactly when the certificate
fits the problem (at most 1 + len(g) blocks and len(h) cofactors), the
identity holds, the weights are nonnegative and the nonneg-mode witnesses
check.  The degree bound is printed but decides no exit code.

Every rounding loop doubles its precision and stops once the rounded
float64 data repeats, as it does from 1074 bits on; a fixed ceiling of 4096
bits guards the loop.
`certify` builds the quotient ring once and verifies its own output in it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import certifier, problem_io, verify_bounds
from .errors import (ConditionFailed, IdentityBroken, Infeasible,
                     MaxIterations, NotStrictlyPositiveOnS, ParseError,
                     PrecisionExceeded, SosCertError)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_IMPOSSIBLE = 2
EXIT_EXHAUSTED = 3
EXIT_VERIFY = 4


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().replace("\r\n", "\n")


def _load_problem(path):
    return problem_io.parse_problem(_read(path))


def cmd_certify(args):
    inst = _load_problem(args.input)
    for key in ("mode", "engine", "seed"):
        value = getattr(args, key)
        if value is not None:
            inst.options[key] = problem_io.check_option(key, value)
    ring = certifier.build_ring(inst)
    try:
        cert = certifier.certify(inst, ring)
    except (ConditionFailed, NotStrictlyPositiveOnS) as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except (PrecisionExceeded, Infeasible, MaxIterations) as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except IdentityBroken as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    text = problem_io.format_certificate(cert, inst.var_names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _verdict(inst, cert, ring)


def cmd_verify(args):
    inst = _load_problem(args.input)
    cert, _ = problem_io.parse_certificate(_read(args.certificate),
                                           expected_vars=inst.var_names)
    return _verdict(inst, cert)


def _verdict(inst, cert, ring=None):
    report = verify_bounds.verify_certificate(inst, cert, ring)
    print(report.to_text())
    if report.ok:
        return EXIT_OK
    print(f"verification failed: {report.first_failure()}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_bounds(args):
    inst = _load_problem(args.input)
    print(verify_bounds.degree_bounds(inst, certifier.build_ring(inst)).to_text())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parse errors (exit 1), not
    argparse's exit 2, which here means that no certificate can exist."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="soscert",
        description="Exact rational weighted sum-of-squares certificates on "
                    "finite semialgebraic sets.",
        epilog="Polynomial grammar: rationals `num/den`, variables as declared, "
               "`*` products, `^` or `**` integer powers, e.g. `3/2*x1^2*x2 - x3 + 7`.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="compute a certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=certifier.OPTION_CHOICES["mode"])
    p.add_argument("--engine", choices=certifier.OPTION_CHOICES["engine"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="verify a certificate file exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="print the degree bound report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SosCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE


if __name__ == "__main__":
    sys.exit(main())
