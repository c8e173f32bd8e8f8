"""Per-layer tracing of soscert from outside the package.

`Tracer.install()` replaces the public functions listed in LAYERS (module
attributes, and methods on their classes) with wrappers that record a span
around each call and return the same value or re-raise the same exception.
Nothing under `src/` is edited: the package's own modules look these names
up at call time, so internal calls are traced too.

Self time (span minus the time its traced children cover) and call counts
are accumulated online through a stack of open frames.  Spans (name, start,
end, parent, operation id) are kept in memory and dumped at the end.  The
per-iteration methods in HOT would create millions of spans on the SDP
workload, so their spans are merged per (parent span, name) into one record
with a call count; their time still counts exactly toward the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# module -> functions; "Class" wraps construction, "Class.method" a method
LAYERS = {
    "problem_io": ["parse_problem", "parse_certificate", "format_certificate"],
    "quotient": ["groebner", "monomial_basis", "radical_generators",
                 "cofactor_reduce", "coprimality_witness", "ideal_power_chain",
                 "inverse_mod"],
    "exactla": ["rref", "solve"],
    "variety": ["solve_variety", "membership"],
    "gram": ["build_gram_real", "GramVariety", "round_matrix",
             "project_to_gram", "ldlt", "round_and_certify"],
    "certifier": ["certify", "perturb", "certify_nonneg",
                  "certify_strict_nonradical", "hensel_sqrt"],
    "sdp_backend": ["SdpProblem", "SdpProblem.project_cone",
                    "SdpProblem.project_affine", "solve_feasibility",
                    "maximize_lambda", "algorithm1_certify"],
    "verify_bounds": ["verify_certificate"],
    "cli": ["main"],
}
SELF_ONLY = {"problem_io"}
HOT = {"sdp_backend.SdpProblem.project_cone",
       "sdp_backend.SdpProblem.project_affine"}


class Tracer:
    def __init__(self):
        self.names = []            # name id -> "module.function"
        self.calls = {}
        self.self_s = {}
        self.counts = {}           # extra per-layer counters
        self.maxima = {}
        self.spans = []            # [name id, start, end, parent span, op]
        self.merged = {}           # (parent span, name id) -> [calls, total, first, last]
        self.stack = []            # open frames: [child time, span], where span
                                   # is a merged frame's nearest recorded ancestor
        self.op = -1
        self.t0 = time.perf_counter()
        self._undo = []

    # -- recording ----------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _wrap(self, name, func, hook):
        if name not in self.calls:
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        nid = self.names.index(name)
        hot = name in HOT
        stack, spans, merged, clock = self.stack, self.spans, self.merged, time.perf_counter
        calls, self_s = self.calls, self.self_s

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append([nid, 0.0, 0.0, parent, self.op])
            stack.append(frame)
            error = result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if hot:
                    agg = merged.get((parent, nid))
                    if agg is None:
                        agg = merged[parent, nid] = [0, 0.0, start, end]
                    agg[0] += 1
                    agg[1] += duration
                    agg[3] = end
                else:
                    record = spans[frame[1]]
                    record[1] = start
                    record[2] = end
                if hook is not None:
                    hook(self, args, kwargs, result, error)
            return result

        return wrapper

    def install(self):
        for module_name, funcs in LAYERS.items():
            module = importlib.import_module(f"soscert.{module_name}")
            for func in funcs:
                name = f"{module_name}.{func}"
                owner, attr = module, func
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(module, cls)
                elif isinstance(getattr(module, func), type):
                    owner, attr = getattr(module, func), "__init__"
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, HOOKS.get(name)))
                self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- results ------------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics, counts and times per operation."""
        per = 1.0 / max(ops, 1)
        out = {}
        for module_name, funcs in LAYERS.items():
            for func in funcs:
                name = f"{module_name}.{func}"
                if module_name not in SELF_ONLY:
                    out[f"{name}.calls"] = (self.calls[name] * per, "count/op")
                out[f"{name}.self_s"] = (self.self_s[name] * per, "s/op")
        for key in COUNTS:
            out[key] = (self.counts.get(key, 0) * per, "count/op")
        for key, unit in MAXIMA.items():
            out[key] = (self.maxima.get(key, 0), unit)
        attempts = self.calls["gram.ldlt"]
        success = attempts - self.counts.get("gram.ldlt.fail", 0)
        out["gram.ldlt.success_ratio"] = (success / attempts if attempts else 0.0,
                                          "ratio")
        return out

    def dump(self, path):
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[self.names[n], s - self.t0, e - self.t0, p, op]
                      for n, s, e, p, op in self.spans],
            "merged_fields": ["parent", "name", "calls", "total_s",
                              "first_start_s", "last_end_s"],
            "merged": [[p, self.names[n], c, tot, s - self.t0, e - self.t0]
                       for (p, n), (c, tot, s, e) in self.merged.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- extras computed at the layer boundaries ----------------------------------


def _monomial_basis(tr, args, kwargs, result, error):
    if result is not None:
        tr.high("quotient.monomial_basis.D_max", result.D)


def _rref(tr, args, kwargs, result, error):
    matrix = args[0] if args else kwargs["matrix"]
    tr.add("exactla.rref.cells", len(matrix) * (len(matrix[0]) if matrix else 0))


def _failures(key, *kinds):
    """Count calls that raised one of the named exceptions (any, if none)."""
    def hook(tr, args, kwargs, result, error):
        if error is not None and (not kinds or type(error).__name__ in kinds):
            tr.add(key, 1)
    return hook


def _gram_variety(tr, args, kwargs, result, error):
    if error is None:
        lp = args[0]
        tr.add("gram.GramVariety.unknowns", lp.D * (lp.D + 1) // 2)
        tr.add("gram.GramVariety.rows", len(lp.A))


def _round_matrix(tr, args, kwargs, result, error):
    tr.high("gram.round_matrix.bits_max",
            args[1] if len(args) > 1 else kwargs["frac_bits"])


def _sdp_problem(tr, args, kwargs, result, error):
    if error is None:
        tr.add("sdp_backend.SdpProblem.vars", args[0].nvars_total)


HOOKS = {
    "quotient.monomial_basis": _monomial_basis,
    "exactla.rref": _rref,
    "variety.solve_variety": _failures("variety.solve_variety.fail"),
    "gram.GramVariety": _gram_variety,
    "gram.round_matrix": _round_matrix,
    "gram.ldlt": _failures("gram.ldlt.fail", "NotPD", "ZeroPivot"),
    "sdp_backend.solve_feasibility": _failures(
        "sdp_backend.solve_feasibility.fail", "Infeasible", "MaxIterations"),
    "sdp_backend.SdpProblem": _sdp_problem,
}
COUNTS = ["exactla.rref.cells", "variety.solve_variety.fail",
          "gram.GramVariety.unknowns", "gram.GramVariety.rows", "gram.ldlt.fail",
          "sdp_backend.solve_feasibility.fail", "sdp_backend.SdpProblem.vars"]
MAXIMA = {"quotient.monomial_basis.D_max": "count",
          "gram.round_matrix.bits_max": "bits"}
