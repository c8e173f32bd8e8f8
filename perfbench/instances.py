"""Known-answer instance generators for the soscert benchmark.

Every real point of every instance is rational and listed.  Most ideals
are generated by one univariate polynomial per variable, so V(I) is the
grid of the factors' roots, and complex roots come only from irreducible
quadratics (x^2 + c, y^2 + b*y + b^2).  The four-points and cusp-circle
ideals list their rational real points directly; the cusp-circle's
complex pair comes from y^2 + 8 at x = -2.  The sign of f on
S = {xi in V_R(I) : g(xi) >= 0} is therefore decided exactly with Fraction
arithmetic, and each instance records the exit code the `soscert certify`
command must return: 0 when the requested certificate exists, 2 when it
cannot.

Polynomials are plain dicts {exponent tuple: Fraction}; the benchmark
builds, formats and evaluates them itself, so the inputs and the oracle do
not depend on the code under test.  The instance list is a pure function
of (workload, seed).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# -- a minimal exact polynomial algebra ------------------------------------


def const(c, n):
    return {(0,) * n: Fraction(c)} if c else {}


def var(i, n):
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(1)}


def add(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = Fraction(v)
        else:
            out.pop(m, None)
    return out


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: Fraction(c) for m, c in out.items() if c}


def product(polys, n):
    out = const(1, n)
    for p in polys:
        out = mul(out, p)
    return out


def evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for x, e in zip(point, m):
            if e:
                v *= x ** e
        total += v
    return total


def reflect(p, signs):
    """p(s_1 x_1, ..., s_n x_n) for signs s_i in {1, -1}."""
    out = {}
    for m, c in p.items():
        odd = sum(e for e, s in zip(m, signs) if s < 0) % 2
        out[m] = -c if odd else c
    return out


def fmt(p, names):
    """The CLI polynomial grammar: `3/2*x^2*y - y + 7`."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (sum(m), m), reverse=True):
        c = p[m]
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        parts.append(("-" if c < 0 else "") + body if not parts else f"{sign} {body}")
    return " ".join(parts)


def monomials(n, degree):
    return [m for d in range(degree + 1)
            for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


def random_poly(rng, n, degree, coeff):
    """Random integer polynomial of total degree <= degree."""
    return {m: Fraction(c) for m in monomials(n, degree)
            if (c := rng.randint(-coeff, coeff))}


# -- instances --------------------------------------------------------------


class Instance:
    """A problem file plus its exactly known answer.

    `points` are the real points of V(I), all rational; `expected` is the
    exit code `soscert certify` must return (0 or 2).
    """

    def __init__(self, name, names, f, g, h, points, mode="strict",
                 engine="constructive"):
        self.name = name
        self.names = list(names)
        self.f = f
        self.g = list(g)
        self.h = list(h)
        self.points = [tuple(Fraction(x) for x in pt) for pt in points]
        self.mode = mode
        self.engine = engine
        for pt in self.points:
            for hj in self.h:
                if evaluate(hj, pt) != 0:
                    raise ValueError(f"{name}: {pt} is not a point of V(I)")
        self.in_s = [pt for pt in self.points
                     if all(evaluate(gi, pt) >= 0 for gi in self.g)]
        if not self.in_s:
            raise ValueError(f"{name}: S is empty")
        self.min_f = min(evaluate(f, pt) for pt in self.in_s)
        ok = self.min_f > 0 if mode == "strict" else self.min_f >= 0
        self.expected = 0 if ok else 2

    def reflected(self, signs):
        """The same instance after x_i -> s_i x_i.  Every exact step of the
        program is equivariant under this change of sign, and float
        negation is exact, so the work done is the same; the inputs and
        the certificate differ in their signs."""
        return Instance(self.name, self.names, reflect(self.f, signs),
                        [reflect(p, signs) for p in self.g],
                        [reflect(p, signs) for p in self.h],
                        [tuple(s * x for s, x in zip(signs, pt)) for pt in self.points],
                        mode=self.mode, engine=self.engine)

    def problem_text(self):
        lines = ["variables " + " ".join(self.names),
                 "f: " + fmt(self.f, self.names)]
        lines += ["g: " + fmt(p, self.names) for p in self.g]
        lines += ["h: " + fmt(p, self.names) for p in self.h]
        return "\n".join(lines) + "\n"

    def certify_args(self):
        return ["--mode", self.mode, "--engine", self.engine]


def _univariate(i, n, roots, quadratics=()):
    """prod (x_i - r) * prod (x_i^2 + b x_i + c) for the given data."""
    x = var(i, n)
    factors = [add(x, const(r, n), -1) for r in roots]
    for b, c in quadratics:
        factors.append(add(add(mul(x, x), x, b), const(c, n)))
    return product(factors, n)


def _with_margin(p, points_in_s, margin):
    """p shifted so that its minimum over the given points equals margin."""
    low = min(evaluate(p, pt) for pt in points_in_s)
    return add(p, const(Fraction(margin) - low, len(next(iter(points_in_s)))))


def _names(n):
    return ["x", "y"] if n == 2 else [f"x{i + 1}" for i in range(n)]


def _sign_g(rng, n, points, degree=1):
    """A random inequality that is nonzero at every real point and keeps at
    least one point in S and excludes at least one."""
    while True:
        g = random_poly(rng, n, degree, 3)
        vals = [evaluate(g, pt) for pt in points]
        if all(vals) and any(v > 0 for v in vals) and any(v < 0 for v in vals):
            return g


def _finish(name, n, roots, quads, margin, rng, with_g, f_degree=2, coeff=3,
            **kw):
    """Instance on the grid ideal given by per-variable roots/quadratics,
    with a random f whose minimum over S is exactly `margin`."""
    h = [_univariate(i, n, roots[i], quads[i]) for i in range(n)]
    points = list(itertools.product(*roots))
    g = [_sign_g(rng, n, points)] if with_g else []
    in_s = [pt for pt in points if all(evaluate(gi, pt) >= 0 for gi in g)]
    f = _with_margin(random_poly(rng, n, f_degree, coeff), in_s, margin)
    return Instance(name, _names(n), f, g, h, points, **kw)


def cube(rng, n, margin, with_g=False, **kw):
    """Binary cube x_i^2 = x_i."""
    return _finish(f"cube{n}", n, [(0, 1)] * n, [()] * n, margin, rng,
                   with_g, **kw)


def grid(rng, ks, margin, with_g=False, **kw):
    """Integer grid prod_j (x_i - r_j) with ks[i] distinct roots in x_i."""
    roots = [sorted(rng.sample(range(-3, 4), k)) for k in ks]
    return _finish("grid" + "x".join(map(str, ks)), len(ks), roots,
                   [()] * len(ks), margin, rng, with_g, **kw)


def conjugate(rng, margin, with_g=False, cubic=True, **kw):
    """(x^2 - a^2)(x^2 + c), and y (y - b)(y^2 + b y + b^2) (D = 16) or
    y (y - b)(y + b) (D = 12): x^4 = 1 and y^4 = y at a = b = c = 1, with
    conjugate-pair complex points."""
    a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
    y_roots, y_quads = ((0, b), [(b, b * b)]) if cubic else ((-b, 0, b), [])
    return _finish("conj16" if cubic else "conj12", 2,
                   [(-a, a), y_roots], [[(0, c)], y_quads], margin, rng,
                   with_g, **kw)


def multiple(rng, mx, my, extra_x, extra_y, margin, **kw):
    """Non-radical product ideal (x - a)^mx (x - a'), (y - b)^my (y - b')."""
    a, a2, b, b2 = rng.sample(range(-2, 3), 4)
    roots = [[a] * mx + ([a2] if extra_x else []),
             [b] * my + ([b2] if extra_y else [])]
    n = 2
    h = [_univariate(i, n, roots[i]) for i in range(n)]
    points = list(itertools.product(*(sorted(set(r)) for r in roots)))
    f = _with_margin(random_poly(rng, n, 1, 3), points, margin)
    return Instance(f"mult{mx}{my}{int(extra_x)}{int(extra_y)}", _names(n), f,
                    [], h, points, **kw)


def four_points(rng, margin, coeff=3, **kw):
    """x^2 = 1, y^2 = alpha x + beta with g = y: the four-points ideal
    (alpha = 1, beta = 2 gives y = +-sqrt(3)) with s, t chosen so that the
    points (1, +-s), (-1, +-t) are rational."""
    s, t = rng.sample(range(1, 4), 2)
    n = 2
    alpha, beta = Fraction(s * s - t * t, 2), Fraction(s * s + t * t, 2)
    x, y = var(0, n), var(1, n)
    h = [add(mul(x, x), const(1, n), -1),
         add(add(mul(y, y), x, -alpha), const(beta, n), -1)]
    points = [(1, s), (1, -s), (-1, t), (-1, -t)]
    g = [y]
    in_s = [pt for pt in points if pt[1] >= 0]
    f = _with_margin(random_poly(rng, n, 1, coeff), in_s, margin)
    return Instance("fourpts", _names(n), f, g, h, points, **kw)


def cusp_circle(mode):
    """x^3 = y^2, y^2 + x^2 = 2x: a double point at the origin, (1, +-1)
    and a conjugate pair at x = -2.  f = x (nonneg) or x + 1 (strict)."""
    n = 2
    x, y = var(0, n), var(1, n)
    h = [add(mul(mul(x, x), x), mul(y, y), -1),
         add(add(mul(y, y), mul(x, x)), x, -2)]
    f = x if mode == "nonneg" else add(x, const(1, n))
    return Instance(f"cusp_{mode}", _names(n), f, [], h,
                    [(0, 0), (1, 1), (1, -1)], mode=mode)


# -- workloads ----------------------------------------------------------------
#
# A workload is a fixed catalogue of instances, drawn once under a seed of
# its own.  A run makes whole passes over the catalogue; the run's --seed
# shuffles each pass and, on `radical` and `sdp`, draws for each instance
# in it a reflection x_i -> +-x_i (Instance.reflected).  So every seed
# gives other problem files with the same known answers, and every pass
# does about the same work.  On `lift` a reflection can change the height
# of the Hensel-lifted certificate sixfold (mult3101: 269 to 1680 bits),
# which would move the median height by a quarter between seeds, so there
# the seed only shuffles.
#
# Random f on one family differ in cost by up to 10x (more for the SDP
# engine, whose Dykstra iteration count is chaotic in f), so a run that
# drew its own f would measure the draw as much as the program: in two
# sets of ten seeds, medians of time and height moved by 20-30% between
# seeds.  Every catalogue instance had the right outcome when the
# benchmark was added; the known failures (margins below float64 or the
# perturbation tolerance, SDP misses, the Hensel cliff) are listed by
# frontier.py instead.

NEGATIVE = Fraction(-1)


def _radical_round(rng):
    # Four light, four medium (D = 12) and two heavy (D = 16) slots.
    # Margins with g stay above the perturbation tolerance (about 2^-18,
    # see frontier.py).
    return [
        grid(rng, (3, 3), NEGATIVE),
        cube(rng, 3, Fraction(1, 2 ** 32)),
        cube(rng, 3, Fraction(1, 2 ** 12), with_g=True),
        grid(rng, (3, 3), Fraction(1, 2), with_g=True),
        grid(rng, (3, 4), Fraction(1, 2 ** 16)),
        grid(rng, (4, 3), Fraction(1, 2 ** 8), with_g=True),
        conjugate(rng, Fraction(1, 2 ** 24), cubic=False),
        conjugate(rng, Fraction(1, 2 ** 12), with_g=True, cubic=False),
        cube(rng, 4, Fraction(1, 2 ** 4)),
        conjugate(rng, 1),
    ]


def _lift_slots(rng):
    # Heights run from a few bits (3,1,0,0) to 2500 (2,1,1,1).
    return [
        multiple(rng, 3, 1, False, False, 1),
        multiple(rng, 2, 2, False, False, Fraction(1, 2)),
        cube(rng, 3, 0, mode="nonneg"),
        multiple(rng, 2, 1, True, False, Fraction(1, 4)),
        multiple(rng, 2, 1, True, False, 1),
        multiple(rng, 2, 1, True, False, Fraction(1, 8)),
        multiple(rng, 2, 2, True, False, 1),
        multiple(rng, 3, 1, False, True, 1),
        multiple(rng, 2, 1, True, True, 1),
        # negative control: f = -1 at a point of V
        multiple(rng, 2, 1, True, True, NEGATIVE),
    ]


# A median that falls between two groups of operations of different cost
# flips between them with the noise of single operations.  Each catalogue
# is therefore trimmed so that its median and 90th percentile fall inside a
# group of operations of about the same cost; a simulation that resampled
# measured operation times put the median's run-to-run spread at 2-4%
# this way, against 5-10% for the untrimmed draws.


def _radical_catalogue():
    # Two rounds; the second has a cube-4 and a D = 16 slot in place of its
    # two cube-3 slots.  The median then falls among the five D = 12 slots
    # at 0.26-0.27 s, not between them and the 0.22 s conj12-with-g slots,
    # and the 90th percentile among the six heavy slots.
    rng = random.Random("radical:catalogue")
    first, second = _radical_round(rng), _radical_round(rng)
    heavy = [cube(rng, 4, Fraction(1, 2 ** 20)), conjugate(rng, Fraction(1, 2 ** 8))]
    return first + [inst for inst in second if inst.name != "cube3"] + heavy


def _lift_catalogue():
    # The second draw leaves out its three 0.06 s mult2110 slots, so that
    # the median falls among four operations of 0.19-0.23 s, not between
    # them and the 0.14-0.16 s ones.  Three cusp-circle operations in 20
    # (15%) hold the 90th percentile inside the Hensel-heavy tail for any
    # number of whole passes.
    rng = random.Random("lift:catalogue")
    cusp = [cusp_circle("nonneg"), cusp_circle("strict"), cusp_circle("nonneg")]
    first, second = _lift_slots(rng), _lift_slots(rng)
    return (first + cusp[:2] + [inst for inst in second if inst.name != "mult2110"]
            + cusp[2:])


def _sdp_catalogue():
    """The first two binary-cube and grid draws under the catalogue seed,
    and the first four-points draw that certified in under 6 s when the
    benchmark was added (the earlier ones take 9 to 21 s and are listed by
    frontier.py)."""
    draws = sdp_draws()
    return [draws[i] for i in (0, 1, 3, 4, 11)]


def sdp_draws():
    """Cube, grid and four-points SDP instances drawn in turn under the
    catalogue seed, with random linear f."""
    rng = random.Random("sdp:catalogue")
    draws = []
    for _ in range(4):
        draws += [cube(rng, 2, 1, f_degree=1, coeff=2, engine="sdp"),
                  grid(rng, (2, 2), 1, f_degree=1, coeff=2, engine="sdp"),
                  four_points(rng, 1, coeff=2, engine="sdp")]
    return draws


CATALOGUES = {"radical": _radical_catalogue, "lift": _lift_catalogue,
              "sdp": _sdp_catalogue}
WORKLOADS = tuple(CATALOGUES)
REFLECTED = {"radical", "sdp"}


def generate(workload, seed, passes):
    """`passes` lists of Instances, each the workload's catalogue shuffled
    (and reflected); a pure function of (workload, seed)."""
    catalogue = CATALOGUES[workload]()
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(passes):
        order = rng.sample(catalogue, len(catalogue))
        if workload in REFLECTED:
            order = [inst.reflected([rng.choice((1, -1)) for _ in inst.names])
                     for inst in order]
        out.append(order)
    return out
