"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input the program sees is generated here from the workload seed and
written as a file; the program receives only those files and an argv, and
nothing in them names a workload.  The expected results are computed by
small exact oracles in this module, independently of sftlift, so a check
never trusts the code it checks.  ``build`` only generates inputs; each
operation computes its expected results on its first check, so the oracles
run neither in the timed set-up nor in a timed round.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

WORKLOADS = ("mc-bernoulli", "mc-markov", "exact")


@dataclass(frozen=True)
class Sizes:
    """Problem size of one benchmark mode."""

    sample_length: int          # Monte-Carlo T
    max_period: int             # periodic-lifts --max-period
    joining_modulus: int        # modulus of the codes given to joining/degree
    word_lengths: tuple         # lengths of the exact cylinder words, two words each


FULL = Sizes(10**6, 6, 5, (4, 5, 6, 7))
SMOKE = Sizes(5 * 10**4, 3, 3, (2, 3, 4))


@dataclass
class Op:
    """One operation: a CLI argv or a library call, and the check of its output.

    ``make_check()`` computes the expected results and returns the check of
    one output; it runs on the first ``check(text)``.  ``check(text)``
    returns ``(problems, mc_dev)``: the list of failed checks (empty when the
    output is right) and, for a Monte-Carlo operation, the largest deviation
    of its cluster cylinders from the exact lifts.
    """

    name: str
    argv: list | None
    call: object | None         # call(sftlift) -> output text, for library ops
    make_check: object
    _check: object = field(default=None, repr=False)

    def check(self, text):
        if self._check is None:
            self._check = self.make_check()
        return self._check(text)


@dataclass
class Workload:
    files: dict                 # file name -> JSON payload
    ops: list


# ------------------------------------------------------------------ oracles

def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _orbit_count(traces, max_period):
    """Number of periodic orbits of least period <= max_period, from
    ``traces[n]`` = number of points of period n (trace of A^n)."""
    total = 0
    for n in range(1, max_period + 1):
        points = sum(_mobius(n // d) * traces[d] for d in range(1, n + 1) if n % d == 0)
        total += points // n
    return total


def _matrix_traces(succ, max_period):
    """Traces of A^1 .. A^max_period for the graph with edge lists ``succ``
    on vertices 0..n-1 (a repeated successor is a parallel edge)."""
    n_vertices = len(succ)
    power = [[int(i == j) for j in range(n_vertices)] for i in range(n_vertices)]
    traces = {}
    for n in range(1, max_period + 1):
        power = [[sum(power[i][k] * succ[k].count(j) for k in range(n_vertices))
                  for j in range(n_vertices)] for i in range(n_vertices)]
        traces[n] = sum(power[i][i] for i in range(n_vertices))
    return traces


def _stationary(matrix):
    """Exact stationary vector of an irreducible row-stochastic matrix."""
    n = len(matrix)
    rows = [[matrix[j][i] - (1 if i == j else 0) for j in range(n)] + [Fraction(0)]
            for i in range(n - 1)]
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


class _Markov:
    """Exact Markov cylinder oracle over integer letters 0..n-1."""

    def __init__(self, matrix):
        self.matrix = matrix

    @cached_property
    def pi(self):
        return _stationary(self.matrix)

    def cylinder(self, word):
        mass = self.pi[word[0]]
        for a, b in zip(word, word[1:]):
            mass *= self.matrix[a][b]
        return mass

    def to_json(self):
        n = len(self.matrix)
        return {"type": "markov", "states": [str(a) for a in range(n)],
                "transitions": {str(a): {str(b): str(self.matrix[a][b]) for b in range(n)}
                                for a in range(n)}}


def _bernoulli_cylinder(alpha, word):
    return math.prod((alpha[a] for a in word), start=Fraction(1))


def _alternating_cylinder(alpha, offset, word):
    """Phase-averaged law of x_t + offset * (-1)^t (mod N), x ~ Bernoulli(alpha)."""
    n = len(alpha)
    total = Fraction(0)
    for phase in (0, 1):
        shifted = [(a - (1 if (i + phase) % 2 == 0 else -1) * offset) % n
                   for i, a in enumerate(word)]
        total += _bernoulli_cylinder(alpha, shifted)
    return total / 2


def _words(k, depth):
    return [w for length in range(1, depth + 1) for w in itertools.product(range(k), repeat=length)]


def _distinct_lifts(lifts, k, depth):
    """Merge lift cylinder functions equal on every word up to ``depth``
    into (function, multiplicity) pairs.  For the sweeps used here equality
    of the defining parameters is decided by depth-2 cylinders, so depth 3
    is exact."""
    words = _words(k, depth)
    merged = []
    for fn in lifts:
        values = tuple(fn(w) for w in words)
        for entry in merged:
            if entry[1] == values:
                entry[2] += 1
                break
        else:
            merged.append([fn, values, 1])
    return [(fn, mult) for fn, _values, mult in merged]


def _bernoulli_sweeps(alpha):
    """Lifts of the image of Bernoulli(alpha) under the difference code mod
    len(alpha): its distinct sweeps x -> x + c, with multiplicities."""
    n = len(alpha)
    return _distinct_lifts(
        [lambda w, c=c: _bernoulli_cylinder(alpha, [(a - c) % n for a in w]) for c in range(n)],
        n, 3)


# ------------------------------------------------------------- generation

def _rng(workload, seed):
    return random.Random(f"sftlift-bench:{workload}:{seed}")


def _op_seed(rng):
    return rng.randrange(2**31)


def _ca_code(modulus, family):
    sign = -1 if family == "diff" else 1
    block_map = {f"{a}{b}": str((b + sign * a) % modulus)
                 for a in range(modulus) for b in range(modulus)}
    return {"memory": 0, "anticipation": 1,
            "alphabet": [str(a) for a in range(modulus)], "block_map": block_map}


def _symmetric_sweep_chain(rng):
    """4-state chain invariant under x -> x + 2 but not x -> x + 1, whose two
    distinct sweeps differ by at least 1/20 on some cylinder of length <= 2
    (ten times the default clustering tolerance at T = 10^6)."""
    while True:
        rows = []
        for _ in range(2):
            weights = [rng.randint(1, 4) for _ in range(4)]
            rows.append([Fraction(w, sum(weights)) for w in weights])
        matrix = rows + [[rows[a - 2][(b - 2) % 4] for b in range(4)] for a in (2, 3)]
        chain = _Markov(matrix)
        gap = max(abs(chain.cylinder(w) - chain.cylinder([(a - 1) % 4 for a in w]))
                  for w in _words(4, 2))
        if gap >= Fraction(1, 20):
            return chain


def _two_state_chain(rng):
    """Near-balanced 2-state image chain: flip probabilities in [9/20, 11/20]
    keep the parity of the lifted path fast-mixing, so the two fiber
    coordinates of the single lift stay well inside the tolerance."""
    a, b = (Fraction(rng.randint(18, 22), 40) for _ in range(2))
    return _Markov([[1 - a, a], [b, 1 - b]])


def _general_chain(rng, n):
    rows = []
    for _ in range(n):
        weights = [rng.randint(1, 4) for _ in range(n)]
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return _Markov(rows)


def _reaches_all(vertices, succ):
    seen, stack = {vertices[0]}, [vertices[0]]
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(vertices)


def _strongly_connected(vertices, succ):
    pred = {v: [] for v in vertices}
    for v in vertices:
        for u in succ[v]:
            pred[u].append(v)
    return _reaches_all(vertices, succ) and _reaches_all(vertices, pred)


def _skew_graph(rng):
    """Skew product of a 3-out-regular base on 4 vertices with a Z_k cocycle,
    k in {2, 3}: a finite-to-one labeled graph of degree k.  Out-regular
    bases fix the Perron value at 3, so the number of image orbits and the
    cost of the operation barely depend on the seed."""
    m, r = 4, 3
    k = rng.choice((2, 3))
    while True:
        succ = {a: sorted(rng.sample(range(m), r)) for a in range(m)}
        cocycle = {(a, b): rng.randrange(k) for a in range(m) for b in succ[a]}
        symbols = [f"q{a}r{i}" for a in range(m) for i in range(k)]
        sym_succ = {f"q{a}r{i}": [f"q{b}r{(i + cocycle[a, b]) % k}" for b in succ[a]]
                    for a in range(m) for i in range(k)}
        if _strongly_connected(symbols, sym_succ):
            break
    payload = {
        "x_symbols": symbols,
        "transitions": sorted([s, t] for s in symbols for t in sym_succ[s]),
        "label": {f"q{a}r{i}": f"q{a}" for a in range(m) for i in range(k)},
        "y_symbols": [f"q{a}" for a in range(m)],
    }
    return payload, k, succ


# ----------------------------------------------------------------- checks

def _loads(text):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _cluster_deviation(clusters, exact_lifts, k, depth):
    """Greedy matching of Monte-Carlo clusters to exact lifts: returns
    (problems, largest L-infinity cylinder deviation of a matched pair)."""
    words = _words(k, depth)
    keys = [",".join(str(a) for a in w) for w in words]
    unused = list(range(len(exact_lifts)))
    problems, worst = [], 0.0
    for cluster in clusters:
        freq = cluster["cylinders"]["frequencies"]
        mult = len(cluster["coordinates"])
        best = None
        for li in unused:
            fn, lift_mult = exact_lifts[li]
            dev = max(abs(freq.get(key, 0.0) - float(fn(w))) for key, w in zip(keys, words))
            if best is None or dev < best[1]:
                best = (li, dev, lift_mult)
        if best is None:
            problems.append("more clusters than exact lifts")
            continue
        li, dev, lift_mult = best
        unused.remove(li)
        worst = max(worst, dev)
        if lift_mult != mult:
            problems.append(f"cluster of size {mult} matched a lift of multiplicity {lift_mult}")
    if unused:
        problems.append(f"{len(unused)} exact lifts matched no cluster")
    return problems, worst


def _mc_check(exact_lifts, k, degree, sample_length, depth=3):
    """Check a lift-mc report: degree, multiplicities and cylinders within
    twice the clustering tolerance 5/sqrt(T) of the exact lifts."""
    tolerance = 10 / math.sqrt(sample_length)
    want = sorted(mult for _fn, mult in exact_lifts)

    def check_report(report):
        problems = []
        if report.get("degree") != degree:
            problems.append(f"degree {report.get('degree')} != {degree}")
        got = sorted(entry["multiplicity"] for entry in report["lifts"])
        if got != want:
            problems.append(f"multiplicities {got} != exact {want}")
        more, dev = _cluster_deviation(report["details"]["clusters"], exact_lifts, k, depth)
        problems += more
        if dev > tolerance:
            problems.append(f"cluster cylinders deviate by {dev:.5f} > {tolerance:.5f}")
        return problems, dev

    def check(text):
        report, err = _loads(text)
        if err:
            return [err], None
        return check_report(report)

    check.report = check_report
    return check


def _bernoulli_sweep_check(alpha, sample_length):
    n = len(alpha)
    return _mc_check(_bernoulli_sweeps(alpha), n, n, sample_length)


def _markov_sweep_check(chain, sample_length):
    """Lifts of the image of the 4-state ``chain`` under diff4: its distinct sweeps."""
    sweeps = _distinct_lifts(
        [lambda w, c=c: chain.cylinder([(a - c) % 4 for a in w]) for c in range(4)], 4, 3)
    return _mc_check(sweeps, 4, 4, sample_length)


def _markov_image_check(image, sample_length):
    """The single lift of the 2-state Markov ``image`` under rule102: its
    canonical lift, of multiplicity 2."""
    def canonical(w):
        if len(w) == 1:
            return Fraction(1, 2)
        return image.cylinder([(a + b) % 2 for a, b in zip(w, w[1:])]) / 2
    return _mc_check([(canonical, 2)], 2, 2, sample_length)


def _ca_check(family, modulus, alpha, sample_length):
    if family == "diff":
        lifts = _bernoulli_sweeps(alpha)
    else:
        lifts = [(lambda w: _bernoulli_cylinder(alpha, w), 1),
                 (lambda w: _alternating_cylinder(alpha, 1, w), 2),
                 (lambda w: _alternating_cylinder(alpha, 2, w), 2)]
    mc_check = _mc_check(lifts, modulus, modulus, sample_length)
    want = sorted(mult for _fn, mult in lifts)

    def check(text):
        out, err = _loads(text)
        if err:
            return [err], None
        validation = out.get("cross_validation")
        if validation is None:
            return ["cross-validation missing"], None
        problems = []
        for report in (out["exact"], validation["exact"]):
            exact = sorted(entry["multiplicity"] for entry in report["lifts"])
            if exact != want:
                problems.append(f"exact analyzer multiplicities {exact} != {want}")
        if validation["degree"] != modulus:
            problems.append(f"generic degree {validation['degree']} != modulus {modulus}")
        if len(validation["matching"]) != len(want):
            problems.append("cross-validation matched too few lifts")
        more, dev = mc_check.report(validation["monte_carlo"])
        return problems + more, dev

    return check


def _periodic_check(fiber_size, succ, max_period):
    """Check periodic-lifts rows on an image graph with edge lists ``succ``."""
    n_orbits = _orbit_count(_matrix_traces(succ, max_period), max_period)

    def check(text):
        out, err = _loads(text)
        if err:
            return [err], None
        problems = []
        rows = out["orbits"]
        if len(rows) != n_orbits:
            problems.append(f"{len(rows)} orbits listed, expected {n_orbits}")
        for row in rows:
            total = sum(entry["multiplicity"] for entry in row["lifts"])
            weights = sum(Fraction(c["weight"]) for c in row["canonical_lift"]["components"])
            if total != row["fiber_size"] or row["fiber_size"] != fiber_size or weights != 1:
                problems.append(f"orbit {','.join(row['orbit'])}: multiplicities sum to "
                                f"{total}, fiber {row['fiber_size']}, degree {fiber_size}, "
                                f"canonical weights sum to {weights}")
                break
        return problems, None
    return check


def _joining_check(modulus):
    symbols = modulus * math.factorial(modulus)

    def check(text):
        out, err = _loads(text)
        if err:
            return [err], None
        problems = []
        if out["degree"] != modulus:
            problems.append(f"joining degree {out['degree']} != modulus {modulus}")
        if len(out["x_symbols"]) != symbols:
            problems.append(f"{len(out['x_symbols'])} joining symbols, expected {symbols}")
        return problems, None
    return check


def _degree_check(modulus):
    def check(text):
        out, err = _loads(text)
        if err:
            return [err], None
        if out["finite_to_one"] is not True or out["degree"] != modulus:
            return [f"degree {out['degree']} (finite-to-one {out['finite_to_one']}) "
                    f"!= modulus {modulus}"], None
        return [], None
    return check


def _cylinder_check(chain, words, modulus):
    want = []
    for w in words:
        total = Fraction(0)
        for c in range(modulus):
            u = [c]
            for y in w:
                u.append((u[-1] + y) % modulus)
            total += chain.cylinder(u)
        want.append(str(total))

    def check(text):
        got, err = _loads(text)
        if err:
            return [err], None
        bad = [i for i, (g, v) in enumerate(zip(got, want)) if g != v]
        if len(got) != len(want) or bad:
            return [f"cylinder values differ from the exact recomputation at {bad}"], None
        return [], None
    return check


def _cylinders_call(code_file, measure_file, words):
    def call(sl):
        _recoding, block = sl.graphs.load_graph_or_code(code_file)
        with open(measure_file) as fh:
            nu = sl.measures.measure_from_json_dict(json.load(fh), code=block)
        return json.dumps([str(nu.cylinder(tuple(str(a) for a in w))) for w in words])
    return call


# -------------------------------------------------------------- workloads

def build(name, seed, sizes, workdir):
    """The workload ``name`` at ``seed``: input payloads and operations.

    ``workdir`` is where the caller writes ``files``; operations name those
    paths.
    """
    rng = _rng(name, seed)
    T = sizes.sample_length
    path = lambda f: str(workdir / f)  # noqa: E731 - local shorthand
    mc_flags = ["--length", str(T)]
    files, ops = {}, []

    if name == "mc-bernoulli":
        files["rule102.json"] = _ca_code(2, "diff")
        alpha = (Fraction(7, 10), Fraction(3, 10))
        files["bernoulli.json"] = {"type": "pushforward", "base": {
            "type": "bernoulli", "alphabet": ["0", "1"], "probabilities": [str(a) for a in alpha]}}
        ops.append(Op("lift-mc-rule102", ["lift-mc", path("rule102.json"), "--measure",
                                          path("bernoulli.json"), "--seed", str(_op_seed(rng))]
                      + mc_flags, None, partial(_bernoulli_sweep_check, alpha, T)))
        for family, modulus, vector in (("diff", 4, "1/8,3/8,1/8,3/8"),
                                        ("sum", 5, "3/5,1/10,1/10,1/10,1/10")):
            alpha = [Fraction(a) for a in vector.split(",")]
            ops.append(Op(f"ca-{family}{modulus}",
                          ["ca", "--family", family, "--modulus", str(modulus), "--vector", vector,
                           "--seed", str(_op_seed(rng))] + mc_flags,
                          None, partial(_ca_check, family, modulus, alpha, T)))

    elif name == "mc-markov":
        files["diff4.json"] = _ca_code(4, "diff")
        files["rule102.json"] = _ca_code(2, "diff")
        base = _symmetric_sweep_chain(rng)
        files["markov-base.json"] = {"type": "pushforward", "base": base.to_json()}
        ops.append(Op("lift-mc-diff4-markov", ["lift-mc", path("diff4.json"), "--measure",
                                               path("markov-base.json"),
                                               "--seed", str(_op_seed(rng))] + mc_flags,
                      None, partial(_markov_sweep_check, base, T)))
        image = _two_state_chain(rng)
        files["markov-image.json"] = image.to_json()
        ops.append(Op("lift-mc-rule102-markov-image",
                      ["lift-mc", path("rule102.json"), "--measure", path("markov-image.json"),
                       "--seed", str(_op_seed(rng))] + mc_flags,
                      None, partial(_markov_image_check, image, T)))

    elif name == "exact":
        n = sizes.joining_modulus
        files["sum5.json"] = _ca_code(5, "sum")
        files[f"diff{n}.json"] = _ca_code(n, "diff")
        files[f"sum{n}.json"] = _ca_code(n, "sum")
        files["diff4.json"] = _ca_code(4, "diff")
        skew, k, succ = _skew_graph(rng)
        files["skew.json"] = skew
        period = str(sizes.max_period)
        full5 = {0: [0] * 5}        # the full 5-shift, whose orbits sum5's image has
        ops.append(Op("periodic-lifts-sum5", ["periodic-lifts", path("sum5.json"),
                                              "--max-period", period],
                      None, partial(_periodic_check, 5, full5, sizes.max_period)))
        ops.append(Op("periodic-lifts-skew", ["periodic-lifts", path("skew.json"),
                                              "--max-period", period],
                      None, partial(_periodic_check, k, succ, sizes.max_period)))
        for family in ("diff", "sum"):
            ops.append(Op(f"joining-{family}{n}", ["joining", path(f"{family}{n}.json")],
                          None, partial(_joining_check, n)))
        for family in ("diff", "sum"):
            ops.append(Op(f"degree-{family}{n}", ["degree", path(f"{family}{n}.json")],
                          None, partial(_degree_check, n)))
        chain = _general_chain(rng, 4)
        files["markov-cyl.json"] = {"type": "pushforward", "base": chain.to_json()}
        words = [[rng.randrange(4) for _ in range(length)]
                 for length in sizes.word_lengths for _ in range(2)]
        ops.append(Op("pushforward-cylinders", None,
                      _cylinders_call(path("diff4.json"), path("markov-cyl.json"), words),
                      partial(_cylinder_check, chain, words, 4)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(files, ops)


def write_inputs(workload, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for name, payload in workload.files.items():
        (workdir / name).write_text(json.dumps(payload, sort_keys=True))
