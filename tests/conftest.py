"""Shared fixtures: reference codes, hand-built graphs, random finite-to-one
fixtures, and independent oracles used to freeze expected values."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm

import numpy as np
import pytest
from hypothesis import settings

import sftlift as sl
from sftlift import LabeledGraph, LinearCACode, PeriodicOrbit

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def rule102():
    """x_i + x_{i+1} mod 2 on the full 2-shift (same block map as the
    mod-2 difference)."""
    return LinearCACode(2, "difference")


@pytest.fixture(scope="session")
def diff4():
    return LinearCACode(4, "difference")


@pytest.fixture(scope="session")
def sum5():
    return LinearCACode(5, "sum")


@pytest.fixture(scope="session")
def golden_mean_graph():
    return LabeledGraph(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")],
                        {"a": "a", "b": "b"})


@pytest.fixture(scope="session")
def constant_label_graph():
    return LabeledGraph(["0", "1"],
                        [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
                        {"0": "z", "1": "z"})


@pytest.fixture(scope="session")
def collapsing_fixture():
    """Degree-one finite-to-one code whose image fixed point 0 has a
    two-point fiber (the period-2 cycle u->v), so the orbit degree exceeds
    the code degree.  Stands in for the non-constructive blow-up examples."""
    return LabeledGraph(["u", "v", "w"],
                        [("u", "v"), ("v", "u"), ("u", "w"), ("w", "v")],
                        {"u": "0", "v": "0", "w": "1"})


def _random_fto_graph(rng: random.Random, max_symbols=6):
    n = rng.randint(2, max_symbols)
    syms = [f"s{i}" for i in range(n)]
    n_y = rng.randint(2, n) if n > 1 else 1
    ys = [str(i) for i in range(n_y)]
    perm = syms[:]
    rng.shuffle(perm)
    edges = set(zip(perm, perm[1:] + perm[:1]))
    for a in syms:
        for b in syms:
            if rng.random() < 0.25:
                edges.add((a, b))
    label = {s: rng.choice(ys) for s in syms}
    for i, y in enumerate(ys):
        # keep the labeling surjective
        if y not in label.values():
            label[syms[i % n]] = y
    used = sorted({label[s] for s in syms})
    return LabeledGraph(syms, edges, label, used)


def _random_skew_graph(rng: random.Random, max_symbols=6):
    """Skew product over a random base with a Z_k cocycle on the edges: the
    projection to the base is a degree-k factor code (preimages differ by a
    constant fiber offset, so no diamond can form)."""
    k = rng.choice([2, 2, 3])
    m = rng.randint(2, max_symbols // k)
    base = [f"q{i}" for i in range(m)]
    perm = base[:]
    rng.shuffle(perm)
    base_edges = set(zip(perm, perm[1:] + perm[:1]))
    for a in base:
        for b in base:
            if rng.random() < 0.4:
                base_edges.add((a, b))
    cocycle = {e: rng.randrange(k) for e in sorted(base_edges)}
    syms = [f"{q}r{r}" for q in base for r in range(k)]
    edges = set()
    for (a, b), shift in cocycle.items():
        for r in range(k):
            edges.add((f"{a}r{r}", f"{b}r{(r + shift) % k}"))
    label = {f"{q}r{r}": q for q in base for r in range(k)}
    return LabeledGraph(syms, edges, label, base)


@pytest.fixture(scope="session")
def random_fto_fixtures():
    """20 randomly generated irreducible essential finite-to-one fixtures
    with alphabets <= 6, deterministic across runs; half are random skew
    products so that degrees above one are represented."""
    return random_fto_codes(random.Random(20260810), 20, 6)


def random_fto_codes(rng, count, max_symbols):
    """``count`` irreducible essential finite-to-one graphs on at most
    ``max_symbols`` symbols, alternately random and skew products."""
    found = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("fixture generation stalled")
        maker = _random_fto_graph if len(found) % 2 == 0 else _random_skew_graph
        g = maker(rng, max_symbols)
        report = sl.analyze_graph(g)
        if not (report.is_essential and report.is_irreducible):
            continue
        if sl.is_finite_to_one(g):
            found.append(g)
    return found


@pytest.fixture(scope="session")
def sweep_fixtures(rule102, sum5, random_fto_fixtures):
    """(name, code-or-graph, constant_to_one) triples for the big sweeps."""
    fixtures = [("rule102", rule102.recoding, True)]
    for n in (2, 3, 4, 5):
        fixtures.append((f"diff{n}", LinearCACode(n, "difference").recoding, True))
    fixtures.append(("sum5", sum5.recoding, True))
    for i, g in enumerate(random_fto_fixtures):
        fixtures.append((f"random{i}", g, False))
    return fixtures


# ----------------------------------------------------------------- oracles

def label_word_realizable(g: LabeledGraph, word) -> bool:
    """Direct DFS: does some essential path of g carry this label word?"""
    from oracles import essential_symbols, sorted_successors
    alive = essential_symbols(g.x_symbols, g.transitions)
    word = tuple(word)
    if not word:
        return True
    succ = sorted_successors(g)
    frontier = [s for s in alive if g.label[s] == word[0]]
    for letter in word[1:]:
        frontier = [t for s in frontier for t in succ[s]
                    if t in alive and g.label[t] == letter]
        if not frontier:
            return False
    return bool(frontier)


def direct_preimage_paths(g: LabeledGraph, word):
    """Plain path enumeration of label-matching paths (no pruning logic)."""
    word = tuple(word)
    if not word:
        return [()]
    from oracles import sorted_successors
    succ = sorted_successors(g)
    paths = [(s,) for s in g.x_symbols if g.label[s] == word[0]]
    for letter in word[1:]:
        paths = [p + (t,) for p in paths for t in succ[p[-1]]
                 if g.label[t] == letter]
    return paths


def d_star(g: LabeledGraph, word, position) -> int:
    """Number of distinct symbols at one position among preimage paths."""
    return len({p[position] for p in direct_preimage_paths(g, word)})


def trace_fiber_count(g: LabeledGraph, orbit: PeriodicOrbit) -> int:
    """Independent periodic-fiber oracle: counts the preimage points of the
    anchored periodic point by exact integer matrix powers.

    With A_t the label-matching transition matrix at phase t, the entries of
    (A_0 ... A_{p-1})^m count label-matching closed paths of length m*p,
    i.e. preimage points x with sigma^{mp} x = x.  Every preimage point has
    least period m*p with m <= |symbols|, so the trace at the exponent
    lcm(1..|symbols|) counts the whole fiber.  Diamond-freeness keeps every
    intermediate entry at 0 or 1, which is asserted throughout.
    """
    w = orbit.primitive_word
    p = orbit.period
    n = len(g.x_symbols)
    idx = g.index
    mats = []
    for t in range(p):
        mat = np.zeros((n, n), dtype=np.int64)
        for a, b in g.transitions:
            if g.label[a] == w[t] and g.label[b] == w[(t + 1) % p]:
                mat[idx[a], idx[b]] = 1
        mats.append(mat)
    base = reduce(np.matmul, mats)
    assert base.max() <= 1

    exponent = lcm(*range(1, n + 1))
    result = np.eye(n, dtype=np.int64)
    power = base
    e = exponent
    while e:
        if e & 1:
            result = result @ power
            assert result.max() <= 1, "path counts exceed 1: input admits a diamond"
        e >>= 1
        if e:
            power = power @ power
            assert power.max() <= 1, "path counts exceed 1: input admits a diamond"
    return int(np.trace(result))


def eig_entropy(g: LabeledGraph) -> float:
    """Entropy oracle via a dense eigenvalue solve (independent of the
    package's power iteration)."""
    vals = np.linalg.eigvals(g.adjacency_matrix().astype(float))
    return float(np.log(max(abs(vals))))


def random_rational_vector(rng: random.Random, k: int):
    weights = [rng.randint(1, 12) for _ in range(k)]
    total = sum(weights)
    return tuple(Fraction(wt, total) for wt in weights)
