"""Fiber products and the graph of mutually separated preimage tuples.

For a finite-to-one 1-block code of degree d, the d-tuples of preimages
that never share a symbol at the same time form a 1-step SFT (here: the
joining graph).  It projects onto the whole domain in every coordinate and
onto the whole image under its common label, and its ergodic measures over
a given image measure are exactly the degree joinings, whose margins list
the ergodic lifts with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import NoPath, NotInImage, ProjectionNotOnto, UnsupportedFiber
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton, _as_word,
                     _essential_symbols, analyze_graph, scan)
from .codes import compute_degree, periodic_fiber, phased_cycles


@dataclass(frozen=True)
class FiberProductGraph:
    """Equal-label n-tuples with componentwise transitions, trimmed essential."""

    arity: int
    graph: LabeledGraph


@dataclass(frozen=True)
class DegreeJoiningGraph:
    """The distinct-tuple restriction of the d-fold fiber product.

    ``graph.label`` is the 1-block code onto the image; reducibility is
    allowed and recorded in ``components``.
    """

    degree: int
    graph: LabeledGraph
    components: tuple


def fiber_product(g: LabeledGraph, n: int, distinct: bool = False) -> FiberProductGraph:
    """The 1-step SFT of equal-label n-tuples (pairwise-distinct entries
    when ``distinct``), trimmed to its essential part."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    order = g.index
    symbols = []
    for y in g.y_symbols:
        cls = g.label_classes[y]
        for tup in product(cls, repeat=n):
            if distinct and len(set(tup)) != n:
                continue
            symbols.append(tup)
    symbols.sort(key=lambda t: tuple(order[s] for s in t))
    symset = set(symbols)
    trans = set()
    for u in symbols:
        for v in symbols:
            if v in symset and all((a, b) in g.transitions for a, b in zip(u, v)):
                trans.add((u, v))
    alive = _essential_symbols(symbols, trans)
    if not alive:
        raise NotInImage("fiber product is empty after trimming")
    symbols = [t for t in symbols if t in alive]
    trans = {(u, v) for u, v in trans if u in alive and v in alive}
    label = {t: g.label[t[0]] for t in symbols}
    return FiberProductGraph(n, LabeledGraph(symbols, trans, label, g.y_symbols))


def degree_joining_graph(g: LabeledGraph, degree: int | None = None) -> DegreeJoiningGraph:
    """Materialize the SFT of d-tuples of distinct mutually separated
    preimages and verify that every coordinate projection still covers the
    whole domain and every image letter is still realized."""
    if degree is None:
        degree = compute_degree(g).degree
    prod = fiber_product(g, degree, distinct=True)
    lam = prod.graph
    for i in range(degree):
        covered = {t[i] for t in lam.x_symbols}
        if covered != set(g.x_symbols):
            raise ProjectionNotOnto(
                f"coordinate {i} misses symbols {sorted(map(str, set(g.x_symbols) - covered))}")
    if {lam.label[t] for t in lam.x_symbols} != set(g.y_symbols):
        raise ProjectionNotOnto("joining graph misses part of the image alphabet")
    report = analyze_graph(lam)
    return DegreeJoiningGraph(degree, lam, report.components)


class _ViabilityWalk:
    """Viable paths over a label window, given as indices into ``y_symbols``.

    The backward pass scans the backward ``SubsetAutomaton`` of the graph
    over the reversed window: its state at position t is the set of symbols
    from which the rest of the window can be read.  The forward pass costs
    one memo lookup per step.
    """

    def __init__(self, graph: LabeledGraph):
        self.automaton = SubsetAutomaton(graph, backward=True)
        index = graph.index
        self._viable = [frozenset(index[s] for s in subset) for subset in self.automaton.subsets]
        self._succ = [[index[t] for t in graph.successors[s]] for s in graph.x_symbols]
        self._fstep_memo = {}

    def viability_ids(self, y_idx):
        """Backward pass: per position, the automaton state of the window's
        suffix starting there."""
        y_idx = np.asarray(y_idx)
        sid = self.automaton.initial[y_idx[-1]]
        if sid < 0:
            raise NoPath(f"image symbol index {y_idx[-1]} unrealizable")
        ids = np.empty(len(y_idx), dtype=np.int64)
        ids[-1] = sid
        if scan(self.automaton.step, y_idx[-2::-1], sid, ids[-2::-1]) < 0:
            raise NoPath("window is not a label word of the image shift")
        return ids

    def walk(self, ids):
        """Forward pass: the lexicographically least viable symbol each step,
        as symbol indices."""
        ids = ids.tolist()
        viable = self._viable
        succ = self._succ
        memo = self._fstep_memo
        current = min(viable[ids[0]])
        path = [current]
        for sid in ids[1:]:
            key = (current, sid)
            nxt = memo.get(key)
            if nxt is None:
                nxt = next((c for c in succ[current] if c in viable[sid]), None)
                if nxt is None:
                    raise RuntimeError("viability pruning admitted a dead end")
                memo[key] = nxt
            path.append(nxt)
            current = nxt
        return path


def lambda_path_over(joining: DegreeJoiningGraph, y_window):
    """A bi-extendable joining-graph word presenting the window, chosen by
    the deterministic lexicographic-least policy (coordinate-then-symbol
    order).  The window must be a label word of the image shift."""
    y_window = _as_word(y_window)
    if not y_window:
        return []
    lam = joining.graph
    y_index = {y: j for j, y in enumerate(lam.y_symbols)}
    unknown = [y for y in y_window if y not in y_index]
    if unknown:
        raise NoPath(f"image symbol {unknown[0]!r} unrealizable")
    walker = _ViabilityWalk(lam)
    ids = walker.viability_ids([y_index[y] for y in y_window])
    return [lam.x_symbols[k] for k in walker.walk(ids)]


@dataclass(frozen=True)
class PeriodicJoiningReport:
    """All CO degree joinings over a periodic image orbit."""

    base_orbit: PeriodicOrbit
    orbits: tuple                      # PeriodicOrbit over tuple symbols
    permutation_related: bool


def _canonical_column_form(orbit: PeriodicOrbit, order):
    """Invariant of a tuple-symbol orbit under coordinate permutation:
    the least, over rotations, of the sorted multiset of coordinate
    columns.  Two orbits are related by a symbolwise coordinate
    permutation iff their forms agree (columns are pairwise distinct
    because tuple entries never collide)."""
    word = orbit.primitive_word
    q = len(word)
    d = len(word[0])
    best = None
    for r in range(q):
        rot = word[r:] + word[:r]
        cols = sorted(tuple(order[rot[t][i]] for t in range(q)) for i in range(d))
        cand = tuple(cols)
        if best is None or cand < best:
            best = cand
    return q, best


def enumerate_periodic_degree_joinings(joining: DegreeJoiningGraph, g: LabeledGraph,
                                       y: PeriodicOrbit, *,
                                       constant_to_one: bool = False) -> PeriodicJoiningReport:
    """Enumerate the joining-graph orbits over a periodic image orbit and
    verify that all of them are pairwise related by a coordinate
    permutation applied symbolwise.

    When the code is not known constant-to-one and the orbit's fiber is
    larger than the degree, the guarantees behind the enumeration fail and
    the call refuses instead of guessing.
    """
    fiber = periodic_fiber(g, y)
    if not constant_to_one and fiber.fiber_size != joining.degree:
        raise UnsupportedFiber(
            f"orbit fiber has {fiber.fiber_size} points but the degree is "
            f"{joining.degree}; enumeration over collapsed orbits is refused")

    order = joining.graph.index
    orbits = [PeriodicOrbit.from_word(word, order) for word in phased_cycles(joining.graph, y)]
    forms = {_canonical_column_form(o, g.index) for o in orbits}
    return PeriodicJoiningReport(base_orbit=y, orbits=tuple(orbits),
                                 permutation_related=len(forms) == 1)


def find_relating_permutation(o1: PeriodicOrbit, o2: PeriodicOrbit, order):
    """Brute-force search for a coordinate permutation mapping one orbit to
    the other; small-degree oracle for the canonical-form verdict."""
    d = len(o1.primitive_word[0])
    targets = {o2.primitive_word[i:] + o2.primitive_word[:i] for i in range(o2.period)}
    for perm in permutations(range(d)):
        moved = tuple(tuple(sym[p] for p in perm) for sym in o1.primitive_word)
        if moved in targets:
            return perm
    return None
