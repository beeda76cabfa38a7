"""The graph of mutually separated preimage tuples.

For a finite-to-one 1-block code of degree d, the d-tuples of preimages
that never share a symbol at the same time form a 1-step SFT (here: the
joining graph).  It projects onto the essential part of the domain in
every coordinate and onto the whole image under its common label, and its
ergodic measures over a given image measure are exactly the degree
joinings, whose margins list the ergodic lifts with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoPath, ProjectionNotOnto, UnsupportedFiber
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton, _as_word, analyze_graph,
                     scan)
from .codes import compute_degree, fiber_product, periodic_fiber


@dataclass(frozen=True)
class DegreeJoiningGraph:
    """The distinct-tuple restriction of the d-fold fiber product.

    ``graph.label`` is the 1-block code onto the image; reducibility is
    allowed and recorded in ``components``, computed on first use.
    """

    degree: int
    graph: LabeledGraph

    @cached_property
    def components(self):
        return analyze_graph(self.graph).components


def degree_joining_graph(g: LabeledGraph, degree: int | None = None) -> DegreeJoiningGraph:
    """Materialize the SFT of d-tuples of distinct mutually separated
    preimages and verify that every coordinate projection still covers the
    essential part of g, which it is built from, and every label there."""
    if degree is None:
        degree = compute_degree(g).degree
    ess = analyze_graph(g).essential
    lam = fiber_product(g, degree, distinct=True)
    for i in range(degree):
        covered = {t[i] for t in lam.x_symbols}
        if covered != set(ess.x_symbols):
            raise ProjectionNotOnto(
                f"coordinate {i} misses symbols {sorted(map(str, set(ess.x_symbols) - covered))}")
    if {lam.label[t] for t in lam.x_symbols} != {ess.label[s] for s in ess.x_symbols}:
        raise ProjectionNotOnto("joining graph misses part of the image alphabet")
    return DegreeJoiningGraph(degree, lam)


class _ViabilityWalk:
    """Viable paths over a label window, given as indices into ``y_symbols``.

    The backward pass scans the backward ``SubsetAutomaton`` of the graph
    over the reversed window: its state at position t is the set of symbols
    from which the rest of the window can be read.  The forward pass reads
    the dense table ``forward[s, v]``, the least successor of symbol s in
    viability state v, with the sentinel symbol ``dead = len(x_symbols)``
    (whose own row is all ``dead``) where there is none.  Its start row
    ``dead + 1`` holds the least symbol of each viability state, so a walk
    starts there.  ``resolutions`` counts, over all walks, how ``scan``
    settled the chunks: by a right guess, a coordinate relabelling or a re-run.
    """

    def __init__(self, graph: LabeledGraph):
        self.automaton = SubsetAutomaton(graph, backward=True)
        self.graph = graph
        n = self.dead = len(graph.x_symbols)
        index, subsets = graph.index, self.automaton.subsets
        viable = np.zeros((len(subsets), n), dtype=bool)
        for v, subset in enumerate(subsets):
            viable[v, [index[s] for s in subset]] = True
        # the edges run in index order, so each source's first edge into a
        # state's viable set leads to its least viable successor there
        src, dst = graph.edges
        v, e = np.nonzero(viable[:, dst])
        s = src[e]
        first = np.ones(len(e), dtype=bool)
        first[1:] = (v[1:] != v[:-1]) | (s[1:] != s[:-1])
        self.forward = np.full((n + 2, len(subsets)), n, dtype=np.int64)
        self.forward[s[first], v[first]] = dst[e[first]]
        self.forward[n + 1] = viable.argmax(axis=1)
        self._relabellings, self._rows = {}, {}
        self.resolutions = {"guess": 0, "relabel": 0, "rerun": 0}

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

    def _relabelling(self, guess, true):
        """For ``scan``: the row sending each symbol index s to that of s∘σ
        (``dead`` where s∘σ is no symbol, or s is ``dead``) for the coordinate
        permutation σ with guess∘σ = true, None when there is none or either
        is ``dead``; cached by the pair, and by σ, so that σ is checked once."""
        key = (guess, true)
        if self.dead in key or key in self._relabellings:
            return self._relabellings.get(key)
        symbols, row = self.graph.x_symbols, None
        a, b = symbols[guess], symbols[true]
        position = {x: i for i, x in enumerate(a)} if isinstance(a, tuple) else {}
        if (isinstance(b, tuple) and 0 < len(position) == len(a) == len(b)
                and set(b) == position.keys()):
            sigma = tuple(position[x] for x in b)
            if sigma not in self._rows:
                row = np.full(self.dead + 1, self.dead, dtype=np.int64)
                for k, s in enumerate(symbols):
                    if isinstance(s, tuple) and len(s) == len(sigma):
                        row[k] = self.graph.index.get(tuple(s[j] for j in sigma), self.dead)
                self._rows[sigma] = row
            row = self._rows[sigma]
        self._relabellings[key] = row
        return row

    def walk(self, ids):
        """Forward pass: the lexicographically least viable symbol each step,
        as int64 symbol indices, written over ``ids`` when that is int64.  It
        is one ``scan`` of ``forward`` from the start row, with the σ rows of
        ``_relabelling`` offered where a chunk's guess is not its true start."""
        ids = np.asarray(ids, dtype=np.int64)
        if scan(self.forward, ids, self.dead + 1, ids, self._relabelling,
                self.resolutions) == self.dead:       # the sentinel is absorbing
            raise RuntimeError("viability pruning admitted a dead end")
        return ids


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
    return [lam.x_symbols[k] for k in walker.walk(ids).tolist()]


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

    lam, w = joining.graph, y.primitive_word

    def least_phase_zero_symbol(orbit):         # where the orbit's labels read w
        u = orbit.primitive_word
        image = tuple(lam.label[s] for s in u) * 2
        return min(lam.index[s] for i, s in enumerate(u) if image[i:i + len(w)] == w)

    orbits = sorted((o for o, _w in periodic_fiber(lam, y).lift_orbits),
                    key=least_phase_zero_symbol)
    forms = {_canonical_column_form(o, g.index) for o in orbits}
    return PeriodicJoiningReport(base_orbit=y, orbits=tuple(orbits),
                                 permutation_related=len(forms) == 1)
