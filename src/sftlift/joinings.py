"""The graph of mutually separated preimage tuples.

For a finite-to-one 1-block code of degree d, the d-tuples of preimages
that never share a symbol at the same time form a 1-step SFT (here: the
joining graph).  It projects onto the whole domain in every coordinate and
onto the whole image under its common label, and its ergodic measures over
a given image measure are exactly the degree joinings, whose margins list
the ergodic lifts with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import NoPath, ProjectionNotOnto, UnsupportedFiber
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton, _as_word,
                     analyze_graph, scan)
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
    whole domain and every image letter is still realized."""
    if degree is None:
        degree = compute_degree(g).degree
    lam = fiber_product(g, degree, distinct=True)
    for i in range(degree):
        covered = {t[i] for t in lam.x_symbols}
        if covered != set(g.x_symbols):
            raise ProjectionNotOnto(
                f"coordinate {i} misses symbols {sorted(map(str, set(g.x_symbols) - covered))}")
    if {lam.label[t] for t in lam.x_symbols} != set(g.y_symbols):
        raise ProjectionNotOnto("joining graph misses part of the image alphabet")
    return DegreeJoiningGraph(degree, lam)


class _ViabilityWalk:
    """Viable paths over a label window, given as indices into ``y_symbols``.

    The backward pass scans the backward ``SubsetAutomaton`` of the graph
    over the reversed window: its state at position t is the set of symbols
    from which the rest of the window can be read.  The forward pass reads
    the dense table ``forward[s, v]``, the least successor of symbol s in
    viability state v, with the sentinel symbol ``dead = len(x_symbols)``
    (whose own row is all ``dead``) where there is none; it is run as a
    speculate-and-verify scan, described in ``walk``.

    ``resolutions`` counts, over all walks, how the chunks of the scan were
    settled: by a right guess, a coordinate relabelling or a re-run.
    """

    def __init__(self, graph: LabeledGraph):
        self.automaton = SubsetAutomaton(graph, backward=True)
        self.graph = graph
        index = graph.index
        n = self.dead = len(graph.x_symbols)
        subsets = self.automaton.subsets
        self._first = np.array([index[subset[0]] for subset in subsets], dtype=np.int64)
        succ = [[index[t] for t in graph.successors[s]] for s in graph.x_symbols]
        self.forward = np.full((n + 1, len(subsets)), n, dtype=np.int64)
        for v, subset in enumerate(subsets):
            viable = {index[s] for s in subset}
            self.forward[:n, v] = [next((t for t in row if t in viable), n) for row in succ]
        self._relabellings = {}
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
        """The row sending each symbol index s to that of s∘σ (``dead`` where
        s∘σ is no symbol), for the coordinate permutation σ with
        guess∘σ = true; None when the two symbols are not so related.  Rows
        are built on first use and cached by σ."""
        symbols = self.graph.x_symbols
        a, b = symbols[guess], symbols[true]
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)):
            return None
        position = {x: i for i, x in enumerate(a)}
        if len(position) != len(a) or set(b) != position.keys():
            return None
        sigma = tuple(position[x] for x in b)
        row = self._relabellings.get(sigma)
        if row is None:
            row = np.full(self.dead + 1, self.dead, dtype=np.int64)
            for k, s in enumerate(symbols):
                if isinstance(s, tuple) and len(s) == len(sigma):
                    row[k] = self.graph.index.get(tuple(s[j] for j in sigma), self.dead)
            self._relabellings[sigma] = row
        return row

    def walk(self, ids):
        """Forward pass: the lexicographically least viable symbol each step,
        as an int64 array of symbol indices.

        The scan speculates and verifies (Mytkowicz, Musuvathi & Schulte,
        "Data-Parallel Finite-State Machines", ASPLOS 2014).  The window is
        cut into about √T chunks of √T steps.  Each chunk starts from its
        position's least viable symbol, which is exact for the first chunk,
        and all chunks step together, one table lookup per step for all of
        them.  Then the chunks are settled in order.  A chunk's true start is
        the table step from the previous chunk's settled end; where it is
        not the guess:

        - if it is the guess with its coordinates permuted by some σ, the
          chunk is relabelled through σ and kept up to its first position
          that is not a table step from the one before;
        - from there (or from the true start when there is no σ) the chunk
          is re-run one step at a time until it meets the speculated path,
          which is right from that point on because the walk is
          deterministic.

        So the result is the step-by-step walk whatever the guesses.
        """
        ids = np.asarray(ids, dtype=np.int64)
        forward, dead = self.forward, self.dead
        total = len(ids)
        width = max(1, isqrt(total))
        chunks = total // width
        body = chunks * width
        path = np.empty(total, dtype=np.int64)
        spec = path[:body].reshape(chunks, width)
        steps = ids[:body].reshape(chunks, width)
        current = self._first[steps[:, 0]]
        spec[:, 0] = current
        for i in range(1, width):
            current = forward[current, steps[:, i]]
            spec[:, i] = current
        for c in range(1, chunks):
            true = forward[spec[c - 1, -1], steps[c, 0]]
            if true == spec[c, 0]:
                self.resolutions["guess"] += 1
                continue
            if true == dead:
                raise RuntimeError("viability pruning admitted a dead end")
            row = self._relabelling(spec[c, 0], true)
            i = 0
            if row is not None:
                moved = row[spec[c]]
                bad = np.flatnonzero(forward[moved[:-1], steps[c, 1:]] != moved[1:])
                if not len(bad):
                    spec[c] = moved
                    self.resolutions["relabel"] += 1
                    continue
                i = bad[0] + 1
                spec[c, :i] = moved[:i]
                true = forward[moved[i - 1], steps[c, i]]
            self.resolutions["rerun"] += 1
            while true != spec[c, i]:
                spec[c, i] = true
                i += 1
                if i == width:
                    break
                true = forward[true, steps[c, i]]
        for t in range(body, total):
            path[t] = forward[path[t - 1], ids[t]]
        if total and path[-1] == dead:      # the sentinel is absorbing
            raise RuntimeError("viability pruning admitted a dead end")
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
