"""The graph of mutually separated preimage tuples.

For a finite-to-one 1-block code of degree d, the d-tuples of preimages
that never share a symbol at the same time form a 1-step SFT (here: the
joining graph).  It projects onto the essential part of the domain in
every coordinate and onto the whole image under its common label, and its
ergodic measures over a given image measure are exactly the degree
joinings, whose margins list the ergodic lifts with multiplicity.
The joining graph is held as index arrays, and every reader here runs on
them: tuple symbols are made only for what a call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoPath, ProjectionNotOnto, UnsupportedFiber
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton, _as_word, _successor_index,
                     _successor_lists, _tarjan_scc, scan)
# fiber_product is also looked up here, as the layer entry point joinings.fiber_product
from .codes import (_periodic_lifts, _product_ids, _tuple_graph, _tuple_keys,  # noqa: F401
                    compute_degree, fiber_product, periodic_fiber)


class DegreeJoiningGraph:
    """The distinct-tuple restriction of the d-fold fiber product of the code
    ``base`` from ``_product_ids``: row k of ``ids`` holds the base symbol
    indices of tuple k, ``src`` -> ``dst`` are the transitions between rows;
    every row lies on a bi-infinite path.  ``components`` (reducibility is
    allowed) are sorted lists of rows.  ``graph``, the tuple-symbol
    ``LabeledGraph`` whose ``label`` is the 1-block code onto the image, is
    made on first use; nothing in the library reads it."""

    def __init__(self, degree, base, ids, src, dst):
        self.degree, self.base, self.ids, self.src, self.dst = degree, base, ids, src, dst

    @cached_property
    def graph(self):
        return _tuple_graph(self.base, self.ids, self.src, self.dst)

    @cached_property
    def components(self):
        n = len(self.ids)
        return sorted(sorted(c) for c in _tarjan_scc(range(n), _successor_lists(n, self.src,
                                                                                   self.dst)))


def degree_joining_graph(g: LabeledGraph, degree: int | None = None) -> DegreeJoiningGraph:
    """The arrays of the SFT of d-tuples of distinct mutually separated
    preimages, checked to cover the essential part of g in every coordinate
    (and so every label there)."""
    if degree is None:
        degree = compute_degree(g).degree
    ids, src, dst = _product_ids(g, degree, distinct=True)
    for i in range(degree):
        missed = g.essential_mask.copy()
        missed[ids[:, i]] = False
        if missed.any():
            names = sorted(str(g.x_symbols[s]) for s in np.flatnonzero(missed))
            raise ProjectionNotOnto(f"coordinate {i} misses symbols {names}")
    return DegreeJoiningGraph(degree, g, ids, src, dst)


class _ViabilityWalk:
    """Viable paths over a label window (indices into ``y_symbols``) on the
    rows of ``ids``, tuples of symbol indices of the code ``base``, with the
    transitions ``src`` -> ``dst`` in index order; a plain graph is one
    column of its own indices.  The backward pass scans the backward
    ``SubsetAutomaton`` of the rows over the reversed window: its state at
    position t is the set of rows from which the rest of the window can be
    read.  The forward pass reads the dense table ``forward[s, v]``, the
    least successor of row s in viability state v, or the sentinel row
    ``dead = len(ids)`` (all ``dead``) where there is none; a walk starts at
    row ``dead + 1``, the least row of each state.  ``resolutions`` counts
    how ``scan`` settled the chunks: by a right guess, a coordinate
    relabelling or a re-run."""

    def __init__(self, base: LabeledGraph, ids, src, dst):
        self.automaton = SubsetAutomaton(base.label_ids[ids[:, 0]], base.y_symbols, (src, dst),
                                         backward=True)
        self.base, self.ids, self.keys = base, ids, _tuple_keys(base, ids)
        n = self.dead = len(ids)
        viable = self.automaton.members()
        # the edges run in index order, so each source's first edge into a
        # state's viable set leads to its least viable successor there
        v, e = np.nonzero(viable[:, dst])
        s = src[e]
        first = np.ones(len(e), dtype=bool)
        first[1:] = (v[1:] != v[:-1]) | (s[1:] != s[:-1])
        self.forward = np.full((n + 2, len(viable)), n, dtype=np.int64)
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
        """For ``scan``: the row sending each row index s to that of s∘σ, found
        by ``searchsorted`` on the ``_tuple_keys`` (``dead`` where s∘σ is no
        row, or s is ``dead``), for the column permutation σ of ``ids[guess]``
        onto ``ids[true]``; None when there is none or either is ``dead``.
        Cached by the pair, and by σ, so that σ is checked once."""
        key = (guess, true)
        if self.dead in key or key in self._relabellings:
            return self._relabellings.get(key)
        a, b, row = self.ids[guess].tolist(), self.ids[true].tolist(), None
        if len(set(a)) == len(a) and sorted(a) == sorted(b):
            sigma = tuple(map(a.index, b))
            if sigma not in self._rows:
                moved = _tuple_keys(self.base, self.ids[:, sigma])
                at = np.minimum(np.searchsorted(self.keys, moved), self.dead - 1)
                self._rows[sigma] = np.append(np.where(self.keys[at] == moved, at, self.dead),
                                              self.dead)
            row = self._rows[sigma]
        self._relabellings[key] = row
        return row

    def walk(self, ids):
        """Forward pass: the lexicographically least viable row each step,
        as int64 row indices, written over ``ids`` when that is int64.  It
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
    y_index = {y: j for j, y in enumerate(joining.base.y_symbols)}
    if unknown := [y for y in y_window if y not in y_index]:
        raise NoPath(f"image symbol {unknown[0]!r} unrealizable")
    walker = _ViabilityWalk(joining.base, joining.ids, joining.src, joining.dst)
    ids = walker.viability_ids([y_index[y] for y in y_window])
    names = np.fromiter(joining.base.x_symbols, object, len(joining.base.x_symbols))
    return list(map(tuple, names[joining.ids[walker.walk(ids)]].tolist()))


@dataclass(frozen=True)
class PeriodicJoiningReport:
    """All CO degree joinings over a periodic image orbit."""

    base_orbit: PeriodicOrbit
    orbits: tuple                      # PeriodicOrbit over tuple symbols
    permutation_related: bool


def _canonical_column_form(rows):
    """Invariant of a joining-graph orbit, the symbol indices of its rows, under
    coordinate permutation: the least, over rotations, of the sorted multiset
    of coordinate columns.  Two orbits are related by a symbolwise coordinate
    permutation iff their forms agree (columns are pairwise distinct because
    tuple entries never collide).  The form at rotation r starts with the least
    entry of row r, so only the rotations whose row holds the least id are built."""
    cols, least = rows.T.tolist(), rows.min()
    return min(tuple(sorted(tuple(c[r:] + c[:r]) for c in cols))
               for r, row in enumerate(rows.tolist()) if least in row)


def enumerate_periodic_degree_joinings(joining: DegreeJoiningGraph, g: LabeledGraph,
                                       y: PeriodicOrbit, *,
                                       constant_to_one: bool = False) -> PeriodicJoiningReport:
    """Enumerate the joining-graph orbits over a periodic image orbit and
    verify that all of them are pairwise related by a coordinate
    permutation applied symbolwise.  The orbits are lifts of the periodic
    sweep on the rows, ordered by their least row at phase zero; only those
    returned get tuple symbols.

    When the code is not known constant-to-one and the orbit's fiber is
    larger than the degree, the guarantees behind the enumeration fail and
    the call refuses instead of guessing.
    """
    fiber = periodic_fiber(g, y)
    if not constant_to_one and fiber.fiber_size != joining.degree:
        raise UnsupportedFiber(
            f"orbit fiber has {fiber.fiber_size} points but the degree is "
            f"{joining.degree}; enumeration over collapsed orbits is refused")

    base, ids, w = joining.base, joining.ids, y.primitive_word
    labels = base.label_ids[ids[:, 0]]
    index = _successor_index(labels, len(base.y_symbols), joining.src, joining.dst)

    def least_phase_zero_row(u):            # where the lift's labels read w
        image = tuple(base.y_symbols[j] for j in labels[u].tolist()) * 2
        return min(r for i, r in enumerate(u) if image[i:i + len(w)] == w)

    lifts = sorted((u for _w, rows in _periodic_lifts(labels, base.y_symbols, index, y)
                    for u in rows.tolist()), key=least_phase_zero_row)
    names = np.fromiter(base.x_symbols, object, len(base.x_symbols))
    orbits = tuple(PeriodicOrbit(tuple(map(tuple, names[ids[u]].tolist())), len(u))
                   for u in lifts)
    forms = {_canonical_column_form(ids[u]) for u in lifts}
    return PeriodicJoiningReport(base_orbit=y, orbits=orbits, permutation_related=len(forms) == 1)
