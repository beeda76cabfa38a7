"""Finite-to-one analysis of 1-block codes: diamonds, degree, word and
periodic-point fibers.

The degree is found by a magic-word search (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, §9.1) over the forward and
backward ``SubsetAutomaton`` of the graph.  For a label word w and a
position i, the set of symbols occurring at position i among preimage
paths of w is F ∩ B, where F is the forward subset state of the prefix
ending at i and B the backward subset state of the suffix starting at i.
Prefix and suffix interact only through the common letter at position i,
so the minimum of |F ∩ B| over all pairs of states with the same label
equals the minimum of the per-word counts, which is the degree.  The
automata are finite and each state carries a shortest witness word, so
the search terminates and the minimizing pair's witnesses, joined at the
shared letter, form a magic word that certifies the degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiberInfinite, InfiniteToOne, NotInImage, NotIrreducible
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton,
                     _as_word, _essential_symbols, _tarjan_scc, analyze_graph,
                     determinize, entropy, least_rotation)

ENTROPY_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class DegreeReport:
    """Finite-to-one verdict with the degree and a magic-word certificate.

    ``magic_position`` is a 0-based index into ``magic_word``: the degree is
    the number of distinct symbols occurring at that position among the
    word's preimage paths.
    """

    finite_to_one: bool
    degree: int | None
    magic_word: tuple | None
    magic_position: int | None
    entropy_x: float
    entropy_y: float

    def to_json_dict(self):
        return {
            "finite_to_one": self.finite_to_one,
            "degree": self.degree,
            "magic_word": None if self.magic_word is None else [str(a) for a in self.magic_word],
            "magic_position": self.magic_position,
            "entropy_x": self.entropy_x,
            "entropy_y": self.entropy_y,
        }


@dataclass(frozen=True)
class PhasedFiberDecomposition:
    """The fiber of a periodic orbit: lift orbits with winding numbers."""

    base_orbit: PeriodicOrbit
    lift_orbits: tuple        # of (PeriodicOrbit, winding) pairs
    fiber_size: int
    anchors: tuple            # per lift orbit: the phase of the base word
                              # under the first symbol of its primitive word


def _require_irreducible(g: LabeledGraph) -> LabeledGraph:
    report = analyze_graph(g)
    if not report.is_irreducible:
        raise NotIrreducible("operation requires an irreducible essential graph")
    return report.essential


def _pair_symbols(g):
    return [(a, b) for a in g.x_symbols for b in g.x_symbols if g.label[a] == g.label[b]]


def _pair_successors(g, pairs):
    pair_set = set(pairs)
    succ = {}
    for a, b in pairs:
        succ[(a, b)] = [(c, d) for c in g.successors[a] for d in g.successors[b]
                        if (c, d) in pair_set]
    return succ


def _reversed(succ):
    pred = {p: [] for p in succ}
    for p, nbrs in succ.items():
        for q in nbrs:
            pred[q].append(p)
    return pred


def _closure(seeds, neighbors):
    """Everything reachable from ``seeds`` along ``neighbors``, seeds included."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_finite_to_one(g: LabeledGraph) -> bool:
    """Diamond test on the pair graph of equal-label symbol pairs: the code
    is finite-to-one iff no path runs from a diagonal pair to a diagonal
    pair through an off-diagonal pair."""
    g = _require_irreducible(g)
    succ = _pair_successors(g, _pair_symbols(g))
    diagonal = [(a, a) for a in g.x_symbols]
    reachable = _closure(diagonal, succ)
    coreachable = _closure(diagonal, _reversed(succ))
    return not any(a != b for a, b in reachable & coreachable)


def compute_degree(g: LabeledGraph) -> DegreeReport:
    """Degree of a finite-to-one code with a magic-word certificate.

    Raises InfiniteToOne (carrying the partial report) when the diamond
    test fails; the entropy comparison is computed either way and checked
    against the diamond verdict.
    """
    g = _require_irreducible(g)
    h_x = entropy(g)
    h_y = determinize(g).entropy()
    fto = is_finite_to_one(g)
    if fto != (abs(h_x - h_y) <= ENTROPY_MATCH_TOL):
        raise RuntimeError("diamond verdict disagrees with entropy comparison")
    if not fto:
        report = DegreeReport(False, None, None, None, h_x, h_y)
        raise InfiniteToOne("code admits a diamond; degree undefined", report)

    forward = g.forward_automaton
    backward = SubsetAutomaton(g, backward=True)
    suffixes = {}
    for subset, word in zip(backward.subsets, backward.witness):
        suffixes.setdefault(word[0], []).append((frozenset(subset), word))
    best = None
    for subset, f_word in zip(forward.subsets, forward.witness):
        for b_set, b_word in suffixes[f_word[-1]]:
            count = len(b_set.intersection(subset))
            if count == 0:
                continue
            word = f_word + b_word[1:]
            cand = (count, len(word), word, len(f_word) - 1)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise RuntimeError("no realizable forward/backward pair found")
    count, _length, word, position = best
    return DegreeReport(True, count, word, position, h_x, h_y)


def preimage_words(code, w):
    """All domain words mapping onto the label word w that extend to
    bi-infinite points (paths are confined to the essential subgraph).

    Accepts a LabeledGraph (result words have length |w|) or a
    SlidingBlockCode (result words have length |w| + memory + anticipation;
    the empty word yields the extendable memory+anticipation stubs).  A
    block code is read through its 1-block recoding: a preimage path of w
    there is a chain of overlapping (m+n+1)-blocks, expanded to its base
    word, so the cost grows with the number of preimage paths, not with the
    k^(|w|+m+n) domain words.
    """
    w = _as_word(w)
    if isinstance(code, LabeledGraph):
        return _preimage_paths(code, w) if w else {()}
    g = code.recoding.graph
    if not w:
        return {u[:-1] for u in _essential_symbols(g.x_symbols, g.transitions)}
    return {p[0] + tuple(u[-1] for u in p[1:]) for p in _preimage_paths(g, w)}


def _preimage_paths(g: LabeledGraph, w):
    alive = _essential_symbols(g.x_symbols, g.transitions)
    paths = [(s,) for s in g.x_symbols if s in alive and g.label[s] == w[0]]
    for letter in w[1:]:
        paths = [p + (s,) for p in paths for s in g.successors[p[-1]]
                 if s in alive and g.label[s] == letter]
    return set(paths)


def phased_cycles(g: LabeledGraph, y: PeriodicOrbit):
    """``_phased_cycle_ids`` with each cycle as its symbol word."""
    return [tuple(g.x_symbols[i] for i in ids) for ids in _phased_cycle_ids(g, y)]


def _phased_cycle_ids(g: LabeledGraph, y: PeriodicOrbit):
    """The recurrent part of the phased preimage graph of a periodic orbit,
    as disjoint cycles.

    The phased graph has a vertex t * n + s for each phase t of the orbit's
    word w and each index s (among n) of a symbol labeled w[t]; its edges
    follow ``g`` from phase t to phase t + 1 mod p.  Its recurrent part must
    split into disjoint simple cycles, otherwise the fiber is infinite.
    Each cycle is returned as its list of symbol indices read from phase 0,
    starting at its least phase-0 symbol, and the cycles come in the order
    of those symbols.
    """
    w, p = y.primitive_word, y.period
    for a in w:
        if a not in g.label_classes:
            raise NotInImage(f"symbol {a!r} is not in the image alphabet")
    n, table, cols = len(g.x_symbols), g.letter_successors, [g.y_symbols.index(a) for a in w]
    vertices = [t * n + s for t in range(p) for s in table[n][cols[t]]]
    edges = [(v, (v // n + 1) % p * n + s) for v in vertices
             for s in table[v % n][cols[(v // n + 1) % p]]]
    alive = _essential_symbols(vertices, edges)
    if not alive:
        raise NotInImage("no preimage cycle realizes the orbit's word")
    # trimmed, each vertex has a predecessor: with one successor each, none
    # has two iff succ is one-to-one
    succ = {}
    for v, u in edges:
        if v in alive and u in alive:
            if v in succ:
                raise FiberInfinite("recurrent phased graph branches; fiber is infinite")
            succ[v] = u
    if len(set(succ.values())) != len(succ):
        raise FiberInfinite("recurrent phased graph merges; fiber is infinite")

    seen = set()
    cycles = []
    for u in table[n][cols[0]]:
        if u not in alive or u in seen:
            continue
        word = []
        while u not in seen:
            seen.add(u)
            word.append(u % n)
            u = succ[u]
        if len(word) % p != 0:
            raise RuntimeError("phased cycle length not a multiple of the base period")
        cycles.append(word)
    if len(seen) != len(alive):
        raise RuntimeError("phased cycles do not account for the recurrent part")
    return cycles


def periodic_fiber(g: LabeledGraph, y: PeriodicOrbit) -> PhasedFiberDecomposition:
    """Exact fiber of a periodic orbit of the image.

    Each cycle of length q of the phased graph (see ``_phased_cycle_ids``)
    yields a lift orbit of least period q and winding q / period(y).
    """
    p = y.period
    lifts = []
    for ids in _phased_cycle_ids(g, y):
        # a cycle repeats no vertex, so its word is primitive
        k = least_rotation(ids)
        lifts.append((len(ids) // p, ids[k:] + ids[:k], k % p))
    lifts.sort(key=lambda lift: lift[:2])
    orbits = [PeriodicOrbit(tuple(g.x_symbols[i] for i in ids), len(ids)) for _w, ids, _a in lifts]
    return PhasedFiberDecomposition(base_orbit=y,
                                    lift_orbits=tuple(zip(orbits, (w for w, _i, _a in lifts))),
                                    fiber_size=sum(w for w, _i, _a in lifts),
                                    anchors=tuple(a for _w, _i, a in lifts))


def _closing_failure(g, forward: bool) -> bool:
    """Whether two distinct one-sided rays with equal start and equal labels
    exist (the negation of right-closing for forward=True, of left-closing
    otherwise), assuming the code is finite-to-one."""
    succ = _pair_successors(g, _pair_symbols(g))
    if not forward:
        succ = _reversed(succ)
    seen = _closure([(a, a) for a in g.x_symbols], succ)
    off = [p for p in seen if p[0] != p[1]]
    if not off:
        return False
    # an off-diagonal pair reachable from the diagonal fails closing iff it
    # can run forever, i.e. reaches a cycle of the pair graph
    sub_succ = {p: [q for q in succ[p] if q in seen] for p in seen}
    comps = _tarjan_scc(sorted(seen, key=lambda p: (g.index[p[0]], g.index[p[1]])), sub_succ)
    recurrent = [p for comp in comps if len(comp) > 1 or comp[0] in sub_succ[comp[0]]
                 for p in comp]
    reach_rec = _closure(recurrent, _reversed(sub_succ))
    return any(p in reach_rec for p in off)


def is_right_closing(g: LabeledGraph) -> bool:
    return not _closing_failure(_require_irreducible(g), forward=True)


def is_left_closing(g: LabeledGraph) -> bool:
    return not _closing_failure(_require_irreducible(g), forward=False)


def is_bi_closing(g: LabeledGraph) -> bool:
    """Necessary for constant-to-one; not sufficient when the image shift is
    strictly sofic, so this alone never certifies constant-to-one-ness."""
    g = _require_irreducible(g)
    return not _closing_failure(g, True) and not _closing_failure(g, False)
