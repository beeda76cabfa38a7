"""Finite-to-one analysis of 1-block codes: fiber products, the diamond
and closing tests on the 2-fold one, degree, word and periodic-point fibers.

The degree is found by a magic-word search (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, §9.1) over the forward and
backward ``SubsetAutomaton`` of the graph.  For a label word w and a
position i, the set of symbols occurring at position i among preimage
paths of w is F ∩ B, where F is the forward subset state of the prefix
ending at i and B the backward subset state of the suffix starting at i.
Prefix and suffix interact only through the common letter at position i,
so the least nonzero |F ∩ B| over all pairs of states equals the minimum
of the per-word counts, which is the degree; states of different letters
hold symbols of different labels, so their count is 0.  The search is one
integer matrix product of the forward bit rows by the backward ones.  The
minimizing pair's shortest witnesses, joined at the shared letter, form a
magic word that certifies the degree.

The lifts of a periodic orbit are the cycles of its word's preimage paths
closed up at phase 0; periodic fibers read them from ``graphs._phased_lifts``,
which sweeps every orbit up to a period, one array pass per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

import numpy as np

from .errors import InfiniteToOne, InputError, NotInImage, NotIrreducible, PreconditionError
from .graphs import (LabeledGraph, PeriodicOrbit, SubsetAutomaton, _as_word, _essential_mask,
                     _gather, _phased_lifts, _successor_lists, _unwrap, analyze_graph,
                     determinize, entropy)

ENTROPY_MATCH_TOL = 1e-9
# The most tuples ``_product_ids`` builds.  It keeps the packed keys, below
# N * m**n for N symbols and a largest label class m, inside int64: m**n is
# at most the count, or 2**11 times it with ``distinct`` (m**n / m!/(m-n)!
# peaks at 9**9/9!), so below 2**31, and N is far below 2**32.
MAX_PRODUCT_TUPLES = 2**20
# The most lift points ``_lift_cycles`` sweeps to a period p: Σ_{n<=p} tr(A^n).
MAX_PERIODIC_POINTS = 2**20


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


def _require_irreducible(g: LabeledGraph) -> LabeledGraph:
    report = analyze_graph(g)
    if not report.is_irreducible:
        raise NotIrreducible("operation requires an irreducible essential graph")
    return report.essential


def _product_ids(g: LabeledGraph, n: int, distinct: bool = False):
    """The trimmed n-fold fiber product of ``fiber_product`` as int arrays:
    ``ids``, row k the symbol indices of tuple k, rows in lexicographic
    order, and the transitions ``src``, ``dst`` between rows, in index order.

    Its size, Σ_y |C_y|^n over the label classes (falling factorials when
    ``distinct``), is checked against MAX_PRODUCT_TUPLES first.  Tuples and
    successors are expanded coordinate by coordinate with ``_gather``, and
    successors are found by ``searchsorted`` on their ``_tuple_keys``."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    index, k, start = g.successor_index, len(g.y_symbols), len(g.x_symbols)
    count = sum(perm(m, n) if distinct else m**n for m in np.diff(index[0][start * k:]).tolist())
    if count > MAX_PRODUCT_TUPLES:
        raise PreconditionError(f"the {n}-fold fiber product has {count} tuples, more than "
                                f"the cap MAX_PRODUCT_TUPLES = {MAX_PRODUCT_TUPLES}")

    def successors(tuples):
        """The successor tuples of each row of ``tuples`` with their source
        rows, by source, then label, then lexicographically; each coordinate
        moves the columns so far (source, coordinates) to the successors it adds."""
        cols = list(_gather(index, tuples[:, 0] * k, tuples[:, 0] * k + k))
        for i in range(1, n):
            cell = tuples[cols[0], i] * k + g.label_ids[cols[1]]
            at, t = _gather(index, cell, cell + 1)
            if distinct:
                keep = np.logical_and.reduce([c[at] != t for c in cols[1:]])
                at, t = at[keep], t[keep]
            cols = [c[at] for c in cols] + [t]
        return cols[0], np.stack(cols[1:], axis=1)

    ids = successors(np.full((1, n), start))[1]      # the classes, as successors of the start row
    ids = ids[np.argsort(ids[:, 0], kind="stable")]
    src, nxt = successors(ids)
    dst = np.searchsorted(_tuple_keys(g, ids), _tuple_keys(g, nxt))
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    alive = _essential_mask(len(ids), src, dst)
    if not alive.any():
        raise NotInImage("fiber product is empty after trimming")
    live, new = alive[src] & alive[dst], np.cumsum(alive) - 1
    return ids[alive], new[src[live]], new[dst[live]]


def _tuple_keys(g: LabeledGraph, tuples):
    """The packed mixed-radix key of each row of ``tuples``, equal-label
    tuples of g's symbol indices: the first index, then the ranks in its
    label class, so keys ascend with the rows' lexicographic order."""
    (bounds, targets), start = g.successor_index, len(g.x_symbols) * len(g.y_symbols)
    first = bounds[start:] - bounds[start]      # where each class starts in the start row
    rank = np.argsort(targets[bounds[start]:]) - first[g.label_ids]    # a symbol's place in it
    weights = np.diff(first).max() ** np.arange(tuples.shape[1] - 1, -1, -1)
    return tuples[:, 0] * weights[0] + rank[tuples[:, 1:]] @ weights[1:]


def _tuple_graph(g: LabeledGraph, ids, src, dst) -> LabeledGraph:
    """The ``LabeledGraph`` on the rows of ``ids`` with the transitions src
    -> dst between rows: a row's symbol is the tuple of g's symbols it
    indexes, made once per row."""
    symbols = [tuple(map(g.x_symbols.__getitem__, u)) for u in ids.tolist()]
    pairs = [(symbols[a], symbols[b]) for a, b in zip(src.tolist(), dst.tolist())]
    return LabeledGraph(symbols, pairs, {u: g.label[u[0]] for u in symbols}, g.y_symbols,
                        edges=(src, dst))


def fiber_product(g: LabeledGraph, n: int, distinct: bool = False) -> LabeledGraph:
    """The 1-step SFT of equal-label n-tuples (pairwise-distinct entries
    when ``distinct``), trimmed to its essential part (Lind & Marcus §9.1):
    the ``_tuple_graph`` of ``_product_ids``."""
    return _tuple_graph(g, *_product_ids(g, n, distinct))


def _diagonal_reach(g: LabeledGraph):
    """The off-diagonal pairs of the trimmed 2-fold fiber product that its
    diagonal reaches forward and backward.  The code is finite-to-one iff
    no pair is in both (no diamond), right-closing iff none is reached
    forward and left-closing iff none is reached backward.

    The trim changes none of these answers.  A diamond, or a path from
    the diagonal that runs on forever, extends along the diagonal to a
    bi-infinite pair path, so the trim keeps every pair on it; every pair
    it keeps runs on forever, and a dead-end pair is on neither kind of
    path.  The diagonal comes from the essential graph, so each of its
    pairs survives the trim.  Pairs are the rows of ``_product_ids``."""
    g = _require_irreducible(g)
    ids, src, dst = _product_ids(g, 2)
    diag = np.flatnonzero(ids[:, 0] == ids[:, 1]).tolist()
    reach = []
    for succ in (_successor_lists(len(ids), src, dst), _successor_lists(len(ids), dst, src)):
        seen, frontier = set(diag), diag
        while frontier:
            frontier = list({w for v in frontier for w in succ[v]}.difference(seen))
            seen.update(frontier)
        reach.append(seen.difference(diag))
    return reach


def is_finite_to_one(g: LabeledGraph) -> bool:
    forward, backward = _diagonal_reach(g)
    return not (forward & backward)


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
    backward = SubsetAutomaton(g.label_ids, g.y_symbols, g.edges, backward=True)
    # every |F ∩ B|; a label class meets itself, so some count is positive
    counts = forward.members().astype(np.int64) @ backward.members().T
    count = counts[counts > 0].min()
    _length, word, position = min((len(f) + len(b) - 1, f + b[1:], len(f) - 1) for f, b in (
        (forward.witness[i], backward.witness[j]) for i, j in zip(*np.nonzero(counts == count))))
    return DegreeReport(True, int(count), word, position, h_x, h_y)


def preimage_words(code, w):
    """All domain words mapping onto the label word w that extend to
    bi-infinite points, read on the code's recoding (``graphs._unwrap``): an
    essential preimage path of w there is a chain of overlapping windows,
    expanded to the first window and the last letter of each later one, so the
    cost grows with the number of paths, not with the k^(|w|+m+n) domain words.
    The empty word yields the essential windows less their last letter (``{()}``
    for a graph)."""
    rec, w = _unwrap(code), _as_word(w)
    if not w:
        return {rec.windows[i][:-1] for i in np.flatnonzero(rec.graph.essential_mask).tolist()}
    return {rec.windows[p[0]] + tuple(rec.windows[i][-1] for i in p[1:])
            for p in _preimage_paths(rec.graph, w)}


def _preimage_paths(g: LabeledGraph, w):
    """The essential paths of g carrying the label word w, as lists of symbol
    indices, extended a letter at a time from the start row of the index."""
    if not set(w) <= set(g.y_symbols):
        return []
    k, paths = len(g.y_symbols), np.full((1, 1), len(g.x_symbols))
    for j in map(g.y_symbols.index, w):
        cell = paths[:, -1] * k + j
        row, t = _gather(g.successor_index, cell, cell + 1)
        paths = np.column_stack([paths[row], t])[g.essential_mask[t]]
    return paths[:, 1:].tolist()


def _decomposition(y: PeriodicOrbit, lifts) -> PhasedFiberDecomposition:
    return PhasedFiberDecomposition(y, tuple(
        (PeriodicOrbit(tuple(u), len(u)), w) for w, u in lifts), sum(w for w, _u in lifts))


def _periodic_lifts(labels, y_symbols, index, y: PeriodicOrbit):
    """The (winding, ids) groups of ``_phased_lifts`` over the word of the image
    orbit y, on symbols ``labels`` with the ``_successor_index`` ``index``: a row
    of ids is a lift, as symbol indices.  A word no lift realizes is refused."""
    if missing := [a for a in y.primitive_word if a not in y_symbols]:
        raise NotInImage(f"symbol {missing[0]!r} is not in the image alphabet")
    word = [y_symbols.index(a) for a in y.primitive_word]
    groups = [(w, ids) for _q, _words, groups in _phased_lifts(
                  labels, len(y_symbols), index, len(word), word) for w, _ranks, ids in groups]
    if not groups:
        raise NotInImage("no preimage cycle realizes the orbit's word")
    return groups


def periodic_fiber(g: LabeledGraph, y: PeriodicOrbit) -> PhasedFiberDecomposition:
    """Exact fiber of a periodic orbit of the image: ``_periodic_lifts`` on g, named."""
    names = np.fromiter(g.x_symbols, object, len(g.x_symbols))
    return _decomposition(y, [(w, u) for w, ids in _periodic_lifts(
        g.label_ids, g.y_symbols, g.successor_index, y) for u in names[ids].tolist()])


def _lift_cycles(g: LabeledGraph, max_period: int, names, letters, offset=0):
    """The Lyndon word and sorted (winding, lift) pairs of each orbit of least period
    <= max_period with lifts on the essential graph g, by period: lists of ``letters``
    and ``names`` gathered once per batch and winding group, a lift rolled ``offset``
    places (overlapping blocks compare as their domain words from that many letters
    earlier, so the least domain rotation starts sooner).  The sweep is held as arrays until
    its checksum passes: a lift of winding w over an orbit of period q holds q·w points,
    of period dividing n iff q·w does, so for each n <= max_period they sum to tr(A^n)
    (Lind & Marcus §2.2).  Traces summing past MAX_PERIODIC_POINTS refuse it first."""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    names, letters = (np.fromiter(strs, object, len(strs)) for strs in (names, letters))
    adjacency = power = g.adjacency_matrix().astype(object)     # Python ints: no wrap-around
    traces = [power.trace()]
    while len(traces) < max_period and sum(traces) <= MAX_PERIODIC_POINTS:
        power = power @ adjacency
        traces.append(power.trace())
    if sum(traces) > MAX_PERIODIC_POINTS:
        raise PreconditionError(f"max_period {max_period}: the periods up to {len(traces)} "
                                f"already hold {sum(traces)} lift points, more than the cap "
                                f"MAX_PERIODIC_POINTS = {MAX_PERIODIC_POINTS}")
    batches = list(_phased_lifts(g.label_ids, len(g.y_symbols), g.successor_index, max_period))
    sizes = [(q * w, len(ranks)) for q, _words, groups in batches for w, ranks, _ids in groups]
    for n, trace in enumerate(traces, 1):
        held = sum(m * count for m, count in sizes if n % m == 0)
        if held != trace:
            raise RuntimeError(f"periodic fibers hold {held} points of period dividing {n}, "
                               f"not tr(A^{n}) = {trace}")
    while batches:          # a batch's arrays go as its orbits are yielded
        _q, words, groups = batches.pop(0)
        orbits, labels = {}, letters[words].tolist()
        for w, ranks, ids in groups:            # windings up
            for r, u in zip(ranks.tolist(), names[np.roll(ids, offset, axis=1)].tolist()):
                orbits.setdefault(r, []).append((w, u))
        yield from ((labels[r], orbits[r]) for r in sorted(orbits))


def periodic_fibers(g: LabeledGraph, max_period: int):
    """The fibers of all periodic orbits of the image of least period <= max_period,
    from ``_lift_cycles``, ordered as ``determinize(g).periodic_orbits``."""
    g = analyze_graph(g).essential
    return [_decomposition(PeriodicOrbit(tuple(w), len(w)), lifts)
            for w, lifts in _lift_cycles(g, max_period, g.x_symbols, g.y_symbols)]


def is_right_closing(g: LabeledGraph) -> bool:
    return not _diagonal_reach(g)[0]


def is_left_closing(g: LabeledGraph) -> bool:
    return not _diagonal_reach(g)[1]


def is_bi_closing(g: LabeledGraph) -> bool:
    """Necessary for constant-to-one; not sufficient when the image shift is
    strictly sofic, so this alone never certifies constant-to-one-ness."""
    forward, backward = _diagonal_reach(g)
    return not (forward | backward)
