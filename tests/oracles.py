"""The package's earlier constructions, kept unchanged as differential
oracles for the code that replaced them: the forward and backward subset
states of the magic-word search, the subset construction of
``determinize``, the symbol-keyed viability walker, the phased-graph
cycle extraction of ``periodic_fiber`` and of the periodic degree
joinings, the per-step Markov and periodic-orbit samplers, the
per-code-kind pushforward constructions (block-code preimage words by
enumerating every domain word, samples through the block-map table or the
graph's label lookup, and the branch-per-measure-type support
presentation), and the quadratic exact constructions: the fiber product
that tests every pair of tuples, the least rotation by ranking every
rotation, and the recoding that compares every pair of blocks."""

from __future__ import annotations

from itertools import product

import numpy as np

from sftlift.errors import FiberInfinite, NoPath, NotInImage
from sftlift.graphs import (LabeledGraph, OneBlockRecoding, PeriodicOrbit,
                            RightResolvingPresentation, SlidingBlockCode, _essential_symbols,
                            analyze_graph, determinize, full_shift)
from sftlift.joinings import FiberProductGraph
from sftlift.measures import BernoulliMeasure, MarkovMeasure, PushforwardMeasure


def forward_states(g):
    """All forward subset states with a shortest witness word reaching them."""
    states = {}
    frontier = []
    for y in g.y_symbols:
        cls = frozenset(g.label_classes[y])
        if cls and cls not in states:
            states[cls] = (y,)
            frontier.append(cls)
    while frontier:
        state = frontier.pop(0)
        word = states[state]
        reach = set()
        for s in state:
            reach.update(g.successors[s])
        for y in g.y_symbols:
            nxt = frozenset(s for s in reach if g.label[s] == y)
            if nxt and nxt not in states:
                states[nxt] = word + (y,)
                frontier.append(nxt)
    return states


def backward_states(g):
    """Backward subset states, witnessed by the suffix they realize."""
    states = {}
    frontier = []
    for y in g.y_symbols:
        cls = frozenset(g.label_classes[y])
        if cls and cls not in states:
            states[cls] = (y,)
            frontier.append(cls)
    while frontier:
        state = frontier.pop(0)
        word = states[state]
        reach = set()
        for s in state:
            reach.update(g.predecessors[s])
        for y in g.y_symbols:
            nxt = frozenset(s for s in reach if g.label[s] == y)
            if nxt and nxt not in states:
                states[nxt] = (y,) + word
                frontier.append(nxt)
    return states


def determinize(g: LabeledGraph) -> RightResolvingPresentation:
    """Subset construction over label words; the result presents exactly the
    image shift of ``g`` and is what ``entropy`` of the image is computed on."""
    ess = analyze_graph(g).essential
    order = ess.index
    initial = {}
    for y in ess.y_symbols:
        cls = tuple(sorted(ess.label_classes[y], key=order.get))
        if cls:
            initial[y] = cls
    step = {}
    seen = set(initial.values())
    frontier = list(initial.values())
    while frontier:
        state = frontier.pop()
        reach = set()
        for s in state:
            reach.update(ess.successors[s])
        for y in ess.y_symbols:
            nxt = tuple(sorted((s for s in reach if ess.label[s] == y), key=order.get))
            if nxt:
                step[(state, y)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    # trim to the essential part so every finite run extends bi-infinitely
    states = set(seen)
    while True:
        has_out = {s for (s, _y), t in step.items() if s in states and t in states}
        has_in = {t for (s, _y), t in step.items() if s in states and t in states}
        keep = states & has_out & has_in
        if keep == states:
            break
        states = keep
    step = {(s, y): t for (s, y), t in step.items() if s in states and t in states}
    ordered = sorted(states, key=lambda st: tuple(order[s] for s in st))
    return RightResolvingPresentation(ordered, step, ess.y_symbols)


class ViabilityWalk:
    """Shared machinery for viable paths over a label window.

    Backward viability sets are computed as states of the reversed subset
    automaton and interned, so long windows cost O(1) amortized per step.
    """

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        order = graph.index
        self.order = order
        self.classes = {y: tuple(sorted(graph.label_classes[y], key=order.get))
                        for y in graph.y_symbols}
        self.succ_by_label = {}
        for s in graph.x_symbols:
            for y in graph.y_symbols:
                self.succ_by_label[(s, y)] = tuple(
                    t for t in graph.successors[s] if graph.label[t] == y)
        self._sets = {}
        self._set_list = []
        self._bstep_memo = {}
        self._fstep_memo = {}

    def _intern(self, fs):
        sid = self._sets.get(fs)
        if sid is None:
            sid = len(self._set_list)
            self._sets[fs] = sid
            self._set_list.append(fs)
        return sid

    def viability_ids(self, y_word):
        """Backward pass: per position, the id of the viable-symbol set."""
        T = len(y_word)
        ids = np.empty(T, dtype=np.int64)
        last = frozenset(self.classes.get(y_word[-1], ()))
        if not last:
            raise NoPath(f"image symbol {y_word[-1]!r} unrealizable")
        ids[T - 1] = self._intern(last)
        for t in range(T - 2, -1, -1):
            key = (ids[t + 1], y_word[t])
            vid = self._bstep_memo.get(key)
            if vid is None:
                nxt = self._set_list[ids[t + 1]]
                viable = frozenset(s for s in self.classes.get(y_word[t], ())
                                   if any(u in nxt for u in self.graph.successors[s]))
                if not viable:
                    raise NoPath("window is not a label word of the image shift")
                vid = self._intern(viable)
                self._bstep_memo[key] = vid
            ids[t] = vid
        return ids

    def walk(self, y_word, ids):
        """Forward pass: lexicographically least viable symbol each step."""
        T = len(y_word)
        first = min(self._set_list[ids[0]], key=self.order.get)
        path = [first]
        current = first
        for t in range(1, T):
            key = (current, ids[t])
            nxt = self._fstep_memo.get(key)
            if nxt is None:
                viable = self._set_list[ids[t]]
                for cand in self.succ_by_label[(current, y_word[t])]:
                    if cand in viable:
                        nxt = cand
                        break
                if nxt is None:
                    raise RuntimeError("viability pruning admitted a dead end")
                self._fstep_memo[key] = nxt
            path.append(nxt)
            current = nxt
        return path


def phased_graph(g, orbit: PeriodicOrbit):
    """Vertices (symbol, phase) following the orbit's label word."""
    w = orbit.primitive_word
    p = orbit.period
    vertices = [(s, t) for t in range(p) for s in g.x_symbols if g.label[s] == w[t]]
    vset = set(vertices)
    succ = {v: [] for v in vertices}
    for s, t in vertices:
        nt = (t + 1) % p
        for s2 in g.successors[s]:
            if (s2, nt) in vset:
                succ[(s, t)].append((s2, nt))
    return vertices, succ


def periodic_fiber(g: LabeledGraph, y: PeriodicOrbit):
    """Exact fiber of a periodic orbit of the image, as the pair
    (lift orbits with winding numbers, fiber size).

    The recurrent part of the phased graph must split into disjoint simple
    cycles; each cycle of length q yields a lift orbit of least period q
    and winding q / period(y).  A branching recurrent part means the fiber
    is infinite and the input was not finite-to-one.
    """
    for a in y.primitive_word:
        if a not in set(g.y_symbols):
            raise NotInImage(f"symbol {a!r} is not in the image alphabet")
    vertices, succ = phased_graph(g, y)
    alive = _essential_symbols(vertices, {(v, u) for v in vertices for u in succ[v]})
    if not alive:
        raise NotInImage("no preimage cycle realizes the orbit's word")
    succ = {v: [u for u in succ[v] if u in alive] for v in alive}
    for v in alive:
        if len(succ[v]) != 1:
            raise FiberInfinite("recurrent phased graph branches; fiber is infinite")
    indeg = {}
    for v in alive:
        indeg[succ[v][0]] = indeg.get(succ[v][0], 0) + 1
    if any(indeg.get(v, 0) != 1 for v in alive):
        raise FiberInfinite("recurrent phased graph merges; fiber is infinite")

    p = y.period
    order = g.index
    seen = set()
    lifts = []
    for v in sorted(alive, key=lambda v: (v[1], order[v[0]])):
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        u = succ[v][0]
        while u != v:
            cycle.append(u)
            seen.add(u)
            u = succ[u][0]
        q = len(cycle)
        if q % p != 0:
            raise RuntimeError("phased cycle length not a multiple of the base period")
        # rotate so the cycle starts at phase 0, then read off the symbols
        start = next(i for i, (_s, t) in enumerate(cycle) if t == 0)
        word = tuple(cycle[(start + i) % q][0] for i in range(q))
        lifts.append((PeriodicOrbit.from_word(word, order), q // p))
    lifts.sort(key=lambda lw: (lw[1], tuple(order[s] for s in lw[0].primitive_word)))
    total = sum(w for _o, w in lifts)
    if total * p != len(alive):
        raise RuntimeError("winding numbers do not account for the recurrent part")
    return tuple(lifts), total


def periodic_joining_orbits(lam: LabeledGraph, y: PeriodicOrbit):
    """The joining-graph orbits over a periodic orbit, as extracted by
    ``enumerate_periodic_degree_joinings``."""
    w = y.primitive_word
    p = y.period
    vertices = [(s, t) for t in range(p) for s in lam.x_symbols if lam.label[s] == w[t]]
    vset = set(vertices)
    succ = {v: [] for v in vertices}
    for s, t in vertices:
        nt = (t + 1) % p
        for s2 in lam.successors[s]:
            if (s2, nt) in vset:
                succ[(s, t)].append((s2, nt))
    alive = _essential_symbols(vertices, {(v, u) for v in vertices for u in succ[v]})
    if not alive:
        raise NotInImage("no joining-graph cycle realizes the orbit")
    succ = {v: [u for u in succ[v] if u in alive] for v in alive}
    for v in alive:
        if len(succ[v]) != 1:
            raise FiberInfinite("joining fiber of the orbit is not a union of cycles")

    order = lam.index
    seen = set()
    orbits = []
    for v in sorted(alive, key=lambda v: (v[1], order[v[0]])):
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        u = succ[v][0]
        while u != v:
            cycle.append(u)
            seen.add(u)
            u = succ[u][0]
        start = next(i for i, (_s, t) in enumerate(cycle) if t == 0)
        word = tuple(cycle[(start + i) % len(cycle)][0] for i in range(len(cycle)))
        orbits.append(PeriodicOrbit.from_word(word, order))
    return orbits


def anchor_of_label(lift_word, labels, base_word):
    """Phase t such that the lift point's image is the base point anchored
    at rotation t of the base orbit word."""
    p = len(base_word)
    image = tuple(labels[s] for s in lift_word)
    for t in range(p):
        if all(image[i] == base_word[(t + i) % p] for i in range(len(image))):
            return t
    raise RuntimeError("lift orbit does not project onto the base orbit")



def markov_sample_indices(m, length, rng):
    """One ``searchsorted`` per step over the current state's cumulative row,
    raised to the row's first positive-probability state (a draw of exactly
    0 would give state 0 otherwise).  A draw above the row's float total
    returns ``len(m.alphabet)``."""
    n = len(m.alphabet)
    start_p = np.array([float(p) for p in m.stationary])
    start_p /= start_p.sum()
    rows = np.array([[float(p) for p in row] for row in m.matrix])
    rows /= rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(rows, axis=1)
    first = [int(np.flatnonzero(row)[0]) for row in rows]
    draws = rng.random(length)
    out = np.empty(length, dtype=np.int64)
    out[0] = rng.choice(n, p=start_p)
    for t in range(1, length):
        out[t] = max(np.searchsorted(cum[out[t - 1]], draws[t]), first[out[t - 1]])
    return out


def co_sample_indices(m, length, rng):
    """The orbit word read from a uniform random phase, letter by letter."""
    idx = m._index()
    r = int(rng.integers(m.orbit.period))
    w = m.orbit.primitive_word
    return np.array([idx[w[(r + t) % m.orbit.period]] for t in range(length)], dtype=np.int64)


def preimage_words_block(code: SlidingBlockCode, w):
    """Every allowed domain word of length |w| + memory + anticipation that
    ``apply`` maps onto w (for the empty word, all allowed stubs), whether
    or not it extends bi-infinitely."""
    length = len(w) + code.memory + code.anticipation
    if length == 0:
        return {()}
    words = [(s,) for s in code.alphabet]
    for _ in range(length - 1):
        words = [u + (b,) for u in words for b in code.alphabet if (u[-1], b) in code.transitions]
    if not w:
        # preimage of the whole space: the allowed memory+anticipation stubs
        return set(words)
    return {u for u in words if code.apply(u) == w}


def apply_block_map_indices(code: SlidingBlockCode, base_alphabet, y_alphabet, arr):
    """Vectorized block-map application on an index array."""
    k = len(base_alphabet)
    width = code.width
    y_index = {y: i for i, y in enumerate(y_alphabet)}
    table = np.full(k ** width, -1, dtype=np.int64)
    base_idx = {a: i for i, a in enumerate(base_alphabet)}
    for word, y in code.block_map.items():
        code_val = 0
        for a in word:
            code_val = code_val * k + base_idx[a]
        table[code_val] = y_index[y]
    codes_arr = np.zeros(len(arr) - width + 1, dtype=np.int64)
    for j in range(width):
        codes_arr = codes_arr * k + arr[j:len(arr) - width + 1 + j]
    out = table[codes_arr]
    if (out < 0).any():
        raise ValueError("sample left the code's domain")
    return out


def pushforward_sample_indices(nu: PushforwardMeasure, length, rng):
    """Base samples through the block-map table for a block code, through a
    label lookup for a labeled graph."""
    if isinstance(nu.code, SlidingBlockCode):
        extra = nu.code.memory + nu.code.anticipation
        base_idx = nu.base.sample_indices(length + extra, rng)
        return apply_block_map_indices(nu.code, nu.base.alphabet, nu.alphabet, base_idx)
    g = nu.code
    base_idx = nu.base.sample_indices(length, rng)
    lookup = np.array([nu.alphabet.index(g.label[s]) for s in nu.base.alphabet],
                      dtype=np.int64)
    return lookup[base_idx]


def _support_states(m):
    if isinstance(m, BernoulliMeasure):
        return tuple(a for a, p in zip(m.alphabet, m.probabilities) if p > 0)
    return tuple(a for a, p in zip(m.alphabet, m.stationary) if p > 0)


def support_presentation(nu, g: LabeledGraph):
    """Right-resolving presentation of the support of an image measure,
    one branch per measure type and code kind.  It keeps every block of a
    width-1 block code whatever the Markov support."""
    if isinstance(nu, PushforwardMeasure):
        return _pushforward_support_presentation(nu)
    if isinstance(nu, BernoulliMeasure):
        support = full_shift(_support_states(nu))
        return determinize(support)
    if isinstance(nu, MarkovMeasure):
        states = _support_states(nu)
        graph = LabeledGraph(states, nu.support_transitions(),
                             {a: a for a in states}, g.y_symbols)
        return determinize(graph)
    raise TypeError(f"unsupported image measure type {type(nu).__name__}")


def _pushforward_support_presentation(nu: PushforwardMeasure):
    base, code = nu.base, nu.code
    if isinstance(code, SlidingBlockCode):
        graph = recode_to_one_block(code).graph
        if isinstance(base, BernoulliMeasure):
            positive = set(_support_states(base))
            keep = [b for b in graph.x_symbols if all(a in positive for a in b)]
        elif isinstance(base, MarkovMeasure):
            support = base.support_transitions()
            keep = [b for b in graph.x_symbols
                    if all(pair in support for pair in zip(b, b[1:])) or len(b) == 1]
        else:
            raise TypeError("pushforward support needs a Bernoulli or Markov base")
        restricted = graph.restrict(keep)
    else:
        graph = code
        if isinstance(base, BernoulliMeasure):
            restricted = graph.restrict(_support_states(base))
        elif isinstance(base, MarkovMeasure):
            support = base.support_transitions() & graph.transitions
            restricted = LabeledGraph(_support_states(base), support,
                                      {s: graph.label[s] for s in _support_states(base)},
                                      graph.y_symbols)
        else:
            raise TypeError("pushforward support needs a Bernoulli or Markov base")
    return determinize(restricted)


def fiber_product(g: LabeledGraph, n: int, distinct: bool = False) -> FiberProductGraph:
    """The 1-step SFT of equal-label n-tuples (pairwise-distinct entries
    when ``distinct``), trimmed to its essential part; every pair of tuples
    is tested for a transition."""
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


def least_rotation(word, order=None):
    """Start index of the least rotation of a word, comparing symbols by
    ``order`` (symbol -> rank) when given, else by their own ordering."""
    rank = (lambda w: tuple(order[s] for s in w)) if order else (lambda w: w)
    return min(range(len(word)), key=lambda i: rank(word[i:] + word[:i]))


def recode_to_one_block(code: SlidingBlockCode) -> OneBlockRecoding:
    """Higher-block presentation of a sliding block code, comparing every
    pair of blocks for overlap."""
    symbols = sorted(code._allowed_words(code.width), key=code._word_key)
    trans = {(u, v) for u in symbols for v in symbols
             if u[1:] == v[:-1] and (u[-1], v[-1]) in code.transitions}
    label = {u: code.block_map[u] for u in symbols}
    graph = LabeledGraph(symbols, trans, label, code.y_symbols)
    return OneBlockRecoding(graph=graph, offset=code.memory, base_alphabet=code.alphabet)
