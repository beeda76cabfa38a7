"""The package's earlier constructions, kept unchanged as differential
oracles for the code that replaced them: the forward and backward subset
states of the magic-word search, the subset construction of
``determinize`` and the right-resolving presentation keyed by (subset
tuple, letter) with its depth-first orbit enumerator, the depth-first
orbit enumerator of an SFT, the diamond test on the untrimmed graph of
equal-label pairs and the closing test on it that finds the pairs
reaching a recurrent pair by full passes, the essential-part trim by
repeated full passes, the symbol-keyed viability walker (one memo lookup
per step) and the speculate-and-verify walker that verifies every
relabelled chunk on its own, with its table from per-symbol successor
lists, and the walker with its own loop that settles chunks on ints, the
table-based word reader of the image presentation, the per-length cylinder counter of empirical distributions
with its word-keyed frequencies, distance and merge, the union-find
single-linkage clustering,
the phased-graph cycle extraction of ``periodic_fiber`` and of the
periodic degree joinings, the phased cycles and periodic fiber on
(symbol, phase) tuple vertices with the periodic lift analysis that
counted the fiber points over every base point and canonicalized each
base orbit anew, the brute-force search for a coordinate permutation
relating two joining orbits, the per-step Markov and periodic-orbit samplers, the
Bernoulli sampler through ``rng.choice``, the Markov interval lookup by
``np.searchsorted``, the alternating-offset sampler's sign comprehension, the
per-code-kind pushforward constructions (block-code preimage words by
enumerating every domain word, samples through the block-map table or
the graph's label lookup, and the branch-per-measure-type support
presentation), and the quadratic exact constructions: the fiber product
that tests every pair of tuples, the least rotation by ranking every
rotation, and the recoding that compares every pair of blocks; the
integer scan that composes every chunk's whole entry-to-exit map, the
successor and predecessor lists sorted over all transitions at once, the
``periodic-lifts`` rows built as dicts for the general JSON encoder, with
their table text, and the fiber product and structure report built on
tuples and symbols: one comprehension per tuple, label and coordinate,
and the trim (a queue over a dict per symbol), Tarjan and period search
keyed by vertex in dicts and sets; the depth-first Lyndon-word sweep of
the periodic fibers, which extends and closes the preimage runs of one
word at a time in dicts, with ``periodic_fiber`` on those runs, the
period search with one ``gcd`` call per non-tree edge, and Booth's least
rotation of one word; and the per-class cylinders that the hidden-chain
forward recursion replaced: Bernoulli products, Markov chain products,
orbit phase counts, alternating-offset phase averages over displaced base
words, and the pushforward sum of base masses over the preimage words."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from math import gcd, isqrt, log

import numpy as np

from sftlift.ca import AlternatingOffsetMeasure
from sftlift.codes import (MAX_PERIODIC_POINTS, PhasedFiberDecomposition, _decomposition,
                           _require_irreducible, is_finite_to_one, preimage_words)
from sftlift.errors import (EmptyAfterTrim, FiberInfinite, InfiniteToOne, InputError, NoPath,
                            NotInImage, PreconditionError)
from sftlift.fibers import (CanonicalLiftDecomposition, LiftEntry, LiftReport,
                            _lift_orbit_alphabet, _unwrap)
from sftlift.graphs import (LabeledGraph, OneBlockRecoding, PeriodicOrbit, SlidingBlockCode,
                            StructureReport, _as_word, _essential_mask, _speculate,
                            analyze_graph, full_shift, load_graph_or_code, perron_value, scan)
from sftlift.joinings import _ViabilityWalk
from sftlift.measures import (BernoulliMeasure, COMeasure, MarkovMeasure, PushforwardMeasure,
                              window_codes)



def tarjan_scc(order, succ):
    """Iterative Tarjan keyed by vertex: dicts for the index and low maps
    and a set for stack membership; components in a deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    for root in order:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def component_period(comp, succ):
    """gcd of cycle lengths inside one strongly connected component, by a
    BFS keyed by vertex."""
    comp_set = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    g = 0
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w not in comp_set:
                continue
            if w in level:
                g = gcd(g, level[v] + 1 - level[w])
            else:
                level[w] = level[v] + 1
                queue.append(w)
    return abs(g) if g else 0

def essential_symbols(symbols, transitions):
    """The symbols on bi-infinite paths, trimmed in full passes over the
    transitions until nothing changes: passes × transitions."""
    alive = set(symbols)
    changed = True
    while changed:
        changed = False
        outs = {a for a, b in transitions if a in alive and b in alive}
        ins = {b for a, b in transitions if a in alive and b in alive}
        keep = alive & outs & ins
        if keep != alive:
            alive = keep
            changed = True
    return alive


def forward_states(g):
    """All forward subset states with a shortest witness word reaching them."""
    states = {}
    frontier = []
    for y in g.y_symbols:
        cls = frozenset(g.label_classes[y])
        if cls and cls not in states:
            states[cls] = (y,)
            frontier.append(cls)
    succ = sorted_successors(g)
    while frontier:
        state = frontier.pop(0)
        word = states[state]
        reach = set()
        for s in state:
            reach.update(succ[s])
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
    pred = sorted_predecessors(g)
    while frontier:
        state = frontier.pop(0)
        word = states[state]
        reach = set()
        for s in state:
            reach.update(pred[s])
        for y in g.y_symbols:
            nxt = frozenset(s for s in reach if g.label[s] == y)
            if nxt and nxt not in states:
                states[nxt] = (y,) + word
                frontier.append(nxt)
    return states


class RightResolvingPresentation:
    """Edge-labeled right-resolving presentation of the image shift,
    obtained by the subset construction and trimmed to its essential part.

    States are forward-viable symbol sets; from each state at most one edge
    per image letter.  A word belongs to the image language iff it can be
    read from some state.
    """

    def __init__(self, states, step, alphabet):
        self.states = tuple(states)              # tuples of x-symbols
        self.step = dict(step)                   # (state, y) -> state
        self.alphabet = tuple(alphabet)

    def accepts(self, word) -> bool:
        word = _as_word(word)
        for start in self.states:
            state = start
            ok = True
            for a in word:
                nxt = self.step.get((state, a))
                if nxt is None:
                    ok = False
                    break
                state = nxt
            if ok:
                return True
        return False

    @cached_property
    def _successors(self):
        succ = {s: [] for s in self.states}
        for (s, _a), t in self.step.items():
            succ[s].append(t)
        return succ

    def entropy(self) -> float:
        """Entropy of the presented sofic shift: max over SCCs of the log
        Perron value of the edge-count adjacency (valid because the
        presentation is right-resolving)."""
        comps = tarjan_scc(self.states, self._successors)
        best = None
        for comp in comps:
            comp_set = set(comp)
            n = len(comp)
            idx = {s: i for i, s in enumerate(comp)}
            mat = np.zeros((n, n), dtype=np.int64)
            for (s, _a), t in self.step.items():
                if s in comp_set and t in comp_set:
                    mat[idx[s], idx[t]] += 1
            if mat.sum() == 0:
                continue
            val = log(perron_value(mat))
            if best is None or val > best:
                best = val
        if best is None:
            raise EmptyAfterTrim("presentation has no cycle")
        return best

    def periodic_orbits(self, max_period):
        """All periodic orbits of the image shift with least period <= max_period."""
        if max_period < 1:
            raise InputError("max_period must be >= 1")
        rank = {a: i for i, a in enumerate(self.alphabet)}
        orbits = set()
        for start in self.states:
            # DFS over label paths of bounded length that return to start
            stack = [(start, ())]
            while stack:
                state, word = stack.pop()
                if word and state == start:
                    orbits.add(PeriodicOrbit.from_word(word, rank))
                if len(word) >= max_period:
                    continue
                for a in reversed(self.alphabet):
                    nxt = self.step.get((state, a))
                    if nxt is not None:
                        stack.append((nxt, word + (a,)))
        return sorted(orbits, key=lambda o: (o.period, tuple(rank[a] for a in o.primitive_word)))

    def language_subset_of(self, other) -> bool:
        """Whether every word readable here is readable in ``other``."""
        all_other = frozenset(other.states)
        seen = set()
        frontier = [(s, all_other) for s in self.states]
        seen.update(frontier)
        while frontier:
            state, tracked = frontier.pop()
            for a in self.alphabet:
                nxt = self.step.get((state, a))
                if nxt is None:
                    continue
                nxt_tracked = frozenset(t2 for t in tracked
                                        if (t2 := other.step.get((t, a))) is not None)
                if not nxt_tracked:
                    return False
                key = (nxt, nxt_tracked)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
        return True


def table_accepts(p, word) -> bool:
    """Whether a table-based ``sftlift.RightResolvingPresentation`` reads
    the word from some state, following every state's run at once."""
    column = {a: j for j, a in enumerate(p.alphabet)}
    rows = p.step.tolist()
    current = range(len(rows))
    for a in _as_word(word):
        if a not in column:
            return False
        current = {t for s in current if (t := rows[s][column[a]]) >= 0}
    return bool(current)


def keyed_presentation(p) -> RightResolvingPresentation:
    """The (subset tuple, letter) -> subset tuple view of a table-based
    ``sftlift.RightResolvingPresentation``."""
    step = {(p.states[k], p.alphabet[j]): p.states[t]
            for k, row in enumerate(p.step.tolist()) for j, t in enumerate(row) if t >= 0}
    return RightResolvingPresentation(p.states, step, p.alphabet)


def enumerate_periodic_orbits(g: LabeledGraph, max_period: int):
    """All orbits of the SFT with least period <= max_period, each reported
    once via its lexicographically least primitive word, by a depth-first
    search from every symbol."""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    order, succ = g.index, sorted_successors(g)
    orbits = set()
    for start in g.x_symbols:
        stack = [(start, (start,))]
        while stack:
            current, word = stack.pop()
            if (current, start) in g.transitions:
                orbits.add(PeriodicOrbit.from_word(word, order))
            if len(word) >= max_period:
                continue
            for nxt in reversed(succ[current]):
                stack.append((nxt, word + (nxt,)))
    return sorted(orbits, key=lambda o: (o.period, tuple(order[s] for s in o.primitive_word)))


def _pair_symbols(g):
    return [(a, b) for a in g.x_symbols for b in g.x_symbols if g.label[a] == g.label[b]]


def _pair_successors(g, pairs):
    pair_set, nbrs = set(pairs), sorted_successors(g)
    succ = {}
    for a, b in pairs:
        succ[(a, b)] = [(c, d) for c in nbrs[a] for d in nbrs[b] if (c, d) in pair_set]
    return succ


def _reversed(succ):
    pred = {p: [] for p in succ}
    for p, nbrs in succ.items():
        for q in nbrs:
            pred[q].append(p)
    return pred


def _closure(seeds, neighbors):
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def finite_to_one(g: LabeledGraph) -> bool:
    """Diamond test on the untrimmed pair graph of all equal-label symbol
    pairs: the code is finite-to-one iff no path runs from a diagonal pair
    to a diagonal pair through an off-diagonal pair."""
    g = _require_irreducible(g)
    succ = _pair_successors(g, _pair_symbols(g))
    diagonal = [(a, a) for a in g.x_symbols]
    reachable = _closure(diagonal, succ)
    coreachable = _closure(diagonal, _reversed(succ))
    return not any(a != b for a, b in reachable & coreachable)


def closing_failure(g, forward: bool) -> bool:
    """Whether two distinct one-sided rays with equal start and equal labels
    exist (the negation of right-closing for forward=True, of left-closing
    otherwise), assuming the code is finite-to-one; the pairs that reach a
    recurrent pair are found by full passes until nothing changes."""
    pairs = _pair_symbols(g)
    succ = _pair_successors(g, pairs)
    if not forward:
        rev = {p: [] for p in pairs}
        for p, nbrs in succ.items():
            for q in nbrs:
                rev[q].append(p)
        succ = rev
    seen = set((a, a) for a in g.x_symbols)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    off = [p for p in seen if p[0] != p[1]]
    if not off:
        return False
    sub_succ = {p: [q for q in succ[p] if q in seen] for p in seen}
    comps = tarjan_scc(sorted(seen, key=lambda p: (g.index[p[0]], g.index[p[1]])), sub_succ)
    recurrent = set()
    for comp in comps:
        if len(comp) > 1 or comp[0] in sub_succ[comp[0]]:
            recurrent.update(comp)
    reach_rec = set(recurrent)
    changed = True
    while changed:
        changed = False
        for p in seen:
            if p not in reach_rec and any(q in reach_rec for q in sub_succ[p]):
                reach_rec.add(p)
                changed = True
    return any(p in reach_rec for p in off)


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
    step, succ = {}, sorted_successors(ess)
    seen = set(initial.values())
    frontier = list(initial.values())
    while frontier:
        state = frontier.pop()
        reach = set()
        for s in state:
            reach.update(succ[s])
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
        self.succ_by_label, self.succ = {}, sorted_successors(graph)
        for s in graph.x_symbols:
            for y in graph.y_symbols:
                self.succ_by_label[(s, y)] = tuple(
                    t for t in self.succ[s] if graph.label[t] == y)
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
                                   if any(u in nxt for u in self.succ[s]))
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



class ChunkVerifiedWalk(_ViabilityWalk):
    """The speculate-and-verify walker that checks every relabelled chunk
    on its own: its forward table is built from per-symbol successor lists,
    each coordinate permutation's row is cached by σ, and a chunk that
    starts at a permutation of its guess is relabelled, then verified step
    by step with four numpy calls before it is kept."""

    def __init__(self, graph: LabeledGraph):
        super().__init__(graph)
        index = graph.index
        n = self.dead = len(graph.x_symbols)
        subsets = self.automaton.subsets
        nbrs = sorted_successors(graph)
        succ = [[index[t] for t in nbrs[s]] for s in graph.x_symbols]
        self.forward = np.full((n + 2, len(subsets)), n, dtype=np.int64)
        for v, subset in enumerate(subsets):
            viable = {index[s] for s in subset}
            self.forward[:n, v] = [next((t for t in row if t in viable), n) for row in succ]
            self.forward[n + 1, v] = index[subset[0]]
        self._relabellings = {}

    def _relabelling(self, guess, true):
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
        ids = np.asarray(ids, dtype=np.int64)
        forward, dead = self.forward, self.dead
        cols = _speculate(forward.ravel(), forward.shape[1], ids, dead + 1)
        width, chunks = cols.shape
        body = width * chunks
        steps = ids[:body].reshape(chunks, width)
        heads, ends, firsts = cols[0].tolist(), cols[-1].tolist(), steps[:, 0].tolist()
        for c in range(1, chunks):
            true = forward[ends[c - 1], firsts[c]]
            if true == heads[c]:
                self.resolutions["guess"] += 1
                continue
            if true == dead:
                raise RuntimeError("viability pruning admitted a dead end")
            spec = cols[:, c]
            row = self._relabelling(heads[c], true)
            i = 0
            if row is not None:
                moved = row[spec]
                bad = np.flatnonzero(forward[moved[:-1], steps[c, 1:]] != moved[1:])
                if not len(bad):
                    spec[...] = moved
                    ends[c] = moved[-1]
                    self.resolutions["relabel"] += 1
                    continue
                i = bad[0] + 1
                spec[:i] = moved[:i]
                true = forward[moved[i - 1], steps[c, i]]
            self.resolutions["rerun"] += 1
            while true != spec[i]:
                spec[i] = true
                i += 1
                if i == width:
                    ends[c] = true
                    break
                true = forward[true, steps[c, i]]
        path = np.empty(len(ids), dtype=np.int64)
        path[:body].reshape(chunks, width)[...] = cols.T
        for t in range(body, len(ids)):
            path[t] = forward[path[t - 1], ids[t]]
        if len(ids) and path[-1] == dead:   # the sentinel is absorbing
            raise RuntimeError("viability pruning admitted a dead end")
        return path


class IntSettledWalk(_ViabilityWalk):
    """The forward walk with its own chunk-settling loop: a chunk whose true
    start is its guess with the coordinates permuted by a σ that commutes
    with the whole table (checked once per σ and kept in ``_rows``) is
    settled by mapping its end on Python ints and relabelled with one
    ``take`` per σ after the loop; any other σ is relabelled and verified
    per chunk, and a chunk without σ, or failing the verify, is re-run."""

    def _relabelling(self, guess, true):
        """The coordinate permutation σ with guess∘σ = true, None when the
        two symbols are not so related; cached by the pair.  On first use of
        σ, ``_rows[σ]`` gets the row sending each symbol index s to that of
        s∘σ (``dead`` where s∘σ is no symbol), and that row again as a list
        if it commutes with every table step from a symbol or ``dead``."""
        key = (guess, true)
        if key in self._relabellings:
            return self._relabellings[key]
        symbols, sigma = self.graph.x_symbols, None
        a, b = symbols[guess], symbols[true]
        position = {x: i for i, x in enumerate(a)} if isinstance(a, tuple) else {}
        if (isinstance(b, tuple) and 0 < len(position) == len(a) == len(b)
                and set(b) == position.keys()):
            sigma = tuple(position[x] for x in b)
        if sigma is not None and sigma not in self._rows:
            row = np.full(self.dead + 1, self.dead, dtype=np.int64)
            for k, s in enumerate(symbols):
                if isinstance(s, tuple) and len(s) == len(sigma):
                    row[k] = self.graph.index.get(tuple(s[j] for j in sigma), self.dead)
            commutes = np.array_equal(self.forward[row], row[self.forward[:-1]])
            self._rows[sigma] = row, row.tolist() if commutes else None
        self._relabellings[key] = sigma
        return sigma

    def walk(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        forward, dead = self.forward, self.dead
        cols = _speculate(forward.ravel(), forward.shape[1], ids, dead + 1)
        width, chunks = cols.shape
        body = width * chunks
        steps = ids[:body].reshape(chunks, width)
        heads, ends, firsts = cols[0].tolist(), cols[-1].tolist(), steps[:, 0].tolist()
        owned = {}                      # σ -> the chunks relabelled through it
        for c in range(1, chunks):
            true = forward.item(ends[c - 1], firsts[c])
            if true == heads[c]:
                self.resolutions["guess"] += 1
                continue
            if true == dead:
                raise RuntimeError("viability pruning admitted a dead end")
            sigma = self._relabelling(heads[c], true)
            row, relabel = self._rows.get(sigma, (None, None))
            if relabel is not None:
                owned.setdefault(sigma, []).append(c)
                ends[c] = relabel[ends[c]]
                self.resolutions["relabel"] += 1
                continue
            spec = cols[:, c]
            i = 0
            if row is not None:
                moved = row[spec]
                bad = np.flatnonzero(forward[moved[:-1], steps[c, 1:]] != moved[1:])
                if not len(bad):
                    spec[...] = moved
                    ends[c] = moved[-1]
                    self.resolutions["relabel"] += 1
                    continue
                i = bad[0] + 1
                spec[:i] = moved[:i]
                true = forward[moved[i - 1], steps[c, i]]
            self.resolutions["rerun"] += 1
            while true != spec[i]:
                spec[i] = true
                i += 1
                if i == width:
                    ends[c] = true
                    break
                true = forward[true, steps[c, i]]
        # relabelled in a narrow copy with a chunk per row, which replaces the
        # columns before the int64 path is made: the peak stays that of the path
        cols = np.ascontiguousarray(cols.T)
        for sigma, owners in owned.items():
            cols[owners] = self._rows[sigma][0].astype(cols.dtype).take(cols[owners])
        path = np.empty(len(ids), dtype=np.int64)
        path[:body].reshape(chunks, width)[...] = cols
        for t in range(body, len(ids)):
            path[t] = forward[path[t - 1], ids[t]]
        if len(ids) and path[-1] == dead:   # the sentinel is absorbing
            raise RuntimeError("viability pruning admitted a dead end")
        return path


def phased_graph(g, orbit: PeriodicOrbit):
    """Vertices (symbol, phase) following the orbit's label word."""
    w = orbit.primitive_word
    p = orbit.period
    vertices = [(s, t) for t in range(p) for s in g.x_symbols if g.label[s] == w[t]]
    vset, nbrs = set(vertices), sorted_successors(g)
    succ = {v: [] for v in vertices}
    for s, t in vertices:
        nt = (t + 1) % p
        for s2 in nbrs[s]:
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
    alive = essential_symbols(vertices, {(v, u) for v in vertices for u in succ[v]})
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
    vset, nbrs = set(vertices), sorted_successors(lam)
    succ = {v: [] for v in vertices}
    for s, t in vertices:
        nt = (t + 1) % p
        for s2 in nbrs[s]:
            if (s2, nt) in vset:
                succ[(s, t)].append((s2, nt))
    alive = essential_symbols(vertices, {(v, u) for v in vertices for u in succ[v]})
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


def tuple_phased_cycles(g: LabeledGraph, y: PeriodicOrbit):
    """The phased cycles of a periodic orbit, one phased graph per orbit
    on (symbol, phase) tuple vertices: the recurrent phased graph as
    disjoint cycles, each read from phase 0 at its least phase-0 symbol,
    in the order of those symbols; the core of ``tuple_periodic_fiber``."""
    w = y.primitive_word
    p = y.period
    for a in w:
        if a not in g.label_classes:
            raise NotInImage(f"symbol {a!r} is not in the image alphabet")
    vertices, succ = [(s, t) for t in range(p) for s in g.label_classes[w[t]]], sorted_successors(g)
    edges = [((s, t), (s2, (t + 1) % p)) for s, t in vertices
             for s2 in succ[s] if g.label[s2] == w[(t + 1) % p]]
    alive = essential_symbols(vertices, edges)
    if not alive:
        raise NotInImage("no preimage cycle realizes the orbit's word")
    succ = {v: [] for v in alive}
    indeg = dict.fromkeys(alive, 0)
    for v, u in edges:
        if v in alive and u in alive:
            succ[v].append(u)
            indeg[u] += 1
    if any(len(succ[v]) != 1 for v in alive):
        raise FiberInfinite("recurrent phased graph branches; fiber is infinite")
    if any(n != 1 for n in indeg.values()):
        raise FiberInfinite("recurrent phased graph merges; fiber is infinite")

    seen = set()
    cycles = []
    for s in g.label_classes[w[0]]:
        u = (s, 0)
        if u not in alive or u in seen:
            continue
        word = []
        while u not in seen:
            seen.add(u)
            word.append(u[0])
            u = succ[u][0]
        if len(word) % p != 0:
            raise RuntimeError("phased cycle length not a multiple of the base period")
        cycles.append(tuple(word))
    if len(seen) != len(alive):
        raise RuntimeError("phased cycles do not account for the recurrent part")
    return cycles


def tuple_periodic_fiber(g: LabeledGraph, y: PeriodicOrbit) -> PhasedFiberDecomposition:
    """``codes.periodic_fiber`` over ``tuple_phased_cycles``, rotating each
    symbol word by the symbol order."""
    p = y.period
    order = g.index
    lifts = []
    for word in tuple_phased_cycles(g, y):
        k = least_rotation(word, order)
        lifts.append((PeriodicOrbit(word[k:] + word[:k], len(word)), len(word) // p))
    lifts.sort(key=lambda lift: (lift[1], tuple(order[s] for s in lift[0].primitive_word)))
    return PhasedFiberDecomposition(base_orbit=y, lift_orbits=tuple(lifts),
                                    fiber_size=sum(w for _o, w in lifts))


def analyze_periodic_lifts(code, y: PeriodicOrbit):
    """``fibers.analyze_periodic_lifts`` with the fiber points of each lift
    counted over every base point, the diagonal mass summed over them, the
    base orbit canonicalized by ``PeriodicOrbit.from_word`` and the weights
    summed as Fractions."""
    g, recoding = _unwrap(code)
    fiber = tuple_periodic_fiber(g, y)
    d = fiber.fiber_size
    p = y.period

    entries = []
    diagonal = {}
    for orbit, winding in fiber.lift_orbits:
        offset = anchor_of_label(orbit.primitive_word, g.label, y.primitive_word)
        per_base = {t: [] for t in range(p)}
        for r in range(orbit.period):
            per_base[(offset + r) % p].append(r)
        sizes = {t: len(rs) for t, rs in per_base.items()}
        if set(sizes.values()) != {winding}:
            raise RuntimeError("fiber points are not equidistributed over the base orbit")
        mass = sum(Fraction(1, p * len(per_base[t])) for t in range(p))
        if mass != Fraction(1, winding):
            raise RuntimeError("diagonal mass disagrees with the winding number")
        if recoding is None:
            reported = orbit
        else:
            order = {s: i for i, s in enumerate(recoding.base_alphabet)}
            base_word = tuple(recoding.base_letter(b) for b in orbit.primitive_word)
            reported = PeriodicOrbit.from_word(base_word, order)
        lift_measure = COMeasure(reported, _lift_orbit_alphabet(g, recoding))
        entries.append(LiftEntry(lift_measure.describe(), winding, lift_measure))
        diagonal[",".join(str(a) for a in reported.primitive_word)] = mass

    if sum(e.multiplicity for e in entries) != d:
        raise RuntimeError("multiplicities do not sum to the fiber size")
    weights = tuple((e.measure, Fraction(e.multiplicity, d)) for e in entries)
    if sum(w for _m, w in weights) != 1:
        raise ValueError("canonical lift weights must sum to 1 exactly")
    report = LiftReport(
        base=COMeasure(y, g.y_symbols).describe(),
        degree=d,
        lifts=tuple(entries),
        method="exact",
        details={"diagonal_mass": {k: str(v) for k, v in diagonal.items()},
                 "base_period": p},
    )
    return report, CanonicalLiftDecomposition(report.lifts, d)


def lyndon_words(letters, max_period, runs, extend):
    """Each Lyndon word over ``range(letters)`` of length <= max_period with
    its runs (``runs`` for the empty word, ``extend(runs, a)`` for a word
    followed by a; a word without runs is not extended), in lexicographic
    order: one depth-first sweep over the prenecklaces
    (Fredricksen–Kessler–Maiorana; Duval, J. Algorithms 1983)."""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    # (w, p, runs): a prenecklace w whose longest Lyndon prefix has length p
    stack = [((), 1, runs)]
    while stack:
        w, p, runs = stack.pop()
        if w and p == len(w):
            yield w, runs
        if len(w) < max_period:
            least = w[-p] if w else 0
            for a in reversed(range(least, letters)):
                nxt = extend(runs, a)
                if nxt:
                    # repeating w[-p] keeps p; a larger letter makes a Lyndon word
                    stack.append((w + (a,), p if w and a == least else len(w) + 1, nxt))


def extend_runs(table, runs, a):
    """Extend the preimage paths ``runs`` of a word by letter index a: each
    (start, end) index pair maps to one path, or to None once two reach it;
    the empty word's run is (n, n), n the start row of ``table``."""
    nxt = {}
    for (s, e), path in runs.items():
        for t in table[e][a]:
            key = (t, t) if path == () else (s, t)
            nxt[key] = None if path is None or key in nxt else path + (t,)
    return nxt


def close_runs(table, first, runs, period):
    """The lifts of an orbit of word w from its preimage paths ``runs``, as
    sorted (winding, symbol ids) pairs.  A path from s to e and an edge from
    e to t labeled w[0] (index ``first``) relate s to t; the essential part
    of this relation (trimmed only if it is not a permutation of its starts),
    a pair counted once per path, must be a permutation, or the fiber is
    infinite.  A cycle of k pairs is a lift of winding k whose word repeats
    no (phase, symbol) vertex, so is primitive."""
    edges = [(s, t, path) for (s, e), path in runs.items() for t in table[e][first]]
    succ = {s: (t, path) for s, t, path in edges}
    if len(succ) < len(edges) or succ.keys() != {t for t, _p in succ.values()}:
        alive = _essential_mask(len(table), *np.array([(s, t) for s, t, _p in edges]).T).tolist()
        edges = [(s, t, path) for s, t, path in edges if alive[s] and alive[t]]
        succ = {s: (t, path) for s, t, path in edges}
    if len(succ) < len(edges) or any(path is None for _t, path in succ.values()):
        raise FiberInfinite("recurrent phased graph branches; fiber is infinite")
    lifts = []
    while succ:
        s, ids = next(iter(succ)), []
        while s in succ:
            s, path = succ.pop(s)
            ids.extend(path)
        k = least_rotation(ids)
        lifts.append((len(ids) // period, ids[k:] + ids[:k]))
    lifts.sort()
    return lifts


def run_periodic_fiber(g: LabeledGraph, y: PeriodicOrbit) -> PhasedFiberDecomposition:
    """Exact fiber of a periodic orbit of the image, from the preimage runs
    of its word (see ``close_runs``)."""
    runs = {(len(g.x_symbols),) * 2: ()}
    for a in y.primitive_word:
        if a not in g.label_classes:
            raise NotInImage(f"symbol {a!r} is not in the image alphabet")
        runs = extend_runs(g.letter_successors, runs, g.y_symbols.index(a))
    lifts = close_runs(g.letter_successors, g.y_symbols.index(y.primitive_word[0]), runs, y.period)
    if not lifts:
        raise NotInImage("no preimage cycle realizes the orbit's word")
    return _decomposition(g, y, lifts)


def lift_cycles(g: LabeledGraph, max_period: int):
    """The Lyndon word (label indices) and ``close_runs`` lifts of each orbit
    of least period <= max_period with lifts on the essential graph g, in
    lexicographic order, by one depth-first sweep that extends the preimage
    paths of each prefix; checked against tr(A^n) after the last, and
    refused past MAX_PERIODIC_POINTS before it starts."""
    adjacency = power = g.adjacency_matrix().astype(object)     # Python ints: no wrap-around
    traces = [power.trace()]
    while len(traces) < max_period and sum(traces) <= MAX_PERIODIC_POINTS:
        power = power @ adjacency
        traces.append(power.trace())
    if sum(traces) > MAX_PERIODIC_POINTS:
        raise PreconditionError(f"max_period {max_period}: the periods up to {len(traces)} "
                                f"already hold {sum(traces)} lift points, more than the cap "
                                f"MAX_PERIODIC_POINTS = {MAX_PERIODIC_POINTS}")
    table, lengths = g.letter_successors, []
    for w, runs in lyndon_words(len(g.y_symbols), max_period, {(len(g.x_symbols),) * 2: ()},
                                lambda runs, a: extend_runs(table, runs, a)):
        lifts = close_runs(table, w[0], runs, len(w))
        if lifts:
            lengths += (len(ids) for _w, ids in lifts)
            yield w, lifts
    for n, trace in enumerate(traces, 1):
        held = sum(q for q in lengths if n % q == 0)
        if held != trace:
            raise RuntimeError(f"periodic fibers hold {held} points of period dividing {n}, "
                               f"not tr(A^{n}) = {trace}")


def loop_component_periods(comps, succ):
    """Per strongly connected component of the vertices 0..len(succ)-1, the
    gcd of its cycle lengths, by one BFS each on shared lists, with one
    ``gcd`` call per edge inside the component that is not a tree edge."""
    owner, level = [-1] * len(succ), [-1] * len(succ)
    for c, comp in enumerate(comps):
        for v in comp:
            owner[v] = c
    periods = []
    for c, comp in enumerate(comps):
        level[comp[0]], queue, g = 0, [comp[0]], 0
        while queue:
            v = queue.pop()
            for w in succ[v]:
                if owner[w] != c:
                    continue
                if level[w] >= 0:
                    g = gcd(g, level[v] + 1 - level[w])
                else:
                    level[w] = level[v] + 1
                    queue.append(w)
        periods.append(abs(g))
    return periods


def periodic_lift_rows(path, max_period):
    """The ``periodic-lifts`` rows of a graph or code file as the CLI built
    them before it wrote their text straight from the sweep: one dict per
    orbit with lifts, from ``lift_cycles`` on the essential graph, sorted
    by period, for ``json.dumps`` or ``periodic_lift_table``."""
    g, rec = load_graph_or_code(path)[0], None
    if isinstance(g, OneBlockRecoding):
        g, rec = g.graph, g
    if not is_finite_to_one(g):
        raise InfiniteToOne("periodic lift analysis requires a finite-to-one code")
    g = analyze_graph(g).essential
    names = [str(rec.base_letter(s)) if rec is not None else str(s) for s in g.x_symbols]
    labels, offset = [str(y) for y in g.y_symbols], rec.offset if rec is not None else 0
    weights, rows = {}, []
    for word, lifts in lift_cycles(g, max_period):
        p, d = len(word), sum(w for w, _ids in lifts)
        lift_rows, components = [], []
        for w, ids in lifts:
            if len(ids) != w * p:
                raise RuntimeError("fiber points are not equidistributed over the base orbit")
            k = -offset % len(ids)
            measure = {"type": "co", "orbit": [names[i] for i in ids[k:] + ids[:k]]}
            weight = weights.get((w, d)) or weights.setdefault((w, d), str(Fraction(w, d)))
            lift_rows.append({"measure": measure, "multiplicity": w})
            components.append({"measure": measure, "weight": weight})
        rows.append({"orbit": [labels[a] for a in word], "period": p, "fiber_size": d,
                     "lifts": lift_rows, "canonical_lift": {"components": components,
                                                            "is_ergodic": len(lifts) == 1}})
    rows.sort(key=lambda row: row["period"])
    return rows


def periodic_lift_table(rows):
    """The ``periodic-lifts --format table`` text of ``periodic_lift_rows``."""
    lines = []
    for row in rows:
        lifts = ", ".join(
            f"{','.join(e['measure']['orbit'])} (mult {e['multiplicity']})"
            for e in row["lifts"])
        lines.append(f"orbit {','.join(row['orbit'])} (period {row['period']}): "
                     f"fiber {row['fiber_size']}; lifts: {lifts}")
    return "\n".join(lines) + "\n"


def anchor_of_label(lift_word, labels, base_word):
    """Phase t such that the lift point's image is the base point anchored
    at rotation t of the base orbit word."""
    p = len(base_word)
    image = tuple(labels[s] for s in lift_word)
    for t in range(p):
        if all(image[i] == base_word[(t + i) % p] for i in range(len(image))):
            return t
    raise RuntimeError("lift orbit does not project onto the base orbit")



def empirical_counts(arr, alphabet, depth):
    """Window counts of an index array, one bincount per length up to
    ``depth``, keyed by the word."""
    k = len(alphabet)
    counts = {}
    arr = np.asarray(arr, dtype=np.int64)
    for length in range(1, depth + 1):
        if len(arr) < length:
            break
        binned = np.bincount(window_codes(arr, k, length), minlength=k ** length)
        for code_val, count in enumerate(binned):
            if count:
                word = []
                v = code_val
                for _ in range(length):
                    word.append(alphabet[v % k])
                    v //= k
                counts[tuple(reversed(word))] = int(count)
    return counts


class EmpiricalDistribution:
    """Cylinder counts keyed by the word (``empirical_counts``), with the
    frequency, distance, merge and JSON form read one word at a time over
    ``product(alphabet, repeat=l)``."""

    def __init__(self, alphabet, depth, counts, sample_length):
        self.alphabet = tuple(alphabet)
        self.depth = depth
        self.counts = counts
        self.sample_length = sample_length

    @classmethod
    def from_indices(cls, arr, alphabet, depth):
        return cls(alphabet, depth, empirical_counts(arr, alphabet, depth), len(arr))

    def frequency(self, word) -> float:
        word = tuple(word)
        windows = self.sample_length - len(word) + 1
        if windows <= 0:
            return 0.0
        return self.counts.get(word, 0) / windows

    def distance(self, other) -> float:
        depth = min(self.depth, other.depth)
        worst = 0.0
        for length in range(1, depth + 1):
            for word in product(self.alphabet, repeat=length):
                worst = max(worst, abs(self.frequency(word) - other.frequency(word)))
        return worst

    def merged_with(self, other):
        merged = dict(self.counts)
        for word, c in other.counts.items():
            merged[word] = merged.get(word, 0) + c
        return EmpiricalDistribution(self.alphabet, min(self.depth, other.depth),
                                     merged, self.sample_length + other.sample_length)

    def to_json_dict(self, max_length=1):
        freq = {}
        for length in range(1, max_length + 1):
            for word in product(self.alphabet, repeat=length):
                freq[",".join(str(a) for a in word)] = self.frequency(word)
        return {"sample_length": self.sample_length, "frequencies": freq}


def single_linkage(dist, tau):
    """Single-linkage clusters at threshold ``tau`` by union-find over every
    pair i < j, largest first, ties by first member."""
    n = dist.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tau:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return sorted(clusters.values(), key=lambda c: (-len(c), c[0]))


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


def markov_interval_sample_indices(m, length, rng):
    """Each draw's interval index by ``np.searchsorted`` over the distinct
    breakpoints of all rows, then a ``scan`` over the (state × interval)
    table, in int64."""
    n = len(m.alphabet)
    start_p = np.array([float(p) for p in m.stationary])
    start_p /= start_p.sum()
    rows = np.array([[float(p) for p in row] for row in m.matrix])
    rows /= rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(rows, axis=1)
    breaks = np.unique(cum)
    table = np.zeros((n, len(breaks) + 1), dtype=np.int64)
    for s in range(n):
        positive = np.flatnonzero(rows[s])
        table[s, 1:] = np.searchsorted(cum[s], breaks, side="right")
        np.clip(table[s], positive[0], positive[-1], out=table[s])
    draws = rng.random(length)
    first = rng.choice(n, p=start_p)
    out = np.searchsorted(breaks, draws).astype(np.int64, copy=False)
    out[0] = first
    scan(table, out[1:], first, out[1:])
    return out


def bernoulli_sample_indices(m, length, rng):
    """``rng.choice`` with the normalised float probabilities, in int64."""
    p = np.array([float(q) for q in m.probabilities])
    p /= p.sum()
    return rng.choice(len(m.alphabet), size=length, p=p)


def alternating_offset_sample_indices(m, length, rng):
    """The base sample plus c times a ±1 sign built letter by letter, in
    int64."""
    phase = int(rng.integers(2))
    base_idx = m.base.sample_indices(length, rng)
    signs = np.array([1 if (i + phase) % 2 == 0 else -1 for i in range(length)])
    return (base_idx + signs * m.offset) % m.modulus


def co_sample_indices(m, length, rng):
    """The orbit word read from a uniform random phase, letter by letter."""
    idx = m._index()
    r = int(rng.integers(m.orbit.period))
    w = m.orbit.primitive_word
    return np.array([idx[w[(r + t) % m.orbit.period]] for t in range(length)], dtype=np.int64)


def bernoulli_cylinder(m, word):
    """The product of the letters' probabilities; 0 off the alphabet."""
    idx = m._index()
    mass = Fraction(1)
    for a in _as_word(word):
        if a not in idx:
            return Fraction(0)
        mass *= m.probabilities[idx[a]]
    return mass


def markov_cylinder(m, word):
    """The stationary mass of the first letter times the transition
    probabilities along the word; 0 off the alphabet."""
    word = _as_word(word)
    if not word:
        return Fraction(1)
    idx = m._index()
    if any(a not in idx for a in word):
        return Fraction(0)
    mass = m.stationary[idx[word[0]]]
    for a, b in zip(word, word[1:]):
        mass *= m.matrix[idx[a]][idx[b]]
        if mass == 0:
            return Fraction(0)
    return mass


def co_cylinder(m, word):
    """The share of the orbit's phases at which the word is read."""
    word = _as_word(word)
    if not word:
        return Fraction(1)
    w, p = m.orbit.primitive_word, m.orbit.period
    hits = sum(all(word[i] == w[(r + i) % p] for i in range(len(word))) for r in range(p))
    return Fraction(hits, p)


def displaced(m, word, phase):
    """The base word that an alternating-offset measure displaces onto
    ``word`` when its sign at the first letter is (-1)^phase."""
    signs = [1 if (i + phase) % 2 == 0 else -1 for i in range(len(word))]
    return tuple(str((int(a) - sign * m.offset) % m.modulus) for a, sign in zip(word, signs))


def cylinder_at_phase(m, word, phase):
    """An alternating-offset cylinder averaged over the two sign phases,
    starting the first at ``phase``."""
    word = _as_word(word)
    return Fraction(1, 2) * (cylinder(m.base, displaced(m, word, phase))
                             + cylinder(m.base, displaced(m, word, phase + 1)))


def pushforward_cylinder(m, code, w):
    """(pi_* m)([w]_0): the base mass of the set of preimage words, exact."""
    return sum((cylinder(m, u) for u in preimage_words(code, _as_word(w))), Fraction(0))


def cylinder(m, word):
    """The cylinder of a measure by its class's own formula: the per-class
    bodies that the hidden-chain forward recursion replaced."""
    if isinstance(m, BernoulliMeasure):
        return bernoulli_cylinder(m, word)
    if isinstance(m, MarkovMeasure):
        return markov_cylinder(m, word)
    if isinstance(m, COMeasure):
        return co_cylinder(m, word)
    if isinstance(m, PushforwardMeasure):
        return pushforward_cylinder(m.base, m.block_code, word)
    if isinstance(m, AlternatingOffsetMeasure):
        return cylinder_at_phase(m, word, 0)
    raise TypeError(f"no per-class cylinder for {type(m).__name__}")


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


def support_transitions(m: MarkovMeasure):
    """The transitions of a Markov measure's support: the 2-words of positive mass."""
    idx = m._index()
    return {(a, b) for a in m.alphabet for b in m.alphabet
            if m.stationary[idx[a]] * m.matrix[idx[a]][idx[b]] > 0}


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
        graph = LabeledGraph(states, support_transitions(nu),
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
            support = support_transitions(base)
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
            support = support_transitions(base) & graph.transitions
            restricted = LabeledGraph(_support_states(base), support,
                                      {s: graph.label[s] for s in _support_states(base)},
                                      graph.y_symbols)
        else:
            raise TypeError("pushforward support needs a Bernoulli or Markov base")
    return determinize(restricted)


def fiber_product(g: LabeledGraph, n: int, distinct: bool = False) -> LabeledGraph:
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
    alive = essential_symbols(symbols, trans)
    if not alive:
        raise NotInImage("fiber product is empty after trimming")
    symbols = [t for t in symbols if t in alive]
    trans = {(u, v) for u, v in trans if u in alive and v in alive}
    label = {t: g.label[t[0]] for t in symbols}
    return LabeledGraph(symbols, trans, label, g.y_symbols)


def least_rotation(word, order=None):
    """Start index of the least rotation of a word, comparing symbols by
    ``order`` (symbol -> rank) when given, else by their own ordering."""
    rank = (lambda w: tuple(order[s] for s in w)) if order else (lambda w: w)
    return min(range(len(word)), key=lambda i: rank(word[i:] + word[:i]))


def booth_least_rotation(word, order=None):
    """Start index of the least rotation of a word, comparing symbols by
    ``order`` (symbol -> rank) when given, else by their own ordering; the
    smallest such index when several rotations are equal.  Booth's algorithm
    (Booth, "Lexicographically least circular substrings", IPL 1980): a
    failure function over the doubled word, O(p) comparisons for a word of
    length p, run only on a tie for the least symbol."""
    ranks = [order[s] for s in word] if order else list(word)
    least = min(ranks, default=None)
    if ranks.count(least) == 1:
        return ranks.index(least)
    ranks += ranks
    fail = [-1] * len(ranks)
    k = 0                                   # start of the least rotation so far
    for j in range(1, len(ranks)):
        c = ranks[j]
        i = fail[j - k - 1]
        while i != -1 and c != ranks[k + i + 1]:
            if c < ranks[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != ranks[k + i + 1]:           # here i == -1
            if c < ranks[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def recode_to_one_block(code: SlidingBlockCode) -> OneBlockRecoding:
    """Higher-block presentation of a sliding block code, comparing every
    pair of blocks for overlap."""
    symbols = sorted(code._allowed_words(code.width), key=code._word_key)
    trans = {(u, v) for u in symbols for v in symbols
             if u[1:] == v[:-1] and (u[-1], v[-1]) in code.transitions}
    label = {u: code.block_map[u] for u in symbols}
    graph = LabeledGraph(symbols, trans, label, code.y_symbols)
    return OneBlockRecoding(graph=graph, offset=code.memory, base_alphabet=code.alphabet)


def composed_scan(step, inputs, start, out):
    """``graphs.scan`` by composing each chunk's whole (states + 1)-entry
    map for all about √T chunks at once, resolving the entry states in one
    pass and replaying every chunk: O(T · states)."""
    states = len(step)
    # row -1 is the dead state; a -1 entry indexes it too
    table = np.vstack([step, np.full((1, step.shape[1]), -1, dtype=step.dtype)])
    total = len(inputs)
    width = max(1, isqrt(total))
    chunks = total // width
    body = chunks * width
    blocks = inputs[:body].reshape(chunks, width)
    maps = np.broadcast_to(np.arange(states + 1), (chunks, states + 1))
    for i in range(width):
        maps = table[maps, blocks[:, i, None]]
    entry = np.empty(chunks, dtype=np.int64)
    state = start
    for c, row in enumerate(maps.tolist()):
        entry[c] = state
        state = row[state]
    replay = out[:body].reshape(chunks, width)
    for i in range(width):
        entry = table[entry, blocks[:, i]]
        replay[:, i] = entry
    rows = table.tolist()
    for t in range(body, total):
        state = rows[state][inputs[t]]
        out[t] = state
    return state


def sorted_successors(g: LabeledGraph):
    """Map symbol -> its successors, in symbol order, by one sort of all
    transitions keyed by an (index, index) pair."""
    succ = {s: [] for s in g.x_symbols}
    for a, b in sorted(g.transitions, key=lambda e: (g.index[e[0]], g.index[e[1]])):
        succ[a].append(b)
    return succ


def sorted_predecessors(g: LabeledGraph):
    """Map symbol -> its predecessors, in symbol order, by one sort of all
    transitions."""
    pred = {s: [] for s in g.x_symbols}
    for a, b in sorted(g.transitions, key=lambda e: (g.index[e[1]], g.index[e[0]])):
        pred[b].append(a)
    return pred


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


def queue_essential_symbols(symbols, transitions):
    """The symbols on bi-infinite paths: what is left after removing, again
    and again, every symbol with no predecessor or no successor among the
    rest.  The removal runs as a queue of the symbols whose in- or
    out-degree has dropped to 0, so the cost is O(V + E)."""
    alive = set(symbols)
    edges = [(a, b) for a, b in transitions if a in alive and b in alive]
    queue = list((alive - {a for a, _ in edges}) | (alive - {b for _, b in edges}))
    if not queue:
        return alive
    alive.difference_update(queue)
    outs, ins = {}, {}
    for a, b in edges:
        outs.setdefault(a, []).append(b)
        ins.setdefault(b, []).append(a)
    outdeg = {s: len(succ) for s, succ in outs.items()}
    indeg = {s: len(pred) for s, pred in ins.items()}
    while queue:
        s = queue.pop()
        for t in outs.get(s, ()):
            indeg[t] -= 1
            if not indeg[t] and t in alive:
                alive.remove(t)
                queue.append(t)
        for t in ins.get(s, ()):
            outdeg[t] -= 1
            if not outdeg[t] and t in alive:
                alive.remove(t)
                queue.append(t)
    return alive


def tuple_fiber_product(g: LabeledGraph, n: int, distinct: bool = False) -> LabeledGraph:
    """The 1-step SFT of equal-label n-tuples (pairwise-distinct entries
    when ``distinct``), trimmed to its essential part.

    Built on tuples of symbol indices (index order is symbol order) and
    converted to symbols once.  A tuple's successors under label y are the
    product of its coordinates' y-labelled successor lists (Lind & Marcus,
    §9.1), built coordinate by coordinate: O(n) per tuple, label and
    (partial) successor tuple; distinct tuples are permutations of a class."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    table = g.letter_successors
    ids = []
    for cls in table[len(g.x_symbols)]:
        ids.extend(permutations(cls, n) if distinct else product(cls, repeat=n))
    ids.sort()
    trans = []
    for u in ids:
        outs = [table[a] for a in u]
        for y in range(len(g.y_symbols)):
            tails = [()]
            for out in outs:        # extend coordinate by coordinate, pruning repeats
                tails = [t + (b,) for t in tails for b in out[y] if not (distinct and b in t)]
            trans.extend((u, v) for v in tails)
    alive = queue_essential_symbols(ids, trans)
    if not alive:
        raise NotInImage("fiber product is empty after trimming")
    symbol = {u: tuple(g.x_symbols[i] for i in u) for u in ids if u in alive}
    return LabeledGraph(symbol.values(),
                        [(symbol[u], symbol[v]) for u, v in trans if u in alive and v in alive],
                        {t: g.label[t[0]] for t in symbol.values()}, g.y_symbols)


def tuple_analyze_graph(g: LabeledGraph) -> StructureReport:
    """Trim to the essential part, decompose into SCCs, report periods."""
    alive = queue_essential_symbols(g.x_symbols, g.transitions)
    if not alive:
        raise EmptyAfterTrim("no bi-infinite path exists")
    trimmed = tuple(s for s in g.x_symbols if s not in alive)
    essential = g.restrict(alive) if trimmed else g
    succ = sorted_successors(essential)
    comps = tarjan_scc(essential.x_symbols, succ)
    comps = [tuple(sorted(c, key=essential.index.get)) for c in comps]
    comps.sort(key=lambda c: essential.index[c[0]])
    periods = tuple(component_period(list(c), succ) for c in comps)
    return StructureReport(
        essential=essential,
        is_essential=not trimmed,
        trimmed_symbols=trimmed,
        components=tuple(comps),
        is_irreducible=len(comps) == 1 and len(comps[0]) == len(essential.x_symbols),
        periods=periods,
    )
