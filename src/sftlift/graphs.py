"""Vertex-labeled graph presentations of 1-step SFTs and 1-block codes.

A ``LabeledGraph`` is a directed graph on an ordered symbol set together
with a total vertex labeling into an image alphabet.  It simultaneously
presents a 1-step shift of finite type (the bi-infinite paths) and a
1-block factor code onto a sofic image shift (read the labels).  Sliding
block codes with memory/anticipation are brought into this normal form by
``recode_to_one_block``.

Symbols are opaque hashable tokens; every "lexicographic" choice in the
package uses the input order of ``x_symbols``, which keeps all outputs
deterministic across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, isqrt, log

import numpy as np

from .errors import EmptyAfterTrim, InputError, NotIrreducible

ENTROPY_TOL = 1e-12
ENTROPY_MAX_ITER = 10**6


def _as_word(word):
    """Normalize a word to a tuple of symbols (a str is read char by char)."""
    if isinstance(word, tuple):
        return word
    return tuple(word)


class LabeledGraph:
    """A 1-step SFT with a vertex labeling: the data of a 1-block factor code.

    Values are immutable after construction and safe to share between
    concurrent readers.
    """

    def __init__(self, x_symbols, transitions, label, y_symbols=None):
        self.x_symbols = tuple(x_symbols)
        if len(set(self.x_symbols)) != len(self.x_symbols):
            raise InputError("x_symbols: duplicate symbols")
        symset = set(self.x_symbols)
        self.transitions = frozenset((a, b) for a, b in transitions)
        for a, b in self.transitions:
            if a not in symset or b not in symset:
                raise InputError(f"transitions: ({a!r}, {b!r}) uses a symbol not in x_symbols")
        self.label = dict(label)
        missing = symset - set(self.label)
        if missing:
            raise InputError(f"label: not total, missing {sorted(map(str, missing))}")
        if y_symbols is None:
            seen = []
            for s in self.x_symbols:
                y = self.label[s]
                if y not in seen:
                    seen.append(y)
            y_symbols = seen
        self.y_symbols = tuple(y_symbols)
        if set(self.label[s] for s in self.x_symbols) - set(self.y_symbols):
            raise InputError("label: value outside y_symbols")

    @cached_property
    def index(self):
        return {s: i for i, s in enumerate(self.x_symbols)}

    @cached_property
    def successors(self):
        succ = {s: [] for s in self.x_symbols}
        for a, b in sorted(self.transitions, key=lambda e: (self.index[e[0]], self.index[e[1]])):
            succ[a].append(b)
        return succ

    @cached_property
    def predecessors(self):
        pred = {s: [] for s in self.x_symbols}
        for a, b in sorted(self.transitions, key=lambda e: (self.index[e[1]], self.index[e[0]])):
            pred[b].append(a)
        return pred

    @cached_property
    def label_classes(self):
        """Map y-symbol -> list of x-symbols carrying that label, in order."""
        classes = {y: [] for y in self.y_symbols}
        for s in self.x_symbols:
            classes[self.label[s]].append(s)
        return classes

    @cached_property
    def forward_automaton(self):
        """The forward ``SubsetAutomaton``, shared by ``determinize`` and the
        magic-word search."""
        return SubsetAutomaton(self)

    def adjacency_matrix(self):
        n = len(self.x_symbols)
        mat = np.zeros((n, n), dtype=np.int64)
        for a, b in self.transitions:
            mat[self.index[a], self.index[b]] = 1
        return mat

    def restrict(self, symbols):
        wanted = set(symbols)
        keep = [s for s in self.x_symbols if s in wanted]
        trans = {(a, b) for a, b in self.transitions if a in wanted and b in wanted}
        return LabeledGraph(keep, trans, {s: self.label[s] for s in keep}, self.y_symbols)

    def is_word(self, word):
        """True when the word is an allowed path of the graph."""
        word = _as_word(word)
        if any(s not in self.index for s in word):
            return False
        return all((a, b) in self.transitions for a, b in zip(word, word[1:]))

    def __repr__(self):
        return (f"LabeledGraph({len(self.x_symbols)} symbols, "
                f"{len(self.transitions)} transitions, image alphabet {list(self.y_symbols)!r})")

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self.x_symbols == other.x_symbols and self.transitions == other.transitions
                and self.label == other.label and self.y_symbols == other.y_symbols)

    __hash__ = None

    def to_json_dict(self):
        name = {s: render_symbol(s) for s in self.x_symbols}
        return {
            "x_symbols": [name[s] for s in self.x_symbols],
            "transitions": sorted([name[a], name[b]] for a, b in self.transitions),
            "label": {name[s]: str(self.label[s]) for s in self.x_symbols},
            "y_symbols": [str(y) for y in self.y_symbols],
        }

    @classmethod
    def from_json_dict(cls, data):
        if not data["x_symbols"]:
            raise InputError("x_symbols: empty symbol set")
        return cls(data["x_symbols"],
                   [tuple(e) for e in data["transitions"]],
                   data["label"],
                   data.get("y_symbols"))


def render_symbol(sym):
    """Render a symbol for export; tuple symbols become 'a|b|c'."""
    if isinstance(sym, tuple):
        return "|".join(render_symbol(s) for s in sym)
    return str(sym)


def full_shift(alphabet):
    """The full shift on the given alphabet with the identity labeling."""
    alphabet = tuple(alphabet)
    return LabeledGraph(alphabet, set(product(alphabet, repeat=2)),
                        {a: a for a in alphabet}, alphabet)


def least_rotation(word, order=None):
    """Start index of the least rotation of a word, comparing symbols by
    ``order`` (symbol -> rank) when given, else by their own ordering; the
    smallest such index when several rotations are equal.

    Booth's algorithm (Booth, "Lexicographically least circular
    substrings", IPL 1980): a failure function over the doubled word, O(p)
    comparisons for a word of length p."""
    ranks = [order[s] for s in word] if order else list(word)
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


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit named by its lexicographically least primitive word."""

    primitive_word: tuple
    period: int

    @classmethod
    def from_word(cls, word, order=None):
        """Canonicalize any cyclic word: reduce to the primitive root, then
        take the least rotation under the given symbol order (input order)."""
        word = _as_word(word)
        if not word:
            raise InputError("orbit: empty orbit word")
        n = len(word)
        for p in range(1, n + 1):
            if n % p == 0 and word == word[:p] * (n // p):
                word = word[:p]
                break
        i = least_rotation(word, order)
        return cls(word[i:] + word[:i], len(word))

    def points(self):
        """The orbit's points as anchored rotations of the primitive word."""
        w = self.primitive_word
        return [w[i:] + w[:i] for i in range(self.period)]

    def repeat_to(self, length):
        w = self.primitive_word
        reps = -(-length // self.period)
        return (w * reps)[:length]


@dataclass(frozen=True)
class StructureReport:
    """Trimmed essential form plus connectivity data of a labeled graph."""

    essential: LabeledGraph
    is_essential: bool
    trimmed_symbols: tuple
    components: tuple          # tuple of tuples of symbols, in symbol order
    is_irreducible: bool
    periods: tuple             # per component, gcd of its cycle lengths


def _essential_symbols(symbols, transitions):
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


def _tarjan_scc(order, succ):
    """Iterative Tarjan; components returned in a deterministic order."""
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


def _component_period(comp, succ):
    """gcd of cycle lengths inside one strongly connected component."""
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


def analyze_graph(g: LabeledGraph) -> StructureReport:
    """Trim to the essential part, decompose into SCCs, report periods."""
    alive = _essential_symbols(g.x_symbols, g.transitions)
    if not alive:
        raise EmptyAfterTrim("no bi-infinite path exists")
    trimmed = tuple(s for s in g.x_symbols if s not in alive)
    essential = g.restrict(alive) if trimmed else g
    comps = _tarjan_scc(essential.x_symbols, essential.successors)
    comps = [tuple(sorted(c, key=essential.index.get)) for c in comps]
    comps.sort(key=lambda c: essential.index[c[0]])
    periods = tuple(_component_period(list(c), essential.successors) for c in comps)
    return StructureReport(
        essential=essential,
        is_essential=not trimmed,
        trimmed_symbols=trimmed,
        components=tuple(comps),
        is_irreducible=len(comps) == 1 and len(comps[0]) == len(essential.x_symbols),
        periods=periods,
    )


def perron_value(matrix) -> float:
    """Perron eigenvalue of a non-negative irreducible integer matrix.

    Power iteration on A + I (primitive whenever A is irreducible, so the
    iteration converges even for periodic graphs) with the Collatz-Wielandt
    bracket min_i (Av)_i/v_i <= lambda <= max_i (Av)_i/v_i as the stopping
    test; the bracket is closed to width ENTROPY_TOL.
    """
    mat = np.asarray(matrix, dtype=float)
    n = mat.shape[0]
    shifted = mat + np.eye(n)
    v = np.ones(n)
    for _ in range(ENTROPY_MAX_ITER):
        w = shifted @ v
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= ENTROPY_TOL * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0
        v = w / w.max()
    raise RuntimeError("power iteration did not converge")


def entropy(g: LabeledGraph) -> float:
    """Topological entropy (nats) of the SFT presented by an irreducible graph."""
    report = analyze_graph(g)
    if not report.is_irreducible or not report.is_essential:
        raise NotIrreducible("entropy requires an essential irreducible graph")
    return log(perron_value(g.adjacency_matrix()))


class SlidingBlockCode:
    """A block map with memory m and anticipation n on a 1-step domain.

    ``block_map`` must be total on the allowed (m+n+1)-words of the domain.
    The domain defaults to the full shift on ``alphabet``; an explicit
    transition list carves out a proper 1-step SFT.
    """

    def __init__(self, memory, anticipation, alphabet, block_map, transitions=None):
        if memory < 0 or anticipation < 0:
            raise InputError(f"memory and anticipation must be non-negative, "
                             f"got {memory} and {anticipation}")
        self.memory = int(memory)
        self.anticipation = int(anticipation)
        self.alphabet = tuple(alphabet)
        if transitions is None:
            transitions = set(product(self.alphabet, repeat=2))
        self.transitions = frozenset((a, b) for a, b in transitions)
        self.block_map = {_as_word(k): v for k, v in block_map.items()}
        width = self.memory + self.anticipation + 1
        for word in self._allowed_words(width):
            if word not in self.block_map:
                raise InputError(f"block_map: missing allowed word {word!r}")
        seen = []
        for word in sorted(self.block_map, key=self._word_key):
            y = self.block_map[word]
            if y not in seen:
                seen.append(y)
        self.y_symbols = tuple(seen)

    def _word_key(self, word):
        idx = {s: i for i, s in enumerate(self.alphabet)}
        return tuple(idx[s] for s in word)

    @property
    def width(self):
        return self.memory + self.anticipation + 1

    @cached_property
    def recoding(self) -> OneBlockRecoding:
        """The 1-block recoding, built once per code: cylinders, samples and
        the support of pushforward measures all read it."""
        return recode_to_one_block(self)

    def domain_graph(self):
        return LabeledGraph(self.alphabet, self.transitions,
                            {a: a for a in self.alphabet}, self.alphabet)

    def _allowed_words(self, length):
        if length == 0:
            yield ()
            return
        words = [(s,) for s in self.alphabet]
        for _ in range(length - 1):
            words = [w + (b,) for w in words for b in self.alphabet if (w[-1], b) in self.transitions]
        yield from words

    def apply(self, word):
        """Image of a word; the result is shorter by memory + anticipation."""
        word = _as_word(word)
        if len(word) < self.width:
            raise ValueError("word shorter than the block width")
        return tuple(self.block_map[word[i:i + self.width]] for i in range(len(word) - self.width + 1))

    @classmethod
    def from_json_dict(cls, data):
        alphabet = tuple(data["alphabet"])
        multi = any(len(str(s)) > 1 for s in alphabet)
        def parse_key(k):
            return tuple(k.split(",")) if multi else tuple(k)
        block_map = {parse_key(k): v for k, v in data["block_map"].items()}
        transitions = data.get("transitions")
        if transitions is not None:
            transitions = [tuple(e) for e in transitions]
        return cls(data["memory"], data["anticipation"], alphabet, block_map, transitions)


@dataclass(frozen=True)
class OneBlockRecoding:
    """A 1-block presentation of a sliding block code via higher blocks.

    The recoded symbols are the allowed (m+n+1)-words of the domain; the
    presented shift is conjugate to the domain and carries the same factor
    onto Y up to an index shift by ``offset`` (= the memory m).  The offset
    is what lets fibers computed on the recoded code be translated back.
    """

    graph: LabeledGraph
    offset: int
    base_alphabet: tuple

    def base_letter(self, block_symbol):
        """The domain letter this block symbol contributes at its own time."""
        return block_symbol[self.offset]

    def base_word(self, block_word):
        """Translate a recoded word back to a same-length domain word."""
        return tuple(self.base_letter(b) for b in block_word)

    def base_orbit(self, orbit: PeriodicOrbit) -> PeriodicOrbit:
        order = {s: i for i, s in enumerate(self.base_alphabet)}
        return PeriodicOrbit.from_word(self.base_word(orbit.primitive_word), order)


def recode_to_one_block(code: SlidingBlockCode) -> OneBlockRecoding:
    """Higher-block presentation turning any sliding block code into a
    vertex-labeled graph (symbols = allowed (m+n+1)-words, transitions =
    overlaps).  Blocks are indexed by their (m+n)-prefix, so the cost is
    O(N + E) for N blocks and E transitions, not O(N²)."""
    symbols = sorted(code._allowed_words(code.width), key=code._word_key)
    by_prefix = {}
    for v in symbols:
        by_prefix.setdefault(v[:-1], []).append(v)
    # consecutive blocks overlap in all but one letter, and the pair they
    # add is a domain transition (implied by v being allowed when width > 1)
    trans = {(u, v) for u in symbols for v in by_prefix.get(u[1:], ())
             if (u[-1], v[-1]) in code.transitions}
    label = {u: code.block_map[u] for u in symbols}
    graph = LabeledGraph(symbols, trans, label, code.y_symbols)
    return OneBlockRecoding(graph=graph, offset=code.memory, base_alphabet=code.alphabet)


class SubsetAutomaton:
    """The label-driven subset construction of a labeled graph (Lind &
    Marcus, *An Introduction to Symbolic Dynamics and Coding*, §3.3).

    State k stands for the nonempty symbol set ``subsets[k]`` (a tuple in
    symbol order): the symbols at which some path carrying the label word
    ``witness[k]`` ends, or with ``backward`` starts.  The initial states
    are the nonempty label classes in image-alphabet order (``initial[j]``
    is the state of ``y_symbols[j]``, -1 when its class is empty); the other
    states are numbered in breadth-first discovery order, so each witness is
    a shortest such word.  ``step[k, j]`` is the state reached by reading
    ``y_symbols[j]`` after the word (before it with ``backward``), -1 when no
    path carries the longer word.
    """

    def __init__(self, graph: LabeledGraph, backward=False):
        idx = graph.index
        nbrs = graph.predecessors if backward else graph.successors
        reach = [sum(1 << idx[t] for t in nbrs[s]) for s in graph.x_symbols]
        classes = [sum(1 << idx[s] for s in graph.label_classes[y]) for y in graph.y_symbols]
        ids = {}
        masks = []
        self.witness = []

        def intern(mask, word):
            ids[mask] = len(masks)
            masks.append(mask)
            self.witness.append(word)
            return ids[mask]

        self.initial = [intern(c, (y,)) if c else -1 for y, c in zip(graph.y_symbols, classes)]
        rows = []
        for mask, word in zip(masks, self.witness):     # both grow while read
            out = 0
            for i in range(mask.bit_length()):
                if mask >> i & 1:
                    out |= reach[i]
            row = []
            for y, cls in zip(graph.y_symbols, classes):
                nxt = out & cls
                if not nxt:
                    row.append(-1)
                elif nxt in ids:
                    row.append(ids[nxt])
                else:
                    row.append(intern(nxt, (y,) + word if backward else word + (y,)))
            rows.append(row)
        self.step = np.array(rows, dtype=np.int64)
        self.subsets = [tuple(s for i, s in enumerate(graph.x_symbols) if m >> i & 1)
                        for m in masks]


def scan(step, inputs, start, out):
    """Run a deterministic automaton over an input array: ``out[t] =
    step[out[t-1], inputs[t]]`` with ``out[-1]`` read as ``start``.
    Returns the last state (``start`` for empty input).

    ``step`` is a dense ``(states × symbols)`` int table in which -1 means
    no transition.  A missing transition leads to an absorbing dead state,
    written as -1, so a caller only needs to check the last state.  ``out``
    is the caller's buffer and may be ``inputs`` itself: every input is read
    before its slot is written.

    The scan is data-parallel (Mytkowicz, Musuvathi & Schulte,
    "Data-Parallel Finite-State Machines", ASPLOS 2014): the input is cut
    into about √T chunks of √T symbols; each chunk's map from entry to exit
    state is composed for all chunks at once, the chunk entry states are
    resolved in one pass over the chunks, and the chunks are replayed
    together from their entry states.  Every numpy call covers all chunks,
    so the interpreter runs O(√T) steps and numpy O(T · states) work.
    """
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
        comps = _tarjan_scc(self.states, self._successors)
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

def determinize(g: LabeledGraph) -> RightResolvingPresentation:
    """Subset construction over label words, trimmed to its essential part so
    every finite run extends bi-infinitely; the result presents exactly the
    image shift of ``g`` and is what ``entropy`` of the image is computed on."""
    ess = analyze_graph(g).essential
    aut = ess.forward_automaton
    rows = aut.step.tolist()
    alive = _essential_symbols(range(len(rows)), [(k, t) for k, row in enumerate(rows)
                                                  for t in row if t >= 0])
    order = ess.index
    states = sorted(alive, key=lambda k: tuple(order[s] for s in aut.subsets[k]))
    step = {(aut.subsets[k], y): aut.subsets[t] for k in states
            for y, t in zip(ess.y_symbols, rows[k]) if t in alive}
    return RightResolvingPresentation([aut.subsets[k] for k in states], step, ess.y_symbols)


def enumerate_periodic_orbits(g: LabeledGraph, max_period: int):
    """All orbits of the SFT with least period <= max_period, each reported
    once via its lexicographically least primitive word."""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    order = g.index
    orbits = set()
    for start in g.x_symbols:
        stack = [(start, (start,))]
        while stack:
            current, word = stack.pop()
            if (current, start) in g.transitions:
                orbits.add(PeriodicOrbit.from_word(word, order))
            if len(word) >= max_period:
                continue
            for nxt in reversed(g.successors[current]):
                stack.append((nxt, word + (nxt,)))
    return sorted(orbits, key=lambda o: (o.period, tuple(order[s] for s in o.primitive_word)))


def to_dot(g: LabeledGraph) -> str:
    lines = ["digraph shift {"]
    for s in g.x_symbols:
        lines.append(f'  "{render_symbol(s)}" [label="{render_symbol(s)} / {g.label[s]}"];')
    for a, b in sorted(g.transitions, key=lambda e: (g.index[e[0]], g.index[e[1]])):
        lines.append(f'  "{render_symbol(a)}" -> "{render_symbol(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_json(path, parse):
    """``parse`` applied to the JSON object in a file.  A file that cannot be
    read, text that is not a JSON object and a missing key are refused with
    an InputError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError(f"{path} lacks the key {exc.args[0]!r}") from None


def load_graph_or_code(path):
    """Read a JSON input file holding either a labeled graph or a sliding
    block code; codes are recoded to their 1-block presentation."""
    code = load_json(path, lambda data: (SlidingBlockCode if "block_map" in data
                                         else LabeledGraph).from_json_dict(data))
    if isinstance(code, SlidingBlockCode):
        return code.recoding, code
    return code, None
