"""Vertex-labeled graph presentations of 1-step SFTs and 1-block codes.

A ``LabeledGraph`` is a directed graph on an ordered symbol set together
with a total vertex labeling into an image alphabet.  It simultaneously
presents a 1-step shift of finite type (the bi-infinite paths) and a
1-block factor code onto a sofic image shift (read the labels).  Every code
is read through its ``recoding``: a graph is its own, and a sliding block
code is brought into this normal form by ``recode_to_one_block``.

Symbols are opaque hashable tokens; every "lexicographic" choice in the
package uses the input order of ``x_symbols``, which keeps all outputs
deterministic across runs.  The ``edges`` feed one array index,
``_successor_index``, and one gather, ``_gather``, which every array walk
reads, the prenecklace sweep of the periodic lifts ``_phased_lifts`` too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from math import isqrt, log

import numpy as np

from .errors import EmptyAfterTrim, FiberInfinite, InputError, NotIrreducible, PreconditionError

ENTROPY_TOL = 1e-12
ENTROPY_MAX_ITER = 10**6
# The most states a SubsetAutomaton builds: the subset construction of a
# graph on n symbols can reach 2**n - 1 states.
MAX_SUBSET_STATES = 2**15
# About the most rows ``_phased_lifts`` extends at once in the last period, in whole words.
LIFT_BATCH = 2**10
BLOCK = 2**15     # the elements a blocked loop (``_blocks``) maps at a time


def _as_word(word):
    """Normalize a word to a tuple of symbols (a str is read char by char)."""
    if isinstance(word, tuple):
        return word
    return tuple(word)


class LabeledGraph:
    """A 1-step SFT with a vertex labeling: the data of a 1-block factor code.

    Values are immutable after construction and safe to share between
    concurrent readers.  A caller that holds the ``edges`` may pass them.
    """

    def __init__(self, x_symbols, transitions, label, y_symbols=None, edges=None):
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
            y_symbols = dict.fromkeys(self.label[s] for s in self.x_symbols)
        self.y_symbols = tuple(y_symbols)
        if len(set(self.y_symbols)) != len(self.y_symbols):
            raise InputError("y_symbols: duplicate symbols")
        if set(self.label[s] for s in self.x_symbols) - set(self.y_symbols):
            raise InputError("label: value outside y_symbols")
        if edges is not None:
            self.edges = edges

    @cached_property
    def index(self):
        return {s: i for i, s in enumerate(self.x_symbols)}

    @cached_property
    def edges(self):
        """The transitions as (source, target) index arrays, in index order."""
        pairs = sorted((self.index[a], self.index[b]) for a, b in self.transitions)
        return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    @cached_property
    def label_ids(self):
        """Each symbol's label as an index into ``y_symbols``, an int64 array."""
        column = {y: j for j, y in enumerate(self.y_symbols)}
        return np.array([column[self.label[s]] for s in self.x_symbols], dtype=np.int64)

    @cached_property
    def successor_index(self):
        """``_successor_index`` of the edges: cell i·k + j lists the successors of
        symbol i labeled ``y_symbols[j]``, row ``len(x_symbols)`` the label classes."""
        return _successor_index(self.label_ids, len(self.y_symbols), *self.edges)

    @property
    def recoding(self):
        """Its own width-1 recoding, built per read: a cached one would form a cycle."""
        return OneBlockRecoding(self, 0, self.x_symbols, tuple((s,) for s in self.x_symbols))

    @cached_property
    def essential_mask(self):
        """Which symbols lie on bi-infinite paths: ``_essential_mask`` of the edges."""
        return _essential_mask(len(self.x_symbols), *self.edges)

    @cached_property
    def _essential(self):   # restricted once, so that its readers share its cached automata
        return self.restrict(s for s, a in zip(self.x_symbols, self.essential_mask.tolist()) if a)

    @cached_property
    def forward_automaton(self):
        """The forward ``SubsetAutomaton``, shared by ``determinize``, the degree and
        the full-support check."""
        return SubsetAutomaton(self.label_ids, self.y_symbols, self.edges)

    def adjacency_matrix(self):
        n = len(self.x_symbols)
        mat = np.zeros((n, n), dtype=np.int64)
        mat[self.edges] = 1
        return mat

    def restrict(self, symbols):
        wanted = set(symbols)
        keep = [s for s in self.x_symbols if s in wanted]
        trans = {(a, b) for a, b in self.transitions if a in wanted and b in wanted}
        return LabeledGraph(keep, trans, {s: self.label[s] for s in keep}, self.y_symbols)

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
        names = [render_symbol(s) for s in self.x_symbols]
        src, dst = (e.tolist() for e in self.edges)
        return {
            "x_symbols": names,
            "transitions": sorted([names[a], names[b]] for a, b in zip(src, dst)),
            "label": {n: str(self.label[s]) for s, n in zip(self.x_symbols, names)},
            "y_symbols": [str(y) for y in self.y_symbols],
        }

    @classmethod
    def from_json_dict(cls, data):
        x_symbols = _json_list(data, "x_symbols")
        if not x_symbols:
            raise InputError("x_symbols: empty symbol set")
        label = data["label"]
        if not isinstance(label, dict) or not all(isinstance(y, str) for y in label.values()):
            raise InputError("label: must map each symbol to a string")
        return cls(x_symbols, _json_pairs(data["transitions"]), label,
                   _json_list(data, "y_symbols", optional=True))


def _json_list(data, field, optional=False):
    """``data[field]`` as a tuple, refusing a value that is not a list of
    strings and numbers; an optional field may be absent or null (None)."""
    value = data.get(field) if optional else data[field]
    if optional and value is None:
        return None
    if not isinstance(value, list) or any(isinstance(s, (list, dict)) for s in value):
        raise InputError(f"{field}: expected a list of strings or numbers, got {value!r}")
    return tuple(value)


def _json_pairs(entries):
    """A JSON ``transitions`` list as pairs, refusing an entry that is not one."""
    if not isinstance(entries, list):
        raise InputError(f"transitions: expected a list of pairs, got {entries!r}")
    for e in entries:
        if not (isinstance(e, list) and len(e) == 2) or any(isinstance(s, (list, dict)) for s in e):
            raise InputError(f"transitions: entry {e!r} is not a pair of symbols")
    return [tuple(e) for e in entries]


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
    smallest such index when several rotations are equal."""
    order = order or {s: r for r, s in enumerate(sorted(set(word)))}
    return int(_least_starts(np.array([[order[s] for s in word]]))[0])


def _least_starts(words):
    """The (smallest) start of the least rotation of each row of ``words``: the
    candidate starts hold the row's least entry, dropped column by column."""
    m = words.shape[1]
    row, start = np.nonzero(words == words.min(axis=1, keepdims=True))
    for c in range(1, m):
        tied = np.bincount(row, minlength=len(words))[row] > 1
        if not tied.any():
            break
        entry, least = words[row, (start + c) % m], words.max(axis=1)
        np.minimum.at(least, row[tied], entry[tied])
        keep = ~tied | (entry == least[row])
        row, start = row[keep], start[keep]
    return start[np.unique(row, return_index=True)[1]]


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


@dataclass(frozen=True)
class StructureReport:
    """Trimmed essential form plus connectivity data of a labeled graph."""

    essential: LabeledGraph
    is_essential: bool
    trimmed_symbols: tuple
    components: tuple          # tuple of tuples of symbols, in symbol order
    is_irreducible: bool
    periods: tuple             # per component, gcd of its cycle lengths


def _successor_lists(n, src, dst):
    """``succ[v]`` lists the targets of the edges src[k] -> dst[k] leaving vertex
    v of 0..n-1, in edge order: compressed rows of one stable sort by source."""
    order = np.argsort(src, kind="stable")
    bounds = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    targets = dst[order].tolist()
    return [targets[a:b] for a, b in zip(bounds, bounds[1:])]


def _successor_index(labels, k, src, dst):
    """``(bounds, targets)``: cell c = source·k + labels[target] lists the
    targets[bounds[c]:bounds[c + 1]] of the edges src -> dst on 0..n-1 in edge
    order, and a start row n = len(labels) the label classes."""
    n = len(labels)
    src, dst = np.concatenate([src, np.full(n, n)]), np.concatenate([dst, np.arange(n)])
    cell = src * k + labels[dst]
    order = np.argsort(cell, kind="stable")
    return np.searchsorted(cell[order], np.arange((n + 1) * k + 1)), dst[order]


def _gather(index, lo, hi):
    """``(rows, targets)``: the targets in the cells lo[i]..hi[i] - 1 of ``index``, with their i."""
    bounds, targets = index
    first, count = bounds[lo], bounds[hi] - bounds[lo]
    at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    return np.repeat(np.arange(len(first)), count), targets[at]


def _essential_mask(n, src, dst):
    """Which of n vertices lie on bi-infinite paths along the edges src[k]
    -> dst[k], by degree peeling: ``bincount`` counts the degrees, and a
    queue removes each vertex whose in- or out-degree drops to 0.  Python
    work is spent only on the removed vertices and their edges."""
    in_deg, out_deg = np.bincount(dst, minlength=n), np.bincount(src, minlength=n)
    alive = (in_deg > 0) & (out_deg > 0)
    queue = np.flatnonzero(~alive).tolist()
    if not queue:
        return alive
    # a removed vertex lowers the in-degrees of its targets, the out-degrees of its sources
    sides = [(_successor_lists(n, src, dst), in_deg.tolist()),
             (_successor_lists(n, dst, src), out_deg.tolist())]
    alive = alive.tolist()
    while queue:
        s = queue.pop()
        for ends, degree in sides:
            for t in ends[s]:
                degree[t] -= 1
                if not degree[t] and alive[t]:
                    alive[t] = False
                    queue.append(t)
    return np.array(alive, dtype=bool)


def _tarjan_scc(order, succ):
    """Iterative Tarjan on the vertices 0..len(succ)-1, ``succ[v]`` listing
    the successors of v, from the roots in ``order``; its state is kept in
    lists, and the components are returned in a deterministic order."""
    n = len(succ)
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, comps, counter = [], [], 0
    for root in order:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:                       # every successor of v is done
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    comps.append(comp)
    return comps


def _component_periods(comps, succ, src, dst):
    """Per strongly connected component of the vertices 0..len(succ)-1, the
    gcd of its cycle lengths, ``succ`` listing the targets of the edges
    src -> dst: one search per component levels its vertices, then one
    ``np.gcd.at`` takes level[v] + 1 - level[w] over its edges v -> w (the
    edges between vertices of no component gather in a last, dropped slot)."""
    owner, level = [-1] * len(succ), [-1] * len(succ)
    for c, comp in enumerate(comps):
        for v in comp:
            owner[v] = c
    for c, comp in enumerate(comps):
        level[comp[0]], queue = 0, [comp[0]]
        while queue:
            v = queue.pop()
            for w in succ[v]:
                if level[w] < 0 and owner[w] == c:
                    level[w] = level[v] + 1
                    queue.append(w)
    owner, level = np.array(owner, np.int64), np.array(level, np.int64)
    periods, inner = np.zeros(len(comps) + 1, np.int64), owner[src] == owner[dst]
    np.gcd.at(periods, owner[src[inner]], level[src[inner]] + 1 - level[dst[inner]])
    return periods[:-1].tolist()


def analyze_graph(g: LabeledGraph) -> StructureReport:
    """Trim to the essential part, decompose into SCCs, report periods.  All
    three run on ``g.edges``, Tarjan and the period search on lists of
    successor indices; symbols are mapped back once."""
    xs, (src, dst), alive = g.x_symbols, g.edges, g.essential_mask
    if not alive.any():
        raise EmptyAfterTrim("no bi-infinite path exists")
    trimmed = tuple(s for s, a in zip(xs, alive.tolist()) if not a)
    essential = g._essential if trimmed else g
    live = alive[src] & alive[dst]
    src, dst = src[live], dst[live]
    succ = _successor_lists(len(xs), src, dst)
    comps = sorted(sorted(c) for c in _tarjan_scc(np.flatnonzero(alive).tolist(), succ))
    return StructureReport(
        essential=essential,
        is_essential=not trimmed,
        trimmed_symbols=trimmed,
        components=tuple(tuple(map(xs.__getitem__, c)) for c in comps),
        is_irreducible=len(comps) == 1 and len(comps[0]) == len(essential.x_symbols),
        periods=tuple(_component_periods(comps, succ, src, dst)),
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
        for word in self.block_map:
            if len(word) != width or not set(word) <= set(self.alphabet):
                raise InputError(f"block_map: key {word!r} is not a word of {width} letters "
                                 f"from the alphabet")
        for word in self._allowed_words(width):
            if word not in self.block_map:
                raise InputError(f"block_map: missing allowed word {word!r}")
        self.y_symbols = tuple(dict.fromkeys(
            self.block_map[word] for word in sorted(self.block_map, key=self._word_key)))

    def _word_key(self, word):
        idx = {s: i for i, s in enumerate(self.alphabet)}
        return tuple(idx[s] for s in word)

    @property
    def width(self):
        return self.memory + self.anticipation + 1

    @cached_property
    def recoding(self) -> OneBlockRecoding:
        """The 1-block recoding, built once per code: preimage words and the
        samples of pushforward measures read it."""
        return recode_to_one_block(self)

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
        for field in ("memory", "anticipation"):
            if type(data[field]) is not int:
                raise InputError(f"{field}: must be an integer, got {data[field]!r}")
        alphabet = _json_list(data, "alphabet")
        multi = any(len(str(s)) > 1 for s in alphabet)
        def parse_key(k):
            return tuple(k.split(",")) if multi else tuple(k)
        if not (isinstance(data["block_map"], dict)
                and all(isinstance(y, str) for y in data["block_map"].values())):
            raise InputError("block_map: must map each word to a string")
        block_map = {parse_key(k): v for k, v in data["block_map"].items()}
        transitions = data.get("transitions")
        if transitions is not None:
            transitions = _json_pairs(transitions)
        return cls(data["memory"], data["anticipation"], alphabet, block_map, transitions)


@dataclass(frozen=True)
class OneBlockRecoding:
    """A 1-block presentation of a code via higher blocks: the form every code is read in.

    The recoded symbols are the allowed (m+n+1)-words of the domain, ``windows``
    the domain word each stands for; the presented shift is conjugate to the
    domain and carries the same factor onto Y up to an index shift by ``offset``
    (= the memory m), which lets fibers computed on the recoded code be translated
    back.  A labeled graph is its own recoding: offset 0, windows of one symbol.
    """

    graph: LabeledGraph
    offset: int
    base_alphabet: tuple
    windows: tuple

    @property
    def letters(self):
        """The domain letter of each symbol: the ``offset`` column of ``windows``."""
        return tuple(u[self.offset] for u in self.windows)


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
    return OneBlockRecoding(LabeledGraph(symbols, trans, label, code.y_symbols), code.memory,
                            code.alphabet, tuple(symbols))


def _unwrap(code) -> OneBlockRecoding:
    """The code's ``OneBlockRecoding``: its ``.recoding`` (a labeled graph is its
    own, of width 1), or the object itself if it is one."""
    rec = getattr(code, "recoding", code)
    if not isinstance(rec, OneBlockRecoding):
        raise TypeError(f"expected a code with a 1-block recoding, got {type(code).__name__}")
    return rec


class SubsetAutomaton:
    """The label-driven subset construction (Lind & Marcus, *An Introduction
    to Symbolic Dynamics and Coding*, §3.3) of the symbols 0..n-1 with labels
    ``labels``, indices into ``y_symbols``, and the edges ``(src, dst)``.

    State k is the set of symbols at which some path carrying the label word
    ``witness[k]`` ends (with ``backward``, starts): row k of ``rows``, a bit
    row over the n symbols packed by ``np.packbits`` (symbol i is bit i, most
    significant first), so the states take states × n/8 bytes.  The initial
    states are the nonempty label classes in image-alphabet order
    (``initial[j]`` is that of ``y_symbols[j]``, -1 when it is empty); the
    others are numbered in breadth-first discovery order, so each witness is
    a shortest such word.  ``step[k, j]`` is the state reached by reading
    ``y_symbols[j]`` after the word (before it with ``backward``), -1 when
    no path carries the longer word.  A level's step is one ``_gather`` of
    the cells s·k..s·k + k - 1 (all successors of s) of the (state, symbol
    s) pairs of its rows, then an ``&`` with each label class; rows are
    interned by their bytes.  A construction that would pass
    ``MAX_SUBSET_STATES`` states is refused while it runs.
    """

    def __init__(self, labels, y_symbols, edges, backward=False):
        n = self.n = len(labels)
        k = len(y_symbols)
        index = _successor_index(labels, k, *(edges[::-1] if backward else edges))
        classes = np.packbits(np.arange(k)[:, None] == labels, axis=1)
        ids, self.witness = {}, []

        def intern(row, word, y):       # a new state's witness: word read on by y
            key = row.tobytes()
            if (state := ids.get(key)) is None:
                if len(ids) == MAX_SUBSET_STATES:
                    raise PreconditionError(
                        f"the subset construction reached {len(ids) + 1} states, "
                        f"more than the cap MAX_SUBSET_STATES = {MAX_SUBSET_STATES}")
                state = ids[key] = len(ids)
                self.witness.append((y,) + word if backward else word + (y,))
            return state

        self.initial = [intern(c, (), y) if c.any() else -1 for y, c in zip(y_symbols, classes)]
        steps, width = [], classes.shape[1]
        while len(steps) < len(ids):        # a level: the states the last one found
            words, level = self.witness[len(steps):], islice(ids, len(steps), None)
            rows = np.frombuffer(b"".join(level), np.uint8).reshape(-1, width)
            state, s = np.nonzero(np.unpackbits(rows, axis=1, count=n))
            row, t = _gather(index, s * k, s * k + k)
            reached = np.zeros((len(rows), n), dtype=bool)
            reached[state[row], t] = True
            cands = np.packbits(reached, axis=1)[:, None] & classes
            for word, row, live in zip(words, cands, cands.any(axis=2).tolist()):
                steps.append([intern(c, word, y) if a else -1
                              for y, c, a in zip(y_symbols, row, live)])
        self.step = np.array(steps, dtype=np.int64).reshape(-1, len(y_symbols))
        self.rows = np.frombuffer(b"".join(ids), np.uint8).reshape(-1, width)

    def members(self, states=slice(None)):
        """The symbol sets of ``states`` (all by default) as bool rows over the n symbols."""
        return np.unpackbits(self.rows[states], axis=1, count=self.n).view(bool)


def _speculate(flat, symbols, inputs, entry):
    """Every chunk of about √T inputs run at once from state ``entry`` of the
    flat (states × symbols) table, one lookup per step for all chunks: the
    chunks are the columns of a (position × chunk) array of the narrowest
    unsigned type that holds the symbols and the states, and each position's
    symbols are overwritten by the chunks' states once read."""
    width = max(1, isqrt(len(inputs)))
    chunks = len(inputs) // width
    cols = np.empty((width, chunks), np.min_scalar_type(max(symbols, len(flat) // symbols) - 1))
    cols[...] = inputs[:chunks * width].reshape(chunks, width).T
    lane = np.intp(entry)
    for col in cols:
        lane = flat.take(lane * symbols + col)
        col[...] = lane
    return cols


def _blocks(length, *dtypes):
    """Each start s in range(0, length, BLOCK) with a block-long view of one buffer per dtype."""
    buffers = [np.empty(min(length, BLOCK), t) for t in dtypes]
    for s in range(0, length, BLOCK):
        yield s, *(b[:length - s] for b in buffers)


def scan(step, inputs, start, out, relabel=None, counts=None):
    """Run a deterministic automaton over an input array: ``out[t] =
    step[out[t-1], inputs[t]]`` with ``out[-1]`` read as ``start``.
    Returns the last state (``start`` for empty input).

    ``step`` is a dense ``(states × symbols)`` int table in which -1 means
    no transition.  A missing transition leads to an absorbing dead state,
    written as -1, so a caller only needs to check the last state.  ``out``
    is the caller's buffer and may be ``inputs`` itself: every input is read
    before its slot is written.

    The scan speculates and verifies (Mytkowicz, Musuvathi & Schulte,
    "Data-Parallel Finite-State Machines", ASPLOS 2014): ``_speculate`` runs
    every chunk as if it were entered in ``start``.  Then the chunks are
    settled in order.  Where a chunk's true first state is not its guess,
    the speculated one, ``relabel(guess, true)`` may offer a state row σ
    over the states 0..len(σ)-1, which hold every state a step reaches,
    with σ[guess] = true (σ keeps the dead state -1).  If σ commutes with
    their table rows, checked once per σ, the true chunk is the guessed one
    mapped through σ, by induction on the position; else that is verified
    up to the first position that is not a step.  From there, or from the
    true first state when no σ is offered, the chunk is re-run one step at
    a time until it meets its speculated run, which is right from there
    on; once the true run is dead, so is every later chunk.  The mapped
    chunks are written after the loop, and the input past the last whole
    chunk runs as a loop.  ``counts`` (keys "guess", "relabel", "rerun")
    adds up how the chunks after the first were settled.  The cost is O(T)
    numpy work and O(√T + re-run steps) interpreted steps; in the worst case,
    a permutation of the states per symbol with no σ offered, every chunk is
    re-run whole, a step loop plus O(T).  A table of equal rows is one lookup
    ``step[0][inputs]``, by blocks, if that meets no dead state, all guesses right.
    """
    counts = dict.fromkeys(("guess", "relabel", "rerun"), 0) if counts is None else counts
    row = step[0]
    if start >= 0 and (step == row).all() and not (row.min() < 0 and (row < 0)[inputs].any()):
        counts["guess"] += max(len(inputs) // max(1, isqrt(len(inputs))) - 1, 0)
        flip = slice(None, None, -1 if out.strides[0] < 0 else 1)    # take into a reversed view is slow
        row, inputs, dest = row.astype(out.dtype), inputs[flip], out[:len(inputs)][flip]
        for s, cells in _blocks(len(inputs), np.intp):
            cells[...] = inputs[s:s + len(cells)]
            row.take(cells, out=dest[s:s + len(cells)])
        return out.item(len(inputs) - 1) if len(inputs) else start
    states, symbols = step.shape
    # state s is held as s + 1, so that the dead state is 0, whose row is all 0
    table = np.zeros((states + 1, symbols), dtype=np.intp)
    table[1:] = step + 1
    cols = _speculate(table.ravel(), symbols, inputs, start + 1)
    width, chunks = cols.shape
    body = width * chunks
    blocks = inputs[:body].reshape(chunks, width)
    rows = table.tolist()
    heads, ends = cols[0].tolist(), cols[-1].tolist()
    rowed = {}  # id(σ) -> σ (held, so its id is not reused), σ shifted, its chunks, commutes
    state = ends[0] if chunks else start + 1
    for c, first in enumerate(blocks[1:, 0].tolist(), 1):
        true = rows[state][first]
        if true == heads[c]:
            counts["guess"] += 1
            state = ends[c]
            continue
        sigma = relabel(heads[c] - 1, true - 1) if relabel and heads[c] and true else None
        i = 0
        if sigma is not None:
            if id(sigma) not in rowed:
                moves = np.concatenate(([0], np.asarray(sigma) + 1))
                rowed[id(sigma)] = (sigma, moves, [],
                                    np.array_equal(table[moves], moves[table[:len(moves)]]))
            _sigma, moves, owners, commutes = rowed[id(sigma)]
            if not commutes:
                moved = moves[cols[:, c]]
                bad = np.flatnonzero(table[moved[:-1], blocks[c, 1:]] != moved[1:])
            if commutes or not len(bad):
                owners.append(c)
                counts["relabel"] += 1
                state = moves.item(ends[c])
                continue
            i = bad[0] + 1
            cols[:i, c] = moved[:i]
            true = rows[moved[i - 1]][blocks[c, i]]
        counts["rerun"] += 1
        spec, xs = cols[:, c].tolist(), blocks[c].tolist()
        while true and true != spec[i]:
            spec[i] = true
            i += 1
            if i == width:
                break
            true = rows[true][xs[i]]
        cols[:i, c] = spec[:i]
        state = ends[c] if true and i < width else true
        if not true:                    # dead from position i on, and in every later chunk
            cols[i:, c] = 0
            cols[:, c + 1:] = 0
            break
    settled = out[:body].reshape(chunks, width)
    np.subtract(cols.T, 1, out=settled, dtype=out.dtype)
    for sigma, _moves, owners, _commutes in rowed.values():
        sigma = np.append(sigma, -1)    # the dead state stays -1
        for k in range(0, len(owners), 64):     # no T-sized index array is made
            settled[owners[k:k + 64]] = sigma.take(settled[owners[k:k + 64]])
    for t in range(body, len(inputs)):
        state = rows[state][inputs[t]]
        out[t] = state - 1
    return state - 1


def _phased_lifts(labels, k, index, max_period: int, word=None):
    """Per period q <= max_period, the Lyndon words of length q (label indices,
    rows of ``words``) and their ``_cycles`` lifts on symbols ``labels`` and
    the ``_successor_index`` ``index``; only ``word`` when given.
    One array pass per period extends the paths of the prenecklaces of length
    q - 1 by a letter.  A row is a path of a word: the word's rank (``np.unique``
    keeps words in lexicographic order), the path, and whether another path of
    the word has its ends (``merged``).  w + a is a prenecklace iff a >= w[-p],
    a Lyndon word iff a > w[-p], p = ``plen`` the length of w's longest Lyndon
    prefix (Duval, J. Algorithms 1983).  A path from s to e of a Lyndon word w
    and an edge from e to t labeled w[0] relate s to t; the essential part of
    this relation (trimmed only where it is no permutation of its starts) must
    be a permutation without merged paths, or the fiber is infinite."""
    n = len(labels)

    def step(ends, lo, hi):         # the successors of ``ends`` labeled lo..hi-1, with their rows
        return _gather(index, ends * k + lo, ends * k + hi)

    def extend(q, words, plen, rank, paths, merged):
        least = words[rank, q - 1 - plen[rank]] if word is None else np.full_like(rank, word[q - 1])
        row, end = step(paths[:, -1], least + (word is None and q == last),
                        k if word is None else least + 1)
        wkey = rank[row] * k + labels[end]
        _key, at, count = np.unique((wkey * n + paths[row, 0]) * n + end,
                                    return_index=True, return_counts=True)
        row, end, wkey = row[at], end[at], wkey[at]
        p = np.where(labels[end] == least[row], plen[rank[row]], q)
        wkey, at, rank = np.unique(wkey, return_index=True, return_inverse=True)
        return (np.column_stack([words[wkey // k], wkey % k]), p[at], rank,
                np.column_stack([paths[row], end]), (count > 1) | merged[row])

    def close(q, words, plen, rank, paths, merged):
        rows = np.flatnonzero(plen[rank] == q) if word is None else np.arange(len(rank))
        at, t = step(paths[rows, -1], words[rank[rows], 0], words[rank[rows], 0] + 1)
        rows = rows[at]
        s_key, t_key = rank[rows] * n + paths[rows, 0], rank[rows] * n + t     # s_key ascends
        bad = np.zeros(len(words), dtype=bool)      # the words whose relation is no permutation
        bad[rank[rows][1:][s_key[1:] == s_key[:-1]]] = True
        bad[rank[rows][s_key != np.sort(t_key)]] = True
        if (sel := bad[rank[rows]]).any():
            ends, back = np.unique(np.concatenate([s_key[sel], t_key[sel]]), return_inverse=True)
            keep = ~sel
            keep[sel] = _essential_mask(len(ends), *back.reshape(2, -1))[back].reshape(2, -1).all(0)
            rows, s_key, t_key = rows[keep], s_key[keep], t_key[keep]
        if (s_key[1:] == s_key[:-1]).any() or merged[rows].any():
            raise FiberInfinite("recurrent phased graph branches; fiber is infinite")
        return q, words, _cycles(np.searchsorted(s_key, t_key), paths[rows], rank[rows])

    last = max_period if word is None else len(word)
    start = np.argsort(labels, kind="stable") if word is None else np.flatnonzero(labels == word[0])
    words, rank = np.unique(labels[start], return_inverse=True)
    rows = (words[:, None], np.ones(len(words), dtype=np.int64), rank, start[:, None], start < 0)
    if word is None or last == 1:
        yield close(1, *rows)
    for q in range(2, last + 1):
        words, plen, rank, paths, merged = rows
        batch = LIFT_BATCH if q == last else len(rank) + 1
        cuts = sorted(set(np.searchsorted(rank, rank[::batch]).tolist()))      # whole words
        for a, b in zip(cuts, cuts[1:] + [len(rank)]):
            part = extend(q, words, plen, rank[a:b], paths[a:b], merged[a:b])
            if word is None or q == last:
                yield close(q, *part)
        rows = part if q < last and len(rank) else rows


def _cycles(succ, paths, rank):
    """The lifts of the cycles of the permutation ``succ`` of the relation pairs
    with paths ``paths`` and word ranks ``rank`` of ``_phased_lifts``: a cycle
    of w pairs is a lift of winding w whose ids are its paths at their least
    rotation; per winding, its (w, word ranks, ids), sorted by (rank, ids)."""
    lead, jump = np.arange(len(succ)), succ
    while ((lower := np.minimum(lead, lead[jump])) < lead).any():
        lead, jump = lower, jump[jump]          # the least pair of each cycle, by doubling
    size, groups = np.bincount(lead, minlength=len(lead)), []
    for w in sorted(set(size[size > 0].tolist())):
        seq = [np.flatnonzero(size == w)]
        while len(seq) < w:
            seq.append(succ[seq[-1]])
        ids, m = paths[np.stack(seq, axis=1)].reshape(len(seq[0]), -1), w * paths.shape[1]
        ids = np.take_along_axis(ids, (_least_starts(ids)[:, None] + np.arange(m)) % m, axis=1)
        by = np.lexsort([*ids.T[::-1], rank[seq[0]]])
        groups.append((w, rank[seq[0]][by], ids[by].astype(np.min_scalar_type(ids.max()))))
    return groups


class RightResolvingPresentation:
    """Edge-labeled right-resolving presentation of the image shift,
    obtained by the subset construction and trimmed to its essential part.

    State k stands for the forward-viable symbol set ``states[k]``.
    ``step`` is an int64 table: ``step[k, j]`` is the state that the edge
    labeled ``alphabet[j]`` leads to from state k, -1 when k has no such
    edge.  A word belongs to the image language iff it can be read from
    some state.
    """

    def __init__(self, states, step, alphabet):
        self.states = tuple(states)              # tuples of x-symbols
        self.step = step
        self.alphabet = tuple(alphabet)

    def entropy(self) -> float:
        """Entropy of the presented sofic shift: max over SCCs of the log
        Perron value of the edge-count adjacency (valid because the
        presentation is right-resolving)."""
        n = len(self.states)
        succ = [[t for t in row if t >= 0] for row in self.step.tolist()]
        counts = np.zeros((n, n + 1), dtype=np.int64)      # column -1 takes the missing edges
        np.add.at(counts, (np.arange(n)[:, None], self.step), 1)
        values = [log(perron_value(mat)) for comp in _tarjan_scc(range(n), succ)
                  if (mat := counts[np.ix_(comp, comp)]).any()]
        if not values:
            raise EmptyAfterTrim("presentation has no cycle")
        return max(values)

    @cached_property
    def _edge_graph(self) -> LabeledGraph:
        """The edge graph: the edges (s, a), in (state, letter) order, as symbols
        0, 1, ... labelled a, with (s, a) -> (step[s, a], b)."""
        state, letter = np.nonzero(self.step >= 0)
        target = self.step[state, letter]
        leaving = np.searchsorted(state, np.arange(len(self.step) + 1)), np.arange(len(state))
        edges = _gather(leaving, target, target + 1)
        return LabeledGraph(range(len(letter)), zip(*(e.tolist() for e in edges)),
                            enumerate(map(self.alphabet.__getitem__, letter.tolist())),
                            self.alphabet, edges)

    def periodic_orbits(self, max_period):
        """All periodic orbits of the image shift with least period <= max_period,
        by period, then in alphabet order, each named by its Lyndon word w that
        ``_phased_lifts`` lifts to the edge graph, where a path of w^∞ closes a cycle."""
        if max_period < 1:
            raise InputError("max_period must be >= 1")
        graph, found = self._edge_graph, []
        for _q, words, groups in _phased_lifts(graph.label_ids, len(self.alphabet),
                                               graph.successor_index, max_period):
            lifted = {r for _w, ranks, _ids in groups for r in ranks.tolist()}
            found += words[sorted(lifted)].tolist()
        return [PeriodicOrbit(tuple(self.alphabet[a] for a in w), len(w)) for w in found]

    def language_subset_of(self, other) -> bool:
        """Whether every word readable here is readable in ``other``: ``_reads_within``
        of this edge graph and the forward ``SubsetAutomaton`` of ``other``'s."""
        return _reads_within(self._edge_graph, other._edge_graph.forward_automaton,
                             other.alphabet)


def _reads_within(g: LabeledGraph, automaton: SubsetAutomaton, letters) -> bool:
    """Whether ``automaton``, a ``SubsetAutomaton`` over ``letters``, reads the label
    of every path of g: a search over the pairs (symbol, automaton state) that the
    paths reach, letters matched by name, from a start vertex before every symbol."""
    n, column = len(g.x_symbols), {a: j for j, a in enumerate(letters)}
    # row -1, the empty word, reads the initial states; column -1 a letter not in ``letters``
    table = [row + [-1] for row in automaton.step.tolist() + [automaton.initial]]
    cols = [column.get(g.y_symbols[j], -1) for j in g.label_ids.tolist()]
    succ = _successor_lists(n, *g.edges) + [range(n)]
    seen, frontier = {(n, -1)}, [(n, -1)]
    while frontier:
        symbol, state = frontier.pop()
        for t in succ[symbol]:
            key = (t, table[state][cols[t]])
            if key[1] < 0:
                return False
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return True


def determinize(g: LabeledGraph) -> RightResolvingPresentation:
    """Subset construction over label words, trimmed to its essential part so
    every finite run extends bi-infinitely; the result presents exactly the
    image shift of ``g`` and is what ``entropy`` of the image is computed on.
    The alive states of the forward ``SubsetAutomaton`` are renumbered in
    the order of their member index lists, and only they become symbol tuples."""
    ess = analyze_graph(g).essential
    aut, xs = ess.forward_automaton, ess.x_symbols
    src, letter = np.nonzero(aut.step >= 0)
    alive = np.flatnonzero(_essential_mask(len(aut.step), src, aut.step[src, letter]))
    members = dict(zip(alive.tolist(), (np.flatnonzero(r).tolist() for r in aut.members(alive))))
    keep = sorted(members, key=members.get)
    renumber = np.full(len(aut.step) + 1, -1, dtype=np.int64)   # entry -1 stays -1
    renumber[keep] = np.arange(len(keep))
    return RightResolvingPresentation([tuple(map(xs.__getitem__, members[k])) for k in keep],
                                      renumber[aut.step[keep]], ess.y_symbols)


def _dot(names, labels, src, dst):
    """The ``digraph shift`` text of symbols ``names`` labelled ``labels``, edges src -> dst."""
    nodes = (f'  "{n}" [label="{n} / {y}"];\n' for n, y in zip(names, labels))
    edges = (f'  "{names[a]}" -> "{names[b]}";\n' for a, b in zip(src.tolist(), dst.tolist()))
    return "".join(["digraph shift {\n", *nodes, *edges, "}\n"])


def to_dot(g: LabeledGraph) -> str:
    return _dot(list(map(render_symbol, g.x_symbols)), map(g.label.get, g.x_symbols), *g.edges)


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
    block code: the pair (its ``recoding``, the code as read)."""
    code = load_json(path, lambda data: (SlidingBlockCode if "block_map" in data
                                         else LabeledGraph).from_json_dict(data))
    return code.recoding, code
