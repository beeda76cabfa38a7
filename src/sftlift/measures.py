"""Exact-rational stationary measures and their cylinder calculus.

All measure arithmetic is done in ``fractions.Fraction``; floating point enters
only through sampling and Monte-Carlo statistics.  Every measure is a finite
hidden Markov chain (``StationaryMeasure.hidden_chain``), and every cylinder is
one forward recursion over its chain (Rabiner, Proc. IEEE 1989).  An image
measure is the chain on the windows of its base chain.  Every code is read
through its 1-block recoding (a labeled graph is its own, of width 1; Lind &
Marcus, *An Introduction to Symbolic Dynamics and Coding*, §1.4-1.5): one
table, from the base code of each of the recoding's ``windows`` to its label,
labels both the chain and the windows of a sample.  Samplers draw a block at a
time and look draws up in a guide table (``_count_below``); a sampler's order
of draws is the seed contract.  ``EmpiricalDistribution.counts[l - 1]`` is an
array of a sample's length-l window counts by base-k word code, the order of
``window_codes`` and of ``product(alphabet, repeat=l)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotErgodic
from .graphs import PeriodicOrbit, _as_word, _blocks, _json_list, _tarjan_scc, _unwrap, scan

# The most count cells, summed over the window lengths 1..depth, that
# EmpiricalDistribution.from_indices allocates: 2**27 int64 cells take 1 GiB.
MAX_COUNT_CELLS = 2 ** 27


def parse_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{value!r} is not an exact rational number") from None


def make_rng(seed: int) -> np.random.Generator:
    # counter-based generator: parallel sampling with distinct seeds stays
    # deterministic and streams never collide
    return np.random.Generator(np.random.Philox(seed))


class HiddenChain(NamedTuple):
    """A stationary measure as a finite hidden Markov chain: state z has
    stationary mass ``stationary[z] > 0``, moves to z' with probability
    ``rows[z][z'] > 0`` (a sparse row) and emits the letter
    ``alphabet[letter[z]]`` of its measure."""

    stationary: tuple
    rows: tuple
    letter: tuple

    def forward(self, masses, j):
        """The forward masses of the states of letter j one letter on: those
        of a first letter when ``masses`` is None, else reached from the
        forward masses (state -> mass) of the word so far."""
        if masses is None:
            return {z: p for z, p in enumerate(self.stationary) if self.letter[z] == j}
        out = {}
        for z, mass in masses.items():
            for t, p in self.rows[z].items():
                if self.letter[t] == j:
                    out[t] = out[t] + mass * p if t in out else mass * p
        return out


class StationaryMeasure:
    """Protocol base: a shift-invariant measure evaluated on cylinders.

    Subclasses provide ``alphabet``, ``_hidden_chain() -> HiddenChain`` (the
    measure's ``hidden_chain()``, built once), ``sample_indices(length,
    rng)`` and ``describe()``.  Every cylinder is read from the hidden
    chain.  Samples hold alphabet indices as
    ``np.min_scalar_type(len(alphabet) - 1)``.
    """

    alphabet: tuple

    def hidden_chain(self) -> HiddenChain:
        """The measure's ``HiddenChain``, built once by ``_hidden_chain``."""
        if "_chain" not in vars(self):
            self._chain = self._hidden_chain()
        return self._chain

    def cylinder(self, word) -> Fraction:
        """m([word]_0), exactly, by the forward recursion (Rabiner, Proc.
        IEEE 1989) on the hidden chain: 1 for the empty word, 0 for a word
        with a letter outside ``alphabet`` (which no state emits)."""
        chain, index, masses = self.hidden_chain(), self._index(), None
        for a in _as_word(word):
            masses = chain.forward(masses, index.get(a, -1))
        return Fraction(1) if masses is None else sum(masses.values(), Fraction(0))

    def sample_indices(self, length, rng) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def _index(self):
        return {a: i for i, a in enumerate(self.alphabet)}


def _count_below(breaks, rng, strict, out):
    """Fill ``out``, with room for m + 1, with ``np.searchsorted(breaks, rng.random(
    len(out)), "left" if strict else "right")`` a block at a time, by a guide table
    (Chen & Asau 1974; Devroye 1986, §III.2.4): draw u is in bucket floor(u·2^b),
    exactly, and only the draws in buckets a break splits (marked m + 1) are searched."""
    m, side = len(breaks), "left" if strict else "right"
    bits = min(m.bit_length() + 6, 20)
    edges = np.arange(2 ** bits + 2) / 2 ** bits
    low = np.searchsorted(breaks, edges[:-1], side)
    table = np.where(np.searchsorted(breaks, edges[1:]) > low, m + 1, low).astype(out.dtype)
    for s, draws, cells in _blocks(len(out), float, np.intp):
        np.multiply(rng.random(out=draws), 2 ** bits, out=cells, casting="unsafe")
        block = table.take(cells, out=out[s:s + len(cells)], mode="clip")  # "raise" buffers out
        split = np.flatnonzero(block == m + 1)
        block[split] = np.searchsorted(breaks, draws[split], side)
    return out


def stationary_vector(states, matrix) -> tuple:
    """Exact stationary row vector of a row-stochastic Fraction matrix with
    strongly connected support (Gaussian elimination over the rationals)."""
    n = len(states)
    # solve v (P - I) = 0 with sum(v) = 1, i.e. (P^T - I) v^T = 0
    rows = [[matrix[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(n)]
            for i in range(n)]
    rows[-1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        rhs[col] = rhs[col] / inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return tuple(rhs)


def _letter_chain(stationary, matrix):
    """The chain on the letters of positive stationary mass, each its own
    state and letter, with the positive entries of their matrix rows."""
    support = [i for i, p in enumerate(stationary) if p > 0]
    number = {i: z for z, i in enumerate(support)}
    return HiddenChain(tuple(stationary[i] for i in support),
                       tuple({number[j]: matrix[i][j] for j in support if matrix[i][j] > 0}
                             for i in support),
                       tuple(support))


class MarkovMeasure(StationaryMeasure):
    """Stationary Markov measure with exact rational transition matrix."""

    def __init__(self, states, transition_probabilities, stationary=None):
        self.alphabet = tuple(states)
        idx = self._index()
        if len(idx) != len(self.alphabet):
            raise InputError("states: duplicate states")
        n = len(self.alphabet)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        rows = transition_probabilities
        if not (isinstance(rows, dict) and all(isinstance(row, dict) for row in rows.values())):
            raise InputError("transitions: expected an object of probability objects per state")
        for a, row in rows.items():
            for b, p in row.items():
                if a not in idx or b not in idx:
                    raise InputError(f"transitions: unknown state {b if a in idx else a!r}")
                matrix[idx[a]][idx[b]] = parse_fraction(p)
        for i, a in enumerate(self.alphabet):
            if sum(matrix[i]) != 1:
                raise InputError(f"transitions: row of {a!r} does not sum to 1 exactly")
            if any(p < 0 for p in matrix[i]):
                raise InputError(f"transitions: negative probability in the row of {a!r}")
        self.matrix = tuple(tuple(row) for row in matrix)
        if stationary is None:
            succ = [[j for j, p in enumerate(row) if p > 0] for row in self.matrix]
            if len(_tarjan_scc(range(n), succ)) != 1:
                raise NotErgodic("support graph not strongly connected; supply a stationary vector")
            stationary = stationary_vector(self.alphabet, self.matrix)
        else:
            stationary = tuple(parse_fraction(p) for p in stationary)
        self.stationary = stationary
        if len(self.stationary) != n:
            raise InputError(f"stationary: one probability per state required, got "
                             f"{len(self.stationary)} for {n} states")
        if sum(self.stationary) != 1 or any(p < 0 for p in self.stationary):
            raise InputError("stationary: must be a probability vector")
        row_check = [sum(self.stationary[i] * self.matrix[i][j] for i in range(n)) for j in range(n)]
        if tuple(row_check) != self.stationary:
            raise InputError("stationary: vector is not stationary for the transition matrix")

    def _hidden_chain(self):
        return _letter_chain(self.stationary, self.matrix)

    def sample_indices(self, length, rng) -> np.ndarray:
        """Inverse-CDF sampling: the successor of state s under a uniform draw
        u is #{k : cum[s, k] < u}.  That count is constant between
        consecutive distinct breakpoints of all rows, so each draw becomes
        its interval index (``_count_below``) and the chain, of narrow
        indices, a ``scan`` over a (state × interval) table.  Each row is
        clamped to its positive-probability states: a draw above the row's
        float total (below 1 at times) goes to its last one, 0 to its first."""
        n = len(self.alphabet)
        start_p = np.array([float(p) for p in self.stationary])
        start_p /= start_p.sum()
        rows = np.array([[float(p) for p in row] for row in self.matrix])
        rows /= rows.sum(axis=1, keepdims=True)
        cum = np.cumsum(rows, axis=1)
        breaks = np.unique(cum, return_index=True)[0]     # without a flag numpy imports numpy.ma
        table = np.zeros((n, len(breaks) + 1), dtype=np.int64)
        for s in range(n):
            positive = np.flatnonzero(rows[s])
            table[s, 1:] = np.searchsorted(cum[s], breaks, side="right")
            np.clip(table[s], positive[0], positive[-1], out=table[s])
        out = np.empty(length, np.min_scalar_type(max(len(breaks) + 1, n - 1)))
        _count_below(breaks, rng, True, out)        # the first draw's interval is not read
        out[0] = first = rng.choice(n, p=start_p)
        scan(table, out[1:], first, out[1:])
        return out.astype(np.min_scalar_type(n - 1), copy=False)

    def describe(self):
        idx = self._index()
        return {
            "type": "markov",
            "states": [str(a) for a in self.alphabet],
            "transitions": {str(a): {str(b): str(self.matrix[idx[a]][idx[b]])
                                     for b in self.alphabet if self.matrix[idx[a]][idx[b]] > 0}
                            for a in self.alphabet},
            "stationary": [str(p) for p in self.stationary],
        }


class BernoulliMeasure(StationaryMeasure):
    """Product measure on the full shift over its alphabet."""

    def __init__(self, alphabet, probabilities):
        self.alphabet = tuple(alphabet)
        if len(self._index()) != len(self.alphabet):
            raise InputError("alphabet: duplicate letters")
        self.probabilities = tuple(parse_fraction(p) for p in probabilities)
        if len(self.probabilities) != len(self.alphabet):
            raise InputError(f"probabilities: one probability per symbol required, got "
                             f"{len(self.probabilities)} for {len(self.alphabet)} symbols")
        if any(p < 0 for p in self.probabilities) or sum(self.probabilities) != 1:
            raise InputError("probabilities: must be non-negative and sum to 1 exactly")

    def _hidden_chain(self):
        return _letter_chain(self.probabilities, [self.probabilities] * len(self.alphabet))

    def sample_indices(self, length, rng) -> np.ndarray:
        """``rng.choice(len(alphabet), length, p=p)``'s indices, narrow."""
        p = np.array([float(q) for q in self.probabilities])
        cdf = np.cumsum(p / p.sum())     # choice divides it by cdf[-1], which then tops every draw
        out = _count_below(cdf[:-1] / cdf[-1], rng, False, np.empty(length, np.min_scalar_type(len(p))))
        return out.astype(np.min_scalar_type(len(p) - 1), copy=False)      # m + 1 may not fit

    def describe(self):
        return {"type": "bernoulli",
                "alphabet": [str(a) for a in self.alphabet],
                "probabilities": [str(p) for p in self.probabilities]}


class COMeasure(StationaryMeasure):
    """Uniform measure on a periodic orbit (weights 1/period)."""

    def __init__(self, orbit: PeriodicOrbit, alphabet=None):
        self.orbit = orbit
        if alphabet is None:
            alphabet = sorted(set(orbit.primitive_word), key=str)
        self.alphabet = tuple(alphabet)
        if len(self._index()) != len(self.alphabet):
            raise InputError("alphabet: duplicate letters")
        outside = set(orbit.primitive_word) - set(self.alphabet)
        if outside:
            raise InputError(f"alphabet: lacks the orbit letters {sorted(map(str, outside))}")

    def _hidden_chain(self):
        """The p phases r of the orbit, r moving to r + 1 mod p."""
        p, idx = self.orbit.period, self._index()
        return HiddenChain((Fraction(1, p),) * p,
                           tuple({(r + 1) % p: Fraction(1)} for r in range(p)),
                           tuple(idx[a] for a in self.orbit.primitive_word))

    def sample_indices(self, length, rng) -> np.ndarray:
        """The orbit word from a uniform phase, as narrow indices."""
        r, idx = int(rng.integers(self.orbit.period)), self._index()
        word = np.array([idx[a] for a in self.orbit.primitive_word], np.min_scalar_type(len(idx) - 1))
        return np.tile(np.roll(word, -r), -(-length // self.orbit.period))[:length]

    def describe(self):
        return {"type": "co", "orbit": [str(a) for a in self.orbit.primitive_word]}


class PushforwardMeasure(StationaryMeasure):
    """Image of a measure under a code: the (measure, code) pair, read through
    the code's recoding (``graphs._unwrap``), of window width w.

    The base must live on the code's domain: a base letter outside it is
    refused, and so is a positive-mass base step that no recoding transition
    adds, so every window of w letters the base charges is a recoding symbol.
    One table holds the image index of each base-alphabet window code: it
    labels the hidden chain, on the positive-mass windows of w base-chain
    states, and a sample of T letters reads a base sample of T + w - 1 through it.
    """

    def __init__(self, base: StationaryMeasure, code):
        self.base, self.code = base, code
        rec = self._recoding = _unwrap(code)
        self.alphabet = rec.graph.y_symbols
        if outside := set(base.alphabet) - set(rec.base_alphabet):
            raise InputError(f"base: letters {sorted(map(str, outside))} are outside the "
                             "code's domain alphabet")
        last = [u[-1] for u in rec.windows]
        steps = {(last[u], last[v]) for u, v in zip(*(e.tolist() for e in rec.graph.edges))}
        chain = base.hidden_chain()
        letter = [base.alphabet[e] for e in chain.letter]
        for a, b in ((letter[z], letter[t]) for z, row in enumerate(chain.rows) for t in row):
            if (a, b) not in steps:
                field = "transitions" if isinstance(base, MarkovMeasure) else "base"
                raise InputError(f"{field}: positive probability on forbidden "
                                 f"transition ({a!r},{b!r})")
        index, none = base._index(), len(self.alphabet)      # none: a window no symbol reads
        digits = np.array([[index.get(a, -1) for a in u] for u in rec.windows])
        self._width, keep = digits.shape[1], (digits >= 0).all(axis=1)
        self._labels = np.full(len(index) ** self._width, none, np.min_scalar_type(none))
        self._labels[window_codes(digits[keep], len(index), self._width)[:, 0]] = (
            rec.graph.label_ids[keep])

    def _hidden_chain(self):
        base = self.base.hidden_chain()
        windows = {(z,): p for z, p in enumerate(base.stationary)}
        for _ in range(self._width - 1):
            windows = {u + (t,): m * p
                       for u, m in windows.items() for t, p in base.rows[u[-1]].items()}
        number = {u: i for i, u in enumerate(windows)}
        digits = np.array([[base.letter[z] for z in u] for u in windows])
        return HiddenChain(
            tuple(windows.values()),
            tuple({number[u[1:] + (t,)]: p for t, p in base.rows[u[-1]].items()} for u in windows),
            tuple(self._labels[window_codes(digits, len(self.base.alphabet), self._width)[:, 0]]
                  .tolist()))

    # a method of the class's own dict, where perfbench/spans.py finds the methods it wraps
    cylinder = StationaryMeasure.cylinder

    def sample_indices(self, length, rng) -> np.ndarray:
        """Each base window's image as a narrow index, by blocks; ``len(alphabet)``: none."""
        w, none = self._width, len(self.alphabet)
        base, out = self.base.sample_indices(length + w - 1, rng), np.empty(length, self._labels.dtype)
        for s, codes in _blocks(length, np.intp):
            codes[...] = window_codes(base[s:s + len(codes) + w - 1], len(self.base.alphabet), w)
            if (self._labels.take(codes, out=out[s:s + len(codes)], mode="clip") == none).any():
                raise InputError("base: the sample left the code's domain")
        return out.astype(np.min_scalar_type(none - 1), copy=False)

    def describe(self):
        kind = "1-block code" if self.code is self._recoding.graph else "sliding-block code"
        return {"type": "pushforward", "base": self.base.describe(), "code": kind}


def window_codes(arr, k, width):
    """The base-k code of every length-``width`` window along the last axis
    of an index array, narrow, but int64 past 2^32 codes for ``bincount``."""
    n = arr.shape[-1] - width + 1
    dtype = np.min_scalar_type(k ** width - 1) if k ** width <= 2 ** 32 else np.int64
    codes_arr = arr[..., :n].astype(dtype)
    for j in range(1, width):
        codes_arr = codes_arr * k + arr[..., j:j + n]
    return codes_arr


def sample_path(m: StationaryMeasure, length: int, seed: int):
    """A word of the stationary process, deterministic given the seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return tuple(map(m.alphabet.__getitem__, m.sample_indices(length, make_rng(seed)).tolist()))


def has_two_point_factor(m) -> bool:
    """Whether the two-point rotation is a factor of a Bernoulli or Markov
    measure, whose hidden chain's states are its letters.

    Decided through the product chain on states x {0,1} with a
    deterministic parity flip: the factor exists iff the positive-probability
    product graph fails to be strongly connected, which is exactly
    non-ergodicity of the product.
    """
    if not isinstance(m, (BernoulliMeasure, MarkovMeasure)):
        raise TypeError("two-point-factor decision implemented for Markov measures only")
    rows = m.hidden_chain().rows
    if len(_tarjan_scc(range(len(rows)), rows)) != 1:
        raise NotErgodic("measure's support chain is not strongly connected")
    # (z, parity) is vertex 2 * z + parity
    succ = [[2 * t + 1 - parity for t in row] for row in rows for parity in (0, 1)]
    return len(_tarjan_scc(range(len(succ)), succ)) != 1


@dataclass(frozen=True)
class ComparisonResult:
    equal_up_to: int | None       # depth certified equal, None when distinct
    witness: tuple | None
    values: tuple | None          # (value in m1, value in m2) at the witness

    @property
    def distinct(self):
        return self.witness is not None


def compare_measures(m1: StationaryMeasure, m2: StationaryMeasure, depth: int) -> ComparisonResult:
    """Exact comparison of all cylinder probabilities up to the given length."""
    if tuple(m1.alphabet) != tuple(m2.alphabet):
        raise ValueError("measures must share an alphabet")
    for length in range(1, depth + 1):
        for word in product(m1.alphabet, repeat=length):
            v1 = m1.cylinder(word)
            v2 = m2.cylinder(word)
            if v1 != v2:
                return ComparisonResult(None, word, (v1, v2))
    return ComparisonResult(depth, None, None)


@dataclass(eq=False)
class EmpiricalDistribution:
    """Cylinder counts of one sampled coordinate up to a fixed depth."""

    alphabet: tuple
    depth: int
    counts: list                  # counts[l - 1]: int array over the length-l word codes
    sample_length: int

    @classmethod
    def from_indices(cls, arr, alphabet, depth):
        """Count the windows of every length up to ``depth`` in an index
        array: ``from_walk`` on the walk whose row is its input."""
        k, arr = len(alphabet), np.asarray(arr)
        return cls.from_walk(np.broadcast_to(np.arange(k), (k, k)), arr, arr,
                             np.arange(k)[:, None], alphabet, depth)[0]

    @classmethod
    def from_walk(cls, step, inputs, path, letters, alphabet, depth):
        """The distributions of coordinates i of a walk ``path[t] = step[path[t-1],
        inputs[t]]`` whose row r reads ``letters[r, i]``: the windows of length
        min(depth, L), fixed by a first row and the inputs after it, are coded a block
        at a time in one reused buffer (``path`` is only read).  At most L codes are
        added up over all blocks and decoded through ``step`` once; more are ranked by
        ``np.unique`` (as are codes about to pass 2^62) and decoded per block.  Windows
        are projected onto every coordinate with one add; a shorter length sums the
        next over its last letter, plus the window too late to prefix a longer one."""
        k = len(alphabet)
        # sum of k**l: with k >= 2 its first 64 terms already pass the cap
        cells = k * depth if k < 2 else sum(k ** n for n in range(1, min(depth, 64) + 1))
        if cells > MAX_COUNT_CELLS:
            raise InputError(f"counting windows of {k} letters up to depth {depth} takes "
                             f"{'over ' * (k > 1 and depth > 64)}{cells} cells, more than the cap "
                             f"MAX_COUNT_CELLS = {MAX_COUNT_CELLS}")
        L, (R, d), base, top = len(path), letters.shape, step.shape[1], min(depth, len(path))

        def decode(codes, prefixes, digits):    # a row of prefixes, then digits inputs
            rows = list(prefixes[codes // base ** digits].T)
            for j in range(digits - 1, -1, -1):
                rows.append(step[rows[-1], codes // base ** j % base])
            return np.stack(rows, axis=1)

        def add(hits, windows, width):          # the hit windows' letters, coordinate by coordinate
            rows = decode(distinct := np.flatnonzero(hits), windows, top - width)
            codes = window_codes(np.moveaxis(letters[rows], 2, 0), k, top)[..., 0]
            np.add.at(top_counts, (np.arange(d)[:, None], codes), hits[distinct])
        counts = [[np.zeros(k ** n, np.int64) for n in range(depth, top, -1)] for _ in range(d)]
        if top:
            first, top_counts = np.arange(R)[:, None], np.zeros((d, k ** top), np.int64)
            hits = np.zeros(R * base ** (top - 1) if R * base ** (top - 1) <= L else 0, np.int64)
            for s, codes in _blocks(L - top + 1, np.intp):
                codes[...] = path[s:s + len(codes)]
                windows, width, bound = first, 1, R
                for j in range(1, top + 1):
                    if bound * base > 2 ** 62 or j == top and not len(hits):
                        ranks, codes[...] = np.unique(codes, return_inverse=True)
                        windows, width, bound = decode(ranks, windows, j - width), j, len(ranks)
                    if j < top:
                        codes *= base
                        codes += inputs[s + j:s + j + len(codes)]
                        bound *= base
                if len(hits):
                    np.add.at(hits, codes, 1)       # costs the block, where a bincount costs hits
                else:
                    add(np.bincount(codes), windows, width)
            if len(hits):
                add(hits, first, 1)
            for c, row, last in zip(counts, top_counts, letters[path[L - top + 1:]].T):
                c.append(row)
                for length in range(top - 1, 0, -1):
                    c.append(c[-1].reshape(-1, k).sum(axis=1))
                    c[-1][window_codes(last[top - 1 - length:], k, length)[0]] += 1
        return [cls(tuple(alphabet), depth, c[::-1], L) for c in counts]

    def frequencies(self, length) -> np.ndarray:
        """The length-``length`` counts (1 <= length <= depth) divided by
        the number of windows of that length, all 0 when no window fits."""
        if not 1 <= length <= self.depth:
            raise InputError(f"length: {length} is outside 1..{self.depth}, the counted depths")
        return self.counts[length - 1] / max(self.sample_length - length + 1, 1)

    def frequency(self, word) -> float:
        """The frequency of a word of 1 to ``depth`` letters."""
        word, code = _as_word(word), 0
        for a in word:
            code = code * len(self.alphabet) + self.alphabet.index(a)
        return float(self.frequencies(len(word))[code])

    def distance(self, other) -> float:
        """L-infinity distance over all cylinder frequencies up to depth."""
        if tuple(self.alphabet) != tuple(other.alphabet):    # counts are read by word code
            raise ValueError("distributions must share an alphabet")
        return max((float(np.abs(self.frequencies(length) - other.frequencies(length)).max())
                    for length in range(1, min(self.depth, other.depth) + 1)), default=0.0)

    def merged_with(self, other):
        if tuple(self.alphabet) != tuple(other.alphabet):    # counts are read by word code
            raise ValueError("distributions must share an alphabet")
        return EmpiricalDistribution(self.alphabet, min(self.depth, other.depth),
                                     [a + b for a, b in zip(self.counts, other.counts)],
                                     self.sample_length + other.sample_length)

    def to_json_dict(self, max_length=1):
        freq = {}
        for length in range(1, max_length + 1):
            names = (",".join(str(a) for a in w) for w in product(self.alphabet, repeat=length))
            freq.update(zip(names, self.frequencies(length).tolist()))
        return {"sample_length": self.sample_length, "frequencies": freq}


def measure_from_json_dict(data, code=None) -> StationaryMeasure:
    if not isinstance(data, dict):
        raise InputError(f"base: expected a measure object, got {data!r}")
    kind = data["type"]
    if kind == "bernoulli":
        return BernoulliMeasure(_json_list(data, "alphabet"), _json_list(data, "probabilities"))
    if kind == "markov":
        return MarkovMeasure(_json_list(data, "states"), data["transitions"],
                             stationary=_json_list(data, "stationary", optional=True))
    if kind == "co":
        orbit = PeriodicOrbit.from_word(_json_list(data, "orbit"))
        return COMeasure(orbit, _json_list(data, "alphabet", optional=True))
    if kind == "pushforward":
        if code is None:
            raise InputError("pushforward measure needs the code it pushes through")
        return PushforwardMeasure(measure_from_json_dict(data["base"]), code)
    raise InputError(f"type: unknown measure type {kind!r} "
                     "(expected bernoulli, markov, co or pushforward)")
