"""Exact-rational stationary measures and their cylinder calculus.

All measure arithmetic is done in ``fractions.Fraction``; floating point
enters only through sampling and Monte-Carlo statistics.  Hidden Markov
images are never materialized: a ``PushforwardMeasure`` keeps the (measure,
code) pair and evaluates image cylinders lazily and exactly, because the
image of a Markov measure has no finite Markov presentation in general.
Both code kinds are read as a sliding block code (a labeled graph is the
width-1 block code on its own symbols) through the code's cached 1-block
recoding (Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §1.4-1.5): an image cylinder sums the base measure over the
preimage paths of the recoding graph, and a sample reads each base window
through one window-code -> label table, its draws looked up in a guide
table (``_count_below``).  ``EmpiricalDistribution.counts[l - 1]`` is an
array of a sample's length-l window counts by base-k word code, the
order of ``window_codes`` and of ``product(alphabet, repeat=l)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InputError, NotErgodic
from .graphs import PeriodicOrbit, SlidingBlockCode, _as_word, _json_list, _tarjan_scc, scan
from . import codes

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


class StationaryMeasure:
    """Protocol base: a shift-invariant measure evaluated on cylinders.

    Subclasses provide ``alphabet``, ``cylinder(word) -> Fraction``,
    ``sample_indices(length, rng)`` and ``describe()``.  Samples hold
    alphabet indices as ``np.min_scalar_type(len(alphabet) - 1)``.
    """

    alphabet: tuple

    def cylinder(self, word) -> Fraction:
        raise NotImplementedError

    def sample_indices(self, length, rng) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def _index(self):
        return {a: i for i, a in enumerate(self.alphabet)}


def _count_below(breaks, draws, strict):
    """``np.searchsorted(breaks, draws, "left" if strict else "right")`` for
    draws in [0, 1], narrow, by a guide table (Chen & Asau 1974; Devroye
    1986, §III.2.4): draw u is in bucket floor(u·2^b), exactly, and only
    the draws in buckets that a break splits (marked m + 1) are searched."""
    m, side = len(breaks), "left" if strict else "right"
    bits = min(m.bit_length() + 6, 20)
    edges = np.arange(2 ** bits + 2) / 2 ** bits
    low = np.searchsorted(breaks, edges[:-1], side)
    table = np.where(np.searchsorted(breaks, edges[1:]) > low, m + 1, low)
    out = table.astype(np.min_scalar_type(m + 1)).take((draws * 2 ** bits).astype(np.int32))
    split = np.flatnonzero(out == m + 1)
    out[split] = np.searchsorted(breaks, draws[split], side)
    return out.astype(np.min_scalar_type(m), copy=False)


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
            if not self.is_ergodic():
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

    def support_transitions(self):
        """The transitions of the support: the 2-words of positive mass."""
        idx = self._index()
        return {(a, b) for a in self.alphabet for b in self.alphabet
                if self.stationary[idx[a]] * self.matrix[idx[a]][idx[b]] > 0}

    def is_ergodic(self) -> bool:
        succ = [[j for j, p in enumerate(row) if p > 0] for row in self.matrix]
        return len(_tarjan_scc(range(len(succ)), succ)) == 1

    def cylinder(self, word) -> Fraction:
        word = _as_word(word)
        if not word:
            return Fraction(1)
        idx = self._index()
        if any(a not in idx for a in word):
            return Fraction(0)
        mass = self.stationary[idx[word[0]]]
        for a, b in zip(word, word[1:]):
            mass *= self.matrix[idx[a]][idx[b]]
            if mass == 0:
                return Fraction(0)
        return mass

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
        breaks = np.unique(cum)
        table = np.zeros((n, len(breaks) + 1), dtype=np.int64)
        for s in range(n):
            positive = np.flatnonzero(rows[s])
            table[s, 1:] = np.searchsorted(cum[s], breaks, side="right")
            np.clip(table[s], positive[0], positive[-1], out=table[s])
        draws = rng.random(length)
        first = rng.choice(n, p=start_p)
        out = np.empty(length, np.min_scalar_type(n - 1))
        out[0] = first
        scan(table, _count_below(breaks, draws[1:], strict=True), first, out[1:])
        return out

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

    def cylinder(self, word) -> Fraction:
        idx = self._index()
        mass = Fraction(1)
        for a in _as_word(word):
            if a not in idx:
                return Fraction(0)
            mass *= self.probabilities[idx[a]]
        return mass

    def sample_indices(self, length, rng) -> np.ndarray:
        """``rng.choice(len(alphabet), length, p=p)``'s indices, narrow."""
        p = np.array([float(q) for q in self.probabilities])
        cdf = np.cumsum(p / p.sum())     # choice divides it by cdf[-1], which then tops every draw
        return _count_below(cdf[:-1] / cdf[-1], rng.random(length), strict=False)

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

    def cylinder(self, word) -> Fraction:
        word = _as_word(word)
        if not word:
            return Fraction(1)
        w = self.orbit.primitive_word
        p = self.orbit.period
        hits = 0
        for r in range(p):
            if all(word[i] == w[(r + i) % p] for i in range(len(word))):
                hits += 1
        return Fraction(hits, p)

    def sample_indices(self, length, rng) -> np.ndarray:
        """The orbit word from a uniform phase, as narrow indices."""
        idx = self._index()
        r = int(rng.integers(self.orbit.period))
        word = np.array([idx[a] for a in self.orbit.primitive_word],
                        np.min_scalar_type(len(idx) - 1))
        return word[(r + np.arange(length)) % self.orbit.period]

    def describe(self):
        return {"type": "co", "orbit": [str(a) for a in self.orbit.primitive_word]}


class PushforwardMeasure(StationaryMeasure):
    """Lazy image of a measure under a code: the (measure, code) pair.

    ``block_code`` is the code as a sliding block code (a labeled graph is
    read as the width-1 block code on its own symbols); everything here
    reads its cached 1-block recoding.  A cylinder sums the base measure
    exactly over the preimage words of the recoding graph's preimage paths;
    a sample of length T reads each window of a base sample of
    T + memory + anticipation letters through one window-code -> label
    table.  The base measure must live on the code's domain: a base letter
    outside the domain alphabet, or a Markov base with positive probability
    on a transition the domain forbids, is refused.
    """

    def __init__(self, base: StationaryMeasure, code):
        self.base = base
        self.code = code
        self.alphabet = code.y_symbols
        self.block_code = code if isinstance(code, SlidingBlockCode) else SlidingBlockCode(
            0, 0, code.x_symbols, {(s,): code.label[s] for s in code.x_symbols}, code.transitions)
        outside = set(base.alphabet) - set(self.block_code.alphabet)
        if outside:
            raise InputError(f"base: letters {sorted(map(str, outside))} are outside the "
                             "code's domain alphabet")
        if isinstance(base, MarkovMeasure):
            for (i, a), (j, b) in product(enumerate(base.alphabet), repeat=2):
                if base.matrix[i][j] > 0 and (a, b) not in self.block_code.transitions:
                    raise InputError(f"transitions: positive probability on forbidden "
                                     f"transition ({a!r},{b!r})")

    def cylinder(self, word) -> Fraction:
        return pushforward_cylinder(self.base, self.block_code, word)

    def sample_indices(self, length, rng) -> np.ndarray:
        """Each base window's image as a narrow index; ``len(alphabet)``: none."""
        width = self.block_code.width
        k = len(self.base.alphabet)
        letter = self.base._index()
        image = {y: i for i, y in enumerate(self.alphabet)}
        graph = self.block_code.recoding.graph
        blocks = [u for u in graph.x_symbols if all(a in letter for a in u)]
        table = np.full(k ** width, len(image), dtype=np.min_scalar_type(len(image)))
        encoded = np.array([[letter[a] for a in u] for u in blocks], dtype=np.int64)
        table[window_codes(encoded.reshape(-1, width), k, width)[:, 0]] = [
            image[graph.label[u]] for u in blocks]
        out = table.take(window_codes(self.base.sample_indices(length + width - 1, rng), k, width))
        if (out == len(image)).any():
            raise InputError("base: the sample left the code's domain")
        return out.astype(np.min_scalar_type(len(image) - 1), copy=False)

    def describe(self):
        kind = "sliding-block code" if isinstance(self.code, SlidingBlockCode) else "1-block code"
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


def pushforward_cylinder(m: StationaryMeasure, code, w) -> Fraction:
    """(pi_* m)([w]_0): the base mass of the set of preimage words, exact."""
    w = _as_word(w)
    total = Fraction(0)
    for u in codes.preimage_words(code, w):
        total += m.cylinder(u)
    return total


def sample_path(m: StationaryMeasure, length: int, seed: int):
    """A word of the stationary process, deterministic given the seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = make_rng(seed)
    idx = m.sample_indices(length, rng)
    return tuple(m.alphabet[i] for i in idx)


def has_two_point_factor(m) -> bool:
    """Whether the two-point rotation is a factor of the measure.

    Decided for Markov measures (Bernoulli measures are converted) through
    the product chain on states x {0,1} with a deterministic parity flip:
    the factor exists iff the positive-probability product graph fails to
    be strongly connected, which is exactly non-ergodicity of the product.
    """
    if isinstance(m, BernoulliMeasure):
        m = as_markov(m)
    if not isinstance(m, MarkovMeasure):
        raise TypeError("two-point-factor decision implemented for Markov measures only")
    if not m.is_ergodic():
        raise NotErgodic("measure's support chain is not strongly connected")
    idx = m._index()
    succ = [[] for _ in range(2 * len(idx))]        # (a, parity) is vertex 2 * idx[a] + parity
    for a, b in m.support_transitions():
        succ[2 * idx[a]].append(2 * idx[b] + 1)
        succ[2 * idx[a] + 1].append(2 * idx[b])
    return len(_tarjan_scc(range(len(succ)), succ)) != 1


def as_markov(m: BernoulliMeasure) -> MarkovMeasure:
    rows = {a: {b: p for b, p in zip(m.alphabet, m.probabilities) if p > 0}
            for a, q in zip(m.alphabet, m.probabilities) if q > 0}
    states = [a for a, q in zip(m.alphabet, m.probabilities) if q > 0]
    stat = [q for q in m.probabilities if q > 0]
    return MarkovMeasure(states, rows, stationary=stat)


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
        array.

        Only the longest windows, of length min(depth, len(arr)), are
        counted directly: their base-k codes go through one bincount.  The
        counts of each shorter length l are the sums of those of length
        l + 1 over the last letter, plus the one window of length l that
        starts too late to be the prefix of a longer one.  Refuses, before
        allocating, more than ``MAX_COUNT_CELLS`` cells in all."""
        k = len(alphabet)
        # sum of k**l: with k >= 2 its first 64 terms already pass the cap
        cells = k * depth if k < 2 else sum(k ** n for n in range(1, min(depth, 64) + 1))
        if cells > MAX_COUNT_CELLS:
            raise InputError(f"counting windows of {k} letters up to depth {depth} takes "
                             f"{'over ' * (k > 1 and depth > 64)}{cells} cells, more than the cap "
                             f"MAX_COUNT_CELLS = {MAX_COUNT_CELLS}")
        arr = np.asarray(arr)
        top = min(depth, len(arr))
        counts = [np.zeros(k ** length, dtype=np.int64) for length in range(depth, top, -1)]
        if top:
            counts.append(np.bincount(window_codes(arr, k, top), minlength=k ** top))
            for length in range(top - 1, 0, -1):
                counts.append(counts[-1].reshape(-1, k).sum(axis=1))
                counts[-1][window_codes(arr[-length:], k, length)[0]] += 1
        return cls(tuple(alphabet), depth, counts[::-1], int(len(arr)))

    def frequencies(self, length) -> np.ndarray:
        """The length-``length`` counts (1 <= length <= depth) divided by
        the number of windows of that length, all 0 when no window fits."""
        return self.counts[length - 1] / max(self.sample_length - length + 1, 1)

    def frequency(self, word) -> float:
        """The frequency of a word of 1 to ``depth`` letters."""
        word, code = _as_word(word), 0
        for a in word:
            code = code * len(self.alphabet) + self.alphabet.index(a)
        return float(self.frequencies(len(word))[code])

    def distance(self, other) -> float:
        """L-infinity distance over all cylinder frequencies up to depth."""
        return max((float(np.abs(self.frequencies(length) - other.frequencies(length)).max())
                    for length in range(1, min(self.depth, other.depth) + 1)), default=0.0)

    def merged_with(self, other):
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
