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
through one window-code -> label table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InputError, NotErgodic
from .graphs import PeriodicOrbit, SlidingBlockCode, _as_word, _tarjan_scc, scan
from . import codes


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
    ``sample_indices(length, rng)`` and ``describe()``.
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

    def __init__(self, states, transition_probabilities, stationary=None, support_graph=None):
        self.alphabet = tuple(states)
        idx = self._index()
        n = len(self.alphabet)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for a, row in transition_probabilities.items():
            for b, p in row.items():
                matrix[idx[a]][idx[b]] = parse_fraction(p)
        for i, a in enumerate(self.alphabet):
            if sum(matrix[i]) != 1:
                raise InputError(f"transitions: row of {a!r} does not sum to 1 exactly")
            if any(p < 0 for p in matrix[i]):
                raise InputError(f"transitions: negative probability in the row of {a!r}")
        self.matrix = tuple(tuple(row) for row in matrix)
        if support_graph is not None:
            self._require_transitions_in(support_graph.transitions)
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

    def _require_transitions_in(self, allowed):
        """Refuse positive probability on a transition outside ``allowed``."""
        for i, a in enumerate(self.alphabet):
            for j, b in enumerate(self.alphabet):
                if self.matrix[i][j] > 0 and (a, b) not in allowed:
                    raise InputError(f"transitions: positive probability on forbidden "
                                     f"transition ({a!r},{b!r})")

    def support_transitions(self):
        """The transitions of the support: the 2-words of positive mass."""
        idx = self._index()
        return {(a, b) for a in self.alphabet for b in self.alphabet
                if self.stationary[idx[a]] * self.matrix[idx[a]][idx[b]] > 0}

    def is_ergodic(self) -> bool:
        succ = {a: [] for a in self.alphabet}
        idx = self._index()
        for a in self.alphabet:
            for b in self.alphabet:
                if self.matrix[idx[a]][idx[b]] > 0:
                    succ[a].append(b)
        comps = _tarjan_scc(self.alphabet, succ)
        return len(comps) == 1

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
        its interval index and the chain is a ``scan`` over a (state ×
        interval) table.  Each row is clamped to its positive-probability
        states: a draw above the row's float total (which can fall just
        below 1) goes to its last one, a draw of exactly 0 to its first."""
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
        out = np.searchsorted(breaks, draws).astype(np.int64, copy=False)
        out[0] = first
        scan(table, out[1:], first, out[1:])
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
        p = np.array([float(q) for q in self.probabilities])
        p /= p.sum()
        return rng.choice(len(self.alphabet), size=length, p=p)

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
        idx = self._index()
        r = int(rng.integers(self.orbit.period))
        word = np.array([idx[a] for a in self.orbit.primitive_word], dtype=np.int64)
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
            base._require_transitions_in(self.block_code.transitions)

    def cylinder(self, word) -> Fraction:
        return pushforward_cylinder(self.base, self.block_code, word)

    def sample_indices(self, length, rng) -> np.ndarray:
        width = self.block_code.width
        k = len(self.base.alphabet)
        letter = self.base._index()
        image = {y: i for i, y in enumerate(self.alphabet)}
        graph = self.block_code.recoding.graph
        blocks = [u for u in graph.x_symbols if all(a in letter for a in u)]
        table = np.full(k ** width, -1, dtype=np.int64)
        encoded = np.array([[letter[a] for a in u] for u in blocks], dtype=np.int64)
        table[window_codes(encoded.reshape(-1, width), k, width)[:, 0]] = [
            image[graph.label[u]] for u in blocks]
        out = table[window_codes(self.base.sample_indices(length + width - 1, rng), k, width)]
        if (out < 0).any():
            raise InputError("base: the sample left the code's domain")
        return out

    def describe(self):
        kind = "sliding-block code" if isinstance(self.code, SlidingBlockCode) else "1-block code"
        return {"type": "pushforward", "base": self.base.describe(), "code": kind}


def window_codes(arr, k, width):
    """The base-k code of every length-``width`` window along the last axis
    of an index array."""
    n = arr.shape[-1] - width + 1
    codes_arr = np.zeros(arr.shape[:-1] + (n,), dtype=np.int64)
    for j in range(width):
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
    support = m.support_transitions()
    nodes = [(a, i) for a in m.alphabet for i in (0, 1)]
    succ = {v: [] for v in nodes}
    for a, b in support:
        succ[(a, 0)].append((b, 1))
        succ[(a, 1)].append((b, 0))
    comps = _tarjan_scc(nodes, succ)
    return len(comps) != 1


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


@dataclass
class EmpiricalDistribution:
    """Cylinder counts of one sampled coordinate up to a fixed depth."""

    alphabet: tuple
    depth: int
    counts: dict                  # word tuple -> int
    sample_length: int

    @classmethod
    def from_indices(cls, arr, alphabet, depth):
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
        return cls(tuple(alphabet), depth, counts, int(len(arr)))

    def frequency(self, word) -> float:
        word = _as_word(word)
        windows = self.sample_length - len(word) + 1
        if windows <= 0:
            return 0.0
        return self.counts.get(word, 0) / windows

    def distance(self, other) -> float:
        """L-infinity distance over all cylinder frequencies up to depth."""
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


def measure_from_json_dict(data, code=None) -> StationaryMeasure:
    kind = data["type"]
    if kind == "bernoulli":
        return BernoulliMeasure(data["alphabet"], data["probabilities"])
    if kind == "markov":
        return MarkovMeasure(data["states"], data["transitions"],
                             stationary=data.get("stationary"))
    if kind == "co":
        orbit = PeriodicOrbit.from_word(tuple(data["orbit"]))
        return COMeasure(orbit, data.get("alphabet"))
    if kind == "pushforward":
        if code is None:
            raise InputError("pushforward measure needs the code it pushes through")
        return PushforwardMeasure(measure_from_json_dict(data["base"]), code)
    raise InputError(f"type: unknown measure type {kind!r} "
                     "(expected bernoulli, markov, co or pushforward)")
