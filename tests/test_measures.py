import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sftlift as sl
from sftlift import BernoulliMeasure, COMeasure, MarkovMeasure, PeriodicOrbit, graphs
from sftlift.errors import InputError, NotErgodic
from sftlift.measures import make_rng

import oracles
from conftest import random_rational_vector


def bernoulli_p(p):
    """Bernoulli on the 2-shift with probability p for the symbol 1."""
    p = Fraction(p)
    return BernoulliMeasure(("0", "1"), (1 - p, p))


def golden_mean_markov():
    return MarkovMeasure(["a", "b"],
                         {"a": {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                          "b": {"a": 1}})


def cycle_markov(n):
    states = [str(i) for i in range(n)]
    return MarkovMeasure(states, {states[i]: {states[(i + 1) % n]: 1} for i in range(n)})


# ------------------------------------------------------------- cylinders

def test_bernoulli_cylinder():
    assert bernoulli_p(Fraction(3, 10)).cylinder("11") == Fraction(9, 100)


def test_co_cylinder():
    m = COMeasure(PeriodicOrbit.from_word("01"))
    assert m.cylinder("010") == Fraction(1, 2)
    assert m.cylinder("00") == 0


def test_markov_cylinder_golden_mean():
    m = golden_mean_markov()
    assert m.stationary == (Fraction(2, 3), Fraction(1, 3))
    assert m.cylinder("ab") == Fraction(1, 3)
    assert m.cylinder("bb") == 0


def test_empty_word_has_mass_one():
    for m in (bernoulli_p("3/10"), golden_mean_markov(),
              COMeasure(PeriodicOrbit.from_word("01"))):
        assert m.cylinder("") == 1


# ----------------------------------------------------------- pushforward

def test_pushforward_rule102(rule102):
    p = Fraction(3, 10)
    value = sl.PushforwardMeasure(bernoulli_p(p), rule102.code).cylinder("1")
    assert value == 2 * p * (1 - p) == Fraction(21, 50)


def test_pushforward_symmetry(rule102):
    assert sl.PushforwardMeasure(bernoulli_p("1/2"), rule102.code).cylinder("1") == Fraction(1, 2)


def test_pushforward_empty_word(rule102):
    assert sl.PushforwardMeasure(bernoulli_p("3/10"), rule102.code).cylinder("") == 1


def test_pushforward_consistency_exact(rule102):
    m = bernoulli_p("3/10")
    for w in ("", "0", "1", "01", "10", "11"):
        total = sum(sl.PushforwardMeasure(m, rule102.code).cylinder(tuple(w) + (a,))
                    for a in "01")
        assert total == sl.PushforwardMeasure(m, rule102.code).cylinder(w)


def test_diff4_cylinder_of_a_long_word_is_the_sum_over_its_lifts(diff4):
    # y_i = x_{i+1} - x_i mod 4: the preimages of w are the four words
    # lift_c(w) = (c, c + w_0, c + w_0 + w_1, ...), one per start letter c
    rng = random.Random(16)
    states = "0123"
    m = MarkovMeasure(states, {a: dict(zip(states, random_rational_vector(rng, 4)))
                               for a in states})
    w = [rng.randrange(4) for _ in range(16)]
    lifts = [[c] for c in range(4)]
    for lift in lifts:
        for y in w:
            lift.append((lift[-1] + y) % 4)
    expected = sum(m.cylinder(tuple(str(x) for x in lift)) for lift in lifts)
    assert sl.PushforwardMeasure(m, diff4.code).cylinder(tuple(map(str, w))) == expected


def test_pushforward_on_graph_code(golden_mean_graph):
    m = MarkovMeasure(["a", "b"],
                      {"a": {"a": Fraction(1, 2), "b": Fraction(1, 2)}, "b": {"a": 1}})
    assert sl.PushforwardMeasure(m, golden_mean_graph).cylinder("ab") == Fraction(1, 3)


def test_a_graph_pushforward_builds_no_recoding(monkeypatch, golden_mean_graph):
    # a graph is its own recoding: pushing it forward, sampling it and reading
    # a cylinder build none (a width-1 block-code wrap once built one to sample)
    calls, recode = [], graphs.recode_to_one_block
    monkeypatch.setattr(graphs, "recode_to_one_block",
                        lambda code: calls.append(type(code).__name__) or recode(code))
    nu = sl.PushforwardMeasure(golden_mean_markov(), golden_mean_graph)
    word = "".join(sl.sample_path(nu, 200, seed=0))
    assert "bb" not in word and "ab" in word
    assert nu.cylinder("ab") == Fraction(1, 3) and calls == []
    sl.sample_path(sl.PushforwardMeasure(bernoulli_p("1/2"), sl.difference_code(2)), 50, seed=0)
    assert calls == ["SlidingBlockCode"]


def test_hidden_chains_of_a_co_measure_and_a_pushforward(rule102):
    # a co measure's states are the phases of its orbit; a pushforward's are
    # the windows of its base chain's states, one per 2-block of rule102
    co = COMeasure(PeriodicOrbit.from_word("001"))
    chain = co.hidden_chain()
    assert chain.stationary == (Fraction(1, 3),) * 3
    assert chain.rows == ({1: 1}, {2: 1}, {0: 1}) and chain.letter == (0, 0, 1)
    assert co.hidden_chain() is chain
    assert BernoulliMeasure("012", ("1/2", "0", "1/2")).hidden_chain().letter == (0, 2)
    chain = sl.PushforwardMeasure(bernoulli_p("3/10"), rule102.code).hidden_chain()
    assert chain.stationary == tuple(Fraction(n, 100) for n in (49, 21, 21, 9))
    assert chain.letter == (0, 1, 1, 0)
    assert chain.rows[1] == {2: Fraction(7, 10), 3: Fraction(3, 10)}


@pytest.mark.parametrize("base", [COMeasure(PeriodicOrbit.from_word("b")),
                                  BernoulliMeasure("ab", ("1/2", "1/2"))])
def test_pushforward_base_off_the_domain_refused(golden_mean_graph, base):
    # the golden-mean graph forbids b -> b, which both bases charge: the co
    # base was accepted with nu([b]) = 1 but nu([bb]) = 0
    with pytest.raises(InputError, match=r"^base: positive probability on forbidden "
                                         r"transition \('b','b'\)$"):
        sl.PushforwardMeasure(base, golden_mean_graph)


def test_co_measure_refuses_a_duplicate_alphabet():
    with pytest.raises(InputError, match="^alphabet: duplicate letters$"):
        COMeasure(PeriodicOrbit.from_word("b"), ("a", "b", "a"))


# ---------------------------------------------------------------- sampling

def test_sample_co_measure():
    m = COMeasure(PeriodicOrbit.from_word("01"))
    word = sl.sample_path(m, 4, seed=7)
    assert "".join(word) in {"0101", "1010"}


def test_sample_bernoulli_frequency():
    word = sl.sample_path(bernoulli_p("1/2"), 10**6, seed=0)
    ones = word.count("1")
    assert abs(ones / 10**6 - 0.5) < 0.005


def test_sample_markov_pair_frequency():
    word = sl.sample_path(golden_mean_markov(), 10**6, seed=1)
    pairs = sum(1 for a, b in zip(word, word[1:]) if a == "a" and b == "a")
    assert abs(pairs / (10**6 - 1) - 1 / 3) < 0.005


def test_sampling_deterministic_given_seed():
    m = golden_mean_markov()
    assert sl.sample_path(m, 500, seed=42) == sl.sample_path(m, 500, seed=42)
    assert sl.sample_path(m, 500, seed=42) != sl.sample_path(m, 500, seed=43)


class StubRng:
    """Replays fixed uniform draws, in one call or into ``out`` a block at a
    time, then a fixed initial state, once every draw is taken."""

    def __init__(self, draws, first):
        self.draws = np.array(draws, dtype=float)
        self.first = first
        self.taken = 0

    def random(self, length=None, out=None):
        n = len(out) if out is not None else length
        assert self.taken + n <= len(self.draws)
        block = self.draws[self.taken:self.taken + n]
        self.taken += n
        if out is None:
            return block.copy()
        out[...] = block
        return out

    def choice(self, n, p):
        assert self.taken == len(self.draws)        # the start state is drawn after the doubles
        return self.first


@pytest.mark.parametrize("weights", [[5, 39, 38, 9, 2], [5, 39, 38, 9, 2, 0]])
def test_markov_largest_draw_stays_in_alphabet(weights):
    # after float normalisation this row's cumulative total is
    # 0.9999999999999998, below the largest draw 1 - 2**-53; the draw must
    # land on the last state of positive probability (index 4)
    states = "abcdef"[:len(weights)]
    row = [Fraction(w, sum(weights)) for w in weights]
    m = MarkovMeasure(states, {a: dict(zip(states, row)) for a in states}, stationary=row)
    draws = [0.0, 0.5, 0.25, 1 - 2**-53]
    old = oracles.markov_sample_indices(m, len(draws), StubRng(draws, 1))
    assert old[-1] == len(states)                  # the per-step sampler's overflow
    new = m.sample_indices(len(draws), StubRng(draws, 1))
    assert new.tolist() == old.tolist()[:-1] + [4]


@pytest.mark.parametrize("first", [1, 2])
def test_markov_zero_draw_skips_a_zero_probability_state(first):
    # every row is (0, 1/2, 1/2): a draw of exactly 0.0 must land on the
    # row's first positive-probability state (index 1), never on state 0
    states = "abc"
    row = {"b": Fraction(1, 2), "c": Fraction(1, 2)}
    m = MarkovMeasure(states, {a: row for a in states}, stationary=[0, row["b"], row["c"]])
    draws = [0.0, 0.0]
    new = m.sample_indices(len(draws), StubRng(draws, first))
    assert new.tolist() == [first, 1]
    assert oracles.markov_sample_indices(m, len(draws), StubRng(draws, first)).tolist() == [first, 1]


def test_markov_draws_on_breakpoints_match_oracle():
    # a draw equal to a cumulative breakpoint selects the state it closes
    weights = [[1, 1, 2], [0, 3, 1], [2, 0, 2]]
    states = "abc"
    rows = {a: {b: Fraction(w, sum(row)) for b, w in zip(states, row)}
            for a, row in zip(states, weights)}
    m = MarkovMeasure(states, rows)
    cum = np.cumsum(np.array([[w / sum(row) for w in row] for row in weights]), axis=1)
    draws = [0.0] + sorted(set(cum.ravel().tolist())) * 3
    for first in range(3):
        old = oracles.markov_sample_indices(m, len(draws), StubRng(draws, first))
        assert m.sample_indices(len(draws), StubRng(draws, first)).tolist() == old.tolist()


@pytest.mark.parametrize("name", ["rule102-bernoulli", "markov", "alternating-offset"])
def test_sampler_peak_is_a_few_blocks_beyond_its_output(rule102, name):
    # draws are taken a block at a time: at T = 10**6 a sampler holds its
    # output (and a pushforward its base sample) plus a few reused blocks;
    # the alternating offset is added in place
    if name == "markov":
        m = MarkovMeasure("abcd", {"a": {"b": "1/3", "d": "2/3"}, "b": {"b": "1/2", "c": "1/2"},
                                   "c": {"a": "1/5", "c": "4/5"}, "d": {"a": "1"}})
    elif name == "alternating-offset":
        m = sl.AlternatingOffsetMeasure(BernoulliMeasure("01234", ["3/5", "1/10", "1/10", "0",
                                                                   "1/5"]), 2, 5)
    else:
        m = sl.PushforwardMeasure(BernoulliMeasure("01", ("7/10", "3/10")), rule102.code)
    m.sample_indices(10, make_rng(0))                 # builds what is cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = m.sample_indices(10**6, make_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.nbytes == 10**6
    assert peak < 3 * 2**20 + out.nbytes


# ------------------------------------------------------- two-point factor

def test_bernoulli_has_no_two_point_factor():
    assert sl.has_two_point_factor(bernoulli_p("3/10")) is False


def test_two_cycle_is_the_two_point_system():
    assert sl.has_two_point_factor(cycle_markov(2)) is True


def test_three_cycle_has_no_two_point_factor():
    assert sl.has_two_point_factor(cycle_markov(3)) is False


@pytest.mark.parametrize("n", range(2, 9))
def test_cycle_oracle(n):
    assert sl.has_two_point_factor(cycle_markov(n)) == (n % 2 == 0)


def test_two_point_factor_requires_ergodic():
    m = MarkovMeasure(["a", "b"], {"a": {"a": 1}, "b": {"b": 1}},
                      stationary=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(NotErgodic):
        sl.has_two_point_factor(m)


def test_no_factor_gives_mixing_parity_pairs_smoke():
    m = golden_mean_markov()
    assert not sl.has_two_point_factor(m)
    word = sl.sample_path(m, 200_000, seed=3)
    counts = Counter((a, t % 2) for t, a in enumerate(word))
    freqs = {k: v / len(word) for k, v in counts.items()}
    assert set(freqs) == {("a", 0), ("a", 1), ("b", 0), ("b", 1)}
    assert abs(freqs[("a", 0)] - freqs[("a", 1)]) < 0.02


# ------------------------------------------------------------- comparison

def test_compare_distinct_bernoullis():
    result = sl.compare_measures(bernoulli_p("3/10"), bernoulli_p("7/10"), 1)
    assert result.distinct
    assert result.witness in {("0",), ("1",)}
    assert set(result.values) == {Fraction(3, 10), Fraction(7, 10)}


def test_compare_equal_bernoullis():
    result = sl.compare_measures(bernoulli_p("1/2"), bernoulli_p("1/2"), 4)
    assert not result.distinct and result.equal_up_to == 4


def test_compare_sweeps_mod_4():
    digits = ("0", "1", "2", "3")
    alpha = (Fraction(1, 8), Fraction(3, 8), Fraction(1, 8), Fraction(3, 8))
    mu = BernoulliMeasure(digits, alpha)
    s_mu = BernoulliMeasure(digits, sl.sweep_vector(alpha, 1, 4))
    s2_mu = BernoulliMeasure(digits, sl.sweep_vector(alpha, 2, 4))
    assert sl.compare_measures(mu, s_mu, 1).distinct
    assert not sl.compare_measures(mu, s2_mu, 4).distinct


# ----------------------------------------------------- exactness invariants

def random_measures(seed):
    rng = random.Random(seed)
    kind = rng.choice(["bernoulli", "markov", "co"])
    if kind == "bernoulli":
        k = rng.randint(2, 4)
        return BernoulliMeasure([str(i) for i in range(k)], random_rational_vector(rng, k))
    if kind == "markov":
        k = rng.randint(2, 4)
        states = [str(i) for i in range(k)]
        rows = {s: dict(zip(states, random_rational_vector(rng, k))) for s in states}
        return MarkovMeasure(states, rows)
    k = rng.randint(1, 5)
    word = [str(rng.randint(0, 2)) for _ in range(k)]
    return COMeasure(PeriodicOrbit.from_word(tuple(word)), ("0", "1", "2"))


@given(st.integers(0, 10**6), st.integers(0, 3))
def test_kolmogorov_and_shift_invariance(seed, length):
    rng = random.Random(seed * 31 + 7)
    m = random_measures(seed)
    word = tuple(rng.choice(m.alphabet) for _ in range(length))
    mass = m.cylinder(word)
    assert sum(m.cylinder(word + (a,)) for a in m.alphabet) == mass
    assert sum(m.cylinder((a,) + word) for a in m.alphabet) == mass


def test_markov_stationarity_exact():
    m = golden_mean_markov()
    n = len(m.alphabet)
    for j in range(n):
        assert sum(m.stationary[i] * m.matrix[i][j] for i in range(n)) == m.stationary[j]


# ------------------------------------------------- empirical distributions

def test_empirical_counts_sum_invariant():
    import numpy as np
    arr = np.array([0, 1, 0, 0, 1, 1, 0, 1, 0, 0])
    emp = sl.EmpiricalDistribution.from_indices(arr, ("0", "1"), 3)
    expected = oracles.empirical_counts(arr, ("0", "1"), 3)
    for k in (1, 2, 3):
        assert emp.counts[k - 1].tolist() == [expected.get(w, 0)
                                              for w in product(("0", "1"), repeat=k)]
        assert emp.counts[k - 1].sum() == len(arr) - k + 1


def test_empirical_distance():
    import numpy as np
    a = sl.EmpiricalDistribution.from_indices(np.zeros(100, dtype=int), ("0", "1"), 1)
    b = sl.EmpiricalDistribution.from_indices(np.ones(100, dtype=int), ("0", "1"), 1)
    assert a.distance(b) == 1.0
    assert a.distance(a) == 0.0


def test_empirical_distributions_over_different_alphabets_refused():
    # counts are combined by word code: a merge or a distance over another
    # alphabet would pair the counts of different words (or fail to broadcast)
    ab = sl.EmpiricalDistribution.from_indices([0, 1, 1, 0, 1], ("a", "b"), 2)
    others = [sl.EmpiricalDistribution.from_indices([0, 0], ("b", "a"), 2),
              sl.EmpiricalDistribution.from_indices([1, 0, 0, 1, 0], ("b", "a"), 2),
              sl.EmpiricalDistribution.from_indices([0, 1, 2], ("a", "b", "c"), 2)]
    for other in others:
        for combine in (ab.merged_with, ab.distance):
            with pytest.raises(ValueError, match="^distributions must share an alphabet$"):
                combine(other)
    merged = ab.merged_with(sl.EmpiricalDistribution.from_indices([1, 1], ("a", "b"), 2))
    assert merged.frequency(("a",)) == 2 / 7 and ab.distance(ab) == 0.0


def test_empirical_frequencies_refuse_lengths_outside_the_depth():
    # at depth 2, length 0 once read the length-2 counts and a 3-letter word
    # raised a bare IndexError
    emp = sl.EmpiricalDistribution.from_indices(np.array([0, 1, 1, 0]), ("0", "1"), 2)
    assert emp.frequencies(2).tolist() == [0, 1 / 3, 1 / 3, 1 / 3]
    for length in (-1, 0, 3):
        with pytest.raises(InputError, match=rf"^length: {length} is outside 1\.\.2"):
            emp.frequencies(length)
    for word in ((), "011"):
        with pytest.raises(InputError, match="^length: "):
            emp.frequency(word)


def test_empirical_counts_over_the_cell_cap_refused_before_allocating():
    # 2**46 - 2 cells at depth 45 (256 TiB of int64) and 2**28 - 2 one past the cap;
    # one letter counts one cell a length
    start = time.perf_counter()
    for alphabet, depth, cells in ((("a", "b"), 45, "70368744177662"),
                                   (("a", "b"), 27, "268435454"),
                                   (("a",), 2**27 + 1, "134217729"),
                                   (("a", "b"), 10**9, "over 36893488147419103230")):
        with pytest.raises(InputError) as info:
            sl.EmpiricalDistribution.from_indices(np.zeros(5, np.uint8), alphabet, depth)
        assert str(info.value) == (f"counting windows of {len(alphabet)} letters up to depth "
                                   f"{depth} takes {cells} cells, more than the cap "
                                   f"MAX_COUNT_CELLS = {2**27}")
    assert time.perf_counter() - start < 1


# --------------------------------------------------------------------- I/O

def test_measure_json_round_trip():
    m = golden_mean_markov()
    data = m.describe()
    back = sl.measure_from_json_dict(data)
    assert back.stationary == m.stationary
    assert sl.compare_measures(m, back, 3).equal_up_to == 3


def test_pushforward_measure_protocol(rule102):
    nu = sl.PushforwardMeasure(bernoulli_p("3/10"), rule102.code)
    assert nu.cylinder("1") == Fraction(21, 50)
    word = sl.sample_path(nu, 8, seed=5)
    assert len(word) == 8 and set(word) <= {"0", "1"}
