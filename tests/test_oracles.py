"""Differential tests: the shared subset automaton, the integer viability
walk, the single phased-cycle routine, the vectorised samplers and the
recoding-based pushforward path against the constructions they replaced
(kept in ``oracles.py``)."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sftlift as sl
from sftlift.codes import phased_cycles
from sftlift.errors import EmptyAfterTrim, NoPath, PreconditionError
from sftlift.fibers import support_presentation
from sftlift.graphs import SubsetAutomaton
from sftlift.joinings import _ViabilityWalk
from sftlift.measures import make_rng

import oracles
from test_graphs import graphs_strategy


@given(graphs_strategy())
def test_subset_automaton_matches_subset_state_oracles(g):
    for backward, oracle in ((False, oracles.forward_states), (True, oracles.backward_states)):
        aut = SubsetAutomaton(g, backward=backward)
        expected = oracle(g)
        assert [frozenset(s) for s in aut.subsets] == list(expected)
        assert aut.witness == list(expected.values())
        assert all(list(s) == sorted(s, key=g.index.get) for s in aut.subsets)
        ids = {frozenset(s): k for k, s in enumerate(aut.subsets)}
        nbrs = g.predecessors if backward else g.successors
        for k, subset in enumerate(aut.subsets):
            reach = {t for s in subset for t in nbrs[s]}
            for j, y in enumerate(g.y_symbols):
                nxt = frozenset(t for t in reach if g.label[t] == y)
                assert aut.step[k, j] == ids.get(nxt, -1)


@given(graphs_strategy())
def test_determinize_matches_oracle(g):
    new, old = sl.determinize(g), oracles.determinize(g)
    assert new.states == old.states
    assert new.step == old.step
    assert new.alphabet == old.alphabet
    assert new.entropy() == old.entropy()       # bit for bit


def _old_path(g, word):
    walker = oracles.ViabilityWalk(g)
    return walker.walk(word, walker.viability_ids(word))


def _new_path(g, word):
    walker = _ViabilityWalk(g)
    path = walker.walk(walker.viability_ids([g.y_symbols.index(y) for y in word]))
    return [g.x_symbols[k] for k in path]


@given(graphs_strategy(), st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
def test_viability_walk_matches_oracle(g, seed, length, corrupt):
    rng = random.Random(seed)
    ess = sl.analyze_graph(g).essential
    s = rng.choice(ess.x_symbols)
    word = [ess.label[s]]
    for _ in range(length - 1):
        s = rng.choice(ess.successors[s])
        word.append(ess.label[s])
    if corrupt:
        word[rng.randrange(length)] = rng.choice(g.y_symbols)
    word = tuple(word)
    try:
        expected = _old_path(g, word)
    except NoPath:
        with pytest.raises(NoPath):
            _new_path(g, word)
        return
    assert _new_path(g, word) == expected


def test_viability_walk_matches_oracle_on_joining_graphs(rule102, diff4, sum5):
    rng = random.Random(7)
    for ca in (rule102, diff4, sum5):
        lam = sl.degree_joining_graph(ca.recoding.graph)
        word = tuple(rng.choice(lam.graph.y_symbols) for _ in range(3000))
        assert _new_path(lam.graph, word) == _old_path(lam.graph, word)


def _fiber_outcome(fn, g, y):
    try:
        return fn(g, y)
    except PreconditionError as exc:
        return type(exc)


def _check_fiber(g, y):
    expected = _fiber_outcome(oracles.periodic_fiber, g, y)
    fiber = _fiber_outcome(sl.periodic_fiber, g, y)
    if isinstance(expected, type):
        assert fiber is expected
        return
    assert (fiber.lift_orbits, fiber.fiber_size) == expected
    for (orbit, _winding), offset in zip(fiber.lift_orbits, fiber.anchors):
        word = orbit.primitive_word
        for r in range(orbit.period):
            rot = word[r:] + word[:r]
            assert (offset + r) % y.period == oracles.anchor_of_label(
                rot, g.label, y.primitive_word)


def _joining_orbits(lam, y):
    return [sl.PeriodicOrbit.from_word(w, lam.index) for w in phased_cycles(lam, y)]


@given(graphs_strategy(max_symbols=5))
def test_periodic_fiber_and_anchors_match_oracle(g):
    for y in sl.determinize(g).periodic_orbits(3):
        _check_fiber(g, y)


def test_periodic_cycles_match_oracle_on_sweep_fixtures(sweep_fixtures):
    for _name, code, _cto in sweep_fixtures:
        g = code.graph if hasattr(code, "graph") else code
        lam = sl.degree_joining_graph(g).graph
        for y in sl.determinize(g).periodic_orbits(3):
            _check_fiber(g, y)
            assert (_fiber_outcome(_joining_orbits, lam, y)
                    == _fiber_outcome(oracles.periodic_joining_orbits, lam, y))


@st.composite
def markov_chains(draw):
    """Ergodic chains on 2-10 states: a random cycle keeps them irreducible,
    the other transitions carry random integer weights, zero included."""
    n = draw(st.integers(2, 10))
    states = [str(i) for i in range(n)]
    cycle = draw(st.permutations(range(n)))
    weights = [[draw(st.integers(0, 9)) for _ in range(n)] for _ in range(n)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        weights[a][b] = max(weights[a][b], 1)
    rows = {states[a]: {states[b]: Fraction(w, sum(row)) for b, w in enumerate(row) if w}
            for a, row in enumerate(weights)}
    return sl.MarkovMeasure(states, rows)


SAMPLE_LENGTHS = st.one_of(st.sampled_from([1, 2, 3]),
                           st.integers(2, 70).map(lambda k: k * k),
                           st.integers(1, 5000))


@given(markov_chains(), SAMPLE_LENGTHS, st.integers(0, 2**32 - 1))
def test_markov_sampler_matches_per_step_oracle(m, length, seed):
    new = m.sample_indices(length, make_rng(seed))
    old = oracles.markov_sample_indices(m, length, make_rng(seed))
    assert new.dtype == old.dtype == np.int64
    assert new.tolist() == old.tolist()


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 10, 4096, 4999])
def test_markov_sampler_matches_oracle_at_chunk_edges(length):
    m = sl.MarkovMeasure("abcd", {"a": {"b": "1/3", "d": "2/3"}, "b": {"b": "1/2", "c": "1/2"},
                                  "c": {"a": "1/5", "c": "4/5"}, "d": {"a": "1"}})
    for seed in range(3):
        new = m.sample_indices(length, make_rng(seed))
        assert new.tolist() == oracles.markov_sample_indices(m, length, make_rng(seed)).tolist()


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12), SAMPLE_LENGTHS,
       st.integers(0, 2**32 - 1))
def test_co_sampler_matches_comprehension(word, length, seed):
    m = sl.COMeasure(sl.PeriodicOrbit.from_word(tuple(word)), alphabet="abcd")
    new = m.sample_indices(length, make_rng(seed))
    old = oracles.co_sample_indices(m, length, make_rng(seed))
    assert new.dtype == old.dtype == np.int64
    assert new.tolist() == old.tolist()


# ------------------------------------------------------ pushforward path

def _random_block_code(rng, k, memory, anticipation, density=1.0):
    """A random block map on k letters; below density 1 the domain keeps
    each transition with that probability."""
    alphabet = "abcd"[:k]
    transitions = {(a, b) for a in alphabet for b in alphabet if rng.random() < density}
    labels = "xyz"[:rng.randint(1, 3)]
    block_map = {u: rng.choice(labels)
                 for u in product(alphabet, repeat=memory + anticipation + 1)}
    return sl.SlidingBlockCode(memory, anticipation, alphabet, block_map, transitions)


def _image_word(rng, code, length):
    """The image of a random domain walk when one survives, else random letters."""
    walk = [rng.choice(code.alphabet)]
    for _ in range(length + code.width - 2):
        nxt = [b for b in code.alphabet if (walk[-1], b) in code.transitions]
        if not nxt:
            return tuple(rng.choice(code.y_symbols) for _ in range(length))
        walk.append(rng.choice(nxt))
    return code.apply(walk) if length else ()


def _extends(code, word):
    """Whether a domain word extends to a bi-infinite point: it is a path,
    its first letter has arbitrarily long pasts and its last letter
    arbitrarily long futures (k steps suffice on k letters)."""
    trans = code.transitions
    if any((a, b) not in trans for a, b in zip(word, word[1:])):
        return False
    forward, backward = set(code.alphabet), set(code.alphabet)
    for _ in code.alphabet:
        forward = {a for a in code.alphabet if any((a, b) in trans for b in forward)}
        backward = {b for b in code.alphabet if any((a, b) in trans for a in backward)}
    if not word:
        return bool(forward)
    return word[0] in backward and word[-1] in forward


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_preimage_words_match_enumeration_on_full_shifts(k):
    rng = random.Random(k)
    for memory, anticipation in product(range(3), repeat=2):
        code = _random_block_code(rng, k, memory, anticipation)
        for length in range(6):
            w = _image_word(rng, code, length)
            assert sl.preimage_words(code, w) == oracles.preimage_words_block(code, w)


@given(st.integers(0, 2**32 - 1))
def test_block_preimage_words_drop_exactly_the_non_extendable_words(seed):
    rng = random.Random(seed)
    code = _random_block_code(rng, rng.randint(2, 4), rng.randint(0, 2), rng.randint(0, 2),
                              density=0.6)
    for length in range(6):
        w = _image_word(rng, code, length)
        old = oracles.preimage_words_block(code, w)
        assert sl.preimage_words(code, w) == {u for u in old if _extends(code, u)}


def test_block_preimage_words_on_a_domain_without_blocks():
    code = sl.SlidingBlockCode(1, 1, "ab", {}, [("a", "b")])
    for w in ("", "x", "xy"):
        assert sl.preimage_words(code, w) == set()


def _random_base(rng, alphabet):
    """A Bernoulli measure with some zero weights, or an ergodic Markov
    chain: a random cycle plus random extra transitions."""
    if rng.random() < 0.5:
        weights = [rng.choice([0, 1, 2, 5]) for _ in alphabet]
        weights[rng.randrange(len(alphabet))] += 1
        return sl.BernoulliMeasure(alphabet, [Fraction(x, sum(weights)) for x in weights])
    cycle = rng.sample(alphabet, len(alphabet))
    edges = set(zip(cycle, cycle[1:] + cycle[:1]))
    edges |= {(a, b) for a in alphabet for b in alphabet if rng.random() < 0.4}
    rows = {}
    for a in alphabet:
        weights = {b: rng.randint(1, 4) for b in alphabet if (a, b) in edges}
        rows[a] = {b: Fraction(x, sum(weights.values())) for b, x in weights.items()}
    return sl.MarkovMeasure(alphabet, rows)


def _random_pushforward(rng, as_graph, k_max=4, span=2):
    """A random base pushed through a full-shift block code (memory and
    anticipation up to ``span``), or through a labeled graph whose
    transitions contain those of a Markov base."""
    k = rng.randint(2, k_max)
    if not as_graph:
        code = _random_block_code(rng, k, rng.randint(0, span), rng.randint(0, span))
        return sl.PushforwardMeasure(_random_base(rng, code.alphabet), code)
    symbols = "abcd"[:k]
    base = _random_base(rng, symbols)
    edges = {(a, b) for a in symbols for b in symbols if rng.random() < 0.6}
    if isinstance(base, sl.MarkovMeasure):
        edges |= base.support_transitions()
    labels = "xyz"[:rng.randint(1, 3)]
    code = sl.LabeledGraph(symbols, edges, {s: rng.choice(labels) for s in symbols})
    return sl.PushforwardMeasure(base, code)


@given(st.integers(0, 2**32 - 1), st.booleans(), SAMPLE_LENGTHS)
def test_pushforward_samples_match_per_kind_oracle(seed, as_graph, length):
    nu = _random_pushforward(random.Random(seed), as_graph)
    new = nu.sample_indices(length, make_rng(seed))
    old = oracles.pushforward_sample_indices(nu, length, make_rng(seed))
    assert new.dtype == old.dtype == np.int64
    assert new.tolist() == old.tolist()


def _presentation(fn, *args):
    try:
        return fn(*args)
    except EmptyAfterTrim:
        return None


def _same_language(p, q):
    if p is None or q is None:
        return p is q
    return p.language_subset_of(q) and q.language_subset_of(p)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["block", "graph", "direct"]))
def test_support_presentation_matches_per_type_oracle(seed, kind):
    rng = random.Random(seed)
    if kind == "direct":
        nu = _random_base(rng, "abcd"[:rng.randint(2, 4)])
        old = _presentation(oracles.support_presentation, nu, sl.full_shift(nu.alphabet))
    else:
        # small codes: the subset construction of a random code can be large
        nu = _random_pushforward(rng, kind == "graph", k_max=3, span=1)
        code = nu.code
        if kind == "block" and code.width == 1 and isinstance(nu.base, sl.MarkovMeasure):
            # the per-type oracle keeps every block of a width-1 code whatever
            # the Markov support; the same code as a labeled graph it reads right
            code = sl.LabeledGraph(code.alphabet, code.transitions,
                                   {a: code.block_map[(a,)] for a in code.alphabet})
        old = _presentation(oracles.support_presentation,
                            sl.PushforwardMeasure(nu.base, code), None)
    assert _same_language(_presentation(support_presentation, nu), old)
