"""Differential tests: the shared subset automaton, the integer viability
walk and the single phased-cycle routine against the constructions they
replaced (kept in ``oracles.py``)."""

import random

import pytest
from hypothesis import given, strategies as st

import sftlift as sl
from sftlift.codes import phased_cycles
from sftlift.errors import NoPath, PreconditionError
from sftlift.graphs import SubsetAutomaton
from sftlift.joinings import _ViabilityWalk

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
