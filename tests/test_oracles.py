"""Differential tests: the shared subset automaton on packed bit rows, the
walk's σ rows on index arrays, the table-based image presentation with its
Lyndon-word orbit sweep, the diamond and closing tests on the trimmed
2-fold fiber product, the per-row sorted successor
lists, the speculate-and-verify integer scan, the
forward walk as one ``scan`` with once-checked coordinate relabellings,
Tarjan and the period search on lists, the one-pass empirical count arrays
with their frequencies, distance, merge and JSON form, the single-linkage
clusters as connected components, the
essential trim on index arrays, the one-sweep periodic fibers and the
closing step along one word with the periodic lift analysis and the
``periodic-lifts`` rows with their JSON and table text written straight
from the sweep, the vectorised samplers, the recoding-based pushforward path with
its domain rule, and the
fiber product on integer arrays with its edges, the structure report on
the edges and the ``joining`` output built from them, least rotation and
recoding, the per-period array sweep of the periodic lifts and
``periodic_fiber`` on it, the period search's gcd pass, the cylinders
and support presentation of every measure class read from its hidden
chain, and the successor index with its gather, the presentation's orbits
from the periodic sweep and its inclusion search on the subset automaton,
the canonical column form built only at rotations holding the least id,
and the one count of a walk's windows for every coordinate, against the
constructions they replaced (kept in ``oracles.py``)."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sftlift as sl
from sftlift import cli, codes, joinings
from sftlift.cli import main
from sftlift.errors import (EmptyAfterTrim, FiberInfinite, InputError, NoPath, NotInImage,
                            PreconditionError)
from sftlift.fibers import _single_linkage
from sftlift.graphs import (LabeledGraph, SubsetAutomaton, _component_periods, _essential_mask,
                            _gather, _successor_lists, _tarjan_scc, _unwrap, least_rotation,
                            load_graph_or_code, render_symbol)
from sftlift.joinings import _ViabilityWalk
from sftlift.measures import EmpiricalDistribution, make_rng

import oracles
from conftest import random_rational_vector
from test_graphs import graphs_strategy, loop_scan, scan_cases


def _plain(g):
    """A plain graph as the arrays of a walk: one column of its own indices,
    with its own edges."""
    return g, np.arange(len(g.x_symbols))[:, None], *g.edges


def _joining_arrays(joining):
    return joining.base, joining.ids, joining.src, joining.dst


def _subsets(aut, g):
    """The symbol tuple of each state of a ``SubsetAutomaton`` on g's symbols."""
    return [tuple(map(g.x_symbols.__getitem__, m))
            for m in oracles.subset_members(aut, len(g.x_symbols))]


@given(graphs_strategy())
def test_subset_automaton_matches_subset_state_oracles(g):
    for backward, oracle in ((False, oracles.forward_states), (True, oracles.backward_states)):
        aut = SubsetAutomaton(g.label_ids, g.y_symbols, g.edges, backward=backward)
        expected, subsets = oracle(g), _subsets(aut, g)
        assert [frozenset(s) for s in subsets] == list(expected)
        assert aut.witness == list(expected.values())
        assert all(list(s) == sorted(s, key=g.index.get) for s in subsets)
        ids = {frozenset(s): k for k, s in enumerate(subsets)}
        nbrs = (oracles.sorted_predecessors if backward else oracles.sorted_successors)(g)
        for k, subset in enumerate(subsets):
            reach = {t for s in subset for t in nbrs[s]}
            for j, y in enumerate(g.y_symbols):
                nxt = frozenset(t for t in reach if g.label[t] == y)
                assert aut.step[k, j] == ids.get(nxt, -1)


def _check_automaton(labels, edges, graph):
    """The bit-row ``SubsetAutomaton`` of symbols with labels ``labels`` and
    edges ``edges``, forward and backward, against the big-int one of their
    symbol graph: initial states, steps, witnesses and member sets."""
    for backward in (False, True):
        new = SubsetAutomaton(labels, graph.y_symbols, edges, backward)
        old = oracles.IntSubsetAutomaton(graph, backward)
        assert (new.initial, new.witness) == (old.initial, old.witness)
        assert np.array_equal(new.step, old.step)
        assert _subsets(new, graph) == old.subsets


@given(graphs_strategy())
def test_subset_automaton_matches_big_int_oracle(g):
    _check_automaton(g.label_ids, g.edges, g)


def _check_joining_automaton(g):
    joining = sl.degree_joining_graph(g)
    _check_automaton(g.label_ids[joining.ids[:, 0]], (joining.src, joining.dst), joining.graph)


def test_subset_automaton_matches_big_int_oracle_on_joining_graphs(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        _check_joining_automaton(ca.recoding.graph)


@pytest.mark.slow
def test_subset_automaton_matches_big_int_oracle_on_the_diff7_joining_graph():
    _check_joining_automaton(sl.LinearCACode(7, "difference").recoding.graph)


@given(graphs_strategy())
def test_determinize_matches_oracle(g):
    new, old = sl.determinize(g), oracles.determinize(g)
    assert new.states == old.states
    assert new.step.dtype == np.int64
    assert oracles.keyed_presentation(new).step == old.step
    assert new.alphabet == old.alphabet
    assert new.entropy() == old.entropy()       # bit for bit
    for length in range(4):
        for word in product(new.alphabet + ("?",), repeat=length):
            assert oracles.table_accepts(new, word) == old.accepts(word)
    for max_period in range(1, 7):
        assert new.periodic_orbits(max_period) == old.periodic_orbits(max_period)


def _a_cycle(g):
    path, succ = [g.x_symbols[0]], oracles.sorted_successors(g)
    while path.count(path[-1]) == 1:
        path.append(succ[path[-1]][0])
    first = path.index(path[-1])
    return set(zip(path[first:], path[first + 1:]))


@given(graphs_strategy(max_symbols=5), st.data())
def test_language_inclusion_matches_oracle(g, data):
    """Both ways between g and a subgraph, kept nonempty by a cycle of g,
    whose image alphabet lists the letters it uses in another order, so
    letters are matched by name."""
    cycle = _a_cycle(g)
    keep = set(data.draw(st.lists(st.sampled_from(g.x_symbols), unique=True)))
    keep.update(a for a, _ in cycle)
    edges = data.draw(st.sets(st.sampled_from(sorted(g.transitions)))) | cycle
    letters = data.draw(st.permutations(sorted({g.label[s] for s in keep})))
    h = LabeledGraph([s for s in g.x_symbols if s in keep],
                     {(a, b) for a, b in edges if a in keep and b in keep},
                     {s: g.label[s] for s in keep}, letters)
    new_h = sl.determinize(h)
    new_g, old_g, old_h = sl.determinize(g), oracles.determinize(g), oracles.determinize(h)
    assert (new_h.language_subset_of(new_g) == old_h.language_subset_of(old_g)
            == oracles.table_language_subset_of(new_h, new_g))
    assert (new_g.language_subset_of(new_h) == old_g.language_subset_of(old_h)
            == oracles.table_language_subset_of(new_g, new_h))
    reordered = sl.determinize(LabeledGraph(g.x_symbols, g.transitions, g.label,
                                            g.y_symbols[::-1]))
    assert new_g.language_subset_of(reordered) and reordered.language_subset_of(new_g)


@given(graphs_strategy())
def test_orbit_sweep_matches_dense_table_oracle(g):
    p = sl.determinize(g)
    for max_period in range(1, 7):
        assert p.periodic_orbits(max_period) == oracles.table_periodic_orbits(p, max_period)


def test_orbit_sweep_matches_dense_table_oracle_on_ca_recodings(rule102, diff4, sum5):
    for ca, max_period in ((rule102, 7), (diff4, 7), (sum5, 8)):
        p = sl.determinize(ca.recoding.graph)
        assert p.periodic_orbits(max_period) == oracles.table_periodic_orbits(p, max_period)


def test_orbit_sweep_matches_depth_first_oracle(diff4, random_fto_fixtures):
    for g, max_period in [(diff4.recoding.graph, 7)] + [(g, 6) for g in random_fto_fixtures]:
        assert (sl.determinize(g).periodic_orbits(max_period)
                == oracles.determinize(g).periodic_orbits(max_period))


_ONE_SIDED = ([("s0", "s1"), ("s0", "s2"), ("s1", "s2"), ("s2", "s0"), ("s2", "s1")],
              {"s0": "1", "s1": "0", "s2": "1"})


# irreducible but not essential: t has no predecessor
_TRANSIENT = LabeledGraph("tab", [("t", "a"), ("a", "a"), ("a", "b"), ("b", "a")],
                          {"t": "a", "a": "a", "b": "b"})
# the diagonal reaches the pair (b, c), but b and c lead only to d and e,
# whose labels differ, so the trim of the 2-fold fiber product removes it
_DEAD_END_PAIR = LabeledGraph("abcde", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"),
                                        ("d", "a"), ("e", "a")],
                              {"a": "x", "b": "y", "c": "y", "d": "z", "e": "w"})


@given(graphs_strategy())
@example(_TRANSIENT)
@example(_DEAD_END_PAIR)
def test_diamond_test_matches_pair_graph_oracle(g):
    """On every random graph: ``graphs_strategy`` draws codes that are
    finite-to-one and codes that are not."""
    assert sl.is_finite_to_one(g) == oracles.finite_to_one(g)


def test_diamond_test_matches_pair_graph_oracle_on_fixtures(random_fto_fixtures,
                                                           constant_label_graph,
                                                           rule102, diff4, sum5):
    graphs = [ca.recoding.graph for ca in (rule102, diff4, sum5)]
    for g in random_fto_fixtures + graphs + [constant_label_graph]:
        assert sl.is_finite_to_one(g) == oracles.finite_to_one(g)


def test_trim_cases_keep_every_verdict():
    for g in (_TRANSIENT, _DEAD_END_PAIR):
        assert sl.is_finite_to_one(g)
        assert sl.is_right_closing(g) and sl.is_left_closing(g) and sl.is_bi_closing(g)


@given(graphs_strategy())
@example(LabeledGraph(["s0", "s1", "s2"], *_ONE_SIDED))
@example(LabeledGraph(["s0", "s1", "s2"], [(b, a) for a, b in _ONE_SIDED[0]], _ONE_SIDED[1]))
@example(_TRANSIENT)
@example(_DEAD_END_PAIR)
def test_closing_matches_full_pass_oracle(g):
    """On every random graph, finite-to-one or not: few finite-to-one random
    graphs fail to be closing, so the first two examples are finite-to-one
    codes that are closing on one side only."""
    assert sl.is_right_closing(g) == (not oracles.closing_failure(g, True))
    assert sl.is_left_closing(g) == (not oracles.closing_failure(g, False))


@given(graphs_strategy())
@example(LabeledGraph(["s0", "s1", "s2"], *_ONE_SIDED))
def test_bi_closing_is_right_and_left_closing(g):
    assert sl.is_bi_closing(g) == (sl.is_right_closing(g) and sl.is_left_closing(g))


def _old_path(g, word):
    walker = oracles.ViabilityWalk(g)
    return walker.walk(word, walker.viability_ids(word))


def _new_path(g, word, arrays=None):
    """The walk on ``arrays`` (g as a plain graph when None), whose rows are
    the symbols of g, as symbols."""
    walker = _ViabilityWalk(*(arrays or _plain(g)))
    path = walker.walk(walker.viability_ids([g.y_symbols.index(y) for y in word]))
    return [g.x_symbols[k] for k in path]


@given(graphs_strategy(), st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
def test_viability_walk_matches_oracle(g, seed, length, corrupt):
    rng = random.Random(seed)
    ess = sl.analyze_graph(g).essential
    s, succ = rng.choice(ess.x_symbols), oracles.sorted_successors(ess)
    word = [ess.label[s]]
    for _ in range(length - 1):
        s = rng.choice(succ[s])
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


def _bernoulli_window(lam, seed, length):
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in lam.y_symbols]
    nu = sl.BernoulliMeasure(lam.y_symbols, [Fraction(w, sum(weights)) for w in weights])
    return tuple(lam.y_symbols[i] for i in nu.sample_indices(length, make_rng(seed)))


def test_viability_walk_matches_oracle_on_joining_graphs(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        joining = sl.degree_joining_graph(ca.recoding.graph)
        lam = joining.graph
        for seed in (0, 1, 2):
            word = _bernoulli_window(lam, seed, 3000)
            assert _new_path(lam, word, _joining_arrays(joining)) == _old_path(lam, word)


def _path_labels(g, rng, length, periodic):
    """The labels of a random path of g, or, with ``periodic``, of a cycle of
    g wound round until the window is full."""
    s, succ = rng.choice(g.x_symbols), oracles.sorted_successors(g)
    if periodic:
        seen = {}
        while s not in seen:
            seen[s] = len(seen)
            s = rng.choice(succ[s])
        cycle = list(seen)[seen[s]:]
        path = [cycle[t % len(cycle)] for t in range(length)]
    else:
        path = [s]
        while len(path) < length:
            path.append(rng.choice(succ[path[-1]]))
    return tuple(g.label[s] for s in path)


@st.composite
def walk_windows(draw):
    """A random small graph with plain symbols, or its distinct-tuple fiber
    product of arity 1 to 3 (the joining graph when the arity is the
    degree), and a label window on it: a random path's labels, or a cycle's
    labels repeated, a window that need not contain a magic word; with the
    arrays of the walk on it."""
    g = sl.analyze_graph(draw(graphs_strategy())).essential
    arity, arrays = draw(st.integers(0, 3)), _plain(g)
    if arity:
        try:
            arrays = (g, *codes._product_ids(g, arity, distinct=True))
        except NotInImage:
            assume(False)
        g = codes._tuple_graph(*arrays)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return g, _path_labels(g, rng, draw(st.integers(1, 400)), draw(st.booleans())), arrays


def _settled_walker(g, word, arrays=None):
    """A walker on ``arrays`` (g as a plain graph when None), whose rows are
    the symbols of g, after one walk over the window, checked against the
    per-step oracle's path and, path and ``resolutions``, against the two
    walks with their own chunk-settling loops, built on the same table, whose
    σ rows come from the tuple symbols of the rows."""
    ids, arrays = [g.y_symbols.index(y) for y in word], arrays or _plain(g)
    walker = _ViabilityWalk(*arrays)
    path = walker.walk(walker.viability_ids(ids))
    assert [g.x_symbols[k] for k in path] == _old_path(g, word)
    tuples = codes._tuple_graph(*arrays)
    for old in (oracles.IntSettledWalk(tuples, *arrays),
                oracles.ChunkVerifiedWalk(tuples, *arrays)):
        assert np.array_equal(walker.forward, old.forward)
        assert np.array_equal(path, old.walk(old.viability_ids(ids)))
        assert walker.resolutions == old.resolutions
    return walker


@given(walk_windows())
def test_speculative_walk_matches_oracle_on_random_windows(case):
    # count for count: on these graphs some coordinate permutations fail the
    # check on the table, and their chunks are verified one by one
    _settled_walker(*case)


@pytest.mark.slow
@settings(max_examples=300)
@given(walk_windows())
def test_speculative_walk_matches_oracle_on_300_random_windows(case):
    _settled_walker(*case)


def test_speculative_walk_settles_chunks_all_three_ways(sum5):
    lam = sl.degree_joining_graph(sum5.recoding.graph)
    joining = _settled_walker(lam.graph, _bernoulli_window(lam.graph, 0, 3000),
                              _joining_arrays(lam)).resolutions
    assert joining == {"guess": 10, "relabel": 44, "rerun": 0}
    # plain symbols have no coordinates to permute.  c leads only to b, so
    # each chunk after the first is guessed at a and re-run from b, meeting
    # the speculated path at c; round the 2-cycle it never meets it
    g = LabeledGraph("abc", [("a", "c"), ("b", "c"), ("c", "b")],
                     {"a": "0", "b": "0", "c": "1"})
    cycle = LabeledGraph("ab", [("a", "b"), ("b", "a")], {"a": "0", "b": "0"})
    plain = _settled_walker(g, "01" * 50).resolutions
    winding = _settled_walker(cycle, "0" * 99).resolutions
    assert plain == {"guess": 0, "relabel": 0, "rerun": 9}
    assert winding == {"guess": 5, "relabel": 0, "rerun": 5}
    # a pair graph whose second chunk starts at a swap of its guess, but the
    # swapped chunk is not a path of the walk, so it is re-run
    g = LabeledGraph("abcd", [("a", "d"), ("b", "b"), ("b", "c"), ("c", "a"), ("c", "b"),
                              ("d", "a"), ("d", "b")],
                     {"a": "0", "b": "0", "c": "1", "d": "1"})
    # (the swap's row fails the check against the whole table, so the chunk
    # goes through the per-chunk verify)
    pairs = (g, *codes._product_ids(g, 2, distinct=True))
    swapped = _settled_walker(codes._tuple_graph(*pairs), "1010", pairs)
    forward, rows = swapped.forward, [r for r in swapped._relabellings.values() if r is not None]
    assert rows and not any(np.array_equal(forward[r], r[forward[:len(r)]]) for r in rows)
    assert swapped.resolutions == {"guess": 0, "relabel": 0, "rerun": 1}


@st.composite
def fto_joining_windows(draw):
    """The joining graph of a random finite-to-one code and a label window
    of 2000 to 4000 letters on it (a random path's labels, or a cycle's
    wound round), so that a walk has dozens of chunks.  The code is a
    bipermutive block code of width 2 over 2 or 3 letters, a(σ(x_0) +
    τ(x_1)) mod k for permutations σ, τ and a of Z_k (degree k), or a skew
    product of a random base with a Z_2 or Z_3 cocycle on its edges,
    projected to the base (degree 2 or 3 when irreducible).  Half of them
    are multiplied by a degree-1 code that is closing on one side only, so
    that some chunks are re-run."""
    k = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        sigma, tau, out = (draw(st.permutations(range(k))) for _ in range(3))
        alphabet = tuple("abc"[:k])
        g = sl.SlidingBlockCode(0, 1, alphabet, {
            (alphabet[x], alphabet[y]): str(out[(sigma[x] + tau[y]) % k])
            for x in range(k) for y in range(k)}).recoding.graph
    else:
        m = draw(st.integers(2, 6 // k + 1))
        base = draw(st.permutations(range(m)))
        edges = set(zip(base, base[1:] + base[:1]))
        edges.update(draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=2 * m)))
        shift = {e: draw(st.integers(0, k - 1)) for e in sorted(edges)}
        g = LabeledGraph([f"q{q}r{r}" for q in range(m) for r in range(k)],
                         {(f"q{a}r{r}", f"q{b}r{(r + c) % k}")
                          for (a, b), c in shift.items() for r in range(k)},
                         {f"q{q}r{r}": f"q{q}" for q in range(m) for r in range(k)})
    if draw(st.booleans()):
        h = LabeledGraph(["s0", "s1", "s2"], *_ONE_SIDED)
        if draw(st.booleans()):
            h = LabeledGraph(h.x_symbols, [(b, a) for a, b in h.transitions], h.label)
        g = LabeledGraph([(a, b) for a in h.x_symbols for b in g.x_symbols],
                         {((a, b), (c, d)) for a, c in h.transitions for b, d in g.transitions},
                         {(a, b): (h.label[a], g.label[b]) for a in h.x_symbols
                          for b in g.x_symbols})
    assume(sl.analyze_graph(g).is_irreducible)
    joining = sl.degree_joining_graph(g)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return (joining.graph, _path_labels(joining.graph, rng, draw(st.integers(2000, 4000)),
                                        draw(st.booleans())), _joining_arrays(joining))


@given(fto_joining_windows())
def test_speculative_walk_matches_chunk_verified_walk_on_fto_joinings(case):
    """The walk as one ``scan`` with once-checked σ rows equals the per-step
    oracle and the walks with their own chunk-settling loops, with the same
    table and the same guesses, relabels and re-runs."""
    resolutions = _settled_walker(*case).resolutions
    assert sum(resolutions.values()) >= 43        # isqrt(2000) - 1 chunk boundaries


@pytest.mark.slow
@settings(max_examples=300)
@given(fto_joining_windows())
def test_speculative_walk_matches_chunk_verified_walk_on_300_fto_joinings(case):
    _settled_walker(*case)


def test_speculative_walk_raises_on_a_dead_end():
    g = LabeledGraph("ab", [("a", "b"), ("b", "a")], {"a": "x", "b": "y"})
    walker = _ViabilityWalk(*_plain(g))
    good = walker.viability_ids([0, 1] * 25)
    assert walker.walk(good.copy()).tolist() == [0, 1] * 25     # walk writes over int64 ids
    for t in range(1, len(good)):
        ids = good.copy()
        ids[t] = ids[t - 1]                 # a cannot follow a, nor b follow b
        with pytest.raises(RuntimeError, match="dead end"):
            walker.walk(ids)


@pytest.mark.parametrize("length", [12, 13])
def test_viability_ids_refuse_every_dead_window_with_nopath(length):
    """The ids are narrow and signed, so a dead state is written as -1, not
    wrapped in the chunks nor refused with ``OverflowError`` in the tail
    loop: at length 13 the 12 scanned letters fill 4 chunks of 3, at length
    12 the 11 fill 3 chunks and leave 2 to the tail loop."""
    g = LabeledGraph("ab", [("a", "b"), ("b", "a")], {"a": "x", "b": "y"})
    walker = _ViabilityWalk(*_plain(g))
    step = walker.automaton.step
    assert not (step == step[0]).all()          # the chunks are settled, not one lookup
    good = [0, 1] * 7
    assert walker.viability_ids(good[:length]).dtype == np.int8
    for t in range(1, length):
        window = good[:length]
        window[t] = window[t - 1]                # x cannot follow x, nor y follow y
        with pytest.raises(NoPath):
            walker.viability_ids(window)


def _check_walk_count(step, ids, path, letters, k, depth):
    """``from_walk`` on a walk's table, ids and rows against the per-coordinate
    oracle, array for array, and that against the word-dict counts."""
    alphabet = tuple(range(k))
    new = EmpiricalDistribution.from_walk(step, ids, path.copy(), letters, alphabet, depth)
    old = oracles.coordinate_distributions(letters, path, alphabet, depth)
    assert len(new) == len(old) == letters.shape[1]
    for i, (a, b) in enumerate(zip(new, old)):
        assert (a.alphabet, a.depth, a.sample_length) == (b.alphabet, b.depth, b.sample_length)
        assert [c.dtype for c in a.counts] == [c.dtype for c in b.counts]
        assert [c.tolist() for c in a.counts] == [c.tolist() for c in b.counts]
        words = oracles.empirical_counts(letters[:, i].take(path), alphabet, depth)
        assert [c.tolist() for c in b.counts] == [
            [words.get(w, 0) for w in product(alphabet, repeat=length)]
            for length in range(1, depth + 1)]


@given(fto_joining_windows(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 40),
       st.one_of(st.integers(0, 5), st.integers(6, 4000)), st.integers(0, 2**32 - 1))
def test_walk_count_matches_per_coordinate_oracle_on_fto_joinings(case, depth, k, start,
                                                                    length, seed):
    """One count of the walk's windows gives each coordinate's cylinder
    counts, over a random letter for each base symbol, on a stretch of the
    walk that may be shorter than the depth, or empty."""
    g, word, (base, ids, src, dst) = case
    walker = _ViabilityWalk(base, ids, src, dst)
    viable = walker.viability_ids([g.y_symbols.index(y) for y in word])
    path, kept = walker.walk(viable), slice(start, start + length)
    letters = np.random.default_rng(seed).integers(0, k, len(base.x_symbols))[ids]
    _check_walk_count(walker.forward, viable[kept], path[kept], letters.astype(np.uint8), k,
                      depth)


@pytest.mark.parametrize("length, depth, bincount", [
    (1, 1, False), (1000, 3, False), (300, 4, False), (20000, 3, True), (3000, 1, True)])
def test_walk_count_takes_bincount_or_unique_on_sum5(sum5, length, depth, bincount, monkeypatch):
    """The sum5 joining graph has R = 600 rows and V = 5 viability states:
    the R·V^(depth-1) codes go through one bincount when the walk has at
    least as many windows, else they are ranked by ``np.unique`` first."""
    lam = sl.degree_joining_graph(sum5.recoding.graph)
    walker = _ViabilityWalk(*_joining_arrays(lam))
    word = [lam.base.y_symbols.index(y) for y in _bernoulli_window(lam.graph, 3, length)]
    viable = walker.viability_ids(word)
    assert (len(lam.ids) * len(walker.automaton.step) ** (depth - 1) <= length) == bincount
    letters = np.array([sum5.recoding.base_alphabet.index(a)
                        for a in sum5.recoding.letters], np.uint8)[lam.ids]
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(kw) or unique(*a, **kw))
    _check_walk_count(walker.forward, viable, walker.walk(viable), letters, 5, depth)
    assert calls == ([] if bincount else [{"return_inverse": True}])


@pytest.mark.parametrize("rows, depth, ranks", [(4, 6, 1), (4, 8, 2), (4, 14, 3), (7, 13, 3),
                                                (7, 1, 0)])
def test_walk_count_re_ranks_codes_past_2_62(rows, depth, ranks, monkeypatch):
    """A synthetic walk whose 1024 inputs step each row to a random one: its
    window codes would pass 2^62 at depth 8 from 4 rows and at depth 7 from
    7, and again 6 levels after each re-rank onto the at most 2000 distinct
    windows; the top level is ranked too when its codes may outnumber the
    windows.  The ranked windows are decoded back through the table."""
    rng = np.random.default_rng(depth)
    step, inputs = rng.integers(0, rows, (rows, 1024)), rng.integers(0, 1024, 2000)
    path = np.array(loop_scan(step, inputs, 0))
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(kw) or unique(*a, **kw))
    _check_walk_count(step, inputs.astype(np.int16), path,
                      rng.integers(0, 2, (rows, 3)).astype(np.uint8), 2, depth)
    assert calls == [{"return_inverse": True}] * ranks


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


def _refusal_or(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


def _per_orbit_fibers(g, max_period):
    return [oracles.tuple_periodic_fiber(g, y)
            for y in oracles.determinize(g).periodic_orbits(max_period)]


def _check_sweep(g, max_period):
    """The one-sweep fibers against the per-orbit tuple-vertex oracle,
    orbit by orbit; a refusal must match by type and message."""
    assert (_refusal_or(sl.periodic_fibers, g, max_period)
            == _refusal_or(_per_orbit_fibers, g, max_period))


@given(graphs_strategy(max_symbols=5))
def test_periodic_fiber_matches_oracle(g):
    for y in sl.determinize(g).periodic_orbits(3):
        _check_fiber(g, y)
    _check_sweep(g, 3)


@st.composite
def distinct_column_rows(draw):
    """An n x d id matrix whose d columns are pairwise distinct, from few ids
    so that rows share their least id."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                         min_size=d, max_size=d, unique_by=tuple))
    return np.array(cols, dtype=np.int64).reshape(d, n).T


@given(distinct_column_rows())
def test_canonical_column_form_matches_every_rotation_oracle(rows):
    assert joinings._canonical_column_form(rows) == oracles.canonical_column_form(rows)


def test_periodic_cycles_match_oracle_on_sweep_fixtures(sweep_fixtures):
    for _name, code, _cto in sweep_fixtures:
        g = _unwrap(code).graph
        joining = sl.degree_joining_graph(g)
        for y in sl.determinize(g).periodic_orbits(3):
            _check_fiber(g, y)
            orbits = _fiber_outcome(lambda g, y: list(sl.enumerate_periodic_degree_joinings(
                joining, g, y, constant_to_one=True).orbits), g, y)
            assert orbits == _fiber_outcome(oracles.periodic_joining_orbits, joining.graph, y)


def _lift_json(analyze, code, y):
    return tuple(part.to_json_dict() for part in analyze(code, y))


def _check_lifts(code, y):
    """Lift analysis and fiber against the tuple-vertex oracles; a refusal
    must match by type and message."""
    g = _unwrap(code).graph
    assert (_refusal_or(_lift_json, sl.analyze_periodic_lifts, code, y)
            == _refusal_or(_lift_json, oracles.analyze_periodic_lifts, code, y))
    assert _refusal_or(sl.periodic_fiber, g, y) == _refusal_or(oracles.tuple_periodic_fiber, g, y)


def test_periodic_lifts_match_tuple_oracle_on_sweep_fixtures(sweep_fixtures):
    # the random finite-to-one fixtures are among the sweep fixtures
    for _name, code, _cto in sweep_fixtures:
        g = _unwrap(code).graph
        for y in sl.determinize(g).periodic_orbits(4):
            _check_lifts(code, y)
        _check_sweep(g, 4)


@st.composite
def block_codes_with_memory(draw):
    """Block codes with memory 1-2 and anticipation 0-1 on an alphabet not
    listed in string order; half are bipermutive (first and last letter
    enter as a sum mod k), so finite-to-one, and half are random maps."""
    k = draw(st.integers(2, 3))
    alphabet = draw(st.permutations("abc"[:k]))
    memory, anticipation = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    width = memory + anticipation + 1
    if draw(st.booleans()):
        middles = k ** (width - 2)
        shift = draw(st.lists(st.integers(0, k - 1), min_size=middles, max_size=middles))
        rank = {a: i for i, a in enumerate(alphabet)}
        def value(u):
            middle = sum(rank[a] * k ** i for i, a in enumerate(u[1:-1]))
            return str((rank[u[0]] + rank[u[-1]] + shift[middle]) % k)
    else:
        labels = draw(st.sampled_from(["xy", "xyz"]))
        table = draw(st.lists(st.sampled_from(labels), min_size=k ** width, max_size=k ** width))
        def value(u):
            return table[sum("abc".index(a) * k ** i for i, a in enumerate(u))]
    block_map = {u: value(u) for u in product(alphabet, repeat=width)}
    return sl.SlidingBlockCode(memory, anticipation, alphabet, block_map)


@given(block_codes_with_memory())
def test_periodic_lifts_match_tuple_oracle_on_codes_with_memory(code):
    for y in sl.determinize(code.recoding.graph).periodic_orbits(4):
        _check_lifts(code, y)
    _check_sweep(code.recoding.graph, 4)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CODES = sorted(p.stem for p in GOLDEN.glob("*.json") if not p.stem.startswith("nu_"))


def _cli_stdout(path, max_period, fmt="json"):
    """The exit code and stdout of ``periodic-lifts`` on a file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["periodic-lifts", str(path), "--max-period", str(max_period),
                     "--format", fmt])
    return code, out.getvalue()


def _oracle_stdout(path, max_period, fmt="json"):
    """The exit code and stdout that the row-dict oracle gives, with an empty
    stdout and the CLI's exit code on an error."""
    try:
        rows = oracles.periodic_lift_rows(str(path), max_period)
    except PreconditionError:
        return 2, ""
    except Exception:       # noqa: BLE001 - main reports any other error as exit 1
        return 1, ""
    if fmt == "table":
        return 0, oracles.periodic_lift_table(rows)
    return 0, json.dumps({"max_period": max_period, "orbits": rows},
                         sort_keys=True, indent=2) + "\n"


def _write_json(tmp, payload):
    path = os.path.join(tmp, "code.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _cli_rows(payload, max_period):
    """The periodic-lifts rows for a code or graph JSON payload, or the exit
    code and stdout of a run that does not exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _cli_stdout(_write_json(tmp, payload), max_period)
    return json.loads(out)["orbits"] if code == 0 else (code, out)


def _oracle_rows(code, max_period):
    """periodic-lifts rows built orbit by orbit from the tuple-vertex lift analysis."""
    rows = []
    for y in oracles.determinize(sl.analyze_graph(_unwrap(code).graph).essential).periodic_orbits(
            max_period):
        report, canonical = oracles.analyze_periodic_lifts(code, y)
        rows.append({"orbit": [str(a) for a in y.primitive_word], "period": y.period,
                     "fiber_size": report.degree,
                     "lifts": [entry.to_json_dict() for entry in report.lifts],
                     "canonical_lift": canonical.to_json_dict()})
    return rows


def _check_cli_rows(code, payload, max_period=4):
    """The CLI rows equal the oracle rows on an irreducible finite-to-one
    code; any other code is refused with exit 2 and nothing on stdout."""
    report = sl.analyze_graph(_unwrap(code).graph)
    if report.is_irreducible and sl.is_finite_to_one(report.essential):
        assert _cli_rows(payload, max_period) == _oracle_rows(code, max_period)
    else:
        assert _cli_rows(payload, max_period) == (2, "")


@given(block_codes_with_memory())
def test_periodic_lifts_cli_rows_match_oracle_on_codes_with_memory(code):
    # memory 1-2: the lift words are rotated by a nonzero recoding offset
    payload = {"memory": code.memory, "anticipation": code.anticipation,
               "alphabet": list(code.alphabet),
               "block_map": {"".join(u): y for u, y in code.block_map.items()}}
    _check_cli_rows(code, payload)


@given(graphs_strategy())
def test_periodic_lifts_cli_rows_match_oracle_on_graphs(g):
    _check_cli_rows(g, g.to_json_dict())


def test_periodic_lifts_cli_rows_rotate_words_with_a_repeated_least_symbol():
    # the lift s0 s1 s0 s2 holds its least symbol twice, so its rotation runs Booth's algorithm
    g = LabeledGraph(["s0", "s1", "s2"], [("s0", "s1"), ("s1", "s0"), ("s0", "s2"), ("s2", "s0")],
                     {"s0": "0", "s1": "1", "s2": "2"})
    rows = _cli_rows(g.to_json_dict(), 4)
    assert {"type": "co", "orbit": ["s0", "s1", "s0", "s2"]} in [
        lift["measure"] for row in rows for lift in row["lifts"]]
    assert rows == _oracle_rows(g, 4)


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_periodic_lifts_json_bytes_match_row_dict_oracle(name):
    code, out = _cli_stdout(GOLDEN / f"{name}.json", 6)
    assert code == 0
    assert out.encode() == _oracle_stdout(GOLDEN / f"{name}.json", 6)[1].encode()


def test_periodic_lifts_json_bytes_match_row_dict_oracle_on_skew_products(random_fto_fixtures):
    # the odd fixtures are skew products: degree 2 or 3, lifts of winding up to 3
    with tempfile.TemporaryDirectory() as tmp:
        for g in random_fto_fixtures[1::2]:
            path = _write_json(tmp, g.to_json_dict())
            expected = _oracle_stdout(path, 6)
            assert expected[0] == 0
            assert _cli_stdout(path, 6) == expected


@pytest.mark.parametrize("name", ["sum5", "skew3", "diff4"])
def test_periodic_lifts_table_bytes_match_row_dict_oracle(name):
    code, out = _cli_stdout(GOLDEN / f"{name}.json", 6, "table")
    assert code == 0 and out.count("\n") > 1
    assert out.encode() == _oracle_stdout(GOLDEN / f"{name}.json", 6, "table")[1].encode()


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", ["sum5", "skew3"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_periodic_lifts_bytes_match_oracle_across_row_batches(monkeypatch, batch, name, fmt):
    # sum5's rows come in several shapes (periods, lift windings): the row
    # texts of one shape share one fragment list, and each flush must write
    # every row as the oracle does
    class Chunks(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    writes, out = [], Chunks()
    monkeypatch.setattr(cli, "ROW_BATCH", batch)
    with contextlib.redirect_stdout(out):
        code = main(["periodic-lifts", str(GOLDEN / f"{name}.json"), "--max-period", "4",
                     "--format", fmt])
    expected = _oracle_stdout(GOLDEN / f"{name}.json", 4, fmt)
    assert (code, out.getvalue()) == expected
    rows = expected[1].count("\n    {\n") if fmt == "json" else expected[1].count("\n")
    # a flush before a row when ``batch`` texts are held (the JSON head counts), then the last
    assert rows > batch and len(writes) == 1 + (rows - 1 + (fmt == "json")) // batch


# names JSON must escape: quote, backslash, control characters, a non-ASCII
# letter, a line separator and an astral character (a surrogate pair); and
# the %, { and } that a writer parsing names as a format string would read
ESCAPED_NAMES = st.text(st.sampled_from('"\\\x00\n\x1f\x7f\xe9\u2028\U0001f600%{}a'),
                        min_size=1, max_size=3)


@st.composite
def escaped_graph_payloads(draw):
    """A labeled-graph file payload, random or a cycle that winds w >= 2
    times over its label word, with symbol and label names JSON escapes,
    and that w (1 for a random graph)."""
    if draw(st.booleans()):
        g = draw(graphs_strategy(max_symbols=5))
        symbols, edges, label, letters, winding = (g.x_symbols, g.transitions, g.label,
                                                   g.y_symbols, 1)
    else:
        n, winding = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        symbols, letters = [f"s{i}" for i in range(n * winding)], [str(i) for i in range(n)]
        edges = [(s, symbols[(i + 1) % len(symbols)]) for i, s in enumerate(symbols)]
        label = {s: letters[i % n] for i, s in enumerate(symbols)}
    name = dict(zip(symbols, draw(st.lists(ESCAPED_NAMES, min_size=len(symbols),
                                           max_size=len(symbols), unique=True))))
    letter = dict(zip(letters, draw(st.lists(ESCAPED_NAMES, min_size=len(letters),
                                             max_size=len(letters), unique=True))))
    return {"x_symbols": [name[s] for s in symbols],
            "transitions": [[name[a], name[b]] for a, b in sorted(edges)],
            "label": {name[s]: letter[label[s]] for s in symbols},
            "y_symbols": [letter[y] for y in letters]}, winding


@given(escaped_graph_payloads(), st.integers(1, 4), st.sampled_from(["json", "table"]))
def test_periodic_lifts_writer_escapes_names_as_json_dumps(drawn, max_period, fmt):
    payload, winding = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(tmp, payload)
        out = _cli_stdout(path, max_period, fmt)
        assert out == _oracle_stdout(path, max_period, fmt)
    if fmt == "json" and winding > 1:
        rows = json.loads(out[1])["orbits"]
        assert [lift["multiplicity"] for row in rows for lift in row["lifts"]] == (
            [winding] if max_period >= len(payload["y_symbols"]) else [])


def test_periodic_lifts_without_a_short_orbit_writes_an_empty_list():
    # one 5-cycle with five labels: its image orbit has period 5 > 4
    g = LabeledGraph([f"s{i}" for i in range(5)], [(f"s{i}", f"s{(i + 1) % 5}") for i in range(5)],
                     {f"s{i}": str(i) for i in range(5)})
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(tmp, g.to_json_dict())
        assert _cli_stdout(path, 4) == _oracle_stdout(path, 4) == (
            0, '{\n  "max_period": 4,\n  "orbits": []\n}\n')
        assert _cli_stdout(path, 4, "table") == _oracle_stdout(path, 4, "table") == (0, "\n")
        assert json.loads(_cli_stdout(path, 5)[1])["orbits"][0]["period"] == 5


# close-step cases: (graph, orbit word, trimmed, refused); labels are the
# symbols' first letters
CLOSE_CASES = {
    # the fixed point 0 has the two fixed points a and b over it
    "permutation": ([("a0", "a0"), ("b0", "b0"), ("a0", "b1"), ("b1", "a0")], "0", False, False),
    # c0 -> a0 starts a path that never returns to c0
    "trim": ([("a0", "a0"), ("c0", "a0")], "0", True, False),
    # a0 -> a0 and a0 -> b0 -> b0: a0 relates to two symbols
    "branch": ([("a0", "a0"), ("a0", "b0"), ("b0", "b0")], "0", True, True),
    # two paths a0 b1 d2 and a0 c1 d2 close at a0, a permutation with a marked path
    "marked": ([("a0", "b1"), ("a0", "c1"), ("b1", "d2"), ("c1", "d2"), ("d2", "a0")], "012",
               False, True),
}


@pytest.mark.parametrize("case", sorted(CLOSE_CASES))
def test_close_step_cases_match_oracle(monkeypatch, case):
    edges, word, trimmed, refused = CLOSE_CASES[case]
    symbols = sorted({s for e in edges for s in e})
    g = LabeledGraph(symbols, edges, {s: s[1] for s in symbols})
    y = sl.PeriodicOrbit.from_word(tuple(word))
    trims = []
    trim = sl.graphs._essential_mask
    monkeypatch.setattr(sl.graphs, "_essential_mask", lambda *args: trims.append(1) or trim(*args))
    outcome = _refusal_or(sl.periodic_fiber, g, y)
    assert bool(trims) == trimmed
    assert outcome == _refusal_or(oracles.tuple_periodic_fiber, g, y)
    if refused:
        assert outcome == (FiberInfinite, "recurrent phased graph branches; fiber is infinite")
    else:
        assert outcome.lift_orbits


def _check_lift_cycles(g, max_period):
    """The per-period array sweep against the depth-first sweep over the
    preimage runs, orbit by orbit in period order, on the essential part of
    g; a refusal must match by type and message."""
    g = sl.analyze_graph(g).essential
    ids = (range(len(g.x_symbols)), range(len(g.y_symbols)))     # each named by its index
    assert (_refusal_or(lambda: [(tuple(w), lifts)
                                 for w, lifts in codes._lift_cycles(g, max_period, *ids)])
            == _refusal_or(lambda: sorted(oracles.lift_cycles(g, max_period),
                                          key=lambda orbit: len(orbit[0]))))


@given(graphs_strategy())
@example(LabeledGraph(["s0", "s1"], [("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1")],
                      {"s0": "0", "s1": "0"}))
def test_lift_cycles_match_run_sweep_oracle(g):
    # infinite-to-one graphs included: their sweeps refuse with FiberInfinite
    _check_lift_cycles(g, 5)


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_lift_cycles_match_run_sweep_oracle_on_golden_codes(name):
    _check_lift_cycles(load_graph_or_code(GOLDEN / f"{name}.json")[0].graph, 6)


def test_periodic_fiber_matches_run_oracle_on_golden_codes(collapsing_fixture):
    graphs = [load_graph_or_code(GOLDEN / f"{name}.json")[0].graph
              for name in GOLDEN_CODES]
    for g in [*graphs, collapsing_fixture]:
        for y in sl.determinize(g).periodic_orbits(4):
            assert (_refusal_or(sl.periodic_fiber, g, y)
                    == _refusal_or(oracles.run_periodic_fiber, g, y))


# The peak RSS of ``periodic-lifts`` on sum5 at period 8, in MB: a third of
# the 336 MB it reached when it held every row's text until the checksum.
PERIOD_8_PEAK_RSS_MB = 112


@pytest.mark.slow
def test_periodic_lifts_at_period_8_hold_integers_not_text():
    # the child process reports its own peak RSS, VmHWM: its ru_maxrss would
    # also count the test runner's RSS, which the exec that starts it replaces.
    # Its stdout is hashed as it streams, and must hash as the depth-first
    # sweep's rows dumped by json.
    path = str(GOLDEN / "sum5.json")
    child = ("import sys\n"
             "from sftlift.cli import main\n"
             f"code = main(['periodic-lifts', {path!r}, '--max-period', '8'])\n"
             "sys.stdout.flush()\n"
             "print(*[s for s in open('/proc/self/status') if s.startswith('VmHWM')], "
             "file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", child], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
    err = proc.stderr.read().decode()
    assert proc.wait() == 0, err
    assert err.split()[-1] == "kB" and int(err.split()[-2]) / 1024 <= PERIOD_8_PEAK_RSS_MB
    expected = hashlib.sha256()
    payload = {"max_period": 8, "orbits": oracles.periodic_lift_rows(path, 8)}
    for part in json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload):
        expected.update(part.encode())
    expected.update(b"\n")
    assert digest.hexdigest() == expected.hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("family, modulus, max_period", [("sum", 5, 8), ("difference", 5, 7)])
def test_periodic_fibers_match_per_orbit_oracle_at_scale(family, modulus, max_period):
    g = sl.LinearCACode(modulus, family).recoding.graph
    fibers = sl.periodic_fibers(g, max_period)
    assert [f.base_orbit for f in fibers] == sl.determinize(g).periodic_orbits(max_period)
    for fiber in fibers:
        assert fiber == oracles.tuple_periodic_fiber(g, fiber.base_orbit)


def test_periodic_refusals_match_tuple_oracle(golden_mean_graph, constant_label_graph):
    refusals = [(golden_mean_graph, ("b",)), (golden_mean_graph, ("c",)),
                (golden_mean_graph, ("a", "c")), (constant_label_graph, ("z",)),
                (constant_label_graph, ("y",))]
    for g, word in refusals:
        y = sl.PeriodicOrbit.from_word(word)
        with pytest.raises(PreconditionError):
            sl.analyze_periodic_lifts(g, y)
        _check_lifts(g, y)
    _check_lifts(golden_mean_graph, sl.PeriodicOrbit.from_word("ab"))


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
    assert new.dtype == np.uint8 and old.dtype == np.int64    # the narrowest for 1-4 letters
    assert new.tolist() == old.tolist()
    assert new.tolist() == oracles.markov_interval_sample_indices(m, length,
                                                                 make_rng(seed)).tolist()


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
    assert new.dtype == np.uint8 and old.dtype == np.int64    # the narrowest for 1-4 letters
    assert new.tolist() == old.tolist()


# ------------------------------------------------------ guide-table lookup

BREAKS = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52]))


@st.composite
def guide_cases(draw):
    """Sorted breaks in [0, 1 + 2^-52], with ties as zero probabilities make
    them, and draws in [0, 1] that include 0, 1 - 2^-53, 1 and every break
    up to 1."""
    breaks = draw(st.lists(BREAKS, max_size=40))
    breaks = sorted(breaks + breaks[:draw(st.integers(0, len(breaks)))])
    draws = draw(st.lists(st.floats(0, 1), max_size=60))
    draws += [0.0, 1 - 2**-53, 1.0] + [b for b in breaks if b <= 1]
    return np.array(breaks), np.array(draws)


def _cumulative_breaks(weights):
    cdf = np.cumsum(np.array(weights, dtype=float) / sum(weights))
    return cdf, np.concatenate([cdf, np.random.default_rng(len(weights)).random(2000)])


@given(guide_cases(), st.booleans())
@example(_cumulative_breaks([i % 5 for i in range(1, 300)]), False)     # 299 breaks, 59 ties
@example(_cumulative_breaks([i % 5 for i in range(1, 300)]), True)
@example((0.5 + np.arange(250) * 2.0**-40, 0.5 + np.arange(-3, 500) * 2.0**-41), True)
def test_count_below_matches_searchsorted(case, strict):
    breaks, draws = case
    new = sl.measures._count_below(breaks, draws, strict)
    assert new.dtype == np.min_scalar_type(len(breaks))
    assert new.tolist() == np.searchsorted(breaks, draws, "left" if strict else "right").tolist()


@given(st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any), SAMPLE_LENGTHS,
       st.integers(0, 2**32 - 1))
def test_bernoulli_sampler_matches_choice_oracle(weights, length, seed):
    m = sl.BernoulliMeasure(range(len(weights)), [Fraction(w, sum(weights)) for w in weights])
    new_rng, old_rng = make_rng(seed), make_rng(seed)
    new = m.sample_indices(length, new_rng)
    old = oracles.bernoulli_sample_indices(m, length, old_rng)
    assert new.dtype == np.uint8 and new.tolist() == old.tolist()
    assert new_rng.random() == old_rng.random()          # the same draws were taken


@pytest.mark.parametrize("weights", [[1], [0, 1], [1, 0], [7, 3], [0, 3, 0, 7],
                                     [5, 39, 38, 9, 2, 0], [1] * 7 + [0], [1, 2] * 150])
def test_bernoulli_sampler_matches_choice_oracle_over_seeds(weights):
    m = sl.BernoulliMeasure(range(len(weights)), [Fraction(w, sum(weights)) for w in weights])
    for seed in range(40):
        new = m.sample_indices(1000, make_rng(seed))
        assert new.dtype == np.min_scalar_type(len(weights) - 1)
        assert new.tolist() == oracles.bernoulli_sample_indices(m, 1000, make_rng(seed)).tolist()


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any), st.integers(-9, 9))),
    SAMPLE_LENGTHS, st.integers(0, 2**32 - 1))
def test_alternating_offset_sampler_matches_comprehension(case, length, seed):
    weights, offset = case
    base = sl.BernoulliMeasure([str(i) for i in range(len(weights))],
                               [Fraction(w, sum(weights)) for w in weights])
    m = sl.AlternatingOffsetMeasure(base, offset, len(weights))
    new = m.sample_indices(length, make_rng(seed))
    old = oracles.alternating_offset_sample_indices(m, length, make_rng(seed))
    assert new.dtype == np.uint8 and new.tolist() == old.tolist()


@pytest.mark.slow
def test_samplers_match_their_oracles_at_a_million_letters():
    bernoulli = sl.BernoulliMeasure("01234", ["3/5", "1/10", "1/10", "0", "1/5"])
    markov = sl.MarkovMeasure("abcd", {"a": {"b": "1/3", "d": "2/3"}, "b": {"b": "1/2", "c": "1/2"},
                                       "c": {"a": "1/5", "c": "4/5"}, "d": {"a": "1"}})
    T = 10**6
    for seed in (0, 1):
        new = bernoulli.sample_indices(T, make_rng(seed))
        assert np.array_equal(new, oracles.bernoulli_sample_indices(bernoulli, T, make_rng(seed)))
        new = markov.sample_indices(T, make_rng(seed))
        for oracle in (oracles.markov_interval_sample_indices, oracles.markov_sample_indices):
            assert np.array_equal(new, oracle(markov, T, make_rng(seed)))


# ------------------------------------------------------------ integer scan

@given(scan_cases())
def test_scan_matches_composed_oracle(case):
    step, inputs, start = case
    expected = np.full(len(inputs), 99, dtype=np.int64)
    expected_last = oracles.composed_scan(step, inputs, start, expected)
    assert expected.tolist() == loop_scan(step, inputs, start)
    out = np.full(len(inputs), 99, dtype=np.int64)
    assert sl.graphs.scan(step, inputs, start, out) == expected_last
    assert out.tolist() == expected.tolist()


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["synchronizing", "random", "permutation"])
def test_scan_matches_composed_oracle_at_a_million_steps(kind):
    # 300 states and 5 symbols: symbol 0 resets every state to state 7, so a
    # re-run meets its chunk's speculated run by the chunk's first 0 at the
    # latest; two runs over a random table meet after a few steps; over a
    # permutation table they never meet, so every chunk entered in a state
    # other than the guess is re-run whole
    rng = np.random.default_rng(10)
    if kind != "permutation":
        step = rng.integers(0, 300, size=(300, 5))
    if kind == "synchronizing":
        step[:, 0] = 7
    if kind == "permutation":
        step = np.array([rng.permutation(300) for _ in range(5)]).T.copy()
    inputs = rng.integers(0, 5, size=10**6)
    expected = np.empty(len(inputs), dtype=np.int64)
    expected_last = oracles.composed_scan(step, inputs, 3, expected)
    out = np.empty(len(inputs), dtype=np.int64)
    assert sl.graphs.scan(step, inputs, 3, out) == expected_last
    assert np.array_equal(out, expected)


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


def _positive_steps(m):
    """The letter pairs read by the positive steps of m's hidden chain,
    which the domain of a code that m is pushed through must allow."""
    chain, letters = m.hidden_chain(), m.alphabet
    return {(letters[chain.letter[z]], letters[chain.letter[t]])
            for z, row in enumerate(chain.rows) for t in row}


def _random_pushforward(rng, as_graph, k_max=4, span=2):
    """A random base pushed through a full-shift block code (memory and
    anticipation up to ``span``), or through a labeled graph whose
    transitions contain the positive steps of the base."""
    k = rng.randint(2, k_max)
    if not as_graph:
        code = _random_block_code(rng, k, rng.randint(0, span), rng.randint(0, span))
        return sl.PushforwardMeasure(_random_base(rng, code.alphabet), code)
    symbols = "abcd"[:k]
    base = _random_base(rng, symbols)
    edges = {(a, b) for a in symbols for b in symbols if rng.random() < 0.6}
    edges |= _positive_steps(base)
    labels = "xyz"[:rng.randint(1, 3)]
    code = sl.LabeledGraph(symbols, edges, {s: rng.choice(labels) for s in symbols})
    return sl.PushforwardMeasure(base, code)


@given(st.integers(0, 2**32 - 1), st.booleans(), SAMPLE_LENGTHS)
def test_pushforward_samples_match_per_kind_oracle(seed, as_graph, length):
    nu = _random_pushforward(random.Random(seed), as_graph)
    new = nu.sample_indices(length, make_rng(seed))
    old = oracles.pushforward_sample_indices(nu, length, make_rng(seed))
    assert new.dtype == np.uint8 and old.dtype == np.int64    # the narrowest for 1-4 letters
    assert new.tolist() == old.tolist()


def _refusal(fn, *args):
    """The message of the InputError that ``fn(*args)`` raises, None if it returns."""
    try:
        fn(*args)
    except InputError as error:
        return str(error)
    return None


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_pushforward_domain_rule_matches_transition_oracle(seed, as_graph):
    # a random base (now and then with a letter off the domain) against a code
    # of width <= 3 on a sparse domain with dead ends, which half the time
    # carries the base's positive steps: the recoding's rule (a positive step
    # must be added by a recoding transition) refuses exactly what the domain
    # transition rule refuses, by the same field; on a graph the two are one
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    letters = "abcd"[:k]
    base = _random_base(rng, "abcde"[:k + (rng.random() < 0.1)])
    edges = {(a, b) for a in letters for b in letters if rng.random() < rng.choice([0.3, 0.5])}
    if rng.random() < 0.5:
        edges |= {(a, b) for a, b in _positive_steps(base) if {a, b} <= set(letters)}
    labels = "xyz"[:rng.randint(1, 3)]
    if as_graph:
        code = LabeledGraph(letters, edges, {a: rng.choice(labels) for a in letters})
    else:
        memory, anticipation = rng.choice([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)])
        code = sl.SlidingBlockCode(memory, anticipation, letters, {
            u: rng.choice(labels) for u in product(letters, repeat=memory + anticipation + 1)},
            edges)
    new = _refusal(sl.PushforwardMeasure, base, code)
    old = _refusal(oracles.check_pushforward_domain, base, code)
    assert (new is None) == (old is None)
    if new is not None:
        assert new.split(":")[0] == old.split(":")[0]
        assert new == old or not as_graph


def _presentation(fn, *args):
    try:
        return fn(*args)
    except EmptyAfterTrim:
        return None


def _same_language(p, q):
    """Language equality of a presentation and an oracle presentation, read
    through the oracle's (subset tuple, letter) view of the first."""
    if p is None or q is None:
        return p is q
    p = oracles.keyed_presentation(p)
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
    assert _same_language(_presentation(oracles.chain_support_presentation, nu), old)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of the refusal it raises."""
    try:
        return fn(*args)
    except PreconditionError as error:
        return type(error)


def _random_image_graph(rng, letters):
    """A random labeled graph on up to 4 symbols labelled by ``letters``, now
    and then by a letter outside them too."""
    symbols = range(rng.randint(1, 4))
    labels = tuple(letters) + ("w",) * (rng.random() < 0.2)
    return LabeledGraph(symbols, {(a, b) for a in symbols for b in symbols if rng.random() < 0.5},
                        {s: rng.choice(labels) for s in symbols})


@given(st.integers(0, 2**32 - 1), st.sampled_from(["base", "co", "alternating", "pushforward"]),
       st.booleans())
def test_support_check_matches_presentation_oracle(seed, kind, own_code):
    # a measure pushed through its own code, or read directly, against a random
    # graph: the same answer or the same refusal, except where the oracle's
    # presentations pass the subset-state cap; the search builds none and answers
    rng = random.Random(seed)
    if kind == "pushforward":
        nu = _random_pushforward(rng, rng.random() < 0.5, k_max=3, span=1)
    else:
        nu = _random_measure(rng, kind, tuple("0123"[:rng.randint(2, 3)]))
        if own_code:
            nu = sl.PushforwardMeasure(nu, _code_carrying(rng, nu, rng.random() < 0.5))
    g = _unwrap(nu.code).graph if own_code else _random_image_graph(rng, nu.alphabet)
    new = _outcome(sl.is_fully_supported_on_image, nu, g)
    old = _outcome(oracles.presentation_fully_supported_on_image, nu, g)
    assert isinstance(new, bool) if old is PreconditionError else new == old


def _random_measure(rng, kind, digits):
    """A random measure of one kind on the digits: ``_random_base``'s
    Bernoulli or Markov measure, a co measure, or an alternating offset of
    the former (which adds to its digits mod their number)."""
    if kind == "co":
        word = [rng.choice(digits) for _ in range(rng.randint(1, 5))]
        return sl.COMeasure(sl.PeriodicOrbit.from_word(word), digits)
    base = _random_base(rng, digits)
    if kind == "alternating":
        return sl.AlternatingOffsetMeasure(base, rng.randrange(len(digits)), len(digits))
    return base


def _code_carrying(rng, m, as_graph):
    """A random code whose domain carries the positive steps of m: a block
    code of width up to 3 on the full shift of m's letters, or a labeled
    graph on them with random extra transitions."""
    letters, labels = m.alphabet, "xyz"[:rng.randint(1, 3)]
    if not as_graph:
        memory, anticipation = rng.randint(0, 1), rng.randint(0, 1)
        return sl.SlidingBlockCode(memory, anticipation, letters, {
            u: rng.choice(labels) for u in product(letters, repeat=memory + anticipation + 1)})
    edges = {(a, b) for a in letters for b in letters if rng.random() < 0.5}
    return sl.LabeledGraph(letters, edges | _positive_steps(m),
                           {a: rng.choice(labels) for a in letters})


def _check_chain_cylinders(m, depth=4):
    """The forward recursion equals the per-class oracle, exactly, on every
    word up to ``depth`` letters; a letter off the alphabet has mass 0."""
    words = [w for n in range(depth + 1) for w in product(m.alphabet, repeat=n)]
    assert [m.cylinder(w) for w in words] == [oracles.cylinder(m, w) for w in words]
    assert m.cylinder((m.alphabet[0], "?")) == 0


@given(st.integers(0, 2**32 - 1), st.sampled_from(["base", "co", "alternating"]),
       st.sampled_from(["direct", "block", "graph", "recoding"]))
def test_chain_cylinders_match_per_class_oracle(seed, kind, push):
    # "recoding" pushes through a block code's OneBlockRecoding itself
    rng = random.Random(seed)
    m = _random_measure(rng, kind, tuple("0123"[:rng.randint(2, 3)]))
    if push != "direct":
        code = _code_carrying(rng, m, push == "graph")
        m = sl.PushforwardMeasure(m, code.recoding if push == "recoding" else code)
    _check_chain_cylinders(m)


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_chain_cylinders_match_per_class_oracle_on_golden_codes(name):
    """Pushforwards through every golden code of a random Markov chain on
    its domain, of co measures on domain orbits of period <= 2 and, on a
    full shift of digits, of an alternating offset."""
    rng = random.Random(name)
    rec, code = load_graph_or_code(GOLDEN / f"{name}.json")
    letters = rec.base_alphabet
    rows = {}
    for a in letters:
        weights = {b: rng.randint(1, 4) for b in letters if (a, b) in code.transitions}
        rows[a] = {b: Fraction(x, sum(weights.values())) for b, x in weights.items()}
    bases = [sl.MarkovMeasure(letters, rows)]
    domain = sl.determinize(LabeledGraph(letters, code.transitions, {a: a for a in letters}))
    bases += [sl.COMeasure(orbit, letters) for orbit in domain.periodic_orbits(2)[:4]]
    n = len(letters)
    if letters == tuple(map(str, range(n))) and len(code.transitions) == n ** 2:
        bernoulli = sl.BernoulliMeasure(letters, random_rational_vector(rng, n))
        bases.append(sl.AlternatingOffsetMeasure(bernoulli, 1, n))
    for base in bases:
        _check_chain_cylinders(sl.PushforwardMeasure(base, code))


def _support_words(m, depth):
    """The words up to ``depth`` letters that ``chain_support_presentation`` reads."""
    p = oracles.chain_support_presentation(m)
    return {w for n in range(1, depth + 1) for w in product(m.alphabet, repeat=n)
            if oracles.table_accepts(p, w)}


def test_support_presentation_of_co_and_alternating_offset_measures():
    # the words of positive mass, and only those, are read: the rotations of
    # the orbit's subwords, and letters that alternate between the offset
    # images {1, 2} and {4, 0} of a base on {0, 1}
    co = sl.COMeasure(sl.PeriodicOrbit.from_word("001"), tuple("012"))
    alternating = sl.AlternatingOffsetMeasure(
        sl.BernoulliMeasure(tuple("01234"), ["1/3", "2/3", "0", "0", "0"]), 1, 5)
    for m in (co, alternating):
        positive = {w for n in range(1, 7) for w in product(m.alphabet, repeat=n)
                    if oracles.cylinder(m, w) > 0}
        assert _support_words(m, 6) == positive
    assert _support_words(co, 3) == {("0",), ("1",), ("0", "0"), ("0", "1"), ("1", "0"),
                                     ("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0")}
    assert ("1", "4", "2", "0") in _support_words(alternating, 4)
    assert ("1", "2") not in _support_words(alternating, 2)


# ------------------------------------------------ output-sensitive constructions

@st.composite
def thinned_graphs(draw):
    """A random graph, sometimes with transitions dropped so that trimming
    the graph (and so its fiber products) removes symbols or everything."""
    g = draw(graphs_strategy(max_symbols=5))
    edges = sorted(g.transitions)
    if draw(st.booleans()):
        edges = [e for e, keep in zip(edges, draw(st.lists(st.booleans(), min_size=len(edges),
                                                           max_size=len(edges)))) if keep]
    return sl.LabeledGraph(g.x_symbols, edges, g.label, g.y_symbols)


@st.composite
def branching_graphs(draw):
    """A thinned graph in which s0 has two successors of its own label, s0
    and s1, so that a fiber product expands a coordinate into two."""
    g = draw(thinned_graphs())
    label = {**g.label, "s1": g.label["s0"]}
    return sl.LabeledGraph(g.x_symbols, set(g.transitions) | {("s0", "s0"), ("s0", "s1")},
                           label, g.y_symbols)


def _product_outcome(fn, g, n, distinct):
    try:
        return fn(g, n, distinct)
    except NotInImage:
        return NotInImage


def _edges_are_transitions_by_index(g):
    """Whether ``g.edges`` holds ``transitions`` mapped through ``index``,
    in index order."""
    pairs = sorted((g.index[a], g.index[b]) for a, b in g.transitions)
    return list(zip(*(e.tolist() for e in g.edges))) == pairs


@given(st.one_of(thinned_graphs(), branching_graphs()), st.integers(1, 4), st.booleans())
def test_fiber_product_matches_all_pairs_oracle(g, n, distinct):
    # and the tuple oracle, on graphs that the trim shrinks or empties
    outcome = _product_outcome(sl.fiber_product, g, n, distinct)
    assert outcome == _product_outcome(oracles.tuple_fiber_product, g, n, distinct)
    assert outcome == _product_outcome(oracles.fiber_product, g, n, distinct)
    if outcome is not NotInImage:
        assert _edges_are_transitions_by_index(outcome)


def test_fiber_product_expands_trims_and_empties_like_the_oracles():
    # s0 has the successors s0 and s1 of label 0; s1 -> s2 is a dead end
    g = sl.LabeledGraph(["s0", "s1", "s2"], [("s0", "s0"), ("s0", "s1"), ("s1", "s2")],
                        {"s0": "0", "s1": "0", "s2": "1"})
    for n in range(1, 5):
        for distinct in (False, True):
            outcome = _product_outcome(sl.fiber_product, g, n, distinct)
            assert outcome == _product_outcome(oracles.tuple_fiber_product, g, n, distinct)
            # only the diagonal loop at s0 runs on forever
            assert outcome == (NotInImage if distinct and n > 1 else
                               sl.LabeledGraph([("s0",) * n], [(("s0",) * n,) * 2],
                                               {("s0",) * n: "0"}, ("0", "1")))


def test_fiber_product_matches_oracle_on_reference_codes(rule102, diff4, sum5):
    # the degree-fold distinct product is the joining graph; the plain
    # product is compared at arity 2, where the all-pairs oracle stays small
    for ca in (rule102, diff4, sum5):
        g = ca.recoding.graph
        for n, distinct in ((sl.compute_degree(g).degree, True), (2, False)):
            assert (_product_outcome(sl.fiber_product, g, n, distinct)
                    == _product_outcome(oracles.fiber_product, g, n, distinct))


@pytest.mark.parametrize("code, n, distinct", [(sl.difference_code(6), 6, True),
                                                (sl.sum_code(5), 3, False)],
                         ids=["diff6-joining", "sum5-triples"])
def test_fiber_product_matches_tuple_oracle_at_scale(code, n, distinct):
    g = code.recoding.graph
    product_graph = sl.fiber_product(g, n, distinct)
    assert product_graph == oracles.tuple_fiber_product(g, n, distinct)
    assert _edges_are_transitions_by_index(product_graph)


@st.composite
def structure_graphs(draw):
    """A random graph on up to 8 symbols: often with dead ends (not
    essential) or several components, sometimes with no cycle; with
    ``period`` p > 1 an edge only joins symbol i to a symbol j = i + 1 mod p,
    so every cycle length is a multiple of p."""
    n = draw(st.integers(1, 8))
    period = draw(st.sampled_from([1, 1, 2, 3]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = [(i, j) for i, j in edges if (j - i - 1) % period == 0]
    syms = [f"s{i}" for i in range(n)]
    return sl.LabeledGraph(syms, [(syms[i], syms[j]) for i, j in edges],
                           {s: str(i % 2) for i, s in enumerate(syms)})


def _structure_outcome(fn, g):
    try:
        return fn(g)
    except EmptyAfterTrim as exc:
        return EmptyAfterTrim, str(exc)


@given(structure_graphs())
def test_structure_report_matches_tuple_oracle(g):
    assert _structure_outcome(sl.analyze_graph, g) == _structure_outcome(
        oracles.tuple_analyze_graph, g)


@st.composite
def int_digraphs(draw):
    """Successor lists on the vertices 0..n-1 (repeats allowed, in any
    order) and the roots of a search: some of the vertices, in any order."""
    n = draw(st.integers(1, 12))
    succ = [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]
    roots = draw(st.permutations(range(n)))
    return roots[:draw(st.integers(0, n))], succ


@given(int_digraphs())
@example(([0], [[1], [2], [0, 3], [4], [5], [3]]))     # periods 3 and 3, from one root
@example(([0, 2], [[1], [0, 1], [3], [4], [5], [2], []]))
def test_list_tarjan_and_periods_match_dict_oracles(case):
    roots, succ = case
    comps = _tarjan_scc(roots, succ)
    assert comps == oracles.tarjan_scc(roots, succ)
    src, dst = _edge_arrays(succ)
    expected = [oracles.component_period(c, succ) for c in comps]
    assert _component_periods(comps, succ, src, dst) == expected
    assert oracles.loop_component_periods(comps, succ) == expected


def _edge_arrays(succ):
    """The edges of successor lists as (source, target) index arrays."""
    return (np.repeat(np.arange(len(succ)), [len(t) for t in succ]).astype(np.int64),
            np.array([w for t in succ for w in t], dtype=np.int64))


def _check_periods(g):
    """The gcd pass of ``_component_periods`` against the per-edge gcd loop,
    on the live edges and components of g as ``analyze_graph`` builds them."""
    src, dst = g.edges
    live = g.essential_mask[src] & g.essential_mask[dst]
    src, dst = src[live], dst[live]
    succ = _successor_lists(len(g.x_symbols), src, dst)
    comps = sorted(sorted(c) for c in _tarjan_scc(np.flatnonzero(g.essential_mask).tolist(), succ))
    periods = _component_periods(comps, succ, src, dst)
    assert periods == oracles.loop_component_periods(comps, succ)
    return periods


@given(graphs_strategy(max_symbols=8))
def test_component_periods_match_per_edge_gcd_loop(g):
    _check_periods(g)


def test_component_periods_match_per_edge_gcd_loop_on_diff7_joining_graph():
    lam = sl.degree_joining_graph(sl.LinearCACode(7, "difference").recoding.graph)
    assert _check_periods(lam.graph) == [1] * 720


def test_structure_report_matches_tuple_oracle_on_fixed_cases():
    cases = {   # (edges on s0..s5, expected periods or None for EmptyAfterTrim)
        "dead ends both ways": ([(0, 1), (1, 1), (1, 2), (3, 1)], (1,)),
        "reducible": ([(0, 0), (0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (5, 3)], (1, 2, 3)),
        "periodic": ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], (3,)),
        "acyclic": ([(0, 1), (1, 2), (3, 4)], None),
    }
    for edges, periods in cases.values():
        syms = [f"s{i}" for i in range(6)]
        g = sl.LabeledGraph(syms, [(syms[i], syms[j]) for i, j in edges],
                            {s: "0" for s in syms})
        outcome = _structure_outcome(sl.analyze_graph, g)
        assert outcome == _structure_outcome(oracles.tuple_analyze_graph, g)
        if periods is None:
            assert outcome == (EmptyAfterTrim, "no bi-infinite path exists")
        else:
            assert outcome.periods == periods


def _joining_oracle_stdout(g, fmt):
    """``joining`` stdout built from the tuple fiber product and structure
    report, with each symbol rendered by ``render_symbol``."""
    degree = sl.compute_degree(g).degree
    lam = oracles.tuple_fiber_product(g, degree, distinct=True)
    if fmt == "dot":
        index = lam.index
        lines = ["digraph shift {"]
        lines += [f'  "{render_symbol(s)}" [label="{render_symbol(s)} / {lam.label[s]}"];'
                  for s in lam.x_symbols]
        lines += [f'  "{render_symbol(a)}" -> "{render_symbol(b)}";' for a, b in
                  sorted(lam.transitions, key=lambda e: (index[e[0]], index[e[1]]))]
        return "\n".join(lines + ["}"]) + "\n"
    payload = {
        "x_symbols": [render_symbol(s) for s in lam.x_symbols],
        "transitions": sorted([render_symbol(a), render_symbol(b)] for a, b in lam.transitions),
        "label": {render_symbol(s): str(lam.label[s]) for s in lam.x_symbols},
        "y_symbols": [str(y) for y in lam.y_symbols],
        "degree": degree,
        "components": [[render_symbol(s) for s in comp]
                       for comp in oracles.tuple_analyze_graph(lam).components],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _awkward_joining_code():
    """A 2-to-1 code on six one-character symbols (v, e), labelled by v, whose
    second coordinate flips after v = 0.  Raw, "z" sorts before "é"; escaped
    ("\\u00e9"), after it."""
    names = {(0, 0): "é", (0, 1): "z", (1, 0): '"', (1, 1): "\\", (2, 0): "|", (2, 1): " "}
    letters = ["0", "ä", "2"]
    pairs = [(s, names[w, e ^ (v == 0)]) for (v, e), s in names.items() for w in range(3)]
    return LabeledGraph(names.values(), pairs, {s: letters[v] for (v, _e), s in names.items()},
                        letters)


@pytest.mark.parametrize("name, fmt", [
    pytest.param(name, fmt, id=fmt if name == "skew3-edges" else f"{name}-{fmt}")
    for name in ("skew3-edges", "rule102", "diff4", "sum5", "rule150", "awkward")
    for fmt in ("json", "dot")])
def test_joining_bytes_match_tuple_oracles_off_the_right_resolving_path(name, fmt, tmp_path):
    # skew3-edges, the edge graph of skew3 labelled by the first vertex of each
    # edge, is a degree-3 code whose symbols have two successors of one label;
    # the golden block codes are read through their recodings
    path = GOLDEN / f"{name}.json"
    if name == "awkward":
        path = tmp_path / "awkward.json"
        path.write_text(json.dumps(_awkward_joining_code().to_json_dict()))
    g = load_graph_or_code(path)[0].graph
    assert sl.analyze_graph(g).is_irreducible and sl.is_finite_to_one(g)
    if name == "skew3-edges":
        assert any(len(cell) > 1 for row in oracles.letter_successors(g)[:-1] for cell in row)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["joining", str(path), "--format", fmt]) == 0
    assert out.getvalue().encode() == _joining_oracle_stdout(g, fmt).encode()


def test_joining_readers_make_no_tuple_graph(diff4, monkeypatch):
    """``joining``, ``lambda_path_over`` and the periodic joinings give the same
    results when ``_tuple_graph``, which makes the tuple-symbol graph, raises."""
    path = GOLDEN / "diff4.json"
    g = diff4.recoding.graph
    window = _bernoulli_window(g, 0, 200)
    orbits = sl.determinize(g).periodic_orbits(3)

    def results():
        outs = []
        for fmt in ("json", "dot"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["joining", str(path), "--format", fmt]) == 0
            outs.append(out.getvalue())
        joining = sl.degree_joining_graph(g)
        return (outs, joining.components, sl.lambda_path_over(joining, window),
                [sl.enumerate_periodic_degree_joinings(joining, g, y) for y in orbits])

    expected = results()

    def refuse(*args):
        raise AssertionError("a tuple-symbol graph was made")

    monkeypatch.setattr(joinings, "_tuple_graph", refuse)
    with pytest.raises(AssertionError, match="tuple-symbol"):     # the spy is where graph looks
        sl.degree_joining_graph(g).graph
    assert results() == expected


@pytest.mark.parametrize("alphabet, max_length", [("ab", 10), ("abc", 7)])
def test_least_rotation_matches_oracle_on_every_short_word(alphabet, max_length):
    for length in range(1, max_length + 1):
        for word in product(alphabet, repeat=length):
            assert least_rotation(word) == oracles.least_rotation(word)
            assert least_rotation(word) == oracles.booth_least_rotation(word)


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=30), st.integers(1, 4),
       st.one_of(st.none(), st.permutations("abcd")))
def test_least_rotation_matches_oracle(root, repeats, ranking):
    word = tuple(root) * repeats
    order = None if ranking is None else {a: i for i, a in enumerate(ranking)}
    assert least_rotation(word, order) == oracles.least_rotation(word, order)
    assert least_rotation(word, order) == oracles.booth_least_rotation(word, order)
    assert (sl.PeriodicOrbit.from_word(word, order).primitive_word
            == sl.PeriodicOrbit.from_word(root, order).primitive_word)


@given(st.integers(0, 2**32 - 1))
def test_recoding_matches_all_pairs_oracle(seed):
    rng = random.Random(seed)
    code = _random_block_code(rng, rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2),
                              density=rng.choice([0.5, 0.8, 1.0]))
    assert sl.recode_to_one_block(code) == oracles.recode_to_one_block(code)


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k - 1), max_size=30), st.integers(1, 5))))
@example((1, [0, 0, 0], 3))         # one letter, len == depth
@example((1, [0], 4))               # one letter, len < depth
@example((3, [2, 0], 2))            # len == depth
@example((2, [1, 0, 1], 5))         # len < depth
@example((2, [], 2))
def test_empirical_counts_match_per_length_oracle(case):
    k, arr, depth = case
    alphabet = tuple("abcd"[:k])
    emp = EmpiricalDistribution.from_indices(np.array(arr, dtype=np.int64), alphabet, depth)
    expected = oracles.empirical_counts(arr, alphabet, depth)
    assert [c.tolist() for c in emp.counts] == [
        [expected.get(w, 0) for w in product(alphabet, repeat=length)]
        for length in range(1, depth + 1)]
    assert emp.sample_length == len(arr)


@pytest.mark.parametrize("k, depth, length", [
    (255, 1, 3000), (255, 2, 1), (256, 1, 3000), (2, 8, 3000), (16, 2, 3000),   # 255 and 256
    (256, 2, 5000), (2, 16, 5000), (4, 8, 2), (2, 17, 5000)])                   # 65536; 2**17
def test_empirical_counts_match_word_dict_oracle_at_code_dtype_edges(k, depth, length):
    # k**top codes are uint8 up to 256, uint16 up to 65536 and uint32 above
    arr = np.random.default_rng(k + depth).integers(0, k, length).astype(np.min_scalar_type(k - 1))
    arr[:depth] = k - 1                                   # the largest code occurs
    emp = EmpiricalDistribution.from_indices(arr, tuple(range(k)), depth)
    expected = oracles.empirical_counts(arr, tuple(range(k)), depth)
    for length_ in range(1, depth + 1):
        counts = emp.counts[length_ - 1]
        assert len(counts) == k ** length_
        got = {tuple(int(c) // k ** (length_ - 1 - j) % k for j in range(length_)): int(counts[c])
               for c in np.flatnonzero(counts)}
        assert got == {w: n for w, n in expected.items() if len(w) == length_}


@pytest.mark.parametrize("k, top", [(2, 32), (16, 8), (256, 4), (65536, 2), (3, 20), (2, 33),
                                    (3, 21)])
def test_window_codes_at_the_bincount_dtype_edge(k, top):
    # counting k**top = 2**32 codes would take a 32 GiB count array, so only
    # the codes are checked there: uint32 up to k**top - 1 = 2**32 - 1, and
    # int64 from 2**32, because older NumPy's np.bincount refuses uint64
    arr = np.random.default_rng(top).integers(0, k, 100).astype(np.min_scalar_type(k - 1))
    arr[:top] = k - 1
    codes_arr = sl.measures.window_codes(arr, k, top)
    assert codes_arr.dtype == (np.uint32 if k ** top <= 2**32 else np.int64)
    assert codes_arr[0] == k ** top - 1
    assert codes_arr.tolist() == [sum(int(a) * k ** (top - 1 - j)
                                      for j, a in enumerate(arr[i:i + top]))
                                  for i in range(len(arr) - top + 1)]


SAMPLES = st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(1, 4), st.lists(st.integers(0, k - 1), max_size=12),
    st.lists(st.integers(0, k - 1), max_size=12), st.integers(1, 4)))


@given(SAMPLES)
@example((2, 3, [], [0, 1], 2))             # one empty sample, one shorter than depth
@example((3, 4, [0, 1, 2], [2], 1))         # both shorter than depth
def test_empirical_reads_match_word_dict_oracle(case):
    k, depth, arr1, arr2, other_depth = case
    alphabet = tuple("xyz"[:k])
    new = [EmpiricalDistribution.from_indices(np.array(a, dtype=np.int64), alphabet, n)
           for a, n in ((arr1, depth), (arr2, other_depth))]
    old = [oracles.EmpiricalDistribution.from_indices(a, alphabet, n)
           for a, n in ((arr1, depth), (arr2, other_depth))]
    merged, old_merged = new[0].merged_with(new[1]), old[0].merged_with(old[1])
    assert merged.depth == old_merged.depth and merged.sample_length == old_merged.sample_length
    for emp, ref in [*zip(new, old), (merged, old_merged)]:
        for length in range(1, emp.depth + 1):
            for word in product(alphabet, repeat=length):
                assert emp.frequency(word) == ref.frequency(word)
            assert emp.to_json_dict(length) == ref.to_json_dict(length)
    assert new[0].distance(new[1]) == old[0].distance(old[1])
    assert new[1].distance(new[0]) == old[1].distance(old[0])


TAU = 0.5
DISTANCES = st.sampled_from([0.0, 0.25, TAU, 0.75, 1.0])     # TAU itself makes ties


@given(st.integers(1, 7).flatmap(lambda n: st.lists(DISTANCES, min_size=n * n, max_size=n * n)))
@example([0.0, TAU, 1.0, TAU, 0.0, TAU, 1.0, TAU, 0.0])      # a chain 0 - 1 - 2 at exactly tau
@example([0.0, 1.0, 1.0, TAU, 1.0, 0.0, TAU, 1.0,             # {0, 3} and {1, 2}: equal sizes
          1.0, TAU, 0.0, 1.0, TAU, 1.0, 1.0, 0.0])
def test_single_linkage_matches_union_find_oracle(entries):
    n = isqrt(len(entries))
    upper = np.triu(np.array(entries).reshape(n, n), 1)
    dist = upper + upper.T
    assert _single_linkage(dist, TAU) == oracles.single_linkage(dist, TAU)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)),
                         max_size=3 * n))))
def test_essential_symbols_match_full_pass_oracle(case):
    n, edges = case                     # endpoints n and n + 1 are not symbols
    inside = np.array([e for e in edges if max(e) < n], dtype=np.int64).reshape(-1, 2)
    alive = set(np.flatnonzero(_essential_mask(n, inside[:, 0], inside[:, 1])).tolist())
    assert alive == oracles.essential_symbols(range(n), edges)
    assert alive == oracles.queue_essential_symbols(range(n), edges)


def _letter_successors_oracle(g):
    """``oracles.letter_successors`` read off ``oracles.sorted_successors``."""
    succ = oracles.sorted_successors(g)
    rows = [succ[s] for s in g.x_symbols] + [g.x_symbols]
    return [[[g.index[t] for t in row if g.label[t] == y] for y in g.y_symbols] for row in rows]


def _check_successor_index(g):
    """Each cell of ``successor_index``, start row included, against the
    Python table of ``oracles.letter_successors`` and the one-sort lists."""
    (bounds, targets), k = g.successor_index, len(g.y_symbols)
    assert len(bounds) == (len(g.x_symbols) + 1) * k + 1 and bounds[-1] == len(targets)
    cells = [targets[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    table = oracles.letter_successors(g)
    assert [cells[r * k:r * k + k] for r in range(len(table))] == table
    assert table == _letter_successors_oracle(g)


@given(graphs_strategy())
def test_letter_successors_match_one_sort_oracle(g):
    _check_successor_index(g)


def test_letter_successors_match_one_sort_oracle_on_joining_graphs(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        for g in (ca.recoding.graph, sl.degree_joining_graph(ca.recoding.graph).graph):
            _check_successor_index(g)


def test_gather_of_no_rows_and_of_empty_cells():
    # cells 0..5 hold [], [7, 8], [], [], [9], []
    index = np.array([0, 0, 2, 2, 2, 3, 3]), np.array([7, 8, 9])
    for lo, hi in (([], []), ([0, 2, 5], [1, 4, 6]), ([3], [3])):
        rows, targets = _gather(index, np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))
        assert rows.tolist() == targets.tolist() == []
    rows, targets = _gather(index, np.array([2, 0, 1, 4]), np.array([5, 2, 1, 6]))
    assert rows.tolist() == [0, 1, 1, 3] and targets.tolist() == [9, 7, 8, 9]
