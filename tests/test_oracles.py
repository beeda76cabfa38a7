"""Differential tests: the shared subset automaton, the table-based image
presentation with its Lyndon-word orbit sweep, the diamond and closing
tests on the trimmed 2-fold fiber product, the per-row sorted successor
lists, the speculate-and-verify integer scan, the
speculate-and-verify viability walk, the one-pass empirical count arrays
with their frequencies, distance, merge and JSON form, the single-linkage
clusters as connected components, the
queue-based essential trim, the one-sweep periodic fibers and the
closing step along one word with the periodic lift analysis and the
``periodic-lifts`` rows, the vectorised samplers, the recoding-based pushforward path and the
output-sensitive fiber product, least rotation and recoding against the
constructions they replaced (kept in ``oracles.py``)."""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import sftlift as sl
from sftlift import codes
from sftlift.cli import main
from sftlift.errors import EmptyAfterTrim, FiberInfinite, NoPath, NotInImage, PreconditionError
from sftlift.fibers import _single_linkage, _unwrap, support_presentation
from sftlift.graphs import LabeledGraph, SubsetAutomaton, _essential_symbols, least_rotation
from sftlift.joinings import _ViabilityWalk
from sftlift.measures import EmpiricalDistribution, make_rng

import oracles
from test_graphs import graphs_strategy, loop_scan, scan_cases


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
    assert new.step.dtype == np.int64
    assert oracles.keyed_presentation(new).step == old.step
    assert new.alphabet == old.alphabet
    assert new.entropy() == old.entropy()       # bit for bit
    for length in range(4):
        for word in product(new.alphabet + ("?",), repeat=length):
            assert new.accepts(word) == old.accepts(word)
    for max_period in range(1, 7):
        assert new.periodic_orbits(max_period) == old.periodic_orbits(max_period)


def _a_cycle(g):
    path = [g.x_symbols[0]]
    while path.count(path[-1]) == 1:
        path.append(g.successors[path[-1]][0])
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
    assert new_h.language_subset_of(new_g) == old_h.language_subset_of(old_g)
    assert new_g.language_subset_of(new_h) == old_g.language_subset_of(old_h)
    reordered = sl.determinize(LabeledGraph(g.x_symbols, g.transitions, g.label,
                                            g.y_symbols[::-1]))
    assert new_g.language_subset_of(reordered) and reordered.language_subset_of(new_g)


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


def _bernoulli_window(lam, seed, length):
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in lam.y_symbols]
    nu = sl.BernoulliMeasure(lam.y_symbols, [Fraction(w, sum(weights)) for w in weights])
    return tuple(lam.y_symbols[i] for i in nu.sample_indices(length, make_rng(seed)))


def test_viability_walk_matches_oracle_on_joining_graphs(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        lam = sl.degree_joining_graph(ca.recoding.graph).graph
        for seed in (0, 1, 2):
            word = _bernoulli_window(lam, seed, 3000)
            assert _new_path(lam, word) == _old_path(lam, word)


def _path_labels(g, rng, length, periodic):
    """The labels of a random path of g, or, with ``periodic``, of a cycle of
    g wound round until the window is full."""
    s = rng.choice(g.x_symbols)
    if periodic:
        seen = {}
        while s not in seen:
            seen[s] = len(seen)
            s = rng.choice(g.successors[s])
        cycle = list(seen)[seen[s]:]
        path = [cycle[t % len(cycle)] for t in range(length)]
    else:
        path = [s]
        while len(path) < length:
            path.append(rng.choice(g.successors[path[-1]]))
    return tuple(g.label[s] for s in path)


@st.composite
def walk_windows(draw):
    """A random small graph with plain symbols, or its distinct-tuple fiber
    product of arity 1 to 3 (the joining graph when the arity is the
    degree), and a label window on it: a random path's labels, or a cycle's
    labels repeated, a window that need not contain a magic word."""
    g = sl.analyze_graph(draw(graphs_strategy())).essential
    arity = draw(st.integers(0, 3))
    if arity:
        try:
            g = sl.fiber_product(g, arity, distinct=True)
        except NotInImage:
            assume(False)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return g, _path_labels(g, rng, draw(st.integers(1, 400)), draw(st.booleans()))


@given(walk_windows())
def test_speculative_walk_matches_oracle_on_random_windows(case):
    g, word = case
    assert _new_path(g, word) == _old_path(g, word)


def _settled_walker(g, word):
    walker = _ViabilityWalk(g)
    path = walker.walk(walker.viability_ids([g.y_symbols.index(y) for y in word]))
    assert [g.x_symbols[k] for k in path] == _old_path(g, word)
    return walker


def test_speculative_walk_settles_chunks_all_three_ways(sum5):
    lam = sl.degree_joining_graph(sum5.recoding.graph).graph
    joining = _settled_walker(lam, _bernoulli_window(lam, 0, 3000)).resolutions
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
    swapped = _settled_walker(sl.fiber_product(g, 2, distinct=True), "1010")
    assert swapped._relabellings and swapped.resolutions["rerun"] == 1
    assert not swapped.resolutions["relabel"]


def test_speculative_walk_raises_on_a_dead_end():
    g = LabeledGraph("ab", [("a", "b"), ("b", "a")], {"a": "x", "b": "y"})
    walker = _ViabilityWalk(g)
    good = walker.viability_ids([0, 1] * 25)
    assert walker.walk(good).tolist() == [0, 1] * 25
    for t in range(1, len(good)):
        ids = good.copy()
        ids[t] = ids[t - 1]                 # a cannot follow a, nor b follow b
        with pytest.raises(RuntimeError, match="dead end"):
            walker.walk(ids)


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


def test_periodic_cycles_match_oracle_on_sweep_fixtures(sweep_fixtures):
    for _name, code, _cto in sweep_fixtures:
        g = code.graph if hasattr(code, "graph") else code
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
    g, _recoding = _unwrap(code)
    assert (_refusal_or(_lift_json, sl.analyze_periodic_lifts, code, y)
            == _refusal_or(_lift_json, oracles.analyze_periodic_lifts, code, y))
    assert _refusal_or(sl.periodic_fiber, g, y) == _refusal_or(oracles.tuple_periodic_fiber, g, y)


def test_periodic_lifts_match_tuple_oracle_on_sweep_fixtures(sweep_fixtures):
    # the random finite-to-one fixtures are among the sweep fixtures
    for _name, code, _cto in sweep_fixtures:
        g = _unwrap(code)[0]
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


def _cli_rows(payload, max_period):
    """The periodic-lifts rows for a code or graph JSON payload, or the exit
    code and stdout of a run that does not exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["periodic-lifts", path, "--max-period", str(max_period)])
    return json.loads(out.getvalue())["orbits"] if code == 0 else (code, out.getvalue())


def _oracle_rows(code, max_period):
    """periodic-lifts rows built orbit by orbit from the tuple-vertex lift analysis."""
    rows = []
    for y in oracles.determinize(sl.analyze_graph(_unwrap(code)[0]).essential).periodic_orbits(
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
    report = sl.analyze_graph(_unwrap(code)[0])
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
    trim = codes._essential_symbols
    monkeypatch.setattr(codes, "_essential_symbols", lambda *args: trims.append(1) or trim(*args))
    outcome = _refusal_or(sl.periodic_fiber, g, y)
    assert bool(trims) == trimmed
    assert outcome == _refusal_or(oracles.tuple_periodic_fiber, g, y)
    if refused:
        assert outcome == (FiberInfinite, "recurrent phased graph branches; fiber is infinite")
    else:
        assert outcome.lift_orbits


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
    assert _same_language(_presentation(support_presentation, nu), old)


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


def _product_outcome(fn, g, n, distinct):
    try:
        return fn(g, n, distinct)
    except NotInImage:
        return NotInImage


@given(thinned_graphs(), st.integers(1, 4), st.booleans())
def test_fiber_product_matches_all_pairs_oracle(g, n, distinct):
    assert (_product_outcome(sl.fiber_product, g, n, distinct)
            == _product_outcome(oracles.fiber_product, g, n, distinct))


def test_fiber_product_matches_oracle_on_reference_codes(rule102, diff4, sum5):
    # the degree-fold distinct product is the joining graph; the plain
    # product is compared at arity 2, where the all-pairs oracle stays small
    for ca in (rule102, diff4, sum5):
        g = ca.recoding.graph
        for n, distinct in ((sl.compute_degree(g).degree, True), (2, False)):
            assert (_product_outcome(sl.fiber_product, g, n, distinct)
                    == _product_outcome(oracles.fiber_product, g, n, distinct))


@pytest.mark.parametrize("alphabet, max_length", [("ab", 10), ("abc", 7)])
def test_least_rotation_matches_oracle_on_every_short_word(alphabet, max_length):
    for length in range(1, max_length + 1):
        for word in product(alphabet, repeat=length):
            assert least_rotation(word) == oracles.least_rotation(word)


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=30), st.integers(1, 4),
       st.one_of(st.none(), st.permutations("abcd")))
def test_least_rotation_matches_oracle(root, repeats, ranking):
    word = tuple(root) * repeats
    order = None if ranking is None else {a: i for i, a in enumerate(ranking)}
    assert least_rotation(word, order) == oracles.least_rotation(word, order)
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
    assert _essential_symbols(range(n), edges) == oracles.essential_symbols(range(n), edges)


@given(graphs_strategy())
def test_adjacency_lists_match_one_sort_oracle(g):
    assert g.successors == oracles.sorted_successors(g)
    assert g.predecessors == oracles.sorted_predecessors(g)


def test_adjacency_lists_match_one_sort_oracle_on_joining_graphs(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        for g in (ca.recoding.graph, sl.degree_joining_graph(ca.recoding.graph).graph):
            assert g.successors == oracles.sorted_successors(g)
            assert g.predecessors == oracles.sorted_predecessors(g)
