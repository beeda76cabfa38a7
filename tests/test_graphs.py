import json
from math import isqrt, log, sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sftlift as sl
from sftlift import LabeledGraph, PeriodicOrbit, SlidingBlockCode, graphs
from sftlift.errors import EmptyAfterTrim, NotIrreducible
from sftlift.graphs import _essential_mask

import oracles
from conftest import eig_entropy, label_word_realizable


def graphs_strategy(max_symbols=6, max_labels=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_symbols))
        syms = [f"s{i}" for i in range(n)]
        n_y = draw(st.integers(1, min(max_labels, n)))
        ys = [str(i) for i in range(n_y)]
        perm = draw(st.permutations(syms))
        edges = set(zip(perm, perm[1:] + perm[:1]))
        extra = draw(st.lists(st.tuples(st.sampled_from(syms), st.sampled_from(syms)),
                              max_size=2 * n))
        edges.update(extra)
        label = {s: draw(st.sampled_from(ys)) for s in syms}
        return LabeledGraph(syms, edges, label, sorted({label[s] for s in syms}))
    return build()


# ----------------------------------------------------------- analyze_graph

def test_full_shift_is_irreducible_period_one():
    report = sl.analyze_graph(sl.full_shift("01"))
    assert report.is_essential and report.is_irreducible
    assert report.periods == (1,)


def test_golden_mean_structure(golden_mean_graph):
    report = sl.analyze_graph(golden_mean_graph)
    assert report.is_irreducible
    assert report.periods == (1,)   # cycles of length 1 and 2 coexist


def test_two_disjoint_loops_not_irreducible():
    g = LabeledGraph(["a", "b"], [("a", "a"), ("b", "b")], {"a": "0", "b": "1"})
    report = sl.analyze_graph(g)
    assert not report.is_irreducible
    assert len(report.components) == 2


def test_trimming_removes_dangling_symbols():
    g = LabeledGraph(["a", "b", "c"], [("a", "a"), ("a", "b"), ("c", "a")],
                     {"a": "0", "b": "0", "c": "0"})
    report = sl.analyze_graph(g)
    assert set(report.trimmed_symbols) == {"b", "c"}
    assert report.essential.x_symbols == ("a",)


def test_trimming_a_long_dangling_path_reads_the_edges_once(monkeypatch):
    # 0 -> 1 -> ... -> 1999 -> the loop at 2000 -> 2001 -> ... -> 3999:
    # a pass-by-pass trim removes one path end per pass, 2000 passes; the
    # queue reads the edges into successor lists once each way
    n = 4000
    src, dst = np.append(np.arange(n - 1), 2000), np.append(np.arange(1, n), 2000)
    passes, lists = [], graphs._successor_lists
    monkeypatch.setattr(graphs, "_successor_lists", lambda *args: passes.append(1) or lists(*args))
    assert np.flatnonzero(_essential_mask(n, src, dst)).tolist() == [2000]
    assert len(passes) == 2


def test_empty_after_trim():
    g = LabeledGraph(["a", "b"], [("a", "b")], {"a": "0", "b": "0"})
    with pytest.raises(EmptyAfterTrim):
        sl.analyze_graph(g)


def test_two_cycle_period():
    g = LabeledGraph(["a", "b"], [("a", "b"), ("b", "a")], {"a": "0", "b": "1"})
    assert sl.analyze_graph(g).periods == (2,)


# ----------------------------------------------------------------- entropy

def test_entropy_full_2_shift():
    assert abs(sl.entropy(sl.full_shift("01")) - log(2)) <= 1e-10


def test_entropy_full_5_shift():
    assert abs(sl.entropy(sl.full_shift("01234")) - log(5)) <= 1e-10


def test_entropy_golden_mean(golden_mean_graph):
    golden = (1 + sqrt(5)) / 2
    assert abs(sl.entropy(golden_mean_graph) - log(golden)) <= 1e-10


def test_entropy_requires_irreducible():
    g = LabeledGraph(["a", "b"], [("a", "a"), ("b", "b")], {"a": "0", "b": "1"})
    with pytest.raises(NotIrreducible):
        sl.entropy(g)


@given(graphs_strategy())
def test_entropy_matches_eigenvalue_oracle(g):
    assert abs(sl.entropy(g) - eig_entropy(g)) <= 1e-9


# ---------------------------------------------------------------- recoding

def test_recode_rule102(rule102):
    rec = rule102.recoding
    g = rec.graph
    assert len(g.x_symbols) == 4
    assert len(g.transitions) == 8
    rendered = {"".join(s): g.label[s] for s in g.x_symbols}
    assert rendered == {"00": "0", "01": "1", "10": "1", "11": "0"}
    assert rec.offset == 0


def test_recode_identity_is_isomorphic():
    code = SlidingBlockCode(0, 0, "01", {("0",): "0", ("1",): "1"})
    rec = sl.recode_to_one_block(code)
    assert len(rec.graph.x_symbols) == 2
    assert len(rec.graph.transitions) == 4
    assert {rec.graph.label[s] for s in rec.graph.x_symbols} == {"0", "1"}


def test_recode_difference_mod_3():
    rec = sl.recode_to_one_block(sl.difference_code(3))
    g = rec.graph
    assert len(g.x_symbols) == 9
    for a, b in g.x_symbols:
        assert g.label[(a, b)] == str((int(b) - int(a)) % 3)


def test_entropy_invariant_under_recoding(golden_mean_graph):
    code = SlidingBlockCode(0, 1, "ab",
                            {("a", "a"): "0", ("a", "b"): "1", ("b", "a"): "2"},
                            transitions=golden_mean_graph.transitions)
    rec = sl.recode_to_one_block(code)
    assert abs(sl.entropy(rec.graph) - sl.entropy(golden_mean_graph)) <= 1e-9


@given(graphs_strategy())
def test_recoding_preserves_entropy_random(g):
    code = SlidingBlockCode(0, 1, g.x_symbols,
                            {(a, b): "x" for a, b in g.transitions},
                            transitions=g.transitions)
    rec = sl.recode_to_one_block(code)
    assert abs(sl.entropy(rec.graph) - sl.entropy(g)) <= 1e-9


# ------------------------------------------------------------- determinize

def test_determinize_rule102_image_is_full_shift(rule102):
    aut = sl.determinize(rule102.recoding.graph)
    assert abs(aut.entropy() - log(2)) <= 1e-10
    for length in range(1, 7):
        for word in __import__("itertools").product("01", repeat=length):
            assert oracles.table_accepts(aut, word)


def test_determinize_identity_labeling():
    g = sl.full_shift("01")
    aut = sl.determinize(g)
    assert len(aut.states) == 2
    assert all(len(s) == 1 for s in aut.states)


def test_determinize_constant_label(constant_label_graph):
    aut = sl.determinize(constant_label_graph)
    assert len(aut.states) == 1
    assert abs(aut.entropy() - 0.0) <= 1e-12


@given(graphs_strategy(max_symbols=5, max_labels=3))
def test_determinize_language_matches_graph(g):
    from itertools import product
    aut = sl.determinize(g)
    for length in range(1, 5):
        for word in product(g.y_symbols, repeat=length):
            assert oracles.table_accepts(aut, word) == label_word_realizable(g, word)


def test_determinize_language_exhaustive_length_6(rule102, golden_mean_graph):
    from itertools import product
    for g in (rule102.recoding.graph, golden_mean_graph):
        aut = sl.determinize(g)
        for length in range(1, 7):
            for word in product(g.y_symbols, repeat=length):
                assert oracles.table_accepts(aut, word) == label_word_realizable(g, word)


# -------------------------------------------------------------------- scan

def loop_scan(step, inputs, start):
    """Plain per-step reference: -1 once a transition is missing."""
    out = []
    state = start
    for x in inputs:
        state = -1 if state < 0 else int(step[state][x])
        out.append(state)
    return out


@st.composite
def scan_cases(draw):
    """Tables of 1-64 states: random (with or without missing transitions),
    with a reset symbol (their lanes merge), permutations of the states per
    symbol (they never merge) or with rows of -1 (lanes that die); lengths
    around and at squares, where the chunks of ``scan`` come out exact."""
    states = draw(st.integers(1, 64))
    symbols = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "reset", "permutation", "dead rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "permutation":
        step = np.array([rng.permutation(states) for _ in range(symbols)]).T.copy()
    else:
        step = rng.integers(draw(st.sampled_from([-1, 0])), states, size=(states, symbols))
    if kind == "reset":
        step[:, rng.integers(symbols)] = rng.integers(states)
    if kind == "dead rows":
        step[rng.random(states) < 0.3] = -1
    length = draw(st.one_of(st.integers(0, 40),
                            st.integers(1, 45).flatmap(
                                lambda k: st.sampled_from([k * k - 1, k * k, k * k + 1])),
                            st.integers(0, 2000)))
    inputs = rng.integers(0, symbols, size=length)
    return step, inputs, draw(st.integers(0, states - 1))


@given(scan_cases())
def test_scan_matches_loop(case):
    step, inputs, start = case
    expected = loop_scan(step, inputs, start)
    out = np.full(len(inputs), 99, dtype=np.int64)
    last = sl.graphs.scan(step, inputs, start, out)
    assert out.tolist() == expected
    assert last == (expected[-1] if expected else start)


@given(scan_cases())
def test_scan_in_place_over_reversed_view(case):
    step, inputs, start = case
    expected = loop_scan(step, inputs[::-1], start)
    buffer = inputs.copy()
    view = buffer[::-1]
    sl.graphs.scan(step, view, start, view)
    assert view.tolist() == expected


# symbol 0 cycles the two states; symbol 1 has no transition from state 1
_CYCLE_OR_DIE = [[1, 0], [0, -1]]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 15, 16, 17, 1000])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_scan_dead_transition_is_absorbing(length, where):
    step = np.array(_CYCLE_OR_DIE, dtype=np.int64)
    inputs = np.zeros(length, dtype=np.int64)
    position = {"first": 0, "middle": length // 2, "last": length - 1}[where]
    start = 0 if position % 2 else 1           # in state 1 just before position
    inputs[position] = 1
    out = np.empty(length, dtype=np.int64)
    last = sl.graphs.scan(step, inputs, start, out)
    assert out.tolist() == loop_scan(step, inputs, start)
    assert last == -1
    assert (out[position:] == -1).all() and (out[:position] >= 0).all()


def _second_chunk_runs(step, inputs):
    """Chunk 1 of ``scan``'s √T chunks from state 0: its run speculated from
    state 0 and its true run."""
    width = isqrt(len(inputs))
    chunk = slice(width, 2 * width)
    return loop_scan(step, inputs[chunk], 0), loop_scan(step, inputs, 0)[chunk]


# swaps states 0 and 1 and keeps state 2: a state row that ``scan`` may relabel by
_SWAP = np.array([1, 0, 2])


def _offer_swap(guess, true):
    return _SWAP if _SWAP[guess] == true else None


@pytest.mark.parametrize("step, inputs, relabel, settles, counts", [
    # chunk 1 is entered in state 1: its speculation dies, its true run lives
    (_CYCLE_OR_DIE, [1, 1, 1, 0, 0, 1, 0, 0] + [0] * 8, None,
     lambda spec, true: spec[-1] == -1 and -1 not in true, (2, 0, 1)),
    # chunk 1 is entered in state 1: its true run dies mid-chunk, its speculation lives
    (_CYCLE_OR_DIE, [1, 1, 1, 0, 0, 0, 1, 0] + [0] * 8, None,
     lambda spec, true: -1 not in spec and true[1] >= 0 and true[2] == -1, (0, 0, 1)),
    # a permutation: chunk 1's re-run never meets its speculation, so chunk 2
    # is entered in its true end, not in the speculated one
    ([[1], [0]], [0] * 9, None,
     lambda spec, true: all(a != b for a, b in zip(spec, true)) and spec[-1] != true[-1],
     (1, 0, 1)),
    # symbol 0 resets to 0, a third 1 in a row dies: chunk 1's re-run meets its
    # speculation, and then both die
    ([[0, 1], [0, 2], [0, -1]], [0, 0, 0, 0, 1, 1, 0, 1, 1, 1] + [0] * 15, None,
     lambda spec, true: spec[1] == true[1] and true[-1] == -1, (0, 0, 2)),
    # that permutation with the swap offered: it commutes with the table, so
    # chunks 1 and 3 are their speculations relabelled, and none is re-run
    ([[1], [0], [2]], [0] * 25, _offer_swap,
     lambda spec, true: true == _SWAP[spec].tolist(), (2, 2, 0)),
    # symbol 1 sends 0 to 2 but 1 to 0, so the swap does not commute: chunk 1
    # relabelled fails its first step and is re-run from there until it meets
    # its speculation; chunk 2, entered in 2, is offered nothing and re-run
    ([[1, 2], [0, 0], [2, 2]], [0, 0, 0, 0, 1, 1, 0, 0, 0], _offer_swap,
     lambda spec, true: _SWAP[spec][0] == true[0] and _SWAP[spec][1] != true[1], (0, 0, 2)),
    # chunk 1's speculation dies at its head, its true run lives: no σ is asked for
    ([[2, -1], [1, 1], [2, 2]], [0, 0, 0, 1, 0, 0, 0, 0, 0], _offer_swap,
     lambda spec, true: spec[0] == -1 and -1 not in true, (1, 0, 1)),
    # the swap commutes, symbol 2 dies from state 2 only: chunk 1 is
    # relabelled to end in 2, so chunk 2's true run dies at once, and chunk 3
    ([[1, 2, 0], [0, 2, 1], [2, 2, -1]], [0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0], _offer_swap,
     lambda spec, true: true == _SWAP[spec].tolist() and true[-1] == 2, (0, 1, 1)),
], ids=["speculation dies", "true run dies", "re-run never meets", "re-run meets, then dies",
        "commuting relabel", "relabel verified, then re-run", "dead guess",
        "relabel, then dies"])
def test_scan_settle_paths(step, inputs, relabel, settles, counts):
    step, inputs = np.array(step), np.array(inputs)
    spec, true = _second_chunk_runs(step, inputs)
    assert spec[0] != true[0] and settles(spec, true)     # chunk 1 is not guessed
    out = np.empty(len(inputs), dtype=np.int64)
    expected = loop_scan(step, inputs, 0)
    settled = dict.fromkeys(("guess", "relabel", "rerun"), 0)
    assert sl.graphs.scan(step, inputs, 0, out, relabel, settled) == expected[-1]
    assert out.tolist() == expected
    assert tuple(settled.values()) == counts


# ---------------------------------------------------- periodic orbit lists

def _identity_labelled(g):
    """The SFT of g as its own image: determinize then presents the SFT."""
    return LabeledGraph(g.x_symbols, g.transitions, {s: s for s in g.x_symbols}, g.x_symbols)


def test_orbits_full_2_shift():
    orbits = sl.determinize(sl.full_shift("01")).periodic_orbits(2)
    assert [o.primitive_word for o in orbits] == [("0",), ("1",), ("0", "1")]


def test_orbits_golden_mean(golden_mean_graph):
    orbits = sl.determinize(golden_mean_graph).periodic_orbits(2)
    assert [o.primitive_word for o in orbits] == [("a",), ("a", "b")]


def test_fixed_points_of_full_shift():
    orbits = sl.determinize(sl.full_shift("abcd")).periodic_orbits(1)
    assert len(orbits) == 4
    assert all(o.period == 1 for o in orbits)


def test_orbit_whose_word_moves_every_state():
    # a^∞ is read along x -> y -> x, a cycle of a^2; no state is fixed by a
    p = sl.RightResolvingPresentation([("x",), ("y",)], np.array([[1], [0]]), ("a",))
    assert [o.primitive_word for o in p.periodic_orbits(3)] == [("a",)]


@given(graphs_strategy(max_symbols=5), st.integers(1, 5))
def test_trace_formula(g, max_p):
    swept = sl.determinize(_identity_labelled(g)).periodic_orbits(max_p)
    assert swept == oracles.enumerate_periodic_orbits(g, max_p)
    mat = g.adjacency_matrix()
    power = np.eye(len(g.x_symbols), dtype=np.int64)
    for p in range(1, max_p + 1):
        power = power @ mat
        expected = sum(o.period for o in swept if p % o.period == 0)
        assert int(np.trace(power)) == expected


def test_sum5_orbits_to_period_8_number_the_lyndon_words(sum5):
    # the image of sum5 is the full 5-shift: one orbit per Lyndon word
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}
    lyndon = sum(sum(mobius[d] * 5 ** (p // d) for d in mobius if p % d == 0) // p
                 for p in range(1, 9))
    orbits = sl.determinize(sum5.recoding.graph).periodic_orbits(8)
    assert len(orbits) == lyndon == 63319
    assert [o.period for o in orbits] == sorted(o.period for o in orbits)


def test_periodic_orbit_canonicalization():
    orbit = PeriodicOrbit.from_word("0101")
    assert orbit.primitive_word == ("0", "1")
    assert orbit.period == 2
    assert PeriodicOrbit.from_word("10").primitive_word == ("0", "1")


# -------------------------------------------------------------------- I/O

def test_graph_json_round_trip(golden_mean_graph):
    data = golden_mean_graph.to_json_dict()
    back = LabeledGraph.from_json_dict(json.loads(json.dumps(data)))
    assert back == golden_mean_graph


def test_sliding_block_code_json():
    data = {"memory": 0, "anticipation": 1, "alphabet": ["0", "1"],
            "block_map": {"00": "0", "01": "1", "10": "1", "11": "0"}}
    code = SlidingBlockCode.from_json_dict(data)
    assert code.apply("0110") == ("1", "0", "1")


def test_dot_export(golden_mean_graph):
    dot = sl.to_dot(golden_mean_graph)
    assert dot.startswith("digraph")
    assert '"a" -> "b"' in dot
