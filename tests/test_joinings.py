from itertools import permutations

import pytest

import sftlift as sl
from sftlift import LinearCACode, PeriodicOrbit
from sftlift.errors import NoPath, UnsupportedFiber


# ------------------------------------------------------------ fiber product

def test_fiber_product_rule102(rule102):
    prod = sl.fiber_product(rule102.recoding.graph, 2)
    assert len(prod.graph.x_symbols) == 8
    for u, v in prod.graph.x_symbols:
        assert rule102.recoding.graph.label[u] == rule102.recoding.graph.label[v]


def test_fiber_product_arity_one(golden_mean_graph):
    prod = sl.fiber_product(golden_mean_graph, 1)
    assert len(prod.graph.x_symbols) == 2
    assert {(u[0], v[0]) for u, v in prod.graph.transitions} == set(golden_mean_graph.transitions)


def test_fiber_product_identity_diagonal():
    prod = sl.fiber_product(sl.full_shift("01"), 2)
    assert all(u == v for u, v in prod.graph.x_symbols)
    assert len(prod.graph.x_symbols) == 2


# ------------------------------------------------------------ joining graph

def test_joining_graph_rule102(rule102):
    lam = sl.degree_joining_graph(rule102.recoding.graph)
    rendered = {tuple("".join(b) for b in sym) for sym in lam.graph.x_symbols}
    assert rendered == {("00", "11"), ("11", "00"), ("01", "10"), ("10", "01")}


def test_joining_graph_identity():
    lam = sl.degree_joining_graph(sl.full_shift("01"))
    assert lam.degree == 1
    assert len(lam.graph.x_symbols) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_joining_graph_difference_code_size(n):
    import math
    lam = sl.degree_joining_graph(LinearCACode(n, "difference").recoding.graph)
    assert len(lam.graph.x_symbols) == n * math.factorial(n)


def _check_difference_joining(n, symbols, transitions):
    g = sl.difference_code(n).recoding.graph
    lam = sl.degree_joining_graph(g)
    assert lam.degree == n
    assert len(lam.graph.x_symbols) == symbols
    assert len(lam.graph.transitions) == transitions
    for i in range(n):
        assert {t[i] for t in lam.graph.x_symbols} == set(g.x_symbols)


def test_joining_graph_difference_code_6_at_scale():
    # 6 classes of 6 blocks: 6 · 6! tuples, each with one successor per label
    _check_difference_joining(6, 4320, 25920)


@pytest.mark.slow
def test_joining_graph_difference_code_7_at_scale():
    _check_difference_joining(7, 35280, 246960)


def test_joining_symbols_closed_under_permutation(rule102, sum5):
    for ca in (rule102, sum5):
        lam = sl.degree_joining_graph(ca.recoding.graph)
        symbols = set(lam.graph.x_symbols)
        transitions = lam.graph.transitions
        for perm in permutations(range(lam.degree)):
            for sym in symbols:
                assert tuple(sym[p] for p in perm) in symbols
            for u, v in transitions:
                pu = tuple(u[p] for p in perm)
                pv = tuple(v[p] for p in perm)
                assert (pu, pv) in transitions


def test_joining_projections_cover_domain(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        g = ca.recoding.graph
        lam = sl.degree_joining_graph(g)
        for i in range(lam.degree):
            assert {sym[i] for sym in lam.graph.x_symbols} == set(g.x_symbols)
        assert {lam.graph.label[s] for s in lam.graph.x_symbols} == set(g.y_symbols)


# ------------------------------------------------------------- path lifting

def test_lambda_path_over_zeros(rule102):
    lam = sl.degree_joining_graph(rule102.recoding.graph)
    path = sl.lambda_path_over(lam, ("0",) * 4)
    expected = ((("0", "0"), ("1", "1")),) * 4
    assert tuple(path) == expected


def test_lambda_path_over_ones(rule102):
    lam = sl.degree_joining_graph(rule102.recoding.graph)
    path = sl.lambda_path_over(lam, ("1",) * 4)
    rendered = [tuple("".join(b) for b in sym) for sym in path]
    assert rendered == [("01", "10"), ("10", "01"), ("01", "10"), ("10", "01")]


def test_lambda_path_empty_window(rule102):
    lam = sl.degree_joining_graph(rule102.recoding.graph)
    assert sl.lambda_path_over(lam, ()) == []


def test_lambda_path_no_path(golden_mean_graph):
    lam = sl.degree_joining_graph(golden_mean_graph)
    with pytest.raises(NoPath):
        sl.lambda_path_over(lam, ("b", "b"))


def test_lambda_path_is_valid_joining_word(sum5):
    g = sum5.recoding.graph
    lam = sl.degree_joining_graph(g)
    window = tuple("0123443210")
    path = sl.lambda_path_over(lam, window)
    for sym, y in zip(path, window):
        assert lam.graph.label[sym] == y
    for u, v in zip(path, path[1:]):
        assert (u, v) in lam.graph.transitions
        for a, b in zip(u, v):
            assert (a, b) in g.transitions


# -------------------------------------------------- periodic degree joinings

def test_rule102_joinings_over_fixed_zero(rule102):
    g = rule102.recoding.graph
    lam = sl.degree_joining_graph(g)
    report = sl.enumerate_periodic_degree_joinings(lam, g, PeriodicOrbit.from_word(("0",)))
    rendered = {tuple(tuple("".join(b) for b in sym) for sym in o.primitive_word)
                for o in report.orbits}
    assert rendered == {((("00", "11"),)), ((("11", "00"),))}
    assert report.permutation_related


def test_identity_code_unique_joining():
    g = sl.full_shift("01")
    lam = sl.degree_joining_graph(g)
    report = sl.enumerate_periodic_degree_joinings(lam, g, PeriodicOrbit.from_word(("0", "1")))
    assert len(report.orbits) == 1
    assert report.permutation_related


def test_diff4_joinings_permutation_verdict_matches_oracle(diff4):
    g = diff4.recoding.graph
    lam = sl.degree_joining_graph(g)
    report = sl.enumerate_periodic_degree_joinings(
        lam, g, PeriodicOrbit.from_word(("2",)), constant_to_one=True)
    assert report.permutation_related
    for o1 in report.orbits:
        for o2 in report.orbits:
            assert sl.find_relating_permutation(o1, o2, g.index) is not None


def test_refusal_on_collapsed_orbit(collapsing_fixture):
    lam = sl.degree_joining_graph(collapsing_fixture)
    with pytest.raises(UnsupportedFiber):
        sl.enumerate_periodic_degree_joinings(lam, collapsing_fixture,
                                              PeriodicOrbit.from_word(("0",)))


def test_constant_to_one_every_orbit_lifts(rule102, sum5):
    for ca in (rule102, sum5):
        g = ca.recoding.graph
        lam = sl.degree_joining_graph(g)
        for orbit in sl.determinize(g).periodic_orbits(6 if ca is rule102 else 3):
            report = sl.enumerate_periodic_degree_joinings(lam, g, orbit,
                                                           constant_to_one=True)
            assert report.orbits
            assert report.permutation_related


def test_joining_orbit_margins_match_windings(diff4):
    g = diff4.recoding.graph
    lam = sl.degree_joining_graph(g)
    y = PeriodicOrbit.from_word(("2",))
    fiber = sl.periodic_fiber(g, y)
    windings = {o.primitive_word: w for o, w in fiber.lift_orbits}
    report = sl.enumerate_periodic_degree_joinings(lam, g, y, constant_to_one=True)
    for orbit in report.orbits:
        word = orbit.primitive_word
        counts = {}
        for i in range(lam.degree):
            col = PeriodicOrbit.from_word(tuple(sym[i] for sym in word), g.index)
            counts[col.primitive_word] = counts.get(col.primitive_word, 0) + 1
        # each lift appears as a coordinate margin exactly winding-many times
        assert counts == windings
