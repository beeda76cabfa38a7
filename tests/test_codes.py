import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import sftlift as sl
from sftlift import LabeledGraph, PeriodicOrbit, cli, codes, graphs
from sftlift.cli import main
from sftlift.fibers import _unwrap
from sftlift.graphs import load_graph_or_code
from sftlift.errors import FiberInfinite, InfiniteToOne, NotInImage

from conftest import (d_star, direct_preimage_paths, eig_entropy, random_fto_codes,
                      trace_fiber_count)
from test_graphs import graphs_strategy


# --------------------------------------------------------- finite-to-one

def test_rule102_finite_to_one(rule102):
    assert sl.is_finite_to_one(rule102.recoding.graph)


def test_identity_code_finite_to_one():
    assert sl.is_finite_to_one(sl.full_shift("01"))


def test_constant_label_infinite_to_one(constant_label_graph):
    assert not sl.is_finite_to_one(constant_label_graph)


@given(graphs_strategy())
def test_diamond_agrees_with_entropy(g):
    verdict = sl.is_finite_to_one(g)
    h_x = sl.entropy(g)
    h_y = sl.determinize(g).entropy()
    assert verdict == (abs(h_x - h_y) <= 1e-9)


# ----------------------------------------------------------------- degree

def test_rule102_degree(rule102):
    report = sl.compute_degree(rule102.recoding.graph)
    assert report.finite_to_one and report.degree == 2
    assert abs(report.entropy_x - report.entropy_y) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_difference_code_degree(n):
    rec = sl.recode_to_one_block(sl.difference_code(n))
    assert sl.compute_degree(rec.graph).degree == n


def test_sum_code_degree(sum5):
    assert sl.compute_degree(sum5.recoding.graph).degree == 5


def test_identity_degree_and_magic_word():
    report = sl.compute_degree(sl.full_shift("01"))
    assert report.degree == 1
    assert len(report.magic_word) == 1


def test_degree_raises_on_infinite_to_one(constant_label_graph):
    with pytest.raises(InfiniteToOne) as exc:
        sl.compute_degree(constant_label_graph)
    assert exc.value.report is not None
    assert exc.value.report.finite_to_one is False
    assert exc.value.report.entropy_y < exc.value.report.entropy_x


def test_magic_word_certificate(rule102, sum5, collapsing_fixture):
    for g in (rule102.recoding.graph, sum5.recoding.graph, collapsing_fixture):
        report = sl.compute_degree(g)
        assert d_star(g, report.magic_word, report.magic_position) == report.degree


def test_collapsing_fixture_degree_one(collapsing_fixture):
    assert sl.is_finite_to_one(collapsing_fixture)
    assert sl.compute_degree(collapsing_fixture).degree == 1


@given(graphs_strategy(max_symbols=5, max_labels=3))
def test_degree_lower_bounds_dstar(g):
    from itertools import product
    if not sl.is_finite_to_one(g):
        return
    report = sl.compute_degree(g)
    for length in range(1, 4):
        for word in product(g.y_symbols, repeat=length):
            paths = direct_preimage_paths(g, word)
            if not paths:
                continue
            for i in range(length):
                assert len({p[i] for p in paths}) >= report.degree


# --------------------------------------------------------- preimage words

def test_preimage_words_rule102_block_code(rule102):
    words = sl.preimage_words(rule102.code, "11")
    assert {"".join(w) for w in words} == {"010", "101"}
    words = sl.preimage_words(rule102.code, "0")
    assert {"".join(w) for w in words} == {"00", "11"}


def test_preimage_words_empty_word():
    g = sl.full_shift("01")
    assert sl.preimage_words(g, "") == {()}


def test_preimage_words_on_graph(rule102):
    g = rule102.recoding.graph
    words = sl.preimage_words(g, "11")
    assert len(words) == 2
    assert {tuple("".join(b) for b in w) for w in words} == {("01", "10"), ("10", "01")}


def test_preimage_words_compute_the_essential_mask_once(monkeypatch):
    # the recoding graph caches its essential mask: the 155 sum5 words of
    # length 1-3 and the empty word compute it once between them
    code, calls, mask = sl.LinearCACode(5, "sum"), [], graphs._essential_mask
    monkeypatch.setattr(graphs, "_essential_mask", lambda *args: calls.append(1) or mask(*args))
    words = [w for n in (1, 2, 3) for w in product("01234", repeat=n)]
    assert len(words) == 155
    assert all(sl.preimage_words(code, w) for w in [*words, ()])
    assert len(calls) == 1


@given(graphs_strategy(max_symbols=5, max_labels=3), st.integers(1, 4))
def test_preimage_words_match_direct_enumeration(g, length):
    from itertools import product
    for word in product(g.y_symbols, repeat=length):
        assert sl.preimage_words(g, word) == set(direct_preimage_paths(g, word))


def test_dstar_monotone_under_extension(rule102, sum5):
    from itertools import product
    for g in (rule102.recoding.graph, sum5.recoding.graph):
        for length in range(1, 3):
            for word in product(g.y_symbols, repeat=length):
                if not direct_preimage_paths(g, word):
                    continue
                for i in range(length):
                    base = d_star(g, word, i)
                    for a in g.y_symbols:
                        right = word + (a,)
                        if direct_preimage_paths(g, right):
                            assert d_star(g, right, i) <= base
                        left = (a,) + word
                        if direct_preimage_paths(g, left):
                            assert d_star(g, left, i + 1) <= base


# --------------------------------------------------------- periodic fiber

def test_diff4_fixed_point_2(diff4):
    g = diff4.recoding.graph
    fiber = sl.periodic_fiber(g, PeriodicOrbit.from_word(("2",)))
    assert fiber.fiber_size == 4
    rendered = {(tuple(b[0] for b in o.primitive_word), w) for o, w in fiber.lift_orbits}
    assert rendered == {(("0", "2"), 2), (("1", "3"), 2)}


def test_diff4_fixed_point_0(diff4):
    g = diff4.recoding.graph
    fiber = sl.periodic_fiber(g, PeriodicOrbit.from_word(("0",)))
    assert fiber.fiber_size == 4
    assert all(w == 1 for _o, w in fiber.lift_orbits)
    assert all(o.period == 1 for o, _w in fiber.lift_orbits)


def test_rule102_fixed_point_1(rule102):
    g = rule102.recoding.graph
    fiber = sl.periodic_fiber(g, PeriodicOrbit.from_word(("1",)))
    assert fiber.fiber_size == 2
    (orbit, winding), = fiber.lift_orbits
    assert winding == 2
    assert tuple(b[0] for b in orbit.primitive_word) == ("0", "1")


def test_collapsing_fixture_fixed_point(collapsing_fixture):
    fiber = sl.periodic_fiber(collapsing_fixture, PeriodicOrbit.from_word(("0",)))
    assert fiber.fiber_size == 2
    (orbit, winding), = fiber.lift_orbits
    assert winding == 2 and orbit.primitive_word == ("u", "v")


def test_periodic_fiber_not_in_image(golden_mean_graph):
    with pytest.raises(NotInImage):
        sl.periodic_fiber(golden_mean_graph, PeriodicOrbit.from_word(("b",)))


def test_periodic_fiber_infinite(constant_label_graph):
    with pytest.raises(FiberInfinite):
        sl.periodic_fiber(constant_label_graph, PeriodicOrbit.from_word(("z",)))


def test_fiber_matches_trace_oracle_small(rule102, diff4, collapsing_fixture):
    for code in (rule102.recoding.graph, diff4.recoding.graph, collapsing_fixture):
        for orbit in sl.determinize(code).periodic_orbits(3):
            fiber = sl.periodic_fiber(code, orbit)
            assert fiber.fiber_size == trace_fiber_count(code, orbit)
            assert fiber.fiber_size == sum(w for _o, w in fiber.lift_orbits)


@pytest.mark.slow
def test_independent_oracles_on_random_codes_up_to_ten_symbols():
    """The matrix-power fiber count, the dense eigenvalue entropy and plain
    path enumeration against ``periodic_fiber``, ``entropy`` and
    ``preimage_words`` on 60 random finite-to-one codes of up to 10
    symbols: up to 200 image orbits of period <= 6 per code, every image
    word of length <= 3 and 100 random words of length 4 to 8."""
    rng = random.Random(20261020)
    codes_ = random_fto_codes(rng, 60, 10)
    assert max(len(g.x_symbols) for g in codes_) == 10
    for g in codes_:
        assert abs(sl.entropy(g) - eig_entropy(g)) <= 1e-9
        orbits = sl.determinize(g).periodic_orbits(6)
        for orbit in rng.sample(orbits, min(len(orbits), 200)):
            assert sl.periodic_fiber(g, orbit).fiber_size == trace_fiber_count(g, orbit)
        words = [w for n in (1, 2, 3) for w in product(g.y_symbols, repeat=n)]
        words += [tuple(rng.choice(g.y_symbols) for _ in range(rng.randint(4, 8)))
                  for _ in range(100)]
        for word in words:
            assert sl.preimage_words(g, word) == set(direct_preimage_paths(g, word))


def test_constant_to_one_codes_fiber_equals_degree(rule102, sum5):
    for ca in (rule102, sum5):
        g = ca.recoding.graph
        d = sl.compute_degree(g).degree
        for orbit in sl.determinize(g).periodic_orbits(3):
            assert sl.periodic_fiber(g, orbit).fiber_size == d


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["sum5", "diff4", "skew3", "rule102", "rule150"])
def test_periodic_fibers_pass_the_trace_checksum(name):
    # periodic_fibers raises RuntimeError unless its points add up to tr(A^n)
    g = _unwrap(load_graph_or_code(GOLDEN / f"{name}.json")[0])[0]
    fibers = sl.periodic_fibers(g, 6)
    assert [f.base_orbit for f in fibers] == sl.determinize(g).periodic_orbits(6)


def test_periodic_fibers_checksum_catches_a_lost_lift(monkeypatch, capsys):
    # the cycle step of the sweep's core drops the last lift of its first
    # winding group; the trace checksum must refuse before anything is
    # printed, in the library and in the CLI
    cycles, lost = codes._cycles, []

    def lose_one(*args):
        groups = cycles(*args)
        if groups and not lost:
            w, ranks, ids = groups[0]
            lost.append(ids[-1])
            groups[0] = w, ranks[:-1], ids[:-1]
        return groups

    monkeypatch.setattr(codes, "_cycles", lose_one)
    path = GOLDEN / "diff4.json"
    with pytest.raises(RuntimeError, match=r"tr\(A\^1\)"):
        sl.periodic_fibers(_unwrap(load_graph_or_code(path)[0])[0], 3)
    assert lost
    for fmt in ("json", "table"):
        lost.clear()
        assert main(["periodic-lifts", str(path), "--max-period", "3", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "RuntimeError" in err and "tr(A^1)" in err
        assert lost


def test_periodic_lifts_unequal_fiber_points_write_nothing(monkeypatch, capsys):
    # the sweep's third orbit claims one more winding than its lift has
    # points for; the rows formatted before it must not reach stdout
    sweep = cli._lift_cycles

    def miscount(g, max_period):
        for n, (word, lifts) in enumerate(sweep(g, max_period)):
            yield word, [(w + 1, ids) for w, ids in lifts] if n == 2 else lifts

    monkeypatch.setattr(cli, "_lift_cycles", miscount)
    for fmt in ("json", "table"):
        assert main(["periodic-lifts", str(GOLDEN / "sum5.json"), "--max-period", "3",
                     "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "RuntimeError" in err and "equidistributed" in err


# ----------------------------------------------------------- closing tests

def test_ca_codes_bi_closing(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        assert sl.is_bi_closing(ca.recoding.graph)


def test_bi_closing_does_not_imply_constant_to_one(collapsing_fixture):
    # the image here is strictly sofic, where bi-closing codes can still
    # have exceptional fibers: degree 1 but a two-point periodic fiber
    assert sl.is_bi_closing(collapsing_fixture)
    fiber = sl.periodic_fiber(collapsing_fixture, PeriodicOrbit.from_word(("0",)))
    assert fiber.fiber_size == 2 > sl.compute_degree(collapsing_fixture).degree


def test_one_sided_closing_detection():
    # e branches to a and c (both labeled 0) and the two rays then run the
    # 4-cycle half a turn apart forever: finite-to-one but not right-closing
    g = LabeledGraph(["a", "b", "c", "d", "e"],
                     [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                      ("d", "e"), ("e", "a"), ("e", "c")],
                     {"a": "0", "b": "1", "c": "0", "d": "1", "e": "1"})
    assert sl.is_finite_to_one(g)
    assert not sl.is_right_closing(g)
    assert sl.is_left_closing(g)
    assert not sl.is_bi_closing(g)


def test_closing_fails_on_branching_infinite_to_one(constant_label_graph):
    assert not sl.is_right_closing(constant_label_graph)
    assert not sl.is_left_closing(constant_label_graph)
