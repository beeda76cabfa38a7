import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sftlift as sl
from sftlift import (BernoulliMeasure, LinearCACode, MarkovMeasure,
                     MonteCarloParams, PeriodicOrbit, PushforwardMeasure)
from sftlift.cli import main
from sftlift.errors import InputError, NotFullySupported, PreconditionError
from sftlift.graphs import _unwrap

from test_oracles import _random_pushforward

GOLDEN = Path(__file__).parent / "golden"


FAST = MonteCarloParams(sample_length=100_000, seed=0)


# ------------------------------------------------------------- exact lifts

def test_diff4_fixed_point_2_lifts(diff4):
    report, decomposition = sl.analyze_periodic_lifts(
        diff4.recoding, PeriodicOrbit.from_word(("2",)))
    assert report.degree == 4
    lifted = {(tuple(e.descriptor["orbit"]), e.multiplicity) for e in report.lifts}
    assert lifted == {(("0", "2"), 2), (("1", "3"), 2)}
    assert [w for _m, w in decomposition.components] == [Fraction(1, 2), Fraction(1, 2)]
    assert not decomposition.is_ergodic


def test_rule102_fixed_point_0_lifts(rule102):
    report, decomposition = sl.analyze_periodic_lifts(
        rule102.recoding, PeriodicOrbit.from_word(("0",)))
    lifted = {(tuple(e.descriptor["orbit"]), e.multiplicity) for e in report.lifts}
    assert lifted == {(("0",), 1), (("1",), 1)}
    assert not decomposition.is_ergodic
    assert [str(w) for _m, w in decomposition.components] == ["1/2", "1/2"]


def test_recoding_offset_translates_lifts(rule102):
    # the same block map with memory 1 must report the same base-alphabet
    # lifts: the recoding offset shifts block coordinates back correctly
    shifted = sl.SlidingBlockCode(1, 0, "01", rule102.code.block_map)
    rec = sl.recode_to_one_block(shifted)
    assert rec.offset == 1
    for word in ("0", "1", "01"):
        y = PeriodicOrbit.from_word(word)
        base_report, _ = sl.analyze_periodic_lifts(rule102.recoding, y)
        shifted_report, _ = sl.analyze_periodic_lifts(rec, y)
        as_set = lambda rep: {(tuple(e.descriptor["orbit"]), e.multiplicity)
                              for e in rep.lifts}
        assert as_set(base_report) == as_set(shifted_report)


def _code_forms(name):
    """One code in each form the fiber routines take: skew3 as a labeled graph
    and as its recoding, rule102 as a block code, its recoding and its CA."""
    if name == "skew3":
        g = sl.LabeledGraph.from_json_dict(json.loads((GOLDEN / "skew3.json").read_text()))
        return [g, g.recoding]
    ca = LinearCACode(2, "difference")
    return [ca.code, ca.code.recoding, ca]


@pytest.mark.parametrize("name", ["skew3", "rule102"])
def test_every_code_form_reports_the_same_lifts(name):
    # the forms share one recoding, so the exact lifts over each orbit of
    # period <= 3 and a short Monte-Carlo run over the pushforward of a Markov
    # chain on the domain must match, as must the pushforward's chain and the
    # preimage words through each form; a value with no recoding is refused
    forms = _code_forms(name)
    domain, letters = forms[0], forms[1].base_alphabet
    succ = {a: [b for b in letters if (a, b) in domain.transitions] for a in letters}
    base = MarkovMeasure(letters, {a: {b: Fraction(1, len(bs)) for b in bs}
                                   for a, bs in succ.items()})
    nu = PushforwardMeasure(base, domain)
    orbits = sl.determinize(forms[1].graph).periodic_orbits(3)
    params = MonteCarloParams(sample_length=5_000, cylinder_depth=2, seed=3)

    def reports(code):
        exact = [tuple(part.to_json_dict() for part in sl.analyze_periodic_lifts(code, y))
                 for y in orbits]
        return exact, sl.classify_lifts_monte_carlo(code, nu, params).to_json_dict()

    first, *rest = map(reports, forms)
    assert first[0] and all(r == first for r in rest)
    with pytest.raises(TypeError, match="int"):
        sl.analyze_periodic_lifts(42, orbits[0])
    with pytest.raises(TypeError, match="int"):
        sl.classify_lifts_monte_carlo(42, nu, params)
    word = orbits[-1].primitive_word
    for code in forms[1:]:
        assert PushforwardMeasure(base, code).hidden_chain() == nu.hidden_chain()
        assert sl.preimage_words(code, word) == sl.preimage_words(domain, word)
    with pytest.raises(TypeError, match="int"):
        PushforwardMeasure(base, 42)
    with pytest.raises(TypeError, match="int"):
        sl.preimage_words(42, word)


def test_identity_code_single_lift():
    g = sl.full_shift("01")
    report, decomposition = sl.analyze_periodic_lifts(g, PeriodicOrbit.from_word("01"))
    assert report.degree == 1
    assert len(report.lifts) == 1 and report.lifts[0].multiplicity == 1
    assert decomposition.is_ergodic
    measure, weight = decomposition.components[0]
    assert weight == 1
    assert measure.cylinder("01") == Fraction(1, 2)


def test_diagonal_mass_identity(rule102, diff4, sum5):
    for ca in (rule102, diff4, sum5):
        g = ca.recoding.graph
        for orbit in sl.determinize(g).periodic_orbits(3):
            report, _dec = sl.analyze_periodic_lifts(ca.recoding, orbit)
            masses = report.details["diagonal_mass"]
            for entry in report.lifts:
                key = ",".join(entry.descriptor["orbit"])
                assert Fraction(masses[key]) == Fraction(1, entry.multiplicity)


def test_canonical_weights_sum_to_one(sweep_fixtures):
    for _name, code, _cto in sweep_fixtures[:8]:
        g = code.graph if hasattr(code, "graph") else code
        for orbit in sl.determinize(g).periodic_orbits(2):
            report, decomposition = sl.analyze_periodic_lifts(code, orbit)
            total = sum(w for _m, w in decomposition.components)
            assert total == 1
            for entry, (_m, w) in zip(report.lifts, decomposition.components):
                assert w == Fraction(entry.multiplicity, report.degree)


# ------------------------------------------------------------ Monte Carlo

def test_mc_rule102_asymmetric(rule102):
    nu = PushforwardMeasure(BernoulliMeasure("01", ("7/10", "3/10")), rule102.code)
    report = sl.classify_lifts_monte_carlo(rule102, nu, FAST)
    assert report.degree == 2
    assert report.multiplicities() == [1, 1]
    margins = sorted(e.descriptor["frequencies"]["1"] for e in report.lifts)
    assert abs(margins[0] - 0.3) < 0.01 and abs(margins[1] - 0.7) < 0.01


def test_mc_rule102_symmetric(rule102):
    nu = PushforwardMeasure(BernoulliMeasure("01", ("1/2", "1/2")), rule102.code)
    report = sl.classify_lifts_monte_carlo(rule102, nu, FAST)
    assert report.multiplicities() == [2]


def test_mc_direct_markov_image(rule102):
    # a fully supported Markov measure given directly on the image shift
    nu = MarkovMeasure("01", {"0": {"0": "1/3", "1": "2/3"},
                              "1": {"0": "3/4", "1": "1/4"}})
    report = sl.classify_lifts_monte_carlo(rule102.recoding, nu, FAST)
    assert sum(report.multiplicities()) == 2


def test_mc_cluster_sizes_stable_across_seeds(diff4):
    nu = PushforwardMeasure(
        BernoulliMeasure("0123", ("1/8", "3/8", "1/8", "3/8")), diff4.code)
    sizes = set()
    for seed in range(3):
        params = MonteCarloParams(sample_length=100_000, seed=seed)
        report = sl.classify_lifts_monte_carlo(diff4, nu, params)
        sizes.add(tuple(report.multiplicities()))
    assert sizes == {(2, 2)}


def test_mc_refuses_unsupported_without_flag(collapsing_fixture):
    nu = MarkovMeasure(["0"], {"0": {"0": 1}})
    with pytest.raises(NotFullySupported):
        sl.classify_lifts_monte_carlo(collapsing_fixture, nu, FAST)


def test_mc_constant_to_one_accepts_partial_support():
    ca = LinearCACode(4, "difference")
    nu = PushforwardMeasure(
        BernoulliMeasure("0123", ("1/2", "1/2", "0", "0")), ca.code)
    report = sl.classify_lifts_monte_carlo(ca, nu, FAST)
    assert report.multiplicities() == [1, 1, 1, 1]


def test_mc_refuses_more_cylinders_than_letters_before_sampling(rule102, monkeypatch):
    nu = PushforwardMeasure(BernoulliMeasure("01", ("7/10", "3/10")), rule102.code)
    report = sl.classify_lifts_monte_carlo(rule102, nu, MonteCarloParams(2048, 11))
    assert report.details["cylinder_depth"] == 11          # 2**11 == sample_length
    assert len(report.lifts[0].measure.counts[-1]) == 2048

    def sample_indices(length, rng):
        raise AssertionError("sampled before the cylinder_depth check")

    monkeypatch.setattr(nu, "sample_indices", sample_indices)
    for depth, length in ((11, 2047), (31, 10**6), (10**9, 10**6)):
        with pytest.raises(InputError, match=rf"^cylinder_depth {depth} asks for 2\*\*{depth} "
                                             rf"cylinders, more than sample_length {length}$"):
            sl.classify_lifts_monte_carlo(rule102, nu, MonteCarloParams(length, depth))


def test_mc_report_is_json_serializable(rule102):
    nu = PushforwardMeasure(BernoulliMeasure("01", ("1/2", "1/2")), rule102.code)
    report = sl.classify_lifts_monte_carlo(rule102, nu, FAST)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert '"monte-carlo"' in payload
    assert report.details["seed"] == 0


def test_mc_sample_length_guard(rule102):
    nu = PushforwardMeasure(BernoulliMeasure("01", ("1/2", "1/2")), rule102.code)
    with pytest.raises(ValueError):
        sl.classify_lifts_monte_carlo(rule102, nu, MonteCarloParams(sample_length=8))



def test_sample_length_cap_checked_when_params_are_made():
    # only the parameters are made: nothing is sampled
    assert MonteCarloParams(sl.fibers.MAX_SAMPLE_LENGTH).sample_length == 2**27
    with pytest.raises(InputError, match="more than the cap MAX_SAMPLE_LENGTH = 134217728"):
        MonteCarloParams(sl.fibers.MAX_SAMPLE_LENGTH + 1)


# The peak RSS allowed to the longest accepted Monte-Carlo run, in MB: the
# 0.9 GiB stated beside MAX_SAMPLE_LENGTH.
LONGEST_SAMPLE_PEAK_RSS_MB = 0.9 * 1024


@pytest.mark.slow
def test_longest_accepted_sample_fits_its_stated_peak(tmp_path):
    # lift-mc on sum5, whose walk rows and scan columns take two bytes a
    # letter, at MAX_SAMPLE_LENGTH letters.  The child process reports its own
    # peak RSS, VmHWM: its ru_maxrss would also count the test runner's RSS,
    # which the exec that starts it replaces
    measure = tmp_path / "nu.json"
    measure.write_text(json.dumps({"type": "pushforward", "base": {
        "type": "bernoulli", "alphabet": list("01234"),
        "probabilities": ["3/5", "1/10", "1/10", "1/10", "1/10"]}}))
    child = ("import sys\n"
             "from sftlift.cli import main\n"
             f"code = main(['lift-mc', {str(GOLDEN / 'sum5.json')!r}, '--measure', "
             f"{str(measure)!r}, '--length', '{sl.fibers.MAX_SAMPLE_LENGTH}'])\n"
             "sys.stdout.flush()\n"
             "print(*[s for s in open('/proc/self/status') if s.startswith('VmHWM')], "
             "file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["details"]["sample_length"] == sl.fibers.MAX_SAMPLE_LENGTH
    assert sorted(e["multiplicity"] for e in report["lifts"]) == [1, 2, 2]
    assert proc.stderr.split()[-1] == "kB"
    assert int(proc.stderr.split()[-2]) / 1024 <= LONGEST_SAMPLE_PEAK_RSS_MB


@pytest.mark.parametrize("name, vector", [("rule102", ("7/10", "3/10")),
                                          ("diff4", ("1/8", "3/8", "1/8", "3/8")),
                                          ("sum5", ("3/5", "1/10", "1/10", "1/10", "1/10"))])
def test_monte_carlo_peak_is_a_few_bytes_per_letter(request, name, vector):
    # at T = 10**6 a run holds the viability ids, the walk's narrow rows and
    # the scan's columns (two bytes each on sum5's 600 rows), not an int64
    # path: the count reads the rows a block at a time
    code = request.getfixturevalue(name)
    nu = PushforwardMeasure(BernoulliMeasure([str(a) for a in range(len(vector))], vector),
                            code.code)
    sl.classify_lifts_monte_carlo(code, nu, FAST)           # builds what is cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sl.classify_lifts_monte_carlo(code, nu, MonteCarloParams(10**6, seed=0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("alphabet", ["10", "1", "0"])
def test_image_sample_is_looked_up_in_the_code_alphabet(rule102, alphabet):
    # a measure on some of the image letters, in another order: its sample
    # is mapped to the code's image indices, in place, as one take would
    nu = BernoulliMeasure(alphabet, [Fraction(1, len(alphabet))] * len(alphabet))
    g = rule102.recoding.graph
    to_image = np.array([g.y_symbols.index(a) for a in alphabet])
    mapped = sl.fibers._image_sample(nu, g, 1000, 3)
    sample = nu.sample_indices(1000, sl.measures.make_rng(3))
    assert mapped.dtype == np.uint8 and mapped.tolist() == to_image.take(sample).tolist()


def test_negative_seed_refused_when_params_are_made():
    # the generator takes no negative seed: refused by name before anything runs
    with pytest.raises(InputError, match="^seed must be >= 0, got -1$"):
        MonteCarloParams(seed=-1)


# ------------------------------------------------------------ full support

def test_full_support_checks(rule102, diff4):
    positive = PushforwardMeasure(BernoulliMeasure("01", ("7/10", "3/10")), rule102.code)
    assert sl.is_fully_supported_on_image(positive, rule102.recoding.graph)
    partial = PushforwardMeasure(
        BernoulliMeasure("0123", ("1/2", "1/2", "0", "0")), diff4.code)
    assert not sl.is_fully_supported_on_image(partial, diff4.recoding.graph)


@pytest.mark.parametrize("alphabet, full", [(("1", "0"), True), (("0",), False), (("1",), False)])
def test_full_support_matches_letters_by_name(rule102, alphabet, full):
    # a direct measure lists the image letters in its own order, or only some
    nu = BernoulliMeasure(alphabet, [f"1/{len(alphabet)}"] * len(alphabet))
    assert sl.is_fully_supported_on_image(nu, rule102.recoding.graph) is full


def test_inclusion_reads_every_component():
    # the image component that the first symbol does not reach carries y,
    # which the measure never shows and the one-loop graph lacks
    two = sl.LabeledGraph("ab", {("a", "a"), ("b", "b")}, {"a": "x", "b": "y"})
    loop = sl.LabeledGraph("a", {("a", "a")}, {"a": "x"})
    assert not sl.is_fully_supported_on_image(BernoulliMeasure("xy", ("1", "0")), two)
    assert not sl.determinize(two).language_subset_of(sl.determinize(loop))
    assert sl.determinize(loop).language_subset_of(sl.determinize(two))


def test_measure_outside_image_rejected(golden_mean_graph):
    nu = BernoulliMeasure(("a", "b"), ("1/2", "1/2"))
    with pytest.raises(NotFullySupported):
        sl.is_fully_supported_on_image(nu, golden_mean_graph)


def test_full_support_answered_where_the_image_presentation_passes_the_state_cap():
    # the subset construction of this code's image presentation (its 766-edge
    # edge graph) passes MAX_SUBSET_STATES; g's own forward automaton answers:
    # the image word zx has preimages but no mass
    nu = _random_pushforward(random.Random(81), False, k_max=3, span=1)
    assert sl.preimage_words(nu.code, "zx") and nu.cylinder("zx") == 0
    assert sl.is_fully_supported_on_image(nu, _unwrap(nu.code).graph) is False


@pytest.mark.parametrize("name, vector", [("rule102", "7/10,3/10"),
                                          ("diff4", "1/8,3/8,1/8,3/8"),
                                          ("sum5", "3/5,1/10,1/10,1/10,1/10")])
def test_support_check_builds_one_subset_automaton(request, monkeypatch, name, vector):
    # once g's forward automaton exists, only the chain graph's is built
    code = request.getfixturevalue(name)
    g = code.recoding.graph
    assert g.forward_automaton is not None
    built = []

    class Recording(sl.graphs.SubsetAutomaton):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sl.graphs, "SubsetAutomaton", Recording)
    base = BernoulliMeasure([str(a) for a in range(code.modulus)], vector.split(","))
    assert sl.is_fully_supported_on_image(PushforwardMeasure(base, code.code), g)
    assert len(built) == 1


def test_mc_builds_the_forward_automaton_once_per_graph(rule102, monkeypatch):
    built = []

    class Recording(sl.graphs.SubsetAutomaton):
        def __init__(self, labels, y_symbols, edges, backward=False):
            if not backward:
                built.append(edges)
            super().__init__(labels, y_symbols, edges, backward)

    for module in (sl.graphs, sl.codes, sl.joinings):
        monkeypatch.setattr(module, "SubsetAutomaton", Recording)
    recoding = sl.recode_to_one_block(rule102.code)
    nu = PushforwardMeasure(BernoulliMeasure("01", ("7/10", "3/10")), rule102.code)
    sl.classify_lifts_monte_carlo(recoding, nu, MonteCarloParams(sample_length=2000))
    assert sum(edges is recoding.graph.edges for edges in built) == 1
    assert len({id(edges) for edges in built}) == len(built)


def test_mc_restricts_a_graph_that_is_not_essential_once(rule102, monkeypatch):
    # rule102's recoding graph plus a dangling symbol: the degree and the support
    # check read one restriction to its essential part, whose forward automaton
    # is built once; the image measure's own chain has two states
    g = rule102.recoding.graph
    dangling = sl.LabeledGraph(g.x_symbols + ("z",), set(g.transitions) | {(g.x_symbols[0], "z")},
                               {**g.label, "z": g.y_symbols[0]}, g.y_symbols)
    built = []

    class Recording(sl.graphs.SubsetAutomaton):
        def __init__(self, labels, y_symbols, edges, backward=False):
            built.append((len(labels), "bwd" if backward else "fwd"))
            super().__init__(labels, y_symbols, edges, backward)

    for module in (sl.graphs, sl.codes, sl.joinings):
        monkeypatch.setattr(module, "SubsetAutomaton", Recording)
    nu = MarkovMeasure(g.y_symbols, {"0": {"0": "1/3", "1": "2/3"}, "1": {"0": "1/2", "1": "1/2"}})
    report = sl.classify_lifts_monte_carlo(dangling, nu, MonteCarloParams(sample_length=2000))
    assert report.degree == 2
    assert built.count((4, "fwd")) == 1 and built.count((2, "fwd")) == 1


def test_support_presentation_over_the_subset_state_cap_refused():
    # a random pushforward whose subset construction ran past 20 s without the
    # cap: the forward automaton of the code, which the support check reads
    nu = _random_pushforward(random.Random(24), False)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match=r"^the subset construction reached 32769 "
                                                r"states, more than the cap MAX_SUBSET_STATES "
                                                r"= 32768$"):
        sl.is_fully_supported_on_image(nu, _unwrap(nu.code).graph)
    assert time.perf_counter() - start < 2


def test_cli_refuses_a_subset_construction_over_the_cap(monkeypatch, capsys):
    # diff4's image presentation has more than one state: with a cap of one,
    # analyze exits 2 before it writes anything
    monkeypatch.setattr(sl.graphs, "MAX_SUBSET_STATES", 1)
    assert main(["analyze", str(GOLDEN / "diff4.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("refused: the subset construction reached 2 states")
