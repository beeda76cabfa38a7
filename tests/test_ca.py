import warnings
from fractions import Fraction
from itertools import product

import pytest

import sftlift as sl
import oracles
from sftlift import (AlternatingOffsetMeasure, BernoulliMeasure, LinearCACode,
                     MonteCarloParams, PushforwardMeasure)
from sftlift.ca import _cylinder_table, _digits, exact_lift_analysis
from sftlift.errors import DegenerateMeasure, HypothesisNotMet, MismatchReport


FAST = MonteCarloParams(sample_length=120_000, seed=0)


# ------------------------------------------------------ difference analysis

def test_diff4_two_lifts():
    report = sl.difference_lift_analysis(4, ("1/8", "3/8", "1/8", "3/8"))
    assert report.degree == 4
    assert report.details["least_cyclic_period"] == 2
    assert report.multiplicities() == [2, 2]
    vectors = {tuple(e.descriptor["probabilities"]) for e in report.lifts}
    assert vectors == {("1/8", "3/8", "1/8", "3/8"), ("3/8", "1/8", "3/8", "1/8")}


def test_diff2_symmetric_single_lift():
    report = sl.difference_lift_analysis(2, ("1/2", "1/2"))
    assert report.multiplicities() == [2]
    assert report.details["least_cyclic_period"] == 1


def test_diff3_three_distinct_lifts():
    report = sl.difference_lift_analysis(3, ("1/2", "3/10", "1/5"))
    assert report.multiplicities() == [1, 1, 1]
    measures = [e.measure for e in report.lifts]
    for i in range(3):
        for j in range(i + 1, 3):
            assert sl.compare_measures(measures[i], measures[j], 1).distinct


def test_diff_zero_entries_warns_but_analyzes():
    with pytest.warns(UserWarning, match="not fully supported"):
        report = sl.difference_lift_analysis(3, ("1/2", "1/2", "0"))
    assert report.multiplicities() == [1, 1, 1]


def test_multiplicity_divides_modulus():
    for n, alpha in [(2, ("1/2", "1/2")), (4, ("1/8", "3/8", "1/8", "3/8")),
                     (4, ("1/4", "1/4", "1/4", "1/4")), (5, ("1/5",) * 5),
                     (6, ("1/12", "1/6", "1/4", "1/12", "1/6", "1/4"))]:
        report = sl.difference_lift_analysis(n, alpha)
        for entry in report.lifts:
            assert n % entry.multiplicity == 0


def test_sweep_commutes_with_code():
    code = sl.difference_code(4)
    word = tuple("0132031")
    swept = tuple(str((int(a) + 1) % 4) for a in word)
    assert code.apply(word) == code.apply(swept)


# ------------------------------------------------------------ sum analysis

def test_sum5_three_lifts():
    report = sl.sum_code_lift_analysis(("3/5", "1/10", "1/10", "1/10", "1/10"))
    assert report.degree == 5
    assert report.multiplicities() == [1, 2, 2]
    certs = report.details["mass_certificates"]
    assert Fraction(certs["mu(P)"]) == Fraction(3, 5)
    assert Fraction(certs["mu'(P')"]) > Fraction(1, 2)
    assert Fraction(certs["mu''(P'')"]) > Fraction(1, 2)
    assert len(report.details["distinctness_witnesses"]) == 3


def test_sum5_second_vector():
    report = sl.sum_code_lift_analysis(("11/20", "1/5", "1/10", "1/10", "1/20"))
    assert report.multiplicities() == [1, 2, 2]
    measures = [e.measure for e in report.lifts]
    for i in range(3):
        for j in range(i + 1, 3):
            assert sl.compare_measures(measures[i], measures[j], 2).distinct


def test_sum5_degenerate_refused():
    with pytest.raises(DegenerateMeasure):
        sl.sum_code_lift_analysis(("1", "0", "0", "0", "0"))


def test_sum5_hypothesis_not_met_raises_without_fallback():
    with pytest.raises(HypothesisNotMet):
        sl.sum_code_lift_analysis(("1/5",) * 5, mc_fallback=False)


def test_sum5_fallback_to_monte_carlo():
    with pytest.warns(UserWarning, match="falling back"):
        report = sl.sum_code_lift_analysis(("1/5",) * 5, params=FAST)
    assert report.method == "monte-carlo"
    assert sum(report.multiplicities()) == 5
    # the uniform measure is its own displacement: a single cluster of five
    assert report.multiplicities() == [5]


# ------------------------------------------- displaced measures (mu', mu'')

def test_alternating_offset_shift_invariant():
    mu = BernoulliMeasure(tuple("01234"), ("3/5", "1/10", "1/10", "1/10", "1/10"))
    for offset in (1, 2):
        m = AlternatingOffsetMeasure(mu, offset, 5)
        for word in (("1",), ("1", "4"), ("0", "2", "3")):
            assert oracles.cylinder_at_phase(m, word, 0) == oracles.cylinder_at_phase(m, word, 1)
            assert m.cylinder(word) == oracles.cylinder_at_phase(m, word, 0)
            assert sum(m.cylinder((a,) + word) for a in "01234") == m.cylinder(word)


def test_displaced_measures_project_to_same_image():
    import random
    from itertools import product
    mu = BernoulliMeasure(tuple("01234"), ("3/5", "1/10", "1/10", "1/10", "1/10"))
    mu1 = AlternatingOffsetMeasure(mu, 1, 5)
    mu2 = AlternatingOffsetMeasure(mu, 2, 5)
    code = sl.sum_code(5)
    words = [w for k in range(3) for w in product("01234", repeat=k)]
    rng = random.Random(4)
    words += [tuple(rng.choice("01234") for _ in range(k))
              for k in (3, 4) for _ in range(10)]
    for w in words:
        expected = sl.PushforwardMeasure(mu, code).cylinder(w)
        assert sl.PushforwardMeasure(mu1, code).cylinder(w) == expected
        assert sl.PushforwardMeasure(mu2, code).cylinder(w) == expected


def test_displaced_measure_margins():
    mu = BernoulliMeasure(tuple("01234"), ("3/5", "1/10", "1/10", "1/10", "1/10"))
    mu1 = AlternatingOffsetMeasure(mu, 1, 5)
    assert mu1.cylinder("1") == Fraction(1, 2) * (Fraction(3, 5) + Fraction(1, 10))
    assert mu1.cylinder("0") == Fraction(1, 10)


# --------------------------------------------------------- generic fiber

def test_difference_fiber_is_sweep_orbit():
    ca = LinearCACode(3, "difference")
    g = ca.recoding.graph
    lam = sl.degree_joining_graph(g)
    nu = PushforwardMeasure(BernoulliMeasure("012", ("1/2", "3/10", "1/5")), ca.code)
    window = sl.sample_path(nu, 64, seed=11)
    path = sl.lambda_path_over(lam, window)
    columns = [[sym[i] for sym in path] for i in range(3)]
    base = [[int(b[0]) for b in col] for col in columns]
    offsets = {tuple((x - y) % 3 for x, y in zip(col, base[0])) for col in base}
    # each coordinate is a constant sweep of the first one
    assert all(len(set(o)) == 1 for o in offsets)
    assert {o[0] for o in offsets} == {0, 1, 2}


# ---------------------------------------------------------- cross-validate

def test_cross_validate_rule102(rule102):
    report = sl.cross_validate(rule102, ("7/10", "3/10"), FAST)
    assert report.degree == 2
    assert report.monte_carlo.multiplicities() == [1, 1]


def test_cross_validate_diff4(diff4):
    report = sl.cross_validate(diff4, ("1/8", "3/8", "1/8", "3/8"), FAST)
    assert report.exact.multiplicities() == [2, 2]
    assert report.monte_carlo.multiplicities() == [2, 2]
    assert all(dev <= 0.01 for _c, _e, dev in report.matching)


def test_cross_validate_sum5(sum5):
    report = sl.cross_validate(sum5, ("3/5", "1/10", "1/10", "1/10", "1/10"), FAST)
    assert report.exact.multiplicities() == [1, 2, 2]
    assert report.monte_carlo.multiplicities() == [1, 2, 2]


@pytest.mark.parametrize("modulus, family, vector", [
    (2, "difference", ("7/10", "3/10")),
    (4, "difference", ("1/8", "3/8", "1/8", "3/8")),
    (5, "sum", ("3/5", "1/10", "1/10", "1/10", "1/10")),
    (5, "sum", ("7/10", "1/10", "1/20", "1/10", "1/20")),
])
def test_cylinder_table_matches_per_word_cylinders(modulus, family, vector):
    """The prefix-extended table of each exact lift equals ``cylinder`` and
    the per-class oracle on every word of lengths 1..4, in ``product`` order."""
    digits = _digits(modulus)
    for entry in exact_lift_analysis(LinearCACode(modulus, family), vector).lifts:
        words = [w for length in range(1, 5) for w in product(digits, repeat=length)]
        expected = [entry.measure.cylinder(w) for w in words]
        assert _cylinder_table(entry.measure, digits, 4) == expected
        assert expected == [oracles.cylinder(entry.measure, w) for w in words]

def test_cross_validate_reports_mismatches(diff4):
    with pytest.raises(MismatchReport):
        sl.cross_validate(diff4, ("1/8", "3/8", "1/8", "3/8"), FAST,
                          margin_tolerance=0.0)
