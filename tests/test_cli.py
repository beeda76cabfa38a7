import itertools
import json
import math
import time
from pathlib import Path

import pytest

import sftlift
from sftlift.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")

    def dump(name, payload):
        path = root / name
        path.write_text(json.dumps(payload))
        return str(path)

    files = {}
    files["rule102"] = dump("rule102.json", {
        "memory": 0, "anticipation": 1, "alphabet": ["0", "1"],
        "block_map": {"00": "0", "01": "1", "10": "1", "11": "0"}})
    files["diff4"] = dump("diff4.json", {
        "memory": 0, "anticipation": 1, "alphabet": ["0", "1", "2", "3"],
        "block_map": {f"{a}{b}": str((b - a) % 4)
                      for a in range(4) for b in range(4)}})
    files["constant"] = dump("constant-map.json", {
        "x_symbols": ["0", "1"],
        "transitions": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
        "label": {"0": "z", "1": "z"}})
    files["golden"] = dump("golden.json", {
        "x_symbols": ["a", "b"],
        "transitions": [["a", "a"], ["a", "b"], ["b", "a"]],
        "label": {"a": "a", "b": "b"}})
    files["push_bernoulli"] = dump("nu.json", {
        "type": "pushforward",
        "base": {"type": "bernoulli", "alphabet": ["0", "1"],
                 "probabilities": ["7/10", "3/10"]}})
    files["markov_sub"] = dump("nu_sub.json", {
        "type": "markov", "states": ["0"], "transitions": {"0": {"0": "1"}}})
    files["collapse"] = dump("collapse.json", {
        "x_symbols": ["u", "v", "w"],
        "transitions": [["u", "v"], ["v", "u"], ["u", "w"], ["w", "v"]],
        "label": {"u": "0", "v": "0", "w": "1"}})
    return files


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_degree_rule102(inputs, capsys):
    code, out = run(capsys, "degree", inputs["rule102"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2 and payload["finite_to_one"] is True


def test_analyze_constant_map(inputs, capsys):
    code, out = run(capsys, "analyze", inputs["constant"])
    assert code == 0
    payload = json.loads(out)
    assert payload["finite_to_one"] is False
    assert abs(payload["entropy_x"] - math.log(2)) < 1e-9
    assert abs(payload["entropy_y"]) < 1e-12


def test_degree_constant_map_refuses(inputs, capsys):
    code, out = run(capsys, "degree", inputs["constant"])
    assert code == 2
    payload = json.loads(out)
    assert payload["finite_to_one"] is False


def test_periodic_lifts_diff4(inputs, capsys):
    code, out = run(capsys, "periodic-lifts", inputs["diff4"], "--max-period", "1")
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["orbit"]): r for r in payload["orbits"]}
    row = rows[("2",)]
    assert row["fiber_size"] == 4
    lifts = {(tuple(e["measure"]["orbit"]), e["multiplicity"]) for e in row["lifts"]}
    assert lifts == {(("0", "2"), 2), (("1", "3"), 2)}


def test_periodic_lifts_table_format(inputs, capsys):
    code, out = run(capsys, "periodic-lifts", inputs["diff4"],
                    "--max-period", "1", "--format", "table")
    assert code == 0
    assert "orbit 2" in out and "mult 2" in out


def test_joining_export(inputs, capsys):
    code, out = run(capsys, "joining", inputs["rule102"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert len(payload["x_symbols"]) == 4


def test_joining_dot(inputs, capsys):
    code, out = run(capsys, "joining", inputs["rule102"], "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_lift_mc(inputs, capsys):
    code, out = run(capsys, "lift-mc", inputs["rule102"],
                    "--measure", inputs["push_bernoulli"], "--length", "50000")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert sorted(e["multiplicity"] for e in payload["lifts"]) == [1, 1]
    assert payload["details"]["seed"] == 0


GOLDEN_MEAN = {"x_symbols": ["a", "b"], "transitions": [["a", "b"], ["b", "a"], ["a", "a"]],
               "label": {"a": "0", "b": "1"}}
# inputs whose essential part is smaller than what they declare: a dangling
# symbol c, an image letter 2 that no symbol carries, and a domain whose
# transitions forbid every word that maps to 0
PARTIAL = {
    "dangling": {"x_symbols": ["a", "b", "c"],
                 "transitions": [["a", "a"], ["a", "b"], ["b", "a"], ["c", "a"]],
                 "label": {"a": "0", "b": "1", "c": "1"}},
    "unused-letter": {**GOLDEN_MEAN, "y_symbols": ["0", "1", "2"]},
    "forbidden-image-word": {"memory": 0, "anticipation": 1, "alphabet": ["0", "1"],
                             "transitions": [["0", "1"], ["1", "0"]],
                             "block_map": {"00": "0", "01": "1", "10": "1", "11": "0"}},
}


@pytest.mark.parametrize("case, degree, symbols", [
    ("dangling", 1, ["a", "b"]), ("unused-letter", 1, ["a", "b"]),
    ("forbidden-image-word", 2, ["0|1|1|0", "1|0|0|1"])])
def test_joining_reads_the_essential_part(capsys, tmp_path, case, degree, symbols):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(PARTIAL[case]))
    code, out = run(capsys, "joining", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == degree and payload["x_symbols"] == symbols
    assert payload["components"] == [symbols]


def _dangling_lift_mc(capsys, tmp_path, *args):
    (tmp_path / "code.json").write_text(json.dumps(PARTIAL["dangling"]))
    (tmp_path / "nu.json").write_text(json.dumps({"type": "pushforward", "base": {
        "type": "markov", "states": ["a", "b"],
        "transitions": {"a": {"a": "1/2", "b": "1/2"}, "b": {"a": "1"}}}}))
    return run(capsys, "lift-mc", str(tmp_path / "code.json"), "--measure",
               str(tmp_path / "nu.json"), *args)


def test_lift_mc_reads_the_essential_part(capsys, tmp_path):
    # cylinders are counted over the letters of the essential symbols: the
    # dangling c has none, and the depth-3 cylinders are the 14 over {a, b}
    code, out = _dangling_lift_mc(capsys, tmp_path, "--length", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert [e["multiplicity"] for e in payload["lifts"]] == [1]
    assert "c" not in payload["lifts"][0]["measure"]["frequencies"]
    cylinders = payload["details"]["clusters"][0]["cylinders"]["frequencies"]
    assert sorted(cylinders) == sorted(",".join(w) for n in (1, 2, 3)
                                       for w in itertools.product("ab", repeat=n))


def test_lift_mc_depth_refusal_counts_essential_letters(capsys, tmp_path):
    # 3**5 = 243 cylinders over {a, b, c} would pass T = 100, the 2**5 over {a, b} do not
    code, out = _dangling_lift_mc(capsys, tmp_path, "--length", "100", "--cyl-depth", "5")
    assert code == 0
    assert len(json.loads(out)["details"]["clusters"][0]["cylinders"]["frequencies"]) == 62


def test_too_short_lift_mc_is_refused_on_the_joining_arrays(inputs, capsys, monkeypatch):
    # rule102's joining graph has 8 symbols: T = 10 passes the 2**3 cylinders
    # but not the burn-in, which is refused before any symbol, walk or sample
    called = []

    def spy(name):
        def record(*args, **kwargs):
            called.append(name)
            raise AssertionError(name)
        return record

    monkeypatch.setattr(sftlift.joinings._ViabilityWalk, "__init__", spy("walker"))
    monkeypatch.setattr(sftlift.joinings.DegreeJoiningGraph, "graph", property(spy("graph")))
    for cls in vars(sftlift.measures).values():
        if isinstance(cls, type) and "sample_indices" in vars(cls):
            monkeypatch.setattr(cls, "sample_indices", spy(f"{cls.__name__}.sample_indices"))
    code, out = run(capsys, "lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"],
                    "--length", "10")
    assert (code, out, called) == (2, "", [])


def test_lift_mc_and_ca_make_no_tuple_symbols(inputs, capsys, monkeypatch):
    # the codes' symbols are blocks, tuples of letters; a joining symbol would
    # be a tuple of blocks
    built = []
    init = sftlift.graphs.LabeledGraph.__init__

    def record(self, x_symbols, *args, **kwargs):
        built.append(tuple(x_symbols))
        init(self, built[-1], *args, **kwargs)

    monkeypatch.setattr(sftlift.graphs.LabeledGraph, "__init__", record)
    assert run(capsys, "lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"],
               "--length", "5000")[0] == 0
    assert run(capsys, "ca", "--family", "diff", "--modulus", "4",
               "--vector", "1/8,3/8,1/8,3/8", "--length", "20000")[0] == 0
    assert built and not any(isinstance(s, tuple) and isinstance(s[0], tuple)
                             for xs in built for s in xs)


def test_lift_mc_refusal(inputs, capsys):
    code, _out = run(capsys, "lift-mc", inputs["collapse"],
                     "--measure", inputs["markov_sub"], "--length", "2000")
    assert code == 2


def test_ca_exact_only(capsys):
    code, out = run(capsys, "ca", "--family", "diff", "--modulus", "4",
                    "--vector", "1/8,3/8,1/8,3/8", "--skip-mc")
    assert code == 0
    payload = json.loads(out)
    lifts = payload["exact"]["lifts"]
    assert sorted(e["multiplicity"] for e in lifts) == [2, 2]


def test_ca_with_cross_validation(capsys):
    code, out = run(capsys, "ca", "--family", "sum", "--modulus", "5",
                    "--vector", "3/5,1/10,1/10,1/10,1/10", "--length", "60000")
    assert code == 0
    payload = json.loads(out)
    mc = payload["cross_validation"]["monte_carlo"]
    assert sorted(e["multiplicity"] for e in mc["lifts"]) == [1, 2, 2]


def test_reruns_are_byte_identical(inputs, capsys):
    for args in (
        ("analyze", inputs["golden"]),
        ("degree", inputs["rule102"]),
        ("joining", inputs["rule102"]),
        ("periodic-lifts", inputs["diff4"], "--max-period", "2"),
        ("lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"],
         "--length", "20000", "--seed", "9"),
    ):
        _code1, out1 = run(capsys, *args)
        _code2, out2 = run(capsys, *args)
        assert out1 == out2


# ------------------------------------------------------------- refusals

def run_refused(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CA_DIFF4 = ("ca", "--family", "diff", "--modulus", "4", "--vector", "1/8,3/8,1/8,3/8")
OUT_OF_RANGE = {
    "length": ("--length", "-5"),
    "cylinder_depth": ("--cyl-depth", "0"),
    "tolerance": ("--tolerance", "-1"),
}


@pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("command", ["lift-mc", "ca"])
def test_out_of_range_mc_flag_refused(inputs, capsys, command, field):
    if command == "ca":
        args = CA_DIFF4
    else:
        args = ("lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"])
    code, out, err = run_refused(capsys, *args, *OUT_OF_RANGE[field])
    assert code == 2 and out == ""
    assert field.replace("length", "sample_length") in err


def test_over_deep_cylinder_count_refused(inputs, capsys):
    # 2**31 cylinders would be a 16 GiB count array for a 10**6-letter sample
    code, out, err = run_refused(capsys, "lift-mc", inputs["rule102"], "--measure",
                                 inputs["push_bernoulli"], "--cyl-depth", "31")
    assert code == 2 and out == ""
    assert err == ("refused: cylinder_depth 31 asks for 2**31 cylinders, "
                   "more than sample_length 1000000\n")


@pytest.mark.parametrize("command", ["lift-mc", "ca"])
def test_oversized_sample_refused_before_it_is_drawn(inputs, capsys, command):
    if command == "ca":
        args = ("ca", "--family", "sum", "--modulus", "5", "--vector", "3/5,1/10,1/10,1/10,1/10")
    else:
        args = ("lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"])
    start = time.perf_counter()
    code, out, err = run_refused(capsys, *args, "--length", "100000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("refused: sample_length 100000000000 is more than the cap "
                   "MAX_SAMPLE_LENGTH = 134217728\n")

def test_oversized_joining_graph_refused_before_it_is_built(capsys, tmp_path):
    # diff9 has degree 9: its joining graph would hold 9 · 9! = 3 265 920 tuples
    path = tmp_path / "diff9.json"
    path.write_text(json.dumps({
        "memory": 0, "anticipation": 1, "alphabet": [str(a) for a in range(9)],
        "block_map": {f"{a}{b}": str((b - a) % 9) for a in range(9) for b in range(9)}}))
    start = time.perf_counter()
    code, out, err = run_refused(capsys, "joining", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err == ("refused: the 9-fold fiber product has 3265920 tuples, "
                   "more than the cap MAX_PRODUCT_TUPLES = 1048576\n")


def test_oversized_periodic_sweep_refused_before_it_runs(capsys):
    # sum5 has tr(A^n) = 5**n: the periods up to 9 hold 5 + 25 + ... + 5**9 lift points
    start = time.perf_counter()
    code, out, err = run_refused(capsys, "periodic-lifts", str(GOLDEN_DIR / "sum5.json"),
                                 "--max-period", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == ("refused: max_period 30: the periods up to 9 already hold 2441405 lift "
                   "points, more than the cap MAX_PERIODIC_POINTS = 1048576\n")


@pytest.mark.parametrize("max_period", ["0", "-3"])
def test_nonpositive_max_period_refused(inputs, capsys, max_period):
    code, out, err = run_refused(capsys, "periodic-lifts", inputs["diff4"],
                                 "--max-period", max_period)
    assert code == 2 and out == ""
    assert "max_period" in err


@pytest.mark.parametrize("mode", [("--skip-mc",), ("--length", "2000")])
def test_ca_sum5_below_mass_threshold_refused(capsys, mode):
    # alpha_0 <= 1/2 is outside the exact sum-code analysis, with or without
    # the Monte-Carlo cross-validation
    code, out, err = run_refused(capsys, "ca", "--family", "sum", "--modulus", "5",
                                 "--vector", "1/5,1/5,1/5,1/5,1/5", *mode)
    assert code == 2 and out == ""
    assert "alpha_0 <= 1/2" in err


FLAG_VALUES = {"--format": "json", "--seed": "1", "--length": "100", "--cyl-depth": "2",
               "--tolerance": "0.1", "--max-period": "2"}
MC_FLAGS = {"--seed", "--length", "--cyl-depth", "--tolerance"}
READ_FLAGS = {"analyze": set(), "degree": set(), "joining": {"--format"},
              "periodic-lifts": {"--format", "--max-period"}, "lift-mc": MC_FLAGS, "ca": MC_FLAGS}


@pytest.mark.parametrize("command, flag", [(c, f) for c, read in READ_FLAGS.items()
                                           for f in sorted(FLAG_VALUES) if f not in read])
def test_unread_flag_refused(inputs, capsys, command, flag):
    if command == "ca":
        args = CA_DIFF4
    elif command == "lift-mc":
        args = ("lift-mc", inputs["rule102"], "--measure", inputs["push_bernoulli"])
    else:
        args = (command, inputs["rule102"])
    with pytest.raises(SystemExit) as exit_info:
        main([*args, flag, FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert flag in captured.err


MALFORMED = {
    "missing": None,
    "not-json": "{not json",
    "missing-key": {"graph": json.dumps({"x_symbols": ["a"], "transitions": [["a", "a"]]}),
                    "measure": json.dumps({"type": "bernoulli", "alphabet": ["0", "1"]})},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("role", ["graph", "measure"])
def test_malformed_input_file_refused(inputs, capsys, tmp_path, case, role):
    path = tmp_path / f"{role}.json"
    text = MALFORMED[case]
    if isinstance(text, dict):
        text = text[role]
    if text is not None:
        path.write_text(text)
    if role == "graph":
        args = ("degree", str(path))
    else:
        args = ("lift-mc", inputs["rule102"], "--measure", str(path))
    code, out, err = run_refused(capsys, *args)
    assert code == 2 and out == ""
    assert str(path) in err
    if case == "missing-key":
        assert ("'label'" if role == "graph" else "'probabilities'") in err


RULE102 = {"memory": 0, "anticipation": 1, "alphabet": ["0", "1"],
           "block_map": {"00": "0", "01": "1", "10": "1", "11": "0"}}
GOLDEN = {"x_symbols": ["a", "b"], "transitions": [["a", "a"], ["a", "b"], ["b", "a"]],
          "label": {"a": "a", "b": "b"}}
HALF = {"0": "1/2", "1": "1/2"}


def markov(transitions, **extra):
    return {"type": "markov", "states": ["0", "1"], "transitions": transitions, **extra}


INVALID_VALUES = {
    "transition": ("graph", {"x_symbols": ["a"], "transitions": [["a", "b"]],
                             "label": {"a": "a"}}, "transitions"),
    "measure-type": ("measure", {"type": "poisson", "alphabet": ["0", "1"]}, "type"),
    "modulus": ("ca", ("--modulus", "1", "--vector", "1"), "modulus"),
    "vector": ("ca", ("--modulus", "4", "--vector", "1/2,abc,1/4,1/4"), "vector"),
    "seed": ("ca", ("--modulus", "4", "--vector", "1/4,1/4,1/4,1/4", "--seed", "-1"), "seed"),
    "negative-memory": ("graph", {**RULE102, "memory": -1}, "memory"),
    "missing-block": ("graph", {**RULE102, "block_map": {"00": "0", "01": "1", "10": "1"}},
                      "block_map"),
    "transition-pair": ("graph", {"x_symbols": ["a"], "transitions": [["a"]],
                                  "label": {"a": "a"}}, "transitions"),
    "block-transition-pair": ("graph", {**RULE102, "transitions": [["0", "1", "0"]]},
                              "transitions"),
    "label-type": ("graph", {"x_symbols": ["a"], "transitions": [["a", "a"]],
                             "label": {"a": [0]}}, "label"),
    "memory-string": ("graph", {**RULE102, "memory": "x"}, "memory"),
    "memory-float": ("graph", {**RULE102, "memory": 0.5}, "memory"),
    "memory-bool": ("graph", {**RULE102, "memory": True}, "memory"),
    "anticipation-float": ("graph", {**RULE102, "anticipation": 1.0}, "anticipation"),
    "block-key-letter": ("graph", {**RULE102, "block_map": {**RULE102["block_map"], "22": "0"}},
                         "block_map"),
    "block-key-length": ("graph", {**RULE102, "block_map": {**RULE102["block_map"], "0": "0"}},
                         "block_map"),
    "block-value-type": ("graph", {**RULE102, "block_map": {**RULE102["block_map"], "11": [0]}},
                         "block_map"),
    "bernoulli-sum": ("measure", {"type": "bernoulli", "alphabet": ["0", "1"],
                                  "probabilities": ["1/2", "1/3"]}, "probabilities"),
    "bernoulli-negative": ("measure", {"type": "bernoulli", "alphabet": ["0", "1"],
                                       "probabilities": ["3/2", "-1/2"]}, "probabilities"),
    "bernoulli-length": ("measure", {"type": "bernoulli", "alphabet": ["0", "1"],
                                     "probabilities": ["1"]}, "probabilities"),
    "markov-row-sum": ("measure", markov({"0": {"0": "1/2", "1": "1/3"}, "1": {"0": "1"}}),
                       "transitions"),
    "markov-negative": ("measure", markov({"0": {"0": "3/2", "1": "-1/2"}, "1": {"0": "1"}}),
                        "transitions"),
    "markov-not-stationary": ("measure", markov({"0": HALF, "1": HALF},
                                                stationary=["1/3", "2/3"]), "stationary"),
    "markov-stationary-length": ("measure", markov({"0": HALF, "1": HALF}, stationary=["1"]),
                                 "stationary"),
    # the golden-mean graph forbids b -> b
    "markov-forbidden": ("golden", {"type": "pushforward", "base": {
        "type": "markov", "states": ["a", "b"], "transitions": {"a": {"a": "1/2", "b": "1/2"},
                                                                "b": {"a": "1/2", "b": "1/2"}}}},
                         "transitions"),
    "markov-transitions-type": ("measure", markov(["0", "1"]), "transitions"),
    "markov-row-type": ("measure", markov({"0": "1", "1": HALF}), "transitions"),
    "co-empty": ("measure", {"type": "co", "orbit": []}, "orbit"),
    # a co measure is read like any other, and its orbit is not the whole image
    "co-measure": ("measure", {"type": "co", "orbit": ["0", "1"]}, "not fully supported"),
    "co-base": ("measure", {"type": "pushforward", "base": {"type": "co", "orbit": ["0", "1"]}},
                "not fully supported"),
    "co-forbidden": ("golden", {"type": "pushforward", "base": {"type": "co", "orbit": ["b"]}},
                     "forbidden transition ('b','b')"),
    "co-alphabet": ("measure", {"type": "co", "orbit": ["0", "1"], "alphabet": ["0"]},
                    "alphabet"),
    # lift-mc refused it as "y_symbols: duplicate symbols", a field the input lacks
    "co-alphabet-duplicate": ("measure", {"type": "co", "orbit": ["0", "1"],
                                          "alphabet": ["0", "1", "0"]},
                              "alphabet: duplicate letters"),
    "base-letter": ("measure", {"type": "pushforward", "base": {
        "type": "bernoulli", "alphabet": ["0", "1", "2"],
        "probabilities": ["1/2", "1/4", "1/4"]}}, "base"),
    "x-symbols-type": ("graph", {**GOLDEN, "x_symbols": 5}, "x_symbols"),
    "x-symbols-entry": ("graph", {**GOLDEN, "x_symbols": ["a", ["b"]]}, "x_symbols"),
    "graph-transitions-type": ("graph", {**GOLDEN, "transitions": 5}, "transitions"),
    "transition-entry": ("graph", {**GOLDEN, "transitions": [["a", ["a"]]]}, "transitions"),
    "y-symbols-type": ("graph", {**GOLDEN, "y_symbols": 5}, "y_symbols"),
    # a second 0 column doubled the image's 0-edges: entropy_y came out above entropy_x
    "y-symbols-duplicate": ("graph", {**GOLDEN_MEAN, "y_symbols": ["0", "1", "0"]}, "y_symbols"),
    "block-alphabet-type": ("graph", {**RULE102, "alphabet": 5}, "alphabet"),
    "block-alphabet-entry": ("graph", {**RULE102, "alphabet": ["0", ["1"]]}, "alphabet"),
    "block-map-list": ("graph", {**RULE102, "block_map": [["00", "0"]]}, "block_map"),
    "block-transitions-type": ("graph", {**RULE102, "transitions": 5}, "transitions"),
    "markov-states-type": ("measure", {**markov({"0": HALF, "1": HALF}), "states": 5}, "states"),
    "markov-states-entry": ("measure", {**markov({"0": HALF, "1": HALF}), "states": ["0", ["1"]]},
                            "states"),
    "markov-stationary-type": ("measure", markov({"0": HALF, "1": HALF}, stationary=5),
                               "stationary"),
    "bernoulli-alphabet-type": ("measure", {"type": "bernoulli", "alphabet": 5,
                                            "probabilities": ["1/2", "1/2"]}, "alphabet"),
    "bernoulli-probabilities-type": ("measure", {"type": "bernoulli", "alphabet": ["0", "1"],
                                                 "probabilities": 5}, "probabilities"),
    "co-orbit-type": ("measure", {"type": "co", "orbit": 5}, "orbit"),
    "co-alphabet-type": ("measure", {"type": "co", "orbit": ["0", "1"], "alphabet": 5},
                         "alphabet"),
    "base-type": ("measure", {"type": "pushforward", "base": "x"}, "base"),
    "bernoulli-alphabet-duplicate": ("measure", {"type": "bernoulli", "alphabet": ["0", "0"],
                                                 "probabilities": ["1/2", "1/2"]}, "alphabet"),
    "markov-states-duplicate": ("measure", {"type": "markov", "states": ["0", "0"],
                                            "transitions": {"0": {"0": "1"}}}, "states"),
}


@pytest.mark.parametrize("case", sorted(INVALID_VALUES))
def test_invalid_input_value_refused(inputs, capsys, tmp_path, case):
    role, payload, field = INVALID_VALUES[case]
    if role == "ca":
        args = ("ca", "--family", "diff", *payload)
    else:
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(payload))
        if role == "graph":
            args = ("degree", str(path))
        else:
            code = inputs["golden" if role == "golden" else "rule102"]
            args = ("lift-mc", code, "--measure", str(path), "--length", "2000")
    code, out, err = run_refused(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("refused:") and field in err


@pytest.mark.parametrize("transitions", [{"0": HALF, "1": HALF, "2": HALF},
                                         {"0": {"0": "1/2", "2": "1/2"}, "1": HALF}])
def test_markov_unknown_state_is_named(inputs, capsys, tmp_path, transitions):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(markov(transitions)))
    code, out, err = run_refused(capsys, "lift-mc", inputs["rule102"], "--measure", str(path),
                                 "--length", "2000")
    assert code == 2 and out == ""
    assert err == "refused: transitions: unknown state '2'\n"


@pytest.mark.parametrize("form", ["block-code", "graph"])
def test_lift_mc_refuses_a_width_one_pushforward_missing_image_words(capsys, tmp_path, form):
    # the base forbids 1 -> 1, so the image word bb has measure zero
    if form == "block-code":
        code = {"memory": 0, "anticipation": 0, "alphabet": ["0", "1"],
                "block_map": {"0": "a", "1": "b"}}
    else:
        code = {"x_symbols": ["0", "1"],
                "transitions": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                "label": {"0": "a", "1": "b"}}
    measure = {"type": "pushforward", "base": markov({"0": HALF, "1": {"0": "1"}})}
    (tmp_path / "code.json").write_text(json.dumps(code))
    (tmp_path / "nu.json").write_text(json.dumps(measure))
    code, out, err = run_refused(capsys, "lift-mc", str(tmp_path / "code.json"), "--measure",
                                 str(tmp_path / "nu.json"), "--length", "2000")
    assert code == 2 and out == ""
    assert "not fully supported" in err
