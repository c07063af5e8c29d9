import argparse
import gc
import json

import pytest

from malcev.cli import main
from malcev.dga import chevalley_eilenberg
from malcev.lie import LieAlgebra, heisenberg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--out", "json")
    return code, json.loads(out)


HEIS_JSON = json.dumps(heisenberg().to_json())
CE_HEIS_JSON = json.dumps(chevalley_eilenberg(heisenberg()).to_json())
TORUS_CUP = '{"h1": 2, "h2": 1, "pairing": [[["0"], ["1"]], [["-1"], ["0"]]]}'


def test_hall(capsys):
    code, out = run_json(capsys, "hall", "-k", "2", "--class", "4")
    assert code == 0
    assert out["command"] == "hall"
    assert out["verdicts"]["counts"] == [2, 1, 2, 3]
    code, text = run(capsys, "hall", "-k", "2", "--class", "3")
    assert code == 0 and "degree 2 (1)" in text


def test_bch_free_and_algebra(capsys):
    code, out = run_json(capsys, "bch", "[1,0,0]", "[0,1,0]",
                         "--algebra", HEIS_JSON)
    assert code == 0
    assert out["verdicts"]["product"] == ["1", "1", "1/2"]
    code, out = run_json(capsys, "bch", "[1,0,0,0,0]", "[0,1,0,0,0]",
                         "-k", "2", "--class", "3")
    assert code == 0
    assert out["verdicts"]["product"][:3] == ["1", "1", "1/2"]


def test_bch_dimension_mismatch_is_input_error(capsys):
    code, _ = run(capsys, "bch", "[1,0]", "[0,1]", "--algebra", HEIS_JSON)
    assert code == 2


def test_bch_class_below_nilpotency_class_is_input_error(capsys):
    code = main(["bch", "[1,0,0]", "[0,1,0]", "--algebra", HEIS_JSON,
                 "--class", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --class 1 is below the nilpotency class 2\n"
    code, out = run_json(capsys, "bch", "[1,0,0]", "[0,1,0]", "--algebra",
                         HEIS_JSON, "--class", "3")
    assert code == 0 and out["verdicts"]["product"] == ["1", "1", "1/2"]


def test_bch_evaluates_at_the_nilpotency_class(capsys, monkeypatch):
    """--class above the nilpotency class changes no byte: words longer than
    the class vanish in L, so the product is taken at the class itself and
    the class-13 universal series is never built."""
    import malcev.cli as cli
    real, seen = cli.bch, []

    def spy(x, y, L, cls=None):
        seen.append(cls)
        return real(x, y, L, cls=cls)

    monkeypatch.setattr(cli, "bch", spy)
    outputs = [run(capsys, "bch", "[1,0,0]", "[0,1,0]", "--algebra", HEIS_JSON,
                   "--class", c, "--out", "json") for c in ("2", "13")]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and seen == [2, 2]


def test_bch_non_nilpotent_algebra_is_input_error(capsys):
    sl2 = json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "value": ["0", "0", "1"]},
        {"i": 0, "j": 2, "value": ["-2", "0", "0"]},
        {"i": 1, "j": 2, "value": ["0", "2", "0"]}]})
    code, _ = run(capsys, "bch", "[1,0,0]", "[0,1,0]", "--algebra", sl2)
    assert code == 2


def test_quadcheck_negative_verdict_exits_zero(capsys):
    code, out = run_json(capsys, "quadcheck", HEIS_JSON)
    assert code == 0
    assert out["verdicts"]["quadratic"] is False
    assert out["verdicts"]["failing_degree"] == 3


def test_quadcheck_rejects_non_jacobi(capsys):
    bad = json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "value": ["0", "0", "1"]},
        {"i": 0, "j": 2, "value": ["1", "0", "0"]}]})
    code, _ = run(capsys, "quadcheck", bad)
    assert code == 2


def test_malcev_model(capsys):
    code, out = run_json(capsys, "malcev-model", TORUS_CUP)
    assert code == 0
    v = out["verdicts"]
    assert v["stabilized"] is True
    assert v["graded_dims"] == [2]  # the realization is abelian of rank 2
    assert v["weights"] == [-1, -1]


def test_mc(capsys):
    code, out = run_json(capsys, "mc", CE_HEIS_JSON, HEIS_JSON)
    assert code == 0
    v = out["verdicts"]
    assert v["completed"] is True
    assert [s["level"] for s in v["stages"]] == [1, 2]


@pytest.mark.parametrize("dga, solution_dims", [
    # A^2 = 0, so no stage is obstructed and every correction is free
    ('{"dims":[1,1],"d":[[["0"]]],"product":{"0,0":[[["1"]]],"0,1":[[["1"]]]}}', [2, 1]),
    # A^1 = 0, so the only MC element is 0 and it lifts through every stage
    ('{"dims":[1],"d":[],"product":{"0,0":[[["1"]]]}}', [0, 0]),
], ids=["top-1", "top-0"])
def test_mc_low_top_degree(capsys, dga, solution_dims):
    code, out = run_json(capsys, "mc", dga, HEIS_JSON)
    assert code == 0
    v = out["verdicts"]
    assert v["completed"] is True
    assert [s["solution_dim"] for s in v["stages"]] == solution_dims


def test_mc_zero_coefficients_is_input_error(capsys):
    code, err = run_error(capsys, "mc", CE_HEIS_JSON, '{"dim":0,"brackets":[]}')
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_mc_non_jacobi_coefficients_is_input_error(capsys):
    bad = json.dumps({"dim": 5, "brackets": [
        {"i": 0, "j": 1, "value": [0, 0, 1, 0, 0]}, {"i": 0, "j": 2, "value": [0, 0, 0, 1, 0]},
        {"i": 1, "j": 3, "value": [0, 0, 0, 0, 1]}]})
    code, err = run_error(capsys, "mc", CE_HEIS_JSON, bad)
    assert code == 2
    assert err == "error: input violates the Jacobi identity at triples [(0, 1, 2)]\n"
    assert run_error(capsys, "quadcheck", bad) == (code, err)


NON_JACOBI = json.dumps({"dim": 5, "brackets": [
    {"i": 0, "j": 1, "value": [0, 0, 1, 0, 0]}, {"i": 0, "j": 2, "value": [0, 0, 0, 1, 0]},
    {"i": 1, "j": 3, "value": [0, 0, 0, 0, 1]}]})
JACOBI_ERROR = "error: input violates the Jacobi identity at triples [(0, 1, 2)]\n"


def test_bch_non_jacobi_algebra_is_input_error(capsys):
    assert run_error(capsys, "bch", "[1,0,0,0,0]", "[0,1,0,0,0]",
                     "--algebra", NON_JACOBI) == (2, JACOBI_ERROR)


def test_lattice_check_non_jacobi_algebra_is_input_error(capsys):
    lattice = json.dumps([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert run_error(capsys, "lattice-check", "--algebra", NON_JACOBI,
                     "--lattice", lattice) == (2, JACOBI_ERROR)


def test_bch_and_lattice_check_on_the_zero_algebra(capsys):
    zero = '{"dim": 0, "brackets": []}'
    code, out = run_json(capsys, "bch", "[]", "[]", "--algebra", zero)
    assert code == 0 and out["verdicts"]["product"] == []
    code, out = run_json(capsys, "lattice-check", "--algebra", zero, "--lattice", "[[]]")
    assert code == 0 and out["verdicts"]["closed"] is True


def test_mc_bad_initial_is_input_error(capsys):
    code, _ = run(capsys, "mc", CE_HEIS_JSON, HEIS_JSON, "--initial", "[1]")
    assert code == 2


def test_massey(capsys):
    code, out = run_json(capsys, "massey", CE_HEIS_JSON,
                         "--degrees", "1", "1", "1",
                         "--a", "[1,0,0]", "--b", "[1,0,0]", "--c", "[0,1,0]")
    assert code == 0
    assert out["verdicts"]["vanishes"] is False


def test_massey_undefined_is_input_error(capsys):
    # CE of the abelian algebra has zero differential: products are not exact
    from malcev.lie import abelian
    A = json.dumps(chevalley_eilenberg(abelian(2)).to_json())
    code, _ = run(capsys, "massey", A, "--degrees", "1", "1", "1",
                  "--a", "[1,0]", "--b", "[0,1]", "--c", "[1,0]")
    assert code == 2


def test_lift_criterion(capsys):
    data = json.dumps({
        "mode": "criterion",
        "presentation": {"generators": 2, "relations": [["1"]]},
        "free": [2, 3],
        "rho2": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"]],
    })
    code, out = run_json(capsys, "lift", data)
    assert code == 0
    assert out["verdicts"]["lifted"] is False
    assert out["verdicts"]["obstruction"]


@pytest.mark.parametrize("fields, error", [
    ({"target": {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": ["0", "0", "1"]}]},
      "rho2": [["1", "0", "0"], ["0", "1", "0"]]}, "target must be graded"),
    ({"free": [2, 3], "rho2": [["1", "0", "0", "0", "0"]]}, "need one image per generator"),
    ({"free": [2, 3], "rho2": [["1", "0", "0"], ["0", "1", "0"]]},
     "generator images must have 5 coordinates"),
    ({"free": [2, 3], "rho2": [["1", "0", "0", "1", "0"], ["0", "1", "0", "0", "0"]]},
     "generator images must live in degrees 1 and 2"),
], ids=["ungraded-target", "image-count", "image-length", "image-degree"])
def test_lift_criterion_rejects_malformed_images(capsys, fields, error):
    data = json.dumps({"mode": "criterion",
                       "presentation": {"generators": 2, "relations": [["1"]]}, **fields})
    assert run_error(capsys, "lift", data) == (2, "error: %s\n" % error)


def test_lift_one_class(capsys):
    data = json.dumps({
        "mode": "one-class",
        "presentation": {
            "generators": ["x", "y", "z"],
            "relators": [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
                         ["x", "z", "x^-1", "z^-1"],
                         ["y", "z", "y^-1", "z^-1"]]},
        "free": [2, 3],
        "assignment": {"x": ["1", "0", "0"], "y": ["0", "1", "0"],
                       "z": ["0", "0", "1/2"]},
        "k": 3,
    })
    code, out = run_json(capsys, "lift", data)
    assert code == 0
    assert out["verdicts"]["lifted"] is False
    assert out["verdicts"]["defects"]


def test_lift_one_class_with_an_empty_relator(capsys):
    """The empty relator is the identity: it needs no generator images to
    be checked, and the lift is trivial."""
    data = json.dumps({"mode": "one-class",
                       "presentation": {"generators": [], "relators": [[]]},
                       "free": [2, 3], "assignment": {}, "k": 2})
    code = main(["lift", data])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "lifted one class; verified against all relators\n"


def test_lift_bad_mode(capsys):
    code, _ = run(capsys, "lift", '{"mode": "nonsense"}')
    assert code == 2


def one_class_input(assignment, k):
    return json.dumps({
        "mode": "one-class",
        "presentation": {"generators": ["x", "y"],
                         "relators": [["x", "y", "x^-1", "y^-1"]]},
        "free": [2, 3], "assignment": assignment, "k": k})


@pytest.mark.parametrize("assignment, k, err", [
    ({"x": ["1", "0"]}, 2, "error: assignment misses generator 'y'\n"),
    ({"x": ["1", "0"], "y": ["0", "1"]}, "2", "error: k must be an integer, not '2'\n"),
    ({"x": ["1", "0"], "y": ["0", "1"]}, 2.5, "error: k must be an integer, not 2.5\n"),
    ({"x": ["1", "0"], "y": ["0", "1"]}, True, "error: k must be an integer, not True\n"),
])
def test_lift_one_class_malformed_input_is_input_error(capsys, assignment, k, err):
    assert run_error(capsys, "lift", one_class_input(assignment, k)) == (2, err)


BOOL_ERROR = "error: bad scalar entry: not an exact scalar: True\n"


@pytest.mark.parametrize("argv", [
    ("bch", "[true,0,0]", "[0,1,0]", "-k", "2", "--class", "2"),
    ("lattice-check", "--matrix", "[[2,3],[true,2]]"),
    ("massey", CE_HEIS_JSON, "--degrees", "1", "1", "1",
     "--a", "[true,0,0]", "--b", "[1,0,0]", "--c", "[0,1,0]"),
], ids=["bch", "lattice-check", "massey"])
def test_json_booleans_are_not_scalars(capsys, argv):
    assert run_error(capsys, *argv) == (2, BOOL_ERROR)


@pytest.mark.parametrize("entry, err", [
    (False, "not an exact scalar: False"), (True, "not an exact scalar: True"),
    (0.0, "not an exact scalar: 0.0"), ("x", "Invalid literal for Fraction: 'x'"),
], ids=["false", "true", "float", "malformed"])
def test_dga_product_cell_entries_are_scalars(capsys, entry, err):
    """A product entry that is zero as a Python value (false, 0.0) but not
    an exact scalar is rejected, as in every other cell."""
    obj = json.loads(CE_HEIS_JSON)
    obj["product"]["1,1"][0][0][0] = entry
    assert run_error(capsys, "mc", json.dumps(obj), HEIS_JSON, "--initial",
                     '["1","0","0","1","0","0"]') == (2, "error: bad input: %s\n" % err)


HEIS_BRACKET = '{"i":0,"j":1,"value":[0,0,1]}'
CRITERION = '{"mode":"criterion","presentation":{"generators":%s,"relations":%s},' \
    '"free":%s,"rho2":%s}'


@pytest.mark.parametrize("argv, err", [
    (("quadcheck", '{"dim":true}'),
     "bad algebra JSON: dimension must be a nonnegative integer"),
    (("quadcheck", '{"dim":3,"brackets":[{"i":false,"j":1,"value":[0,0,1]}]}'),
     "bad algebra JSON: not an integer: False"),
    (("quadcheck", '{"dim":3,"brackets":[%s],"grading":[1,true,2]}' % HEIS_BRACKET),
     "bad algebra JSON: not an integer: True"),
    (("mc", '{"dims":[true,2,1],"d":[],"product":{}}', '{"dim":1}'),
     "bad input: not an integer: True"),
    (("malcev-model", '{"h1":2,"h2":true,"pairing":[[["0"],["1"]],[["-1"],["0"]]]}'),
     "bad cup datum: not an integer: True"),
    (("malcev-model", '{"h1":true,"h2":0,"pairing":[[[]]]}'),
     "bad cup datum: not an integer: True"),
    (("lift", CRITERION % ("true", "[]", "[2,3]", '[["1","0","0","0","0"]]')),
     "bad criterion input: not an integer: True"),
    (("lift", CRITERION % ("2", '[["1"]]', "[2,true]", '[["1","0"],["0","1"]]')),
     "bad criterion input: not an integer: True"),
    (("lift", '{"mode":"one-class","presentation":{"generators":["x"],"relators":[]},'
      '"free":[false,3],"assignment":{"x":["1"]},"k":2}'),
     "bad one-class input: not an integer: False"),
], ids=["dim", "bracket-index", "grading", "dga-dims", "cup-h2", "cup-h1",
        "generators", "criterion-free", "one-class-free"])
def test_json_booleans_are_not_integers(capsys, argv, err):
    assert run_error(capsys, *argv) == (2, "error: %s\n" % err)


def test_lattice_check_matrix(capsys):
    code, out = run_json(capsys, "lattice-check", "--matrix", "[[2,3],[1,2]]")
    assert code == 0
    assert out["verdicts"]["commutator_index"] == 2
    code, out = run_json(capsys, "lattice-check", "--matrix", "[[1,0],[0,1]]")
    assert code == 0
    assert out["verdicts"]["commutator_index"] is None


def test_lattice_check_lattice(capsys):
    code, out = run_json(capsys, "lattice-check", "--lattice",
                         '[["1","0","0"],["0","1","0"],["0","0","1/2"]]')
    assert code == 0 and out["verdicts"]["closed"] is True
    code, out = run_json(capsys, "lattice-check", "--lattice",
                         '[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert code == 0
    assert out["verdicts"]["closed"] is False
    assert out["verdicts"]["witness"]["product"][2] == "1/2"


def test_lattice_check_requires_input(capsys):
    code, _ = run(capsys, "lattice-check")
    assert code == 2


def test_heisenberg_demo_default(capsys):
    code, out = run_json(capsys, "heisenberg-demo")
    assert code == 0
    v = out["verdicts"]
    assert v["excluded_as_kaehler_group"] is True
    assert len(v["steps"]) == 8
    assert all(s["ok"] for s in v["steps"])


def test_heisenberg_demo_text(capsys):
    code, text = run(capsys, "heisenberg-demo")
    assert code == 0
    assert text.count("pass") >= 8
    assert "verdict: excluded" in text


def test_heisenberg_demo_overrides(capsys):
    # integral lattice without the half-center: closure fails, exit still 0
    code, out = run_json(capsys, "heisenberg-demo", "--lattice",
                         '[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert code == 0
    steps = {s["step"]: s for s in out["verdicts"]["steps"]}
    assert steps[2]["ok"] is False
    assert "1/2" in steps[2]["detail"]
    # identity matrix: infinite-order hypothesis fails at step 6
    code, out = run_json(capsys, "heisenberg-demo", "--matrix",
                         '[["1","0"],["0","1"]]')
    assert code == 0
    steps = {s["step"]: s for s in out["verdicts"]["steps"]}
    assert steps[6]["ok"] is False
    assert "infinite" in steps[6]["detail"]


def test_heisenberg_demo_needs_det_one(capsys):
    """det M = 4: act(M) is an automorphism over Q, but M is not in
    Sp(2, Z) = SL(2, Z), so step 3 fails, names the check, and the
    exclusion chain is incomplete."""
    code, out = run_json(capsys, "heisenberg-demo", "--matrix", "[[2,0],[0,2]]")
    assert code == 0
    steps = {s["step"]: s for s in out["verdicts"]["steps"]}
    assert steps[3]["ok"] is False and steps[3]["detail"] == "det M = 4, not 1"
    assert all(s["ok"] for n, s in steps.items() if n != 3)
    assert out["verdicts"]["excluded_as_kaehler_group"] is False
    code, text = run(capsys, "heisenberg-demo", "--matrix", "[[3,0],[0,1]]")
    assert code == 0 and "(det M = 3, not 1)" in text
    assert "verdict: exclusion chain incomplete" in text


def test_heisenberg_demo_verdict_reads_the_lattice(capsys):
    """The identity lattice is not closed under the group law: step 2 is in
    the chain, so the verdict is not an exclusion."""
    lattice = '[["1","0","0"],["0","1","0"],["0","0","1"]]'
    code, out = run_json(capsys, "heisenberg-demo", "--lattice", lattice)
    assert code == 0 and out["verdicts"]["excluded_as_kaehler_group"] is False
    code, text = run(capsys, "heisenberg-demo", "--lattice", lattice)
    assert code == 0 and text.endswith("verdict: exclusion chain incomplete\n")


def test_heisenberg_demo_needs_an_invariant_lattice(capsys):
    """Z + 2Z + Z is closed under the group law, but act(M) e_1 = (2, 1, 0)
    leaves it, so Gamma x_M Z is not a group: step 3 fails and names the
    escaping image, for M, S and their inverses; T keeps the lattice."""
    lattice = '[["1","0","0"],["0","2","0"],["0","0","1"]]'
    code, out = run_json(capsys, "heisenberg-demo", "--lattice", lattice)
    steps = {s["step"]: s for s in out["verdicts"]["steps"]}
    assert code == 0 and steps[2]["ok"] and not steps[3]["ok"]
    assert steps[3]["detail"].split("; ") == [
        "M maps [1, 0, 0] to [2, 1, 0], off the lattice",
        "M^-1 maps [1, 0, 0] to [2, -1, 0], off the lattice",
        "S maps [1, 0, 0] to [0, 1, 0], off the lattice",
        "S^-1 maps [1, 0, 0] to [0, -1, 0], off the lattice"]
    assert out["verdicts"]["excluded_as_kaehler_group"] is False
    # an M-invariant lattice other than the default passes step 3
    code, out = run_json(capsys, "heisenberg-demo", "--lattice",
                         '[["2","0","0"],["0","2","0"],["0","0","2"]]')
    assert code == 0 and out["verdicts"]["steps"][2]["detail"] == "checked M, S, T"


@pytest.mark.parametrize("matrix", ["[[2,0],[0,2]]", "[[1,1],[1,1]]", "[[3]]"])
def test_lattice_check_matrix_outside_gl_n_z(capsys, matrix):
    n = len(json.loads(matrix))
    assert run_error(capsys, "lattice-check", "--matrix", matrix) == (
        2, "error: the matrix must lie in GL(%d, Z): its determinant is not +1 or -1\n" % n)
    code, out = run_json(capsys, "lattice-check", "--matrix", "[[0,1],[1,0]]")
    assert code == 0 and out["verdicts"]["commutator_index"] is None


def test_reports_are_deterministic(capsys):
    a = run_json(capsys, "heisenberg-demo")
    b = run_json(capsys, "heisenberg-demo")
    assert a == b
    c, out1 = run(capsys, "mc", CE_HEIS_JSON, HEIS_JSON, "--out", "json")
    c, out2 = run(capsys, "mc", CE_HEIS_JSON, HEIS_JSON, "--out", "json")
    assert out1 == out2


def test_main_leaves_no_parser_garbage(capsys):
    main(["heisenberg-demo", "--out", "json"])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(["heisenberg-demo", "--out", "json"])
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert parsers == []


def test_malformed_json_is_input_error(capsys):
    code, _ = run(capsys, "quadcheck", "{not json")
    assert code == 2
    code, _ = run(capsys, "quadcheck", "/no/such/file.json")
    assert code == 2


def run_error(capsys, *argv):
    """Exit code and stderr of a run that must not print a report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


ONE_CLASS = '{"mode":"one-class","presentation":{"generators":%s,"relators":%s},' \
    '"free":[2,3],"assignment":{"x":["1","0"],"y":["0","0"]},"k":2}'
RHO2 = '[["1","0","0","0","0"],["0","1","0","0","0"]]'


@pytest.mark.parametrize("data, err", [
    (ONE_CLASS % ('"xy"', '[["x","y","x^-1","y^-1"]]'),
     "bad one-class input: the generators must be a list, not the string 'xy'"),
    (ONE_CLASS % ('["x","y"]', '"yy"'),
     "bad one-class input: the relators must be a list, not the string 'yy'"),
    (ONE_CLASS % ('["x","y"]', '["yy"]'),
     "bad one-class input: a relator must be a list, not the string 'yy'"),
    (ONE_CLASS % ('["x","x"]', "[]"), "bad one-class input: generator names must be distinct"),
    (CRITERION % ("2", '"1"', "[2,3]", RHO2),
     "bad criterion input: the relations must be a list, not the string '1'"),
    (CRITERION % ("2", '["1"]', "[2,3]", RHO2),
     "bad criterion input: a relation must be a list, not the string '1'"),
], ids=["generators", "relators", "relator", "repeated-generator", "relations", "relation"])
def test_strings_are_not_read_as_lists_in_presentations(capsys, data, err):
    """A string where a presentation wants a list is not read as the list of
    its characters, and a generator name may not repeat: each would give a
    verdict on another presentation than the one written."""
    assert run_error(capsys, "lift", data) == (2, "error: %s\n" % err)


@pytest.mark.parametrize("argv, err", [
    (("mc", '{"dims":[],"d":[],"product":{}}', HEIS_JSON),
     "bad input: dims must be a nonempty list of nonnegative ints, not []"),
    (("mc", '{"dims":[1,-3,1,1],"d":[],"product":{}}', HEIS_JSON),
     "bad input: dims must be a nonempty list of nonnegative ints, not [1, -3, 1, 1]"),
    (("massey", '{"dims":[1,-3,3,1],"d":[],"product":{}}', "--degrees", "1", "1", "1",
      "--a", "[1,0,0]", "--b", "[1,0,0]", "--c", "[0,1,0]"),
     "bad DGA JSON: dims must be a nonempty list of nonnegative ints, not [1, -3, 3, 1]"),
], ids=["mc-empty", "mc-negative", "massey-negative"])
def test_dga_dims_must_be_nonempty_and_nonnegative(capsys, argv, err):
    assert run_error(capsys, *argv) == (2, "error: %s\n" % err)


def test_hall_zero_generators_is_input_error(capsys):
    code, err = run_error(capsys, "hall", "-k", "0", "--class", "2")
    assert code == 2 and err == "error: bad -k/--class: need k >= 1 and c >= 1\n"


@pytest.mark.parametrize("cup, cls, err", [
    (TORUS_CUP, "1", "--class must be at least 2"),
    (TORUS_CUP, "-3", "--class must be at least 2"),
    ('{"h1": 0, "h2": 0, "pairing": []}', "3", "the cup datum needs h1 >= 1"),
    ('{"h1": 0, "h2": 2, "pairing": []}', "3", "the cup datum needs h1 >= 1"),
], ids=["class-1", "class-negative", "h1-zero", "h1-zero-h2-two"])
def test_malcev_model_degenerate_input_is_input_error(capsys, cup, cls, err):
    code, stderr = run_error(capsys, "malcev-model", cup, "--class", cls)
    assert code == 2 and stderr == "error: %s\n" % err


@pytest.mark.parametrize("dim", ["-2", '"3"', "2.5"])
def test_quadcheck_bad_dimension_is_input_error(capsys, dim):
    code, err = run_error(capsys, "quadcheck", '{"dim": %s, "brackets": []}' % dim)
    assert code == 2
    assert err == "error: bad algebra JSON: dimension must be a nonnegative integer\n"


@pytest.mark.parametrize("grading", ["[-1, 1]", "[0, 1]", "[1, 0]"])
def test_quadcheck_nonpositive_grading_is_input_error(capsys, grading):
    code, err = run_error(capsys, "quadcheck",
                          '{"dim": 2, "brackets": [], "grading": %s}' % grading)
    assert code == 2
    assert err == "error: bad algebra JSON: grading weights must be positive\n"


def test_quadcheck_duplicate_bracket_is_input_error(capsys):
    code, err = run_error(capsys, "quadcheck", json.dumps(
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [0, 0, 1]},
                                {"i": 0, "j": 1, "value": [0, 0, 2]}]}))
    assert code == 2
    assert err == "error: bad algebra JSON: duplicate bracket entry (0, 1)\n"


@pytest.mark.parametrize("basis", ["[1, 2, 3]", "[1, 2]", '"abc"', '["a", "b"]',
                                   '["a", "b", "c", "d"]', "5", '{"a": 1}'])
def test_quadcheck_bad_basis_is_input_error(capsys, basis):
    code, err = run_error(capsys, "quadcheck",
                          '{"dim": 3, "brackets": [], "basis": %s}' % basis)
    assert code == 2
    assert err == "error: bad algebra JSON: basis must be a list of 3 names (strings)\n"


def test_quadcheck_basis_names_round_trip(capsys):
    obj = {"dim": 3, "basis": ["x", "y", "z"],
           "brackets": [{"i": 0, "j": 1, "value": ["0", "0", "1"]}]}
    assert LieAlgebra.from_json(obj).to_json() == obj
    assert LieAlgebra.from_json({"dim": 2, "brackets": []}).basis_names == ("e1", "e2")
    code, out = run(capsys, "quadcheck", json.dumps(obj))
    assert code == 0 and out.startswith("quadratically presented: no")


def test_lattice_check_empty_lattice_is_input_error(capsys):
    code, err = run_error(capsys, "lattice-check", "--lattice", "[]")
    assert code == 2 and err.count("\n") == 1


def test_quadcheck_non_nilpotent_is_input_error(capsys):
    code, err = run_error(capsys, "quadcheck", json.dumps(
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": ["0", "1"]}]}))
    assert code == 2 and err.startswith("error: algebra is not nilpotent")


def test_zero_denominator_is_input_error(capsys):
    code, err = run_error(capsys, "quadcheck", json.dumps(
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": ["0", "0", "1/0"]}]}))
    assert code == 2 and err.startswith("error: bad algebra JSON")


def test_brackets_as_dict_is_input_error(capsys):
    code, err = run_error(capsys, "quadcheck", json.dumps(
        {"dim": 3, "brackets": {"i": 0, "j": 1, "value": ["0", "0", "1"]}}))
    assert code == 2 and err.startswith("error: bad algebra JSON")


def test_massey_dims_mismatch_is_input_error(capsys):
    # two degrees but a differential out of degree 1
    dga = json.dumps({"dims": [1, 2], "d": [[["0"], ["0"]], [["0", "0"]]]})
    code, err = run_error(capsys, "massey", dga, "--degrees", "1", "1", "1",
                          "--a", "[1,0]", "--b", "[1,0]", "--c", "[0,1]")
    assert code == 2 and err.startswith("error: bad DGA JSON")


@pytest.mark.parametrize("dga, errors", [
    ('{"dims":[1,1],"d":[[["0"]]],'
     '"product":{"0,0":[[["1"]]],"1,0":[[["1"]]],"0,1":[[["2"]]]}}',
     "associativity fails at (0,0,1); graded commutativity fails at (0,1); "
     "graded commutativity fails at (1,0)"),
    ('{"dims":[1,1,1],"d":[[["1"]],[["0"]]],'
     '"product":{"0,0":[[["1"]]],"0,1":[[["1"]]],"0,2":[[["1"]]],"1,1":[[["0"]]]}}',
     "Leibniz fails at (0,0)"),
    ('{"dims":[1,1,1],"d":[[["0"]],[["0"]]],"product":{"0,0":[[["1"]]],"1,1":[[["1"]]]}}',
     "graded commutativity fails at (1,1)"),
], ids=["associativity", "leibniz", "odd-square"])
def test_dga_axiom_failures_are_input_errors(capsys, dga, errors):
    code, err = run_error(capsys, "mc", dga, HEIS_JSON)
    assert code == 2
    assert err == "error: bad input: DGA axioms violated: %s\n" % errors


@pytest.mark.parametrize("key, first, err", [
    ("0, 1", False, "duplicate product table (0,1)"),
    ("+1,1", False, "duplicate product table (1,1)"),
    ("0, 1", True, "product key '0, 1' is not of the form \"p,q\""),
    ("+1,1", True, "product key '+1,1' is not of the form \"p,q\""),
], ids=["space-after", "plus-after", "space-first", "plus-first"])
def test_dga_product_key_must_be_canonical_and_unique(capsys, key, first, err):
    """CE(heisenberg) with an extra key naming a degree pair it already has,
    holding the same table, after or before the canonical key."""
    obj = json.loads(CE_HEIS_JSON)
    canonical = key.replace(" ", "").lstrip("+")
    extra = {key: obj["product"][canonical]}
    obj["product"] = {**extra, **obj["product"]} if first else {**obj["product"], **extra}
    code, stderr = run_error(capsys, "mc", json.dumps(obj), HEIS_JSON)
    assert code == 2 and stderr == "error: bad input: %s\n" % err


RANK_ERROR = "error: lattice vectors must span all 3 dimensions of the algebra\n"


@pytest.mark.parametrize("lattice", [
    '[["1","0","0"]]',
    '[["1","0","0"],["0","1","0"],["1","1","0"]]',
    '[["0","0","0"],["0","0","0"],["0","0","0"]]',
])
def test_lattice_of_lower_rank_is_input_error(capsys, lattice):
    assert run_error(capsys, "lattice-check", "--lattice", lattice) == (2, RANK_ERROR)
    assert run_error(capsys, "heisenberg-demo", "--lattice", lattice) == (2, RANK_ERROR)


def test_lattice_spanning_set_of_full_rank_is_accepted(capsys):
    # four vectors of rank 3: a spanning set, not a basis, is still a lattice
    code, out = run_json(capsys, "lattice-check", "--lattice",
                         '[["1","0","0"],["0","1","0"],["0","0","1/2"],["1","1","0"]]')
    assert code == 0 and out["verdicts"]["closed"] is True


def test_repeated_algebra_key_is_input_error(capsys):
    """json would keep the last "brackets" and answer for the abelian algebra."""
    code, err = run_error(capsys, "quadcheck",
                          '{"dim":3,"brackets":[{"i":0,"j":1,"value":[0,0,1]}],"brackets":[]}')
    assert (code, err) == (2, 'error: invalid JSON: duplicate key "brackets"\n')


def test_repeated_dga_product_key_is_input_error(capsys):
    """A zero table under a second literal "0,1" key placed before the real
    one: json would keep the real one and accept the input."""
    obj = json.loads(CE_HEIS_JSON)
    product = json.dumps(obj["product"])
    zero = json.dumps([[[0] * obj["dims"][1]] * obj["dims"][1]] * obj["dims"][0])
    obj_text = CE_HEIS_JSON.replace(json.dumps(obj["product"]), '{"0,1": %s, %s' % (
        zero, product[1:]))
    assert obj_text != CE_HEIS_JSON and json.loads(obj_text) == obj
    code, err = run_error(capsys, "mc", obj_text, HEIS_JSON)
    assert (code, err) == (2, 'error: invalid JSON: duplicate key "0,1"\n')


def test_repeated_key_in_a_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text('{"dim": 2, "dim": 3, "brackets": []}')
    code, err = run_error(capsys, "quadcheck", str(path))
    assert (code, err) == (2, 'error: invalid JSON: duplicate key "dim"\n')
    path.write_text('{"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [0, 0, 1]}]}')
    code, out = run(capsys, "quadcheck", str(path))
    assert code == 0 and out.startswith("quadratically presented: no")


@pytest.mark.parametrize("argv, err", [
    (("quadcheck", '{"dim":3,"brackets":[{"i":0,"j":1,"value":"001"}]}'),
     "bad algebra JSON: bracket value (0, 1) is not a list"),
    (("heisenberg-demo", "--matrix", '["21","11"]'), 'bad scalar entry: "21" is not a list'),
], ids=["algebra-value", "scalars"])
def test_json_strings_are_not_lists(capsys, argv, err):
    """A string where a list is expected is not read one character at a
    time."""
    assert run_error(capsys, *argv) == (2, "error: %s\n" % err)


@pytest.mark.parametrize("field, err", [
    (("product", "0,1", 0), "product table 0,1 is not a list of rows of lists"),
    (("product", "0,1", 0, 0), "product table 0,1 is not a list of rows of lists"),
    (("d", 1, 0), "d is not a list of matrices, each a list of rows (lists)"),
], ids=["product-row", "product-cell", "d-row"])
def test_dga_strings_are_not_lists(capsys, field, err):
    """A product row, a product cell or a row of d given as a string of its
    length, such as the cell "100", is rejected, not read as its
    characters."""
    obj = json.loads(CE_HEIS_JSON)
    *path, last = field
    parent = obj
    for key in path:
        parent = parent[key]
    parent[last] = "1" + "0" * (len(parent[last]) - 1)
    assert run_error(capsys, "mc", json.dumps(obj), HEIS_JSON) == (
        2, "error: bad input: %s\n" % err)
