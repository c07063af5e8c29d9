"""Pinned bytes of the CLI reports: `quadcheck`, `malcev-model`, `mc`,
`lift`, `massey`, `lattice-check` and `heisenberg-demo`.

Each case runs the CLI in text and in json form and compares the sha256 of
stdout with a value recorded before the graded-ideal layer moved to integer
component coordinates (the `mc` values: before the MC stages split their
residual over the kernel once, on int rows; the `lift`, `massey`,
`lattice-check` and `heisenberg-demo` values: before `Matrix` stored one
int-row form).  A speed-up of the quadratic pipeline or of MC staging, or a
change of the stored form of a matrix, must leave every verdict, relation
basis, realization table, obstruction class, MC solution, lift, refutation,
Massey representative, lattice witness and commutator index, and so these
bytes, as they are.  The inputs are built here without randomness: a
genus-2 cup model, its realization at class 3 (a truncation), a stabilized
realization and a free truncation, the last two in a rational basis change
made with the oracles; staged MC solves over the Chevalley-Eilenberg
complexes of the Heisenberg algebra (one completed, one obstructed at stage
3) and of Q^3 (obstructed at stage 2), with coefficients in the Heisenberg
algebra or F(2, 3), two of them in a rational basis; the lift criterion of
the torus relation into F(2, 3), met and failed; one-class lifts of the
integral Heisenberg presentation, into its own group (lifted) and into
F(2, 3) at class 3 (obstructed, with its refutation); the nonzero Massey
triple product <x, x, y> of the Heisenberg algebra; an integral lattice of
the Heisenberg group that the group law leaves; a commutator index; and the
worked example, also on a lattice closed under the group law that M does not
map into itself (pinned when step 3 gained its lattice check).
"""
import hashlib
import json
from fractions import Fraction

import pytest

from malcev.cli import main
from malcev.dga import chevalley_eilenberg
from malcev.freelie import free_nilpotent
from malcev.lie import abelian, heisenberg
from malcev.linalg import format_scalar
from malcev.present import CupDatum, QuadraticPresentation, malcev_model, realize

from oracles import dense_bracket, gauss_jordan

GENUS2 = json.dumps({"h1": 4, "h2": 1, "pairing": [
    [["0"], ["1"], ["0"], ["0"]], [["-1"], ["0"], ["0"], ["0"]],
    [["0"], ["0"], ["0"], ["1"]], [["0"], ["0"], ["-1"], ["0"]]]})
TORUS = json.dumps({"h1": 2, "h2": 1, "pairing": [[["0"], ["1"]], [["-1"], ["0"]]]})
# k = 4 with five relations: L(V)/<W> is the 5-dimensional Heisenberg algebra
STABLE = QuadraticPresentation(4, [[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
                                   [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
TRUNCATED = QuadraticPresentation(3, [[1, 1, 0], [0, 1, 1]])
# xi^0 ox f_0 + xi^1 ox f_1: a cocycle of A^1 ox gr_1 for a 2-generated N
MC_INITIAL = json.dumps(["1", "0", "0", "1", "0", "0"])


def conjugated(L):
    """L in the basis of the columns of a fixed unipotent matrix with
    fractional entries and its rows rotated by one, computed with the
    oracles; returned as algebra JSON."""
    n = L.dim
    rows = [[Fraction(1) if r == c else
             Fraction((3 * r + 5 * c) % 5 - 2, 1 + (r + c) % 2) if r > c else Fraction(0)
             for c in range(n)] for r in range(n)]
    rows = rows[1:] + rows[:1]
    cols = [tuple(rows[r][c] for r in range(n)) for c in range(n)]
    inv = [row[n:] for row in gauss_jordan(
        [rows[r] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)], 2 * n)[0]]
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            v = dense_bracket(n, L.brackets, cols[i], cols[j])
            w = [sum((r[k] * v[k] for k in range(n) if v[k]), Fraction(0)) for r in inv]
            if any(w):
                brackets.append({"i": i, "j": j, "value": [format_scalar(x) for x in w]})
    return json.dumps({"dim": n, "brackets": brackets})


def criterion(rho2):
    """A `lift` criterion input: the torus relation [x, y] into F(2, 3)."""
    return json.dumps({"mode": "criterion",
                       "presentation": {"generators": 2, "relations": [["1"]]},
                       "free": [2, 3], "rho2": rho2})


def one_class(fields):
    """A one-class `lift` input on the integral Heisenberg presentation."""
    return json.dumps({"mode": "one-class", "presentation": {
        "generators": ["x", "y", "z"],
        "relators": [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
                     ["x", "z", "x^-1", "z^-1"], ["y", "z", "y^-1", "z^-1"]]}, **fields})


def cases():
    genus2 = realize(malcev_model(CupDatum.from_json(json.loads(GENUS2))), 3)[0]
    ce_heis = json.dumps(chevalley_eilenberg(heisenberg()).to_json())
    return {
        "model-genus2-c3": ["malcev-model", GENUS2, "--class", "3"],
        "model-torus-c4": ["malcev-model", TORUS, "--class", "4"],
        "quad-genus2-c3": ["quadcheck", json.dumps(genus2.to_json())],
        "quad-stable-conj": ["quadcheck", conjugated(realize(STABLE, 3)[0])],
        "quad-truncated-c4": ["quadcheck", json.dumps(realize(TRUNCATED, 4)[0].to_json())],
        "quad-free-2-4-conj": ["quadcheck", conjugated(free_nilpotent(2, 4))],
        "quad-free-3-2-conj": ["quadcheck", conjugated(free_nilpotent(3, 2))],
        "mc-heis-heis": ["mc", ce_heis, json.dumps(heisenberg().to_json()), "--initial", MC_INITIAL],
        "mc-heis-heis-conj": ["mc", ce_heis, conjugated(heisenberg()), "--initial", MC_INITIAL],
        "mc-heis-free-2-3-conj": ["mc", ce_heis, conjugated(free_nilpotent(2, 3)),
                                  "--initial", MC_INITIAL],
        "mc-torus3-heis": ["mc", json.dumps(chevalley_eilenberg(abelian(3)).to_json()),
                           json.dumps(heisenberg().to_json()), "--initial", MC_INITIAL],
        "lift-criterion-lifted": ["lift", criterion([["1", "0", "0", "0", "0"]] * 2)],
        "lift-criterion-obstructed": ["lift", criterion([["1", "0", "0", "0", "0"],
                                                         ["0", "1", "0", "0", "0"]])],
        "lift-one-class-lifted": ["lift", one_class(
            {"algebra": heisenberg().to_json(), "k": 2,
             "assignment": {"x": ["1", "0"], "y": ["0", "1"], "z": ["0", "0"]}})],
        "lift-one-class-obstructed": ["lift", one_class(
            {"free": [2, 3], "k": 3,
             "assignment": {"x": ["1", "0", "0"], "y": ["0", "1", "0"], "z": ["0", "0", "1/2"]}})],
        "massey-heis": ["massey", ce_heis, "--degrees", "1", "1", "1",
                        "--a", "[1,0,0]", "--b", "[1,0,0]", "--c", "[0,1,0]"],
        "lattice-escape": ["lattice-check", "--lattice", "[[1,0,0],[0,1,0],[0,0,1]]"],
        "lattice-matrix": ["lattice-check", "--matrix", "[[2,3],[1,2]]"],
        "heisenberg-demo": ["heisenberg-demo"],
        "heisenberg-demo-lattice-not-invariant": [
            "heisenberg-demo", "--lattice", '[["1","0","0"],["0","2","0"],["0","0","1"]]'],
    }


PINNED = {
    ("heisenberg-demo", "text"): "a34914b0397de5c139d629dca79b7d990b88c7efdba025ae9fbc71fa18e44763",
    ("heisenberg-demo", "json"): "65f095236fc8573b76274f4c73a02103de021703c81b17dd72406d2fb1f06baf",
    ("heisenberg-demo-lattice-not-invariant", "text"):
        "73103608fa6dee203096bba4eb3e2dcf63a44139d363f282cd1d1f7aaf2274cc",
    ("heisenberg-demo-lattice-not-invariant", "json"):
        "c8f9247e761ede1044265ccc929b32047797b78e13aa20f6885cac3b6e53c4fe",
    ("lattice-escape", "text"): "02e3f473bb45e8a69e35549204df32bba6fb5556e8ea687b0b17752ecf561a91",
    ("lattice-escape", "json"): "e667625b005c673d268434d37e74df37a50637ce3eeff3ee19d93055b8c36f4f",
    ("lattice-matrix", "text"): "feca2a5fd47cddb0c0ffb34ede0741764915c385b61dd8835210fce93f402db3",
    ("lattice-matrix", "json"): "4599e770f85ecda2fcb405a86acbfebd8f7cdd74c5ade0d542e4c7cfcd043fd6",
    ("lift-criterion-lifted", "text"): "5e0a70fcd9d0ed18d46f1513f6b44808d3db99145101d68c7683199014d69c5b",
    ("lift-criterion-lifted", "json"): "2fb062a77f6c0b399eed63e1abaaa214a8e3ed1d4df325b15e3ca5cc20806262",
    ("lift-criterion-obstructed", "text"): "c11aa5179e77b1464e91a6290367823a50e7ca657a1e267746ee57a10ce8ea4e",
    ("lift-criterion-obstructed", "json"): "5bf61285d84d8ac8461930d1e1d7519392f8ebcc97117bb3f0c1d20d7fb4da6b",
    ("lift-one-class-lifted", "text"): "2d391b6732a1207cc29bac572c48d67f031a65b9fd1925323b87b9ec59fb6f67",
    ("lift-one-class-lifted", "json"): "ade28a5a09e1c75b8b702bbef059b6c7814b8d022ee5bebb25e174bb732f5963",
    ("lift-one-class-obstructed", "text"): "1a79a691e42c3a035447a624e24036834380ad83272d66e3f4c8e7a9aa148728",
    ("lift-one-class-obstructed", "json"): "722c330db717762b4ec1b9e426b17f946c4be077e93901df6f3251423f32eaf6",
    ("massey-heis", "text"): "651e2fd1d3031de7182de1d6075cebbbf6c9f4916ba0e8bd7e43f0d2bf20518d",
    ("massey-heis", "json"): "86916c693e6e0fbf696f39043c0f7e51f264e24cdd24a8c4d9161d1738fee7e7",
    ("mc-heis-free-2-3-conj", "text"): "c62a7eae543814bcae680ca08db95bd07ebf90f8feaf1e5c2b10fd19642d9bc1",
    ("mc-heis-free-2-3-conj", "json"): "c2ba2cefad05c3c5d8a483d902f24a11374d623998aafc0a2addf2327b1eaefd",
    ("mc-heis-heis", "text"): "c7873b14684e29fe472179b1f92ac3334c33ad9ebdcc4e34065cc5b8f028bd29",
    ("mc-heis-heis", "json"): "b33e088d6c8396055471cf8ca34c3dc961cd990dce6d3721de7f9a17be2df571",
    ("mc-heis-heis-conj", "text"): "c7873b14684e29fe472179b1f92ac3334c33ad9ebdcc4e34065cc5b8f028bd29",
    ("mc-heis-heis-conj", "json"): "3af2959904d2a7e5db548301104e1f9141cf90c095534ec6f6efe8f686308a4d",
    ("mc-torus3-heis", "text"): "69bf249e5dc22065ee71de9cf6b72d2fc55a5a9bb374069ec48b277c61985b62",
    ("mc-torus3-heis", "json"): "1989748ee99425a7dc10d5552382a1e0815c49468bb6139d211617d0da4fbc17",
    ("model-genus2-c3", "text"): "17f9dfc104ddfd91da0c72429d5e331a2274f2d0a885598c59b6d03550e3c0b3",
    ("model-genus2-c3", "json"): "6eca7a8685221cf45111bc1e59a0a89d20da94888ca18503f4109a78b12d55e9",
    ("model-torus-c4", "text"): "ede288f3395cc39e810cca5fc079672c4600966a8faf39c1428904e2dd5a3f07",
    ("model-torus-c4", "json"): "33f0a8034bdc1f28b733f7ba37e93781668800c46b96b9aa1d3bd1fc18ef3d76",
    ("quad-free-2-4-conj", "text"): "78c9f68a196258a1ac9efa20f9fa2128d271cc51309c649f61733c7030a2b2d7",
    ("quad-free-2-4-conj", "json"): "3f49aff75d135e685dc7a50337e948119b211b9f6c6519eb547402fad0e8a388",
    ("quad-free-3-2-conj", "text"): "2c12d0f727485cdf8a68e132d5f558edd2faebb486a5ccba3be2fe325c326cd6",
    ("quad-free-3-2-conj", "json"): "c7bdd65a50d9b9f7728b800ef3754fd4b1a154770b6a2e3693910b14ef68be23",
    ("quad-genus2-c3", "text"): "8d4a98ced7b152f85dbbb1c404a93029af793224a1491693a341856de32ec09e",
    ("quad-genus2-c3", "json"): "f028232a6d11bff6f1d3e3331afca87331f8f01e7c52f25fb81f1a9f0eb6b792",
    ("quad-stable-conj", "text"): "e8716c06aafd24bfd9ca6c687d6ea5e8ad20649546e179e512900a8249fa397b",
    ("quad-stable-conj", "json"): "be2e6324543ce6b64ee18c7128c1da59643617b04032c3104a1cb01a9ca25b0b",
    ("quad-truncated-c4", "text"): "78c9f68a196258a1ac9efa20f9fa2128d271cc51309c649f61733c7030a2b2d7",
    ("quad-truncated-c4", "json"): "70b178f117c8b0fead8dd25a99eb6ddaec8096c03684e60c3ce26e83e7f2dba1",
}


def report_sha(capsys, argv, out):
    assert main(argv + ["--out", out]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted((n, out) for n in cases() for out in ("text", "json"))


@pytest.mark.parametrize("name, out", sorted(PINNED))
def test_report_bytes_are_pinned(capsys, name, out):
    assert report_sha(capsys, cases()[name], out) == PINNED[(name, out)]
