"""The bytes of ``lift_one_class`` results are pinned.

Every seeded input of ``test_lift_fox.py`` (the fixed cases and the random
presentations, with and without the SWAP action) is lifted, and the JSON of
each result (lifted, images, witness, refutation, or the ValueError message)
is hashed.  The digest was recorded before the relator walk moved onto int
logs, so the walk must give the same solution, refutation and bytes.
"""

import hashlib
import json
import random
from fractions import Fraction

from malcev.bch import GroupPresentation
from malcev.dgla import lcs_extension
from malcev.freelie import free_nilpotent
from malcev.lie import heisenberg
from malcev.linalg import format_scalar
from malcev.present import lift_one_class

from test_lift_fox import (
    HEISENBERG_GROUP, RANDOM_CASES, S3_RELATORS, SWAP, permutation_automorphism,
    random_relator, trivial_word,
)


def strs(v):
    return [format_scalar(c) for c in v]


def result_json(gens, relators, assignment, U, k, ambient=None):
    try:
        res = lift_one_class(GroupPresentation(gens, relators), assignment, U, k,
                             ambient_auts=ambient)
    except ValueError as e:
        return {"error": str(e)}
    out = {"lifted": res.lifted}
    if res.lifted:
        out["images"] = {g: [strs(el.log), [strs(r) for r in el.aut.data]]
                         for g, el in res.images.items()}
    else:
        out["witness"] = [[list(r), strs(d)] for r, d in res.witness]
        out["refutation"] = strs(res.refutation)
    return out


def seeded_inputs():
    """(gens, relators, assignment, U, k, ambient) for every seeded input of
    test_lift_fox.py, in a fixed order."""
    yield (["x", "y", "z"], [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"]] + HEISENBERG_GROUP[1:],
           {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, Fraction(1, 2))},
           free_nilpotent(2, 3), 3, None)
    yield (["x", "y", "z"], HEISENBERG_GROUP, {"x": (1, 0), "y": (0, 1), "z": (0, 0)},
           free_nilpotent(2, 3), 2, None)
    yield (["x", "y", "z"], HEISENBERG_GROUP,
           {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}, free_nilpotent(2, 4), 3, None)
    for tz in (["t", "z", "t^-1", "z"], ["t", "z", "t^-1", "z^-1"]):
        yield (["t", "x", "y", "z"],
               [["t", "t"], ["t", "x", "t^-1", "y^-1"], ["x", "y", "x^-1", "y^-1", "z^-1"], tz],
               {"t": (0, 0), "x": (1, 0), "y": (0, 1), "z": (0, 0)}, heisenberg(), 2,
               {"t": SWAP})
    for seed in range(6):
        rng = random.Random(seed)
        L = free_nilpotent(3, 2)
        ambient = {"s": permutation_automorphism(L, (1, 2, 0)),
                   "t": permutation_automorphism(L, (1, 0, 2))}
        auts = {g: [list(r) for r in m.data] for g, m in ambient.items()}
        w = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        assignment = {g: tuple(a - sum(b * c for b, c in zip(row[:3], w))
                               for a, row in zip(w, A[:3]))
                      for g, A in auts.items()}
        gens = ["s", "t"]
        relators = S3_RELATORS + [trivial_word(rng, auts) for _ in range(3)]
        if seed % 2:
            gens.append("z")
            relators += [["s", "z", "s^-1", "z^-1"], ["t", "z", "t^-1", "z"]]
            assignment["z"] = (0, 0, 0)
        yield gens, relators, assignment, L, 2, ambient
    for case, (make, _, k, ambient) in enumerate(RANDOM_CASES):
        U = make()
        dim_k = lcs_extension(U, k).M.dim
        gens = ["t", "x", "y", "z"]
        for seed in range(24):
            rng = random.Random(1000 * case + seed)
            relators = [random_relator(rng, gens) for _ in range(rng.randint(1, 3))]
            if ambient and rng.random() < 0.5:
                relators += [["t", "t"], ["t", "x", "t^-1", "y^-1"]]
            assignment = {g: tuple(rng.randint(-1, 1) * rng.randint(0, 1) for _ in range(dim_k))
                          for g in gens}
            if ambient:
                assignment["t"] = (0,) * dim_k
            yield gens, relators, assignment, U, k, ambient


def test_lift_results_are_pinned():
    results = [result_json(*case) for case in seeded_inputs()]
    assert len(results) == 131
    assert {"lifted", "error"} <= {key for r in results for key in r}
    assert any(r.get("lifted") is False for r in results)
    blob = json.dumps(results, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "81427bf97f43ac691502d7f483a83eb0b7d0a3c92bdff1b3787aad37fa66e482")
