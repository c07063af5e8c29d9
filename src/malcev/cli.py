"""Command-line interface.

Subcommands wrap the library one-to-one; the CLI adds only JSON I/O and
formatting.  All numbers are exact rational strings.  Exit code 0 means the
computation ran (even when the mathematical verdict is negative); nonzero
exit codes are reserved for malformed input and internal failures.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from fractions import Fraction

from .linalg import (
    Matrix, scalar, integer, format_scalar, echelon_basis, inverse,
)
from .lie import (
    LieAlgebra, heisenberg, lcs_dims, check_automorphism,
    nilpotency_class, NonNilpotentError,
)
from .freelie import hall_basis, free_nilpotent, word_to_json, word_str
from .bch import (
    bch, GroupPresentation, lattice_closed_under_bch, lattice_membership_test,
    commutator_index, lattice_index,
)
from .dga import FiniteDGA, chevalley_eilenberg, massey_triple, MasseyUndefined
from .dgla import mc_solve
from .present import (
    QuadraticPresentation, CupDatum, realize, realized_graded_dims,
    is_quadratically_presented, malcev_model,
    lift_representation_criterion, lift_one_class,
)


class InputError(ValueError):
    pass


def unique_keys(pairs):
    """The object of the (key, value) pairs of one JSON object; a key given
    twice is an InputError, where json would keep the last one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError("invalid JSON: duplicate key %s" % json.dumps(key))
        obj[key] = value
    return obj


def load_json(arg):
    """Parse inline JSON, or read a file when the argument is a path.  No
    object may repeat a key (``unique_keys``)."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        try:
            return json.loads(s, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as e:
            raise InputError("invalid JSON: %s" % e)
    try:
        with open(arg) as f:
            return json.load(f, object_pairs_hook=unique_keys)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (arg, e))
    except json.JSONDecodeError as e:
        raise InputError("invalid JSON in %s: %s" % (arg, e))


@contextlib.contextmanager
def parsing(what):
    """Report a failure to build library objects from user JSON as an
    InputError naming what was being read."""
    try:
        yield
    except InputError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as e:
        raise InputError("bad %s: %s" % (what, e))


def scalars(values):
    """The scalars of a JSON list; a string is not read as its characters."""
    if not isinstance(values, list):
        raise InputError("bad scalar entry: %s is not a list" % json.dumps(values))
    try:
        return tuple(scalar(v) for v in values)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError("bad scalar entry: %s" % e)


def digest(*objs):
    payload = json.dumps(objs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def report(args, command, inputs, verdicts, text_lines):
    out = {"command": command, "inputs_digest": digest(inputs),
           "verdicts": verdicts}
    if args.out == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# Subcommands

def cmd_hall(args):
    with parsing("-k/--class"):
        groups = hall_basis(args.k, args.cls)
    words = [w for grp in groups for w in grp]
    verdicts = {
        "counts": [len(g) for g in groups],
        "total": len(words),
        "words": [word_to_json(w) for w in words],
    }
    lines = ["hall basis on %d generator(s), class %d:" % (args.k, args.cls)]
    for n, grp in enumerate(groups, start=1):
        lines.append("  degree %d (%d): %s" % (n, len(grp),
                                               ", ".join(word_str(w) for w in grp)))
    lines.append("total: %d" % len(words))
    return report(args, "hall", {"k": args.k, "class": args.cls}, verdicts, lines)


def load_algebra(arg):
    """(LieAlgebra, its JSON) from inline JSON or a file; an algebra failing
    the Jacobi identity is an InputError."""
    obj = load_json(arg)
    with parsing("algebra JSON"):
        L = LieAlgebra.from_json(obj)
    bad = L.check_jacobi()
    if bad:
        raise InputError("input violates the Jacobi identity at triples %s" % bad)
    return L, obj


def _bch_algebra(args):
    if args.algebra:
        return load_algebra(args.algebra)
    if args.k is None:
        raise InputError("provide either --algebra or -k")
    if args.cls is None:
        raise InputError("free algebra needs --class")
    with parsing("-k/--class"):
        return free_nilpotent(args.k, args.cls), {"free": [args.k, args.cls]}


def cmd_bch(args):
    L, alg_obj = _bch_algebra(args)
    x = scalars(load_json(args.x))
    y = scalars(load_json(args.y))
    if len(x) != L.dim or len(y) != L.dim:
        raise InputError("elements must have %d coordinates" % L.dim)
    nil_cls = nilpotency_class(L)   # main reports a NonNilpotentError
    if args.cls is not None and args.cls < nil_cls:
        raise InputError("--class %d is below the nilpotency class %d"
                         % (args.cls, nil_cls))
    z = bch(x, y, L, cls=args.cls)
    verdicts = {"product": [format_scalar(c) for c in z]}
    lines = ["bch product: [%s]" % ", ".join(format_scalar(c) for c in z)]
    return report(args, "bch", {"algebra": alg_obj, "x": args.x, "y": args.y},
                  verdicts, lines)


def cmd_quadcheck(args):
    L, obj = load_algebra(args.algebra)
    v = is_quadratically_presented(L)
    verdicts = v.to_json()
    if v.yes:
        lines = ["quadratically presented: yes (%d relation(s))" % len(v.W)]
    else:
        lines = ["quadratically presented: no (stage: %s, failing degree: %s, "
                 "defect dim: %s)" % (v.stage, v.failing_degree, v.defect_dim)]
    return report(args, "quadcheck", obj, verdicts, lines)


def cmd_malcev_model(args):
    obj = load_json(args.cup)
    with parsing("cup datum"):
        cd = CupDatum.from_json(obj)
    qp = malcev_model(cd)
    c = args.cls if args.cls is not None else 3
    if c < 2:
        raise InputError("--class must be at least 2")
    if qp.k < 1:
        raise InputError("the cup datum needs h1 >= 1")
    L, stabilized = realize(qp, c)
    dims = realized_graded_dims(L)
    weights = [-w for w in L.grading]  # degree n has weight -n
    verdicts = {
        "presentation": qp.to_json(),
        "realization": L.to_json(),
        "stabilized": stabilized,
        "graded_dims": dims,
        "weights": weights,
    }
    lines = [
        "quadratic model: %d generator(s), %d relation(s)" % (qp.k, len(qp.relations)),
        "realized at class %d: dim %d, graded dims %s, stabilized: %s"
        % (c, L.dim, dims, stabilized),
        "weights: %s" % (weights,),
    ]
    return report(args, "malcev-model", obj, verdicts, lines)


def cmd_mc(args):
    dga_obj = load_json(args.dga)
    coeff_obj = load_json(args.coeff)
    with parsing("input"):
        A = FiniteDGA.from_json(dga_obj)
        N = LieAlgebra.from_json(coeff_obj)
    initial = scalars(load_json(args.initial)) if args.initial else None
    try:
        rep = mc_solve(A, N, initial=initial)
    except ValueError as e:
        raise InputError(str(e))
    stages = []
    for s in rep.stages:
        entry = {"level": s.level, "obstructed": s.obstructed}
        if s.solution_dim is not None:
            entry["solution_dim"] = s.solution_dim
        if s.obstruction is not None:
            entry["obstruction_classes"] = [[format_scalar(c) for c in cl]
                                            for cl in s.obstruction]
        stages.append(entry)
    verdicts = {"completed": rep.completed, "stages": stages,
                "solution": [format_scalar(c) for c in rep.solution]}
    lines = ["maurer-cartan staged solve: %s"
             % ("completed" if rep.completed else "obstructed")]
    for e in stages:
        lines.append("  stage %d: %s" % (e["level"],
                     "obstructed" if e["obstructed"] else "lifted"))
    return report(args, "mc", {"dga": dga_obj, "coeff": coeff_obj},
                  verdicts, lines)


def cmd_massey(args):
    dga_obj = load_json(args.dga)
    with parsing("DGA JSON"):
        A = FiniteDGA.from_json(dga_obj)
    p, q, r = args.degrees
    a = scalars(load_json(args.a))
    b = scalars(load_json(args.b))
    c = scalars(load_json(args.c))
    if min(p, q, r) < 1 or p + q + r - 1 > A.top:
        raise InputError("--degrees need P, Q, R >= 1 and P + Q + R - 1 <= %d"
                         % A.top)
    for n, v in ((p, a), (q, b), (r, c)):
        if len(v) != A.dims[n]:
            raise InputError("a degree-%d element has %d coordinates"
                             % (n, A.dims[n]))
    try:
        res = massey_triple(A, (p, a), (q, b), (r, c))
    except MasseyUndefined as e:
        raise InputError("massey product undefined: %s" % e)
    verdicts = res.to_json()
    lines = ["massey triple product in degree %d:" % res.degree,
             "  representative: [%s]" % ", ".join(format_scalar(x)
                                                  for x in res.representative),
             "  vanishes: %s" % res.vanishes]
    return report(args, "massey",
                  {"dga": dga_obj, "degrees": [p, q, r]}, verdicts, lines)


def cmd_lift(args):
    obj = load_json(args.data)
    mode = obj.get("mode") if isinstance(obj, dict) else None
    if mode == "criterion":
        with parsing("criterion input"):
            qp = QuadraticPresentation.from_json(obj["presentation"])
            if "free" in obj:
                k, c = obj["free"]
                U = free_nilpotent(integer(k), integer(c))
            else:
                U = LieAlgebra.from_json(obj["target"])
            rho2 = [scalars(v) for v in obj["rho2"]]
        try:
            res = lift_representation_criterion(qp, U, rho2)
        except ValueError as e:
            raise InputError(str(e))
        verdicts = {"lifted": res.lifted}
        if res.lifted:
            verdicts["images"] = [[format_scalar(c) for c in v] for v in res.images]
            lines = ["lift exists"]
        else:
            verdicts["obstruction"] = [
                {"relation": [format_scalar(c) for c in rel],
                 "image": [format_scalar(c) for c in val]}
                for rel, val in res.witness]
            lines = ["no lift: theta does not annihilate the relations"]
        return report(args, "lift", obj, verdicts, lines)
    if mode == "one-class":
        with parsing("one-class input"):
            p = GroupPresentation.from_json(obj["presentation"])
            if "free" in obj:
                k0, c0 = obj["free"]
                U = free_nilpotent(integer(k0), integer(c0))
            else:
                U = LieAlgebra.from_json(obj["algebra"])
            assignment = {g: scalars(v) for g, v in obj["assignment"].items()}
            level = obj["k"]
        if not isinstance(level, int) or isinstance(level, bool):
            raise InputError("k must be an integer, not %r" % (level,))
        try:
            res = lift_one_class(p, assignment, U, level)
        except ValueError as e:
            raise InputError(str(e))
        verdicts = {"lifted": res.lifted}
        if res.lifted:
            verdicts["assignment"] = {
                g: [format_scalar(c) for c in el.log]
                for g, el in res.images.items()}
            lines = ["lifted one class; verified against all relators"]
        else:
            verdicts["defects"] = [
                {"relator": rel, "defect": [format_scalar(c) for c in d]}
                for rel, d in res.witness]
            verdicts["refutation"] = [format_scalar(c) for c in res.refutation]
            lines = ["obstructed: relator defects cannot be removed by "
                     "central corrections"]
            for rel, d in res.witness:
                lines.append("  %s -> [%s]" % (" ".join(rel),
                                               ", ".join(format_scalar(c) for c in d)))
            lines.append("  refutation (y M = 0, y . (-d0) != 0): [%s]"
                         % ", ".join(verdicts["refutation"]))
        return report(args, "lift", obj, verdicts, lines)
    raise InputError("mode must be 'criterion' or 'one-class'")


def lattice_basis(lobj, dim):
    basis = [scalars(v) for v in lobj]
    if not basis or any(len(v) != dim for v in basis):
        raise InputError("need lattice vectors with %d coordinates" % dim)
    if len(echelon_basis(basis, dim)) < dim:
        raise InputError("lattice vectors must span all %d dimensions of the algebra" % dim)
    return basis


def cmd_lattice_check(args):
    if args.matrix:
        mobj = load_json(args.matrix)
        with parsing("matrix"):
            M = Matrix([scalars(row) for row in mobj])
            idx = commutator_index(M)
        if lattice_index(M) != 1:   # n Hermite pivots, all 1: |det M| = 1
            raise InputError("the matrix must lie in GL(%d, Z): its determinant is "
                             "not +1 or -1" % M.rows)
        verdicts = {"commutator_index": idx}
        lines = ["commutator index: %s" % ("infinite" if idx is None else idx)]
        return report(args, "lattice-check", {"matrix": mobj}, verdicts, lines)
    if not args.lattice:
        raise InputError("provide --lattice or --matrix")
    if args.algebra:
        L, alg_obj = load_algebra(args.algebra)
    else:
        L, alg_obj = heisenberg(), "heisenberg"
    lobj = load_json(args.lattice)
    basis = lattice_basis(lobj, L.dim)
    witness = lattice_closed_under_bch(L, basis)
    closed = witness is None
    verdicts = {"closed": closed}
    if closed:
        lines = ["lattice closed under the group law"]
    else:
        x, y, z = witness
        verdicts["witness"] = {"x": [format_scalar(c) for c in x],
                               "y": [format_scalar(c) for c in y],
                               "product": [format_scalar(c) for c in z]}
        lines = ["lattice NOT closed: bch([%s], [%s]) = [%s] escapes"
                 % (", ".join(format_scalar(c) for c in x),
                    ", ".join(format_scalar(c) for c in y),
                    ", ".join(format_scalar(c) for c in z))]
    return report(args, "lattice-check", {"algebra": alg_obj, "lattice": lobj},
                  verdicts, lines)


HEISENBERG_LATTICE = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]]
DEMO_MATRIX = [["2", "3"], ["1", "2"]]


def cmd_heisenberg_demo(args):
    """End-to-end worked example: the Heisenberg lattice group extended by
    an infinite-order integral symplectic matrix is excluded as the
    fundamental group of any compact Kaehler manifold."""
    h = heisenberg()
    steps = []
    lines = []

    def step(name, ok, detail):
        steps.append({"step": len(steps) + 1, "name": name, "ok": ok,
                      "detail": detail})
        lines.append("[%d] %-34s %s  (%s)" % (len(steps), name,
                                              "pass" if ok else "FAIL", detail))

    # (1) Jacobi
    bad = h.check_jacobi()
    step("jacobi identity", not bad, "violations: %d" % len(bad))

    # (2) lattice closure under BCH
    lattice = load_json(args.lattice) if args.lattice else HEISENBERG_LATTICE
    basis = lattice_basis(lattice, h.dim)
    witness = lattice_closed_under_bch(h, basis)
    if witness is None:
        step("lattice closed under group law", True, "all generator products inside")
    else:
        step("lattice closed under group law", False,
             "witness product [%s]" % ", ".join(format_scalar(c) for c in witness[2]))

    # (3) SL2 acts by automorphisms: v part transformed, center scaled by det
    def act(mat):
        a, b, c, d = (scalar(mat[0][0]), scalar(mat[0][1]),
                      scalar(mat[1][0]), scalar(mat[1][1]))
        det = a * d - b * c
        return Matrix([[a, b, Fraction(0)], [c, d, Fraction(0)],
                       [Fraction(0), Fraction(0), det]])

    gens = {"S": [[0, -1], [1, 0]], "T": [[1, 1], [0, 1]],
            "M": load_json(args.matrix) if args.matrix else DEMO_MATRIX}
    with parsing("matrix"):
        M = Matrix([scalars(row) for row in gens["M"]])
    if (M.rows, M.cols) != (2, 2) or not M.is_integral():
        raise InputError("the matrix must be an integral 2 x 2 matrix")
    acts = {g: act(m) for g, m in sorted(gens.items())}  # Sp(2, Z) = SL(2, Z)
    failed = ["det %s = %s, not 1" % (g, format_scalar(a.data[2][2]))
              for g, a in acts.items() if a.data[2][2] != 1]
    failed += ["%s is not an automorphism" % g
               for g, a in acts.items() if not check_automorphism(h, a)]
    # Gamma x_M Z is a group only if act(g) and its inverse map the lattice
    # into itself
    inside = lattice_membership_test(basis)
    for g, a in acts.items():
        if a.data[2][2] != 1:
            continue   # failed above, and may be singular
        for name, b in ((g, a), (g + "^-1", inverse(a))):
            escape = next(((v, w) for v in basis if not inside(w := b.mul_vec(v))), None)
            if escape:
                failed.append("%s maps [%s] to [%s], off the lattice" % (
                    name, *(", ".join(map(format_scalar, u)) for u in escape)))
    step("integral symplectic action by automorphisms", not failed,
         "; ".join(failed) or "checked %s" % ", ".join(sorted(gens)))

    # (4) lower central series
    dims = lcs_dims(h)
    step("lower central series dims", dims == [3, 1, 0], "%s" % dims)

    # (5) quadraticity
    v = is_quadratically_presented(h)
    step("not quadratically presented", not v.yes,
         "failing degree %s, defect dim %s" % (v.failing_degree, v.defect_dim))

    # (6) commutator index of the abelianized action
    idx = commutator_index(M)
    step("commutator subgroup of finite index", idx is not None,
         "index %s -> abelianization test %s"
         % ("infinite" if idx is None else idx,
            "blind (real abelianization is quadratic)" if idx is not None
            else "applicable"))

    # (7) one-class lift obstruction
    U = free_nilpotent(2, 3)
    p = GroupPresentation(
        ["x", "y", "z"],
        [["x", "y", "x^-1", "y^-1", "z^-1", "z^-1"],
         ["x", "z", "x^-1", "z^-1"],
         ["y", "z", "y^-1", "z^-1"]])
    assignment = {"x": (Fraction(1), Fraction(0), Fraction(0)),
                  "y": (Fraction(0), Fraction(1), Fraction(0)),
                  "z": (Fraction(0), Fraction(0), Fraction(1, 2))}
    lift = lift_one_class(p, assignment, U, 3)
    step("one-class lift obstructed", not lift.lifted,
         "defects on %d relator(s)" % (len(lift.witness) if lift.witness else 0))

    # (8) Massey witness
    A = chevalley_eilenberg(h)
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    massey = massey_triple(A, (1, e1), (1, e1), (1, e2))
    step("massey triple product nonzero", not massey.vanishes,
         "representative [%s]" % ", ".join(format_scalar(c)
                                           for c in massey.representative))

    core = [s for s in steps if s["step"] in (1, 2, 3, 4, 5, 7, 8)]
    excluded = all(s["ok"] for s in core)
    verdicts = {"steps": steps, "excluded_as_kaehler_group": excluded}
    lines.append("verdict: %s" % (
        "excluded as a Kaehler group (quadraticity and lifting both fail)"
        if excluded else "exclusion chain incomplete"))
    return report(args, "heisenberg-demo",
                  {"lattice": lattice, "matrix": gens["M"]}, verdicts, lines)


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process (argparse parsers are
    cyclic garbage, so rebuilding one per main() call leaves litter)."""
    parser = argparse.ArgumentParser(
        prog="malcev",
        description="Exact computations with nilpotent Lie algebras, the "
                    "Campbell-Baker-Hausdorff group law, Maurer-Cartan "
                    "deformations, quadratic models, and Massey products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", choices=["json", "text"], default="text")

    p = sub.add_parser("hall", help="Hall basis of a free nilpotent Lie algebra")
    p.add_argument("-k", type=int, required=True, help="number of generators")
    p.add_argument("--class", dest="cls", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_hall)

    p = sub.add_parser("bch", help="group product log(exp x . exp y)")
    p.add_argument("x", help="element JSON (array of scalars) or file")
    p.add_argument("y")
    p.add_argument("--algebra", help="Lie algebra JSON or file")
    p.add_argument("-k", type=int, help="use the free algebra on k generators")
    p.add_argument("--class", dest="cls", type=int)
    common(p)
    p.set_defaults(func=cmd_bch)

    p = sub.add_parser("quadcheck", help="decide quadratic presentability")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=cmd_quadcheck)

    p = sub.add_parser("malcev-model", help="quadratic model from a cup datum")
    p.add_argument("cup")
    p.add_argument("--class", dest="cls", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_malcev_model)

    p = sub.add_parser("mc", help="staged Maurer-Cartan solve")
    p.add_argument("dga")
    p.add_argument("coeff", help="nilpotent coefficient Lie algebra JSON")
    p.add_argument("--initial", help="initial stage-1 cocycle JSON")
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("massey", help="triple Massey product")
    p.add_argument("dga")
    p.add_argument("--degrees", type=int, nargs=3, required=True,
                   metavar=("P", "Q", "R"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    common(p)
    p.set_defaults(func=cmd_massey)

    p = sub.add_parser("lift", help="representation lifting")
    p.add_argument("data", help="JSON with mode 'criterion' or 'one-class'")
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("lattice-check", help="lattice closure / commutator index")
    p.add_argument("--algebra")
    p.add_argument("--lattice", help="JSON list of basis vectors")
    p.add_argument("--matrix", help="integral matrix for the commutator index")
    common(p)
    p.set_defaults(func=cmd_lattice_check)

    p = sub.add_parser("heisenberg-demo",
                       help="worked example excluding a lattice group")
    p.add_argument("--lattice", help="override the default lattice basis")
    p.add_argument("--matrix", help="override the default symplectic matrix")
    common(p)
    p.set_defaults(func=cmd_heisenberg_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, MasseyUndefined, NonNilpotentError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
