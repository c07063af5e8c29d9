"""Seeded job sets for the malcev benchmark.

A job is one user-level task: it calls the library's public API on inputs
generated from the seed and checks its own result with an exact invariant
that depends on no stored number.  ``Job.run()`` returns ``(canon, obs)``:
``canon`` holds only the mathematically determined outputs (it feeds the
run's digest; certificates such as theta, particular MC solutions and
witnesses are left out), ``obs`` holds input-property counts.  A failed
check raises ``CheckFailed``.

Every workload has a fixed number of jobs per kind, whatever the seed; the
seed only picks coefficients, supports and basis changes inside each
stratum.  The counts put the p50 and p90 ranks inside dense latency modes,
away from the boundaries between job kinds, so the quantiles do not jump
between modes from seed to seed.

Library names are always looked up on the module at call time
(``lib.bch.bch``), so a tracer installed before ``build`` sees every call.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

WORKLOADS = ("quadratic", "group-law", "cohomology", "deformation")


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


class Job:
    __slots__ = ("kind", "inputs", "run")

    def __init__(self, kind, inputs, run):
        self.kind = kind
        self.inputs = inputs    # JSON-able description of the generated input
        self.run = run


def fmt(v):
    return [str(c) for c in v]


def job_rng(seed, workload, slot):
    return random.Random("%s:%s:%d" % (seed, workload, slot))


def unipotent(n, rng, grading=None):
    """Rows of a random unipotent lower-triangular matrix.

    With a grading, entry (i, j) may be nonzero only when basis vector i is
    strictly deeper than j (a strict filtered change, the identity on the
    associated graded); without one every entry below the diagonal may be.
    """
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Fraction(1))
            elif i > j and (grading is None or grading[j] < grading[i]):
                row.append(Fraction(rng.randint(-1, 1)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


def conjugate(lib, L, rows):
    """L in the basis given by the columns of the matrix ``rows``."""
    M = lib.linalg.Matrix(rows)
    Mi = lib.linalg.inverse(M)
    cols = M.columns()
    brackets = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = Mi.mul_vec(L.bracket(cols[i], cols[j]))
            if any(v):
                brackets[(i, j)] = v
    return lib.lie.LieAlgebra(L.dim, brackets)


def warm(lib, free_classes=(), bch_classes=()):
    """Fill the library's memo caches (free_nilpotent, the Hall rewriters
    it creates, bch_universal) so that jobs measure steady-state work."""
    for k, c in free_classes:
        lib.freelie.free_nilpotent(k, c)
    for c in bch_classes:
        lib.bch.bch_universal(c)


# ---------------------------------------------------------------------------
# quadratic: realize + certify quadratic presentations

# (k, relation count, realization class, jobs): the strata of the
# acceptance-suite generator, which draws k from {2, 3, 3, 4}, between m - 1
# and m relations on the m = k(k-1)/2 pairs, and realizes at class 3 for
# k = 4, else 4.  Every algebra it produces is either stabilized (class <= 2,
# quadratic, with W equal to the input relations) or an infinite algebra
# cut off at class c, which must fail at degree c + 1: with r <= k - 1
# relations, or r <= 4 on k = 4, the Golod-Shafarevich series
# 1/(1 - k t + r t^2) has positive coefficients, and a degenerate 5-relation
# space on k = 4 leaves a free 2-generator factor.
QUAD_STRATA = ((2, 1, 4, 6), (3, 3, 4, 8), (3, 2, 4, 8), (4, 5, 3, 8), (4, 6, 3, 6))
QUAD_VARIANTS = ("plain", "strict", "loose")
CUP_JOBS = 8
GENUS2 = {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}
NEGATIVE_FREE = ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2)) * 2


def _quad_verdict(lib, target, cls):
    """Run the quadcheck on an algebra of class ``cls``; return (verdict, obs)."""
    v = lib.present.is_quadratically_presented(target)
    # A "yes" at class 0 or 1 is returned before stage 2 (the filtered
    # isomorphism search) runs; from class 2 on, a verdict reached stage 2
    # if it is "yes" or if it failed there.
    stage2 = (v.yes and cls >= 2) or v.stage == "lift"
    obs = {"quadchecks": 1, "negative": int(not v.yes), "stage2": int(stage2),
           "newton_class_ge4": int(stage2 and cls >= 4)}
    return v, obs


def _expect_truncation(v, c):
    expect(not v.yes and v.failing_degree == c + 1 and v.stage == "graded",
           "truncation at class %d must fail at degree %d" % (c, c + 1))
    return {"yes": False, "degree": v.failing_degree, "defect": v.defect_dim}


def _roundtrip_job(lib, k, c, rels, variant, conj_seed):
    def run():
        P = lib.present
        rng = random.Random(conj_seed)
        qp = P.QuadraticPresentation(k, rels)
        Q, stabilized = P.realize(qp, c)
        cls = max(Q.grading, default=0)
        target = Q
        if variant != "plain":
            target = conjugate(lib, Q, unipotent(
                Q.dim, rng, Q.grading if variant == "strict" else None))
        v, obs = _quad_verdict(lib, target, cls)
        if not stabilized:
            return _expect_truncation(v, c), obs
        expect(v.yes, "stabilized realization must be quadratic")
        if variant == "loose":
            return {"yes": True}, obs
        expect(lib.linalg.spans_equal(v.W, list(qp.relations)),
               "recovered relation space differs from the input")
        return {"yes": True, "W": [fmt(r) for r in lib.linalg.echelon_basis(v.W)]}, obs
    return run


def _cup_job(lib, pairing, conj_seed):
    def run():
        P = lib.present
        Q, stabilized = P.realize(P.malcev_model(P.CupDatum(4, 1, pairing)), 3)
        expect(not stabilized, "a 4-generator model with one relation is infinite")
        target = conjugate(lib, Q, unipotent(Q.dim, random.Random(conj_seed)))
        v, obs = _quad_verdict(lib, target, 3)
        return _expect_truncation(v, 3), obs
    return run


def _negative_job(lib, k, c, rows):
    def run():
        F = lib.freelie.free_nilpotent(k, c)
        v, obs = _quad_verdict(lib, conjugate(lib, F, rows), c)
        return _expect_truncation(v, c), obs
    return run


def build_quadratic(lib, seed):
    warm(lib, [(k, c) for k in (2, 3) for c in range(2, 6)]
         + [(4, c) for c in range(2, 5)])
    jobs = []
    slot = 0
    for k, nrel, c, count in QUAD_STRATA:
        m = k * (k - 1) // 2
        for n in range(count):
            rng = job_rng(seed, "quadratic", slot)
            slot += 1
            rels = [[0] * m]
            while all(x == 0 for r in rels for x in r):
                rels = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(nrel)]
            variant = QUAD_VARIANTS[n % 3]
            conj_seed = rng.getrandbits(64)
            jobs.append(Job("roundtrip", {"k": k, "c": c, "rels": rels, "variant": variant,
                                          "conj_seed": conj_seed},
                            _roundtrip_job(lib, k, c, rels, variant, conj_seed)))
    for _ in range(CUP_JOBS):
        rng = job_rng(seed, "quadratic", slot)
        slot += 1
        # genus-2 type: the cup pairing g^T w g of H^1 = Q^4 into H^2 = Q,
        # w = e1^e2 + e3^e4, for a random unimodular g (so w stays symplectic)
        g = unipotent(4, rng)
        pairing = [[[int(sum(g[a][i] * w * g[b][j] for (a, b), w in GENUS2.items()))]
                    for j in range(4)] for i in range(4)]
        conj_seed = rng.getrandbits(64)
        jobs.append(Job("cup-model", {"pairing": pairing, "conj_seed": conj_seed},
                        _cup_job(lib, pairing, conj_seed)))
    for k, c in NEGATIVE_FREE:
        rng = job_rng(seed, "quadratic", slot)
        slot += 1
        rows = unipotent(lib.freelie.free_nilpotent(k, c).dim, rng)
        jobs.append(Job("negative", {"k": k, "c": c, "basis_change": [fmt(r) for r in rows]},
                        _negative_job(lib, k, c, rows)))
    return jobs


# ---------------------------------------------------------------------------
# group-law: BCH products, lattice closure, the worked example

# (k, class, jobs per sparse/dense x with/without cls combination).  The
# slowest kind is bch without cls in free_nilpotent(3, 4) (nilpotency_class
# recomputes the LCS); its 16% share puts p90 inside that one mode.  With
# the lattice and demo counts, bch without cls in free_nilpotent(3, 3)
# holds the middle ranks, so p50 falls inside that mode too.
BCH_ALGEBRAS = ((2, 5, 2), (2, 6, 2), (3, 3, 2), (3, 4, 4))
LATTICE2_JOBS, DEMO_JOBS = 4, 4


def _bch_job(lib, L, c, x, y, with_cls):
    def run():
        B = lib.bch
        kw = {"cls": c} if with_cls else {}
        z = B.bch(x, y, L, **kw)
        back = B.bch(z, tuple(-t for t in y), L, **kw)
        expect(back == x, "bch(bch(x, y), -y) != x")
        obs = {"bch_jobs": 1, "sparse": int(sum(1 for t in x if t) <= 3),
               "with_cls": int(with_cls)}
        return fmt(z), obs
    return run


def _lattice2_job(lib, a, b, c):
    def run():
        h = lib.lie.heisenberg()
        basis = [(Fraction(a), Fraction(0), Fraction(0)),
                 (Fraction(0), Fraction(b), Fraction(0)),
                 (Fraction(0), Fraction(0), c)]
        closed = lib.bch.lattice_closed_under_bch(h, basis) is None
        expect(closed == ((Fraction(a * b) / (2 * c)).denominator == 1),
               "class-2 lattice verdict must equal ab/(2c) in Z")
        return {"closed": closed}, {"lattices": 1}
    return run


def _lattice3_job(lib, k, scales):
    """Diagonal lattice in free_nilpotent(k, 3).  Only a 'not closed'
    verdict is checked (its witness must escape); 'closed' is not a proof
    at class >= 3 with the generator-pair test, so it cannot be checked."""
    def run():
        L = lib.freelie.free_nilpotent(k, 3)
        basis = [tuple(s if t == i else Fraction(0) for t in range(L.dim))
                 for i, s in enumerate(scales)]
        witness = lib.bch.lattice_closed_under_bch(L, basis)
        if witness is not None:
            x, y, z = witness
            gens = set(basis) | {tuple(-t for t in v) for v in basis}
            expect(x in gens and y in gens, "witness factors must be +-generators")
            expect(z == lib.bch.bch(x, y, L, cls=3), "witness product is wrong")
            expect(any((t / s).denominator != 1 for t, s in zip(z, scales)),
                   "witness product lies in the lattice")
        return {"closed": witness is None}, {"lattices": 1}
    return run


def _demo_job(lib):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(["heisenberg-demo", "--out", "json"])
        expect(rc == 0, "heisenberg-demo exited %r" % rc)
        verdicts = json.loads(buf.getvalue())["verdicts"]
        expect(verdicts["excluded_as_kaehler_group"] is True,
               "heisenberg-demo did not exclude the group")
        return [s["ok"] for s in verdicts["steps"]], {"demos": 1}
    return run


def _rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def build_group_law(lib, seed):
    warm(lib, [(k, c) for k, c, _ in BCH_ALGEBRAS] + [(2, 3), (3, 3)], range(1, 7))
    jobs = []
    slot = 0
    for k, c, repeats in BCH_ALGEBRAS:
        L = lib.freelie.free_nilpotent(k, c)
        for dense in (False, True):
            for with_cls in (False, True):
                for _ in range(repeats):
                    rng = job_rng(seed, "group-law", slot)
                    slot += 1
                    if dense:
                        x = tuple(_rational(rng) for _ in range(L.dim))
                        y = tuple(_rational(rng) for _ in range(L.dim))
                    else:
                        # support: the k generators, plus one deeper Hall
                        # coordinate when k = 2, so every sparse product
                        # reaches the top class at a similar cost
                        x, y = [Fraction(0)] * L.dim, [Fraction(0)] * L.dim
                        for v in (x, y):
                            support = list(range(k))
                            if k == 2:
                                support.append(rng.randrange(k, L.dim))
                            for i in support:
                                v[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                        x, y = tuple(x), tuple(y)
                    jobs.append(Job("bch", {"k": k, "c": c, "x": fmt(x), "y": fmt(y),
                                            "cls": with_cls},
                                    _bch_job(lib, L, c, x, y, with_cls)))
    for _ in range(LATTICE2_JOBS):
        rng = job_rng(seed, "group-law", slot)
        slot += 1
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        c = Fraction(rng.randint(1, 6), 2)
        jobs.append(Job("lattice", {"class": 2, "abc": [a, b, str(c)]},
                        _lattice2_job(lib, a, b, c)))
    for k in (2, 2, 3, 3):
        rng = job_rng(seed, "group-law", slot)
        slot += 1
        dim = lib.freelie.free_nilpotent(k, 3).dim
        scales = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(dim)]
        jobs.append(Job("lattice", {"class": 3, "k": k, "scales": fmt(scales)},
                        _lattice3_job(lib, k, scales)))
    for _ in range(DEMO_JOBS):
        jobs.append(Job("demo", {"demo": "heisenberg"}, _demo_job(lib)))
    return jobs


# ---------------------------------------------------------------------------
# cohomology: CE complexes, Betti numbers, formality reports

def _filiform4(lib):
    return lib.lie.LieAlgebra(4, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})


def _heisenberg5(lib):
    return lib.lie.LieAlgebra(5, {(0, 1): (0, 0, 0, 0, 1), (2, 3): (0, 0, 0, 0, 1)})


# Jobs per algebra.  By latency the set sorts into heisenberg (75%),
# filiform4 (9%), h+R (13%) and the two dim-5 algebras (3%), so p50 falls
# inside the heisenberg mode and p90 near the middle of the h+R mode, where
# latencies are dense (the tail of a mode is too sparse to give a steady
# quantile).  Most of the time still goes to the dim-4 and dim-5 jobs.
COHOMOLOGY_BASES = (
    ("heisenberg", 48, lambda lib: lib.lie.heisenberg()),
    ("filiform4", 6, _filiform4),
    ("h+R", 8, lambda lib: lib.lie.direct_sum(lib.lie.heisenberg(), lib.lie.abelian(1))),
    ("heisenberg5", 1, _heisenberg5),
    ("F(2,3)", 1, lambda lib: lib.freelie.free_nilpotent(2, 3)),
)


def _rank(rows):
    """Rank of a list of Fraction rows by plain elimination (oracle)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_betti(dim, brackets):
    """Betti numbers of a Lie algebra from its Chevalley-Eilenberg boundary
    d(x_1 ^ ... ^ x_k) = sum_{i<j} (-1)^{i+j} [x_i, x_j] ^ ... (hats) ...,
    computed without the library (its ranks equal those of the cochain
    differential, so the homology and cohomology Betti numbers agree)."""
    from itertools import combinations
    bases = [list(combinations(range(dim), k)) for k in range(dim + 1)]
    index = [{t: i for i, t in enumerate(b)} for b in bases]

    def wedge(m, rest):
        if m in rest:
            return None
        pos = sum(1 for t in rest if t < m)
        return (-1) ** pos, tuple(sorted(rest + (m,)))

    ranks = [0] * (dim + 2)
    for k in range(2, dim + 1):
        rows = []
        for t in bases[k]:
            out = [Fraction(0)] * len(bases[k - 1])
            for a in range(k):
                for b in range(a + 1, k):
                    v = brackets.get((t[a], t[b]))
                    if v is None:
                        continue
                    rest = t[:a] + t[a + 1:b] + t[b + 1:]
                    sign = (-1) ** (a + b)
                    for m, cf in enumerate(v):
                        w = wedge(m, rest) if cf else None
                        if w is not None:
                            out[index[k - 1][w[1]]] += sign * w[0] * cf
            rows.append(out)
        ranks[k] = _rank(rows)
    return [len(bases[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1)]


def _cohomology_job(lib, L, base_betti, rows):
    def run():
        D = lib.dga
        A = D.chevalley_eilenberg(conjugate(lib, L, rows))
        betti = D.cohomology(A).betti()
        expect(betti == base_betti, "Betti numbers changed under a basis change")
        expect(sum((-1) ** n * b for n, b in enumerate(betti)) == 0,
               "Euler characteristic of a nilpotent Lie algebra must vanish")
        expect(betti == betti[::-1], "Poincare duality fails")
        witnesses, undefined = D.formality_consequence_report(A)
        obs = {"massey_triples": betti[1] ** 3, "massey_undefined": undefined}
        return {"betti": betti, "massey_nonvanishing": bool(witnesses)}, obs
    return run


def build_cohomology(lib, seed):
    warm(lib, [(2, 3)])
    jobs = []
    slot = 0
    for name, count, make in COHOMOLOGY_BASES:
        L = make(lib)
        betti = oracle_betti(L.dim, L.brackets)
        for _ in range(count):
            rows = unipotent(L.dim, job_rng(seed, "cohomology", slot))
            slot += 1
            jobs.append(Job("ce-" + name, {"algebra": name,
                                           "basis_change": [fmt(r) for r in rows]},
                            _cohomology_job(lib, L, betti, rows)))
    return jobs


# ---------------------------------------------------------------------------
# deformation: MC staging, obstructions, gauge laws, quasi-isomorphisms

def _closed_kernel(lib, t):
    """Basis of the degree-1 cocycles of a tensor DGLA."""
    n1 = t.dim(1)
    units = [tuple(Fraction(int(s == i)) for s in range(n1)) for i in range(n1)]
    if not t.dim(2):
        return units
    cols = [t.diff(1, u) for u in units]
    return lib.linalg.kernel_basis(lib.linalg.Matrix.from_columns(cols, rows=t.dim(2)))


def _combination(basis, n, rng, lo, hi):
    x = [Fraction(0)] * n
    for v in basis:
        c = rng.randint(lo, hi)
        if c:
            x = [a + c * b for a, b in zip(x, v)]
    return tuple(x)


def _mc_job(lib, A, N, initial):
    def run():
        G = lib.dgla
        report = G.mc_solve(A, N, initial=initial)
        t = G.tensor_dgla(A, N)
        stage2 = report.stages[1].obstructed if len(report.stages) > 1 else None
        if report.completed:
            expect(G.is_mc(t, report.solution), "staged solution is not Maurer-Cartan")
        else:
            e = G.lcs_extension(N, report.stages[-1].level)
            expect(G.is_mc(G.TensorDGLA(A, e.M), report.solution),
                   "partial solution is not Maurer-Cartan over the base")
            expect(not G.lift_system_solvable(A, report.solution, e),
                   "nonzero obstruction but the lift system is solvable")
        first = report.stages[0]
        return {"tangent": first.tangent_dim, "solutions": first.solution_dim,
                "stage2_obstructed": stage2}, {"mc": 1}
    return run


def _obstruction_job(lib, A, e, x):
    def run():
        G = lib.dgla
        classes, _ = G.obstruction_class(A, x, e)
        zero = all(c == 0 for cc in classes for c in cc)
        expect(zero == G.lift_system_solvable(A, x, e),
               "obstruction class and lift solvability disagree")
        return {"zero_class": zero}, {"obstructions": 1, "obstructed": int(not zero)}
    return run


def _gauge_job(lib, t, A0N, gamma, a, b):
    def run():
        G = lib.dgla
        x = G.gauge(t, gamma, t.zero(1))
        expect(G.is_mc(t, x), "gauge orbit left the MC set")
        composed = G.gauge(t, a, G.gauge(t, b, x))
        expect(G.is_mc(t, composed), "gauge orbit left the MC set")
        expect(composed == G.gauge(t, lib.bch.bch(a, b, A0N), x),
               "gauge(a, gauge(b, x)) != gauge(bch(a, b), x)")
        return fmt(composed), {"gauges": 1}
    return run


def _compare_job(lib, phi, N):
    def run():
        out = lib.dgla.compare_def_along_map(phi, N)
        expect(out["etale"] and out["isomorphism"] and out["census_match"],
               "adjoining an acyclic piece must be an isomorphism on deformations")
        return {"census": out["census_source"]}, {"compares": 1}
    return run


DEFORMATION_SOURCES = (
    ("heisenberg", lambda lib: lib.lie.heisenberg()),
    ("abelian3", lambda lib: lib.lie.abelian(3)),
    ("h+R", lambda lib: lib.lie.direct_sum(lib.lie.heisenberg(), lib.lie.abelian(1))),
    ("filiform4", _filiform4),
)
DEFORMATION_COEFFS = (
    ("heisenberg", lambda lib: lib.lie.heisenberg()),
    ("F(2,3)", lambda lib: lib.freelie.free_nilpotent(2, 3)),
    ("F(2,4)", lambda lib: lib.freelie.free_nilpotent(2, 4)),
    ("F(3,2)", lambda lib: lib.freelie.free_nilpotent(3, 2)),
)


# Jobs per (source, coefficient) pair.  The mc jobs (tensor_dgla verify,
# 30-300 ms) are the slow 5% beyond p90, so both quantiles fall inside the
# dense mode of 1-20 ms jobs rather than between the 16 discrete mc costs.
OBSTRUCTION_JOBS, GAUGE_JOBS, COMPARE_JOBS = 5, 10, 4


def build_deformation(lib, seed):
    warm(lib, [(2, 3), (2, 4), (3, 2)], range(1, 5))
    G = lib.dgla
    jobs = []
    slot = 0
    for a_name, make_a in DEFORMATION_SOURCES:
        A = lib.dga.chevalley_eilenberg(make_a(lib))
        B, inclusion = lib.dga.adjoin_acyclic(A, deg=1)
        phi = G.DGAMorphism(A, B, inclusion)
        for n_name, make_n in DEFORMATION_COEFFS:
            N = make_n(lib)
            t = G.TensorDGLA(A, N)   # verified by tensor_dgla in the mc jobs
            A0N = t.degree0_lie_algebra()
            stage1 = _closed_kernel(lib, G.TensorDGLA(A, G.lcs_extension(N, 1).N))
            e2 = G.lcs_extension(N, 2)
            stage2 = _closed_kernel(lib, G.TensorDGLA(A, e2.M))
            n1 = len(stage1[0]) if stage1 else 0
            rng = job_rng(seed, "deformation", slot)
            slot += 1
            tag = {"A": a_name, "N": n_name}
            initial = _combination(stage1, n1, rng, -1, 1)
            jobs.append(Job("mc", dict(tag, initial=fmt(initial)),
                            _mc_job(lib, A, N, initial)))
            for _ in range(OBSTRUCTION_JOBS):
                x = _combination(stage2, len(stage2[0]), rng, -2, 2)
                jobs.append(Job("obstruction", dict(tag, x=fmt(x)),
                                _obstruction_job(lib, A, e2, x)))
            for _ in range(GAUGE_JOBS):
                gamma, a, b = (tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dim(0)))
                               for _ in range(3))
                jobs.append(Job("gauge", dict(tag, gamma=fmt(gamma), a=fmt(a), b=fmt(b)),
                                _gauge_job(lib, t, A0N, gamma, a, b)))
            for _ in range(COMPARE_JOBS):
                jobs.append(Job("compare", tag, _compare_job(lib, phi, N)))
    return jobs


BUILDERS = {
    "quadratic": build_quadratic,
    "group-law": build_group_law,
    "cohomology": build_cohomology,
    "deformation": build_deformation,
}


def build(workload, lib, seed):
    return BUILDERS[workload](lib, seed)


def input_shares(workload, obs):
    """Input-property shares of one pass, from the summed job ``obs``."""
    def share(num, den):
        return obs[num] / obs[den] if obs[den] else 0.0
    if workload == "quadratic":
        return {"negative_verdict_share": share("negative", "quadchecks"),
                "stage2_share": share("stage2", "quadchecks"),
                "newton_class_ge4_share": share("newton_class_ge4", "quadchecks")}
    if workload == "group-law":
        return {"bch_sparse_share": share("sparse", "bch_jobs"),
                "bch_with_cls_share": share("with_cls", "bch_jobs")}
    if workload == "cohomology":
        return {"massey_undefined_share": share("massey_undefined", "massey_triples")}
    return {"obstructed_share": share("obstructed", "obstructions")}
