"""Outside-in span tracer for the malcev benchmark.

The tracer wraps library functions from the outside: no code in
``src/malcev`` changes.  Because the library modules import names directly
(``from .linalg import rref``), a function is replaced in *every* malcev
namespace that binds it, including the package re-exports; methods are
replaced on their class.  ``install`` must therefore run after the modules
are imported and before any benchmark code fetches a library name.

Each wrapped call is one span (name, start, end, parent, job).  Self time is
computed online as the span's duration minus the durations of its direct
children; spans are single-threaded and strictly nested, so this equals the
span minus the part of it that child spans cover.  The first ``SPAN_CAP``
spans are kept in memory and written out when the run ends.

Micro-helpers (``scalar``, ``vec_*``, ``Matrix.column``, ``basis_vector``)
are deliberately not wrapped: they are called millions of times and the
wrapper would cost more than the work it measures.  Their time lands in the
self time of the traced caller.
"""

import collections
import functools
import importlib
import time

MODULES = ("linalg", "lie", "freelie", "bch", "dga", "dgla", "present", "cli")
SPAN_CAP = 200_000      # spans kept in memory for the span file

# Functions wrapped per module: ``name`` or ``Class.method``.  The named
# per-layer metrics of the benchmark are all here; the others are the
# remaining entry points of substantial work, so that the per-module
# self-time table attributes time to the module that spends it.
TRACED = {
    "linalg": ["rref", "rank", "det", "inverse", "kernel_basis", "solve_affine",
               "echelon_basis", "IncrementalSpan.reduce", "span_contains",
               "spans_equal", "coords_in_basis", "smith_normal_form",
               "Matrix.__mul__"],
    "lie": ["LieAlgebra.__init__", "LieAlgebra.bracket", "LieAlgebra.check_jacobi",
            "LieIdeal.__init__", "LieIdeal.is_ideal", "lower_central_series",
            "nilpotency_class", "adapted_basis", "associated_graded",
            "direct_sum", "check_automorphism", "quotient_by_ideal"],
    "freelie": ["hall_basis", "HallRewriter.bracket", "free_nilpotent",
                "graded_ideal_closure"],
    "bch": ["bch_universal", "bch", "evaluate_word", "check_representation",
            "lattice_membership_test", "lattice_closed_under_bch",
            "commutator_index"],
    "dga": ["FiniteDGA.product", "FiniteDGA.validate", "CohomologyData.__init__",
            "CohomologyData.class_coordinates", "cohomology", "cohomology_ring",
            "adjoin_acyclic", "chevalley_eilenberg", "massey_triple",
            "formality_consequence_report"],
    "dgla": ["TensorDGLA.bracket", "TensorDGLA.diff", "TensorDGLA.verify",
             "TensorDGLA.degree0_lie_algebra", "tensor_dgla", "mc_residual",
             "is_mc", "gauge", "SmallExtensionSpec.section", "lcs_extension",
             "obstruction_class", "lift_system_solvable", "mc_solve",
             "gauge_equivalent", "DGAMorphism.verify", "deformation_census",
             "compare_def_along_map"],
    "present": ["realize", "is_quadratically_presented", "_filtered_iso",
                "direct_summand_quadratic", "malcev_model", "lift_one_class"],
    "cli": ["main", "report"],
}

# Spans whose time counts as verification (re-checking axioms of data the
# library built itself).  Nested ones are counted once.
VERIFY = frozenset({
    "dga.FiniteDGA.validate", "dgla.TensorDGLA.verify",
    "lie.LieAlgebra.check_jacobi", "lie.LieIdeal.is_ideal",
    "bch.check_representation",
})

PRODUCT_PARENTS = {"dga.FiniteDGA.validate": "in_validate",
                   "dgla.TensorDGLA.bracket": "in_tensor_bracket"}


class Tracer:
    """Span recorder with online self-time accounting.

    ``clock`` is injectable so the accounting can be tested exactly.  Time
    spent computing derived counters (``excluded``) is subtracted from every
    later timestamp, so it inflates no span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.excluded = 0.0
        self.stack = []          # frames: [name, start, child_time, span_id]
        self.next_id = 0
        self.job = None
        self.spans = []          # (span_id, name, start, end, parent_id, job)
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.active = collections.Counter()
        self.counts = collections.Counter()
        self.split_s = collections.Counter()
        self.verify_s = 0.0
        self.verify_depth = 0
        self.last_dur = 0.0

    def now(self):
        return self.clock() - self.excluded

    def enter(self, name):
        self.active[name] += 1
        if name in VERIFY:
            self.verify_depth += 1
        self.stack.append([name, self.now(), 0.0, self.next_id])
        self.next_id += 1

    def leave(self):
        end = self.now()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if name in VERIFY:
            self.verify_depth -= 1
            if self.verify_depth == 0:
                self.verify_s += dur
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.job))
        self.last_dur = dur

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span; hook(tracer, args, result) runs
        afterwards, with the caller's span on top of the stack, in excluded
        time, to update derived counters."""
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                t0 = self.clock()
                hook(self, args, result)
                self.excluded += self.clock() - t0
            return result
        return traced

    def write(self, path):
        """Write the kept spans as tab-separated lines."""
        with open(path, "w") as f:
            f.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for span_id, name, start, end, parent, job in self.spans:
                f.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % (
                    span_id, name, start, end,
                    "" if parent is None else parent, job))


def _rref_hook(tracer, args, result):
    m = args[0]
    tracer.counts["linalg.rref.cells"] += m.rows * m.cols


def _bracket_hook(tracer, args, result):
    L, x, y = args[0], args[1], args[2]
    useful = 0
    for (i, j) in L.brackets:
        xi, yj, xj, yi = x[i], y[j], x[j], y[i]
        if (xi * yj if xi and yj else 0) != (xj * yi if xj and yi else 0):
            useful += 1
    tracer.counts["lie.bracket.visited"] += len(L.brackets)
    tracer.counts["lie.bracket.useful"] += useful
    if tracer.active["bch.bch"]:
        tracer.counts["bch.brackets_in_bch"] += 1


def _product_hook(tracer, args, result):
    """FiniteDGA.product split by parent span (it has no traced children,
    so its duration is its self time)."""
    where = PRODUCT_PARENTS.get(tracer.parent_name(), "other")
    tracer.counts["dga.FiniteDGA.product.%s.calls" % where] += 1
    tracer.split_s["dga.FiniteDGA.product.%s.self_s" % where] += tracer.last_dur


HOOKS = {
    "linalg.rref": _rref_hook,
    "lie.LieAlgebra.bracket": _bracket_hook,
    "dga.FiniteDGA.product": _product_hook,
}


def install(tracer):
    """Wrap every function in TRACED in every malcev namespace that binds it.

    A listed name that is missing raises, so a renamed library function
    cannot silently drop out of the trace.
    """
    modules = [importlib.import_module("malcev." + m) for m in MODULES]
    namespaces = [importlib.import_module("malcev")] + modules
    for mod_name, mod in zip(MODULES, modules):
        for qual in TRACED[mod_name]:
            name = mod_name + "." + qual
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], HOOKS.get(name)))
                continue
            fn = getattr(mod, qual)
            wrapped = tracer.wrap(name, fn, HOOKS.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
