"""malcev benchmark: seeded exact-arithmetic workloads in a closed loop.

    python3 perfbench/run.py --workload quadratic --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ``src/``).  One
caller, no threads: the next job starts when the last one returns.  A pass
runs every job of the workload's fixed job set once; the timed phase runs
whole passes until the next one would end after ``--seconds`` (and at least
MIN_JOBS jobs, so that ten samples lie beyond p90).

Timings are normalized for host speed.  The shared host's speed drifts by
up to +-25% within seconds (a fixed Fraction loop ran in 0.09-0.20 s over one
minute), which affects all Python code alike.  So a calibration kernel
(stdlib ``Fraction`` arithmetic only, no malcev code) runs between jobs, and
each job or set-up time is scaled by CAL_REFERENCE_S / (the mean of the
kernel's times measured right before and right after it): times read as on a
host where the kernel takes CAL_REFERENCE_S.  Raw wall-clock figures are
printed as well.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run of the same seed, plus the
tracing overhead and a per-module self-time table (per-layer times are
raw traced wall clock, per pass).  Earlier lines are for people; the last
line of standard output is the JSON result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100
SETUP_REPEATS = 5
CAL_REFERENCE_S = 0.0008
CAL_SAMPLES = 5

END_TO_END = [
    ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

# Per-layer metrics of the traced run: all per pass of the job set, except
# the two memo-cached constructors, which do their work during set-up.
SETUP_PHASE = ("freelie.free_nilpotent.self_s", "bch.bch_universal.self_s")
CALLS_AND_SELF = [
    "linalg.rref", "linalg.inverse", "linalg.IncrementalSpan.reduce",
    "linalg.solve_affine", "linalg.kernel_basis", "linalg.echelon_basis",
    "linalg.smith_normal_form", "lie.LieAlgebra.bracket",
    "lie.lower_central_series", "lie.quotient_by_ideal", "lie.LieIdeal.is_ideal",
    "lie.LieAlgebra.check_jacobi", "freelie.graded_ideal_closure", "bch.bch",
    "bch.lattice_closed_under_bch", "bch.evaluate_word", "dga.FiniteDGA.validate",
    "dga.FiniteDGA.product", "dga.massey_triple", "dga.cohomology",
    "dgla.TensorDGLA.bracket",
]
SELF_ONLY = [
    "dgla.TensorDGLA.verify", "dgla.mc_solve", "dgla.obstruction_class",
    "dgla.lift_system_solvable", "dgla.gauge", "dgla.lcs_extension",
    "present.realize", "present.is_quadratically_presented",
    "present.lift_one_class", "cli.main", "cli.report",
]
PRODUCT_SPLIT = ["in_validate", "in_tensor_bracket", "other"]
MODULE_ROWS = list(tracing.MODULES) + ["bench"]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    spec.append(("linalg.rref.cells", "count", "lower"))
    for where in PRODUCT_SPLIT:
        base = "dga.FiniteDGA.product." + where
        spec += [(base + ".calls", "count", "lower"), (base + ".self_s", "s", "lower")]
    spec += [(name + ".self_s", "s", "lower") for name in SELF_ONLY]
    spec += [(name, "s", "lower") for name in SETUP_PHASE]
    spec += [
        ("lie.bracket.useful_ratio", "ratio", "higher"),
        ("bch.brackets_per_product", "ratio", "lower"),
        ("dgla.products_per_bracket", "ratio", "lower"),
        ("dga.massey_undefined_share", "share", "lower"),
        ("verify_share", "share", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
    spec += [("module.%s.self_share" % m, "share", "lower") for m in MODULE_ROWS]
    return spec


def calibrate():
    """Median seconds of CAL_SAMPLES runs of a fixed exact-arithmetic loop
    that uses no malcev code (the median drops runs that were preempted)."""
    times = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 101):
            s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fresh_import():
    """Import malcev from scratch (empty memo caches) and return its modules."""
    for name in [n for n in sys.modules if n == "malcev" or n.startswith("malcev.")]:
        del sys.modules[name]
    importlib.import_module("malcev")
    return types.SimpleNamespace(**{m: importlib.import_module("malcev." + m)
                                    for m in tracing.MODULES})


def run_passes(jobs, seconds, tracer=None, min_jobs=MIN_JOBS, max_passes=None):
    """Closed-loop timed phase.  Returns a dict of raw results."""
    latencies = []      # normalized for host speed
    raw = []
    failed = 0
    first_canon = None
    obs = Counter()
    first_error = None
    passes = 0
    elapsed = 0.0
    clock = time.perf_counter
    # Set-up objects live for the whole run: move them out of the cyclic
    # collector's reach, so that a collection triggered inside a job scans
    # only what jobs allocate (otherwise full collections over the set-up
    # heap land on random jobs and dominate their latency noise).
    gc.collect()
    gc.freeze()
    cal = calibrate()
    while True:
        pass_start = clock()
        canon = []
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = "%d.%d" % (passes, idx)
                tracer.enter("job")
            t0 = clock()
            try:
                out, job_obs = job.run()
            except Exception:  # a failed job is counted, the run goes on
                out, job_obs = None, {}
                if first_error is None:
                    first_error = "%s job %d: %s" % (job.kind, idx, traceback.format_exc())
            dt = clock() - t0
            if tracer is not None:
                tracer.leave()
            cal_after = calibrate()
            raw.append(dt)
            latencies.append(dt * 2 * CAL_REFERENCE_S / (cal + cal_after))
            cal = cal_after
            if first_canon is not None and out != first_canon[idx]:
                out = None   # output differs from the first pass
            if out is None:
                failed += 1
            canon.append(out)
            if passes == 0:
                obs.update(job_obs)
        pass_time = clock() - pass_start
        elapsed += pass_time
        passes += 1
        if first_canon is None:
            first_canon = canon
        if max_passes is not None and passes >= max_passes:
            break
        if len(latencies) >= min_jobs and elapsed + pass_time > seconds:
            break
    payload = json.dumps(first_canon, sort_keys=True, separators=(",", ":"))
    return {"latencies": latencies, "raw": raw, "failed": failed, "passes": passes,
            "elapsed": elapsed, "obs": obs, "first_error": first_error,
            "digest": hashlib.sha256(payload.encode()).hexdigest()}


def latency_ms(latencies):
    return (statistics.median(latencies) * 1000,
            statistics.quantiles(latencies, n=10)[8] * 1000)


def header(workload, seed, jobs, res):
    kinds = Counter(j.kind for j in jobs)
    src = os.path.join(ROOT, "src", "malcev")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    print("malcev %d source lines, python %s, nproc %d" % (
        lines, sys.version.split()[0], os.cpu_count()))
    print("workload %s  seed %s  passes %d  jobs %d (per pass %d: %s)" % (
        workload, seed, res["passes"], len(res["latencies"]), len(jobs),
        ", ".join("%s %d" % kv for kv in sorted(kinds.items()))))
    shares = workloads.input_shares(workload, res["obs"])
    print("input shares: " + ", ".join("%s %.4f" % kv for kv in shares.items()))
    print("digest sha256:%s" % res["digest"])
    if res["first_error"]:
        print("first failure: " + res["first_error"], file=sys.stderr)


def setup_once(workload, seed):
    """Import malcev afresh and build the job set; return (jobs, set-up time
    normalized for host speed)."""
    cal = calibrate()
    t0 = time.perf_counter()
    jobs = workloads.build(workload, fresh_import(), seed)
    dt = time.perf_counter() - t0
    return jobs, dt * 2 * CAL_REFERENCE_S / (cal + calibrate())


def setup_in_child(workload, seed):
    """Time one set-up in a forked child and return its time.  The child's
    heap never counts towards this process's peak RSS."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            os.write(w, repr(setup_once(workload, seed)[1]).encode())
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("set-up failed in a child process")
    return float(data)


def timed_run(workload, seed, seconds):
    # SETUP_REPEATS - 1 set-ups in children, then the one this process uses:
    # all start from the same state (malcev not yet imported), and the
    # process that reports peak_rss_mb does one set-up and the timed phase.
    setup_times = [setup_in_child(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    jobs, dt = setup_once(workload, seed)
    setup_times.append(dt)
    res = run_passes(jobs, seconds)
    n = len(res["latencies"])
    p50, p90 = latency_ms(res["latencies"])
    metrics = {
        "jobs_per_s": n / sum(res["latencies"]),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    header(workload, seed, jobs, res)
    for (name, unit) in END_TO_END:
        print("  %-12s %14.4f %s" % (name, metrics[name], unit))
    print("  %-12s %14.4f share (%d of %d jobs); latency samples %d" % (
        "failed_share", res["failed"] / n, res["failed"], n, n))
    raw50, raw90 = latency_ms(res["raw"])
    print("  raw wall clock: %.4f jobs/s over job time, %.4f jobs/s over the timed "
          "phase, p50 %.4f ms, p90 %.4f ms" % (n / sum(res["raw"]), n / res["elapsed"],
                                               raw50, raw90))
    return res, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(workload, seed, seconds):
    # untraced reference pass of the same job set, for the overhead ratio
    ref = run_passes(workloads.build(workload, fresh_import(), seed), seconds,
                     min_jobs=0, max_passes=1)
    ref_rate = len(ref["latencies"]) / sum(ref["latencies"])

    lib = fresh_import()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.job = "setup"
    tracer.enter("setup")
    jobs = workloads.build(workload, lib, seed)
    tracer.leave()
    setup_calls, setup_self = Counter(tracer.calls), Counter(tracer.self_s)
    setup_counts, setup_split = Counter(tracer.counts), Counter(tracer.split_s)
    setup_verify = tracer.verify_s
    res = run_passes(jobs, seconds, tracer=tracer, min_jobs=0)
    P = res["passes"]
    calls = tracer.calls - setup_calls
    self_s = tracer.self_s - setup_self
    counts = tracer.counts - setup_counts
    split = tracer.split_s - setup_split
    job_time = sum(self_s.values())   # self times partition the job spans

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in CALLS_AND_SELF:
        m[name + ".calls"] = calls[name] / P
        m[name + ".self_s"] = self_s[name] / P
    m["linalg.rref.cells"] = counts["linalg.rref.cells"] / P
    for where in PRODUCT_SPLIT:
        base = "dga.FiniteDGA.product." + where
        m[base + ".calls"] = counts[base + ".calls"] / P
        m[base + ".self_s"] = split[base + ".self_s"] / P
    for name in SELF_ONLY:
        m[name + ".self_s"] = self_s[name] / P
    for name in SETUP_PHASE:
        m[name] = float(setup_self[name[:-len(".self_s")]])
    m["lie.bracket.useful_ratio"] = ratio(counts["lie.bracket.useful"],
                                          counts["lie.bracket.visited"])
    m["bch.brackets_per_product"] = ratio(counts["bch.brackets_in_bch"], calls["bch.bch"])
    m["dgla.products_per_bracket"] = ratio(
        counts["dga.FiniteDGA.product.in_tensor_bracket.calls"],
        calls["dgla.TensorDGLA.bracket"])
    m["dga.massey_undefined_share"] = ratio(res["obs"]["massey_undefined"],
                                            res["obs"]["massey_triples"])
    m["verify_share"] = ratio(tracer.verify_s - setup_verify, job_time)
    traced_rate = len(res["latencies"]) / sum(res["latencies"])
    m["trace_overhead"] = ratio(ref_rate, traced_rate)
    module_self = Counter()
    for name, v in self_s.items():
        module_self[name.split(".")[0] if name != "job" else "bench"] += v
    for row in MODULE_ROWS:
        m["module.%s.self_share" % row] = ratio(module_self[row], job_time)

    header(workload, seed, jobs, res)
    print("traced: %d jobs, %.2f jobs/s; untraced reference pass %.2f jobs/s; "
          "overhead x%.3f" % (len(res["latencies"]), traced_rate, ref_rate,
                              m["trace_overhead"]))
    print("self time by module (share of traced job time, per pass):")
    for row, v in sorted(module_self.items(), key=lambda kv: -kv[1]):
        print("  %-8s %6.1f%%  %.4f s" % (row, 100 * ratio(v, job_time), v / P))
    with open(os.path.join(HERE, "meta.json")) as f:
        expected = json.load(f)["dominant_module"][workload]
    top = max(module_self, key=module_self.get)
    print("largest self-time share: %s; meta.json expects %s: %s" % (
        top, expected, "match" if top == expected else "MISMATCH"))
    print("top functions by self time (per pass):")
    for name, v in self_s.most_common(12):
        print("  %-40s %10.4f s  %10.1f calls" % (name, v / P, calls[name] / P))
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-%s.tsv" % (workload, seed))
    tracer.write(path)
    print("spans: %d recorded, first %d written to %s" % (
        tracer.next_id, len(tracer.spans), os.path.relpath(path, ROOT)))
    return res, {name: {"value": m[name], "unit": unit}
                 for name, unit, _ in per_layer_spec()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "malcev", "__init__.py")):
        print("error: %s/malcev not found; run from a full checkout" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    run = traced_run if args.trace else timed_run
    res, metrics = run(args.workload, args.seed, args.seconds)
    n = len(res["latencies"])
    print(json.dumps({"correct": res["failed"] == 0, "attempted": n,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
