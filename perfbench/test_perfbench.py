"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_toy_call():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def bump(dt):
        clock.t += dt

    def hook(tracer, args, result):
        bump(10.0)      # derived-counter work must not count as span time

    inner = tr.wrap("toy.inner", lambda: bump(2.0), hook)

    def outer_body():
        bump(1.0)
        inner()
        bump(3.0)
        inner()
        bump(0.5)
    outer = tr.wrap("toy.outer", outer_body)
    outer()
    assert tr.calls == {"toy.inner": 2, "toy.outer": 1}
    assert tr.self_s["toy.inner"] == 4.0
    assert tr.self_s["toy.outer"] == 4.5
    spans = {s[1]: s for s in tr.spans}
    outer_id, _, start, end, parent, _ = spans["toy.outer"]
    assert (start, end, parent) == (0.0, 8.5, None)
    assert [s[4] for s in tr.spans if s[1] == "toy.inner"] == [outer_id, outer_id]


def test_install_reaches_every_binding():
    run.fresh_import()
    tr = tracing.Tracer()
    tracing.install(tr)
    pkg = sys.modules["malcev"]
    assert pkg.bch.__wrapped__ is sys.modules["malcev.bch"].bch.__wrapped__
    for mod in ("malcev.dgla", "malcev.present", "malcev.lie"):
        for name in ("bch", "rref", "quotient_by_ideal", "inverse"):
            fn = getattr(sys.modules[mod], name, None)
            assert fn is None or hasattr(fn, "__wrapped__"), (mod, name)
    h = pkg.heisenberg()
    sys.modules["malcev.dgla"].bch(h.basis_vector(0), h.basis_vector(1), h, cls=2)
    assert tr.calls["bch.bch"] == 1 and tr.calls["lie.LieAlgebra.bracket"] >= 1


def _fingerprint(jobs):
    return json.dumps([[j.kind, j.inputs] for j in jobs], sort_keys=True)


def test_seed_fixes_inputs_and_digest():
    for name in workloads.WORKLOADS:
        a = _fingerprint(workloads.build(name, run.fresh_import(), 7))
        b = _fingerprint(workloads.build(name, run.fresh_import(), 7))
        c = _fingerprint(workloads.build(name, run.fresh_import(), 8))
        assert a == b, name
        assert a != c, name
    digests = []
    for _ in range(2):
        jobs = workloads.build("group-law", run.fresh_import(), 7)
        res = run.run_passes(jobs, 0, min_jobs=0, max_passes=1)
        assert res["failed"] == 0, res["first_error"]
        digests.append(res["digest"])
    assert digests[0] == digests[1]


def test_corrupted_result_counts_as_failed():
    lib = run.fresh_import()
    jobs = [j for j in workloads.build("group-law", lib, 7) if j.kind == "bch"][:4]
    good = lib.bch.bch

    def corrupted(x, y, L, cls=None):
        z = good(x, y, L, cls=cls)
        return (z[0] + 1,) + tuple(z[1:])
    lib.bch.bch = corrupted
    res = run.run_passes(jobs, 0, min_jobs=0, max_passes=1)
    assert res["failed"] == len(jobs) == 4


def test_oracle_betti():
    assert workloads.oracle_betti(3, {(0, 1): (0, 0, 1)}) == [1, 2, 2, 1]
    assert workloads.oracle_betti(2, {}) == [1, 2, 1]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()
