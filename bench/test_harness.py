"""Self-test of the benchmark harness on synthetic spans and samples.

    python3 -m pytest bench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import RESULT_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import Op, OpResult, end_to_end, percentile  # noqa: E402


def replay(tracer, events):
    """Feed (name, t) enters and (None, t) exits to the tracer."""
    for name, t in events:
        if name is None:
            tracer.exit(t)
        else:
            tracer.enter(name, t)


def test_self_time_subtracts_nested_children():
    tr = Tracer()
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,7]
    replay(tr, [("a", 0), ("b", 1), ("c", 2), (None, 3), (None, 4),
                ("b", 5), (None, 7), (None, 10)])
    assert dict(tr.self_s) == {"a": 5, "b": 4, "c": 1}
    assert dict(tr.incl_s) == {"a": 10, "b": 5, "c": 1}
    assert tr.edge_s[("a", "b")] == 5 and tr.edge_s[("b", "c")] == 1
    assert dict(tr.calls) == {"a": 1, "b": 2, "c": 1}
    assert tr.stack == []


def test_direct_recursion_counts_one_call():
    tr = Tracer()
    # exp[0,10] recurses into exp[1,3] and exp[4,6]; the latter calls p[5,5.5]
    replay(tr, [("exp", 0), ("exp", 1), (None, 3), ("exp", 4), ("p", 5),
                (None, 5.5), (None, 6), (None, 10)])
    assert tr.calls["exp"] == 1
    assert tr.incl_s["exp"] == 10
    assert tr.self_s["exp"] == 9.5
    assert tr.self_s["p"] == 0.5


def test_installed_wrappers_cover_every_binding():
    import charvar
    from charvar import liegroup, variety, volume

    original = variety.project_batch
    tr = Tracer()
    tr.install()
    try:
        assert volume.project_batch is variety.project_batch is not original
        assert charvar.exp is liegroup.exp
        spec = liegroup.GroupSpec("SU", 3)
        X = liegroup.random_algebra(spec, np.random.default_rng(0), size=4)
        liegroup.exp(spec, X)
    finally:
        tr.uninstall()
    assert variety.project_batch is original and volume.project_batch is original
    assert tr.calls["liegroup.exp"] == 1
    assert tr.counts["liegroup.exp.matrices"] == 4


def test_percentile_keeps_ten_samples_beyond():
    assert percentile(range(200), 0.95) == 189
    assert percentile(range(199), 0.95) is None
    assert percentile(range(20), 0.5) == 9
    assert percentile(range(19), 0.5) is None


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    res = OpResult(Op("solve", "su2_minus", 1, Path("out.json")), 0.5, 0, b"{}")
    e2e = end_to_end([[res]], [1.0])
    layer = layer_metrics(Tracer(), 1)
    layer["trace.overhead_s"] = (0.0, "s")
    layer = {k: layer[k] for k in RESULT_LAYER_METRICS}
    for section, printed in (("end_to_end", e2e), ("per_layer", layer)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == {k: unit for k, (_, unit) in printed.items()}
        assert all(run.METRIC_NAME.fullmatch(name) for name in declared)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
