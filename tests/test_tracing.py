"""Smoke test of the benchmark's layer tracer (``bench/tracing.py``) on the
current package: a traced ``volume`` and ``certify`` run through the CLI
count their probes, and uninstalling puts every binding back."""

import inspect
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracing import EXTRA_METHODS, Tracer, layer_metrics  # noqa: E402

import charvar  # noqa: E402
from charvar import cli  # noqa: E402


def _bindings():
    """Every function bound in a charvar namespace, and every traced method."""
    namespaces = [charvar] + [m for n, m in sorted(sys.modules.items())
                              if n.startswith("charvar.")]
    out = {(ns.__name__, attr): obj for ns in namespaces
           for attr, obj in vars(ns).items() if inspect.isfunction(obj)}
    for short, cls_name, meth in EXTRA_METHODS:
        cls = getattr(sys.modules[f"charvar.{short}"], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_traced_volume_and_certify_runs(tmp_path):
    base = {"group": {"family": "SU", "rank": 2},
            "problem": {"type": "surface", "genus": 2}, "seed": 11,
            "volume": {"n_samples": 400, "residual_gate": 1.5, "distance_gate": 1.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base))
    point, report = str(tmp_path / "point.json"), str(tmp_path / "report.json")
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        assert cli.main(["volume", "--config", str(cfg), "--out",
                         str(tmp_path / "volume.json"), "--quiet"]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--out", point, "--quiet"]) == 0
        assert cli.main(["certify", "--config", str(cfg), "--point", point,
                         "--out", report, "--quiet"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for counter in ("liegroup.exp.matrices", "variety.project_batch.tuples",
                    "variety.project_batch.gn_iters", "volume.sample_stream.samples",
                    "volume.sample_stream.converged"):
        assert tracer.counts[counter] > 0, counter
    metrics = layer_metrics(tracer, 1)
    assert metrics["variety.project_batch.calls"][0] > 0
    assert tracer.calls["twoform.closedness_defect"] == 1
    assert metrics["presentation.relator_differential_matrix.self_s"][0] > 0
