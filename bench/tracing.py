"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function of the charvar layer
modules (plus the few methods named in ``EXTRA_METHODS``) and rebinds the
wrapper in every charvar module namespace that holds the original, so
calls through ``from .variety import project_batch`` style imports are
seen too.  Each call is a span; spans are aggregated online on a stack:

* ``self_s``   -- span duration minus the time covered by its child spans;
* ``incl_s``   -- duration of outermost spans (a direct recursive call of
  the same function is part of its caller, not a new call);
* ``edge_s``   -- inclusive time of a child span under a named parent.

``calls`` and the probe counters (``matrices``, ``tuples`` ...) count
outermost spans only, because ``exp`` and ``log_near_identity`` recurse
once per matrix on their generic path.  ``layer_metrics`` turns the
aggregates into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYER_MODULES = ("liegroup", "presentation", "variety", "twoform",
                 "seifert", "volume", "cli")

# Methods traced besides the public module-level functions.
EXTRA_METHODS = (
    ("cli", "RunConfig", "from_file"),
    ("twoform", "_Chart", "solve"),
)


def _n_matrices(a) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _probe_matrices(bound, result, tracer):
    return {"matrices": _n_matrices(bound.arguments[
        "X" if "X" in bound.arguments else "g"])}


def _probe_project_batch(bound, result, tracer):
    mats = bound.arguments["mats"]
    _, _, iters, ok = result
    return {"tuples": math.prod(mats.shape[:-3]),
            "gn_iters": int(iters.max()) if iters.size else 0,
            "unconverged": int((~ok).sum())}


def _probe_sample_stream(bound, result, tracer):
    tracer.last_records = result
    return {"samples": int(result.n),
            "converged": int(result.converged.sum()),
            "irreducible": int(result.irreducible.sum())}


def _probe_estimate(bound, result, tracer):
    args = bound.arguments
    est = args["estimator"]
    out = {f"{est}.samples": int(result.samples),
           f"{est}.landings": int(result.landings)}
    rec = tracer.last_records
    if est == "tube" and rec is not None:
        accept = (rec.converged & rec.irreducible
                  & (rec.displacement <= args["distance_gate"]))
        w = rec.density[accept]
        s2 = float((w * w).sum())
        tracer.kish_ess.append(float(w.sum()) ** 2 / s2 if s2 > 0 else 0.0)
    return out


# span name -> probe(bound arguments, result, tracer) -> counter increments
PROBES = {
    "liegroup.exp": _probe_matrices,
    "liegroup.log_near_identity": _probe_matrices,
    "variety.project_batch": _probe_project_batch,
    "volume.sample_stream": _probe_sample_stream,
    "volume.estimate_relative_volume": _probe_estimate,
}


class Tracer:
    """Online span aggregation; ``enter``/``exit`` take explicit clock readings."""

    def __init__(self):
        self.stack = []  # [name, start, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.edge_s = defaultdict(float)
        self.counts = Counter()
        self.kish_ess = []
        self.last_records = None
        self._patched = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str, t: float):
        self.stack.append([name, t, 0.0])

    def exit(self, t: float) -> bool:
        """Close the innermost span; True when it was an outermost call."""
        name, t0, covered = self.stack.pop()
        dur = t - t0
        self.self_s[name] += dur - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
            self.edge_s[(parent[0], name)] += dur
        outermost = parent is None or parent[0] != name
        if outermost:
            self.calls[name] += 1
            self.incl_s[name] += dur
        return outermost

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = tracer.exit(clock())
            if probe and outermost:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in probe(bound, result, tracer).items():
                    tracer.counts[f"{name}.{k}"] += v
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions and rebind them wherever charvar binds them."""
        import charvar

        mods = {n: sys.modules[f"charvar.{n}"] for n in LAYER_MODULES}
        namespaces = [charvar] + [m for n, m in sys.modules.items()
                                  if n.startswith("charvar.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, wrapped)
        for short, cls_name, meth in EXTRA_METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# The layer metrics of the result line: those of layers every workload
# exercises.  The rest read 0 on some workload and go on the detail line.
RESULT_LAYER_METRICS = (
    "variety.cohomology_at.calls", "variety.cohomology_at.self_s",
    "twoform.form_gram.calls", "twoform.form_gram.self_s",
    "liegroup.exp.calls", "liegroup.exp.matrices", "liegroup.exp.self_s",
    "liegroup.log_near_identity.calls", "liegroup.log_near_identity.matrices",
    "liegroup.log_near_identity.self_s",
    "liegroup.haar_sample.self_s", "liegroup.adjoint_matrix.self_s",
    "variety.project_batch.calls", "variety.project_batch.tuples",
    "variety.project_batch.self_s", "variety.gn_iters", "variety.gn_iter_ms",
    "presentation.relator_product.self_s",
    "presentation.relator_differential_matrix.self_s",
    "presentation.coboundary_matrix.self_s",
    "cli.RunConfig.from_file.self_s", "cli.emit.self_s",
    "trace.overhead_s",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, rounds: int) -> dict:
    """Per-layer metrics, per traced round: name -> (value, unit)."""
    per = 1.0 / max(rounds, 1)
    out = {}

    def calls(name, key=None):
        out[key or f"{name}.calls"] = (tr.calls[name] * per, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (tr.self_s[name] * per, "s")

    def count(key, value):
        out[key] = (value * per, "count")

    c = tr.counts
    ss = "volume.sample_stream"
    landing_s = (tr.incl_s[ss] - tr.edge_s[(ss, "variety.project_batch")]
                 - tr.edge_s[(ss, "liegroup.haar_sample")])
    conv = c[f"{ss}.converged"]
    out["volume.per_landing_ms"] = (1e3 * _ratio(landing_s, conv), "ms")
    calls("volume.liouville_density")
    for name in ("variety.cohomology_at", "twoform.form_gram"):
        calls(name)
        self_s(name)
    est = "volume.estimate_relative_volume"
    out["volume.converged_ratio"] = (_ratio(conv, c[f"{ss}.samples"]), "ratio")
    out["volume.irreducible_ratio"] = (_ratio(c[f"{ss}.irreducible"], conv), "ratio")
    for e in ("coarea", "tube"):
        out[f"volume.{e}.accept_ratio"] = (
            _ratio(c[f"{est}.{e}.landings"], c[f"{est}.{e}.samples"]), "ratio")
    ess = sorted(tr.kish_ess)
    out["volume.tube.kish_ess"] = (ess[len(ess) // 2] if ess else 0.0, "count")
    for name in ("liegroup.exp", "liegroup.log_near_identity"):
        calls(name)
        count(f"{name}.matrices", c[f"{name}.matrices"])
        self_s(name)
    self_s("liegroup.haar_sample")
    self_s("liegroup.adjoint_matrix")
    pb = "variety.project_batch"
    calls(pb)
    count(f"{pb}.tuples", c[f"{pb}.tuples"])
    self_s(pb)
    count("variety.gn_iters", c[f"{pb}.gn_iters"])
    out["variety.gn_iter_ms"] = (1e3 * _ratio(tr.incl_s[pb], c[f"{pb}.gn_iters"]), "ms")
    count("variety.unconverged", c[f"{pb}.unconverged"])
    for name in ("presentation.relator_product",
                 "presentation.relator_differential_matrix",
                 "presentation.coboundary_matrix",
                 "twoform.closedness_sweep"):
        self_s(name)
    chart = "twoform._Chart.solve"
    calls(chart, "twoform.chart_solves")
    out["twoform.chart_solve_ms"] = (1e3 * _ratio(tr.incl_s[chart], tr.calls[chart]), "ms")
    for name in ("twoform.kernel_of_form", "variety.is_irreducible",
                 "cli.certification_checks", "cli.RunConfig.from_file",
                 "cli.emit"):
        self_s(name)
    calls("seifert.fiber_holonomy_candidates")
    self_s("seifert.variety_problem")
    return out
