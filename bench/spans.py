"""Per-layer spans recorded from outside the library.

``Tracer.install()`` replaces each traced public function of a weakmeas
layer with a wrapper, under its own name, in every ``weakmeas`` module
namespace that holds it: ``cli`` does ``from .protocol import ...``, so
patching the defining module alone would miss those calls. Methods are
patched on their class. Spans are kept in memory while ``active`` and
written out by ``dump``; nothing is recorded outside an op.

A span is (op id, name, parent span index, start, end). Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

# (module, attribute path, span name). Several attributes may share one
# span name: render_csv and render_json are both "cli.render".
TRACED = (
    ("hilbert", "eig_hermitian", "hilbert.eig_hermitian"),
    ("hilbert", "Observable.__init__", "hilbert.Observable"),
    ("hilbert", "evolve_coupling", "hilbert.evolve_coupling"),
    ("hilbert", "trace_distance", "hilbert.trace_distance"),
    ("meters", "momentum_operator", "meters.momentum_operator"),
    ("meters", "position_operator", "meters.position_operator"),
    ("meters", "gaussian_grid_meter", "meters.gaussian_grid_meter"),
    ("meters", "qubit_meter", "meters.qubit_meter"),
    ("protocol", "verify_calibration", "protocol.verify_calibration"),
    ("protocol", "coupled_state", "protocol.coupled_state"),
    ("protocol", "weak_value_extrapolation",
     "protocol.weak_value_extrapolation"),
    ("protocol", "disturbance", "protocol.disturbance"),
    ("protocol", "projective_conditional_expectation",
     "protocol.projective_conditional_expectation"),
    ("oracle", "monte_carlo_run", "oracle.monte_carlo_run"),
    ("oracle", "exact_outcome_distribution",
     "oracle.exact_outcome_distribution"),
    ("oracle", "projective_A_oracle", "oracle.projective_A_oracle"),
    ("cli", "main", "cli.main"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "render_csv", "cli.render"),
    ("cli", "render_json", "cli.render"),
    ("cli", "ExperimentConfig.setup", "cli.ExperimentConfig.setup"),
)

MODULES = ("weakmeas", "weakmeas.hilbert", "weakmeas.protocol",
           "weakmeas.meters", "weakmeas.oracle", "weakmeas.cli")

# bytes the Monte Carlo sampler allocates per trial up front: one Philox
# block of four float64 uniforms (computed from the code, not measured)
MC_BYTES_PER_TRIAL = 32


def _fingerprint(setup) -> str:
    """Content key of the inputs coupled_state reads.

    Cheap on purpose: the full 1024x1024 G is summarised by its shape,
    diagonal and first row, which already differ between any two rho.
    """
    h = hashlib.blake2b(digest_size=16)
    g = setup.meter.G.entries
    for arr in (setup.A.entries, setup.s.amps, setup.meter.m.amps,
                g.diagonal(), g[0]):
        h.update(arr.tobytes())
    h.update(repr(g.shape).encode())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []          # (op, name, parent, t0, t1)
        self.child = []          # summed child duration per span
        self.stack = []
        self.extra = []          # per-span facts: dict or None
        self._saved = []

    # -- patching ------------------------------------------------------

    def install(self):
        mods = [sys.modules[m] for m in MODULES]
        done = {}
        for mod_name, attr, span in TRACED:
            home = sys.modules["weakmeas." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span))
                continue
            orig = getattr(home, attr)
            if orig in done:
                continue
            wrapped = self._wrap(orig, span)
            done[orig] = wrapped
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            info = before(args, kwargs) if before else None
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.child.append(0.0)
            tracer.extra.append(info)
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (tracer.op_id, name, parent, t0, t1)
                if parent >= 0:
                    tracer.child[parent] += t1 - t0
            if after:
                tracer.extra[idx] = after(info, args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self, ops=None) -> dict:
        """Per span name: calls, inclusive and self seconds, facts; over
        the op ids in ``ops``, or over all ops."""
        out = {}
        for (op, name, _, t0, t1), child, info in zip(
                self.spans, self.child, self.extra):
            if ops is not None and op not in ops:
                continue
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0, "facts": []})
            agg["calls"] += 1
            agg["incl_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child
            if info is not None:
                agg["facts"].append((op, info))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((op, name, parent, t0, t1), child) in enumerate(
                    zip(self.spans, self.child)):
                fh.write(json.dumps([i, op, name, parent, t0, t1,
                                     (t1 - t0) - child]) + "\n")


def _eig_before(args, kwargs):
    a = args[0]
    return {"hit": a._decomp is not None, "n": a.dim}


def _coupled_before(args, kwargs):
    setup, eps = args[0], args[1]
    return {"key": (_fingerprint(setup), float(eps))}


def _wv_after(info, args, kwargs, result):
    return {"converged": bool(result.converged)}


def _mc_after(info, args, kwargs, result):
    est = result.estimate
    return {"trials": est.n_trials, "success": est.n_success}


_HOOKS = {
    "hilbert.eig_hermitian": (_eig_before, None),
    "protocol.coupled_state": (_coupled_before, None),
    "protocol.weak_value_extrapolation": (None, _wv_after),
    "oracle.monte_carlo_run": (None, _mc_after),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the recorded spans.

    A layer a workload never calls reads 0 (calls, seconds and ratios).
    """
    tot = tracer.totals()

    def get(name):
        return tot.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                              "facts": []})

    m = {}
    for name in sorted({span for _, _, span in TRACED}):
        agg = get(name)
        m[name + ".calls"] = (agg["calls"], "count")
        m[name + ".self_s"] = (agg["self_s"], "s")

    eig = get("hilbert.eig_hermitian")["facts"]
    hits = sum(1 for _, f in eig if f["hit"])
    m["hilbert.eig_hermitian.hit_ratio"] = (_ratio(hits, len(eig)), "ratio")
    m["hilbert.eig_hermitian.n3_computed"] = (
        sum(f["n"] ** 3 for _, f in eig if not f["hit"]), "n3")

    cs = get("protocol.coupled_state")["facts"]
    m["protocol.coupled_state.unique_ratio"] = (
        _ratio(len({(op, f["key"]) for op, f in cs}), len(cs)), "ratio")

    wv = get("protocol.weak_value_extrapolation")["facts"]
    m["protocol.weak_value_extrapolation.converged_ratio"] = (
        _ratio(sum(f["converged"] for _, f in wv), len(wv)), "ratio")

    mc_agg = get("oracle.monte_carlo_run")
    trials = sum(f["trials"] for _, f in mc_agg["facts"])
    success = sum(f["success"] for _, f in mc_agg["facts"])
    m["oracle.monte_carlo_run.trials_per_s"] = (
        _ratio(trials, mc_agg["incl_s"]), "1/s")
    m["oracle.monte_carlo_run.accept_ratio"] = (_ratio(success, trials),
                                                "ratio")
    m["oracle.monte_carlo_run.bytes_computed"] = (
        trials * MC_BYTES_PER_TRIAL, "B")
    return m
