"""Spans and counts for the traced benchmark run, recorded from outside the library.

The tracer wraps every public function of every ``qcdiv`` module in each
namespace that binds it, so calls between modules and within one module are
both seen.  ``build_generator`` is wrapped so that every Generator it returns
has its ``eval``/``grad`` callables wrapped too (via ``dataclasses.replace``),
and ``oracles.integrate`` wraps the integrand it is given.  Nothing in the
library's source changes; ``uninstall`` puts every original binding back.

A span is ``(id, parent_id, name_id, op_id, start_ns, end_ns, payload)``.
Spans stay in memory until ``layer_metrics`` folds them into per-layer
numbers at the end of the run.  Self time is a span's duration minus the time
its children cover; the run is single-threaded, so children never overlap and
the covered time is the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import time

LAYERS = ("core", "jensen", "means", "bregman", "statdiv", "oracles", "checks", "cli")
SUITES = ("identities", "first-order", "one-sided-infinity", "delta-positivity",
          "kl-quadrature", "means")
ROOT = -1


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = []
        self._name_ids = {}
        self.records = []
        self.op = ROOT
        self._stack = [ROOT]
        self._ids = itertools.count()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped so that each call records one span named ``name``.

        ``note(args, kwargs, result)`` may return a small payload kept with the
        span (branch flags, panel counts, study lengths).
        """
        nid = self._name_id(name)
        stack, records, ids, clock = self._stack, self.records, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                records.append((sid, parent, nid, self.op, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            payload = note(args, kwargs, out) if note is not None else None
            records.append((sid, parent, nid, self.op, t0, t1, payload))
            return out

        return traced

    def operation(self, op_id: int, name: str, fn):
        """Run fn() as the root span of one benchmark operation."""
        self.op = op_id
        try:
            return self.wrap(name, fn)()
        finally:
            self.op = ROOT

    def reset(self) -> None:
        self.records.clear()

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        lib = self.lib
        ext_real = lib.core.ExtReal

        def ext_note(args, kwargs, out):
            if type(out) is ext_real:
                return (out.is_inf, out.tie_sensitive)
            return None

        integrate_sig = inspect.signature(lib.oracles.integrate)

        def integrate_note(args, kwargs, out):
            bound = integrate_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return (out.panels, out.error_bound > float(bound.arguments["abs_tol"]))

        def limit_note(args, kwargs, out):
            return len(out.ks)

        def suite_note(args, kwargs, out):
            return (out.checked, len(out.failures))

        wrapped = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__
                if not home.startswith("qcdiv."):
                    continue
                if fn not in wrapped:
                    span = f"{home[len('qcdiv.'):]}.{fn.__name__}"
                    if fn is lib.core.build_generator:
                        wrapped[fn] = self._wrap_builder(span, fn)
                    elif fn is lib.oracles.integrate:
                        wrapped[fn] = self._wrap_integrate(span, fn, integrate_note)
                    elif home == "qcdiv.oracles" and fn.__name__.startswith("limit_"):
                        wrapped[fn] = self.wrap(span, fn, limit_note)
                    else:
                        wrapped[fn] = self.wrap(span, fn, ext_note)
                self._rebind(module, name, wrapped[fn])
        # Quadrature reaches statdiv through the densities' methods rather
        # than through module functions, so those methods are wrapped too.
        for cls in vars(lib.statdiv).values():
            if inspect.isclass(cls) and cls.__module__ == "qcdiv.statdiv":
                for name, fn in list(vars(cls).items()):
                    if not name.startswith("_") and inspect.isfunction(fn):
                        self._rebind(cls, name, self.wrap(f"statdiv.{cls.__name__}.{name}", fn))
        suites = lib.checks.SUITES
        for key, fn in list(suites.items()):
            self._restore.append(functools.partial(suites.__setitem__, key, fn))
            suites[key] = self.wrap(f"checks.suite.{key}", fn, suite_note)

    def _rebind(self, owner, name, value) -> None:
        self._restore.append(functools.partial(setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap_builder(self, span: str, fn):
        build = self.wrap(span, fn)

        def build_traced(spec):
            g = build(spec)
            grad = None if g.grad is None else self.wrap("core.gen_grad", g.grad)
            return dataclasses.replace(g, eval=self.wrap("core.gen_eval", g.eval), grad=grad)

        return build_traced

    def _wrap_integrate(self, span: str, fn, note):
        def integrate_traced(f, *args, **kwargs):
            return fn(self.wrap("oracles.integrand", f), *args, **kwargs)

        return self.wrap(span, functools.wraps(fn)(integrate_traced), note)


# --------------------------------------------------------------------------
# Folding spans into per-layer metrics
# --------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (ms) folded from the recorded spans.

    A layer's ``calls`` counts its entries: spans whose parent belongs to
    another layer (or to no span).  Its ``self_ms`` sums the self time of all
    its spans.  ``gen_evals_per_call`` counts ``core.gen_eval`` spans with the
    layer anywhere above them, per entry into the layer.
    """
    # Every span started since the last reset is recorded, so their ids are
    # consecutive; sorting by id puts every parent before its children.
    records = tracer.records
    records.sort()
    base = records[0][0] if records else 0
    names = tracer.names
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    n = len(records)
    name_of = [""] * n
    layer_of = [""] * n
    dur = [0] * n
    covered = [0] * n
    above = [0] * n  # bitmask of the layers on the path above each span
    for sid, parent, nid, _op, t0, t1, _payload in records:
        sid -= base
        parent = parent - base if parent != ROOT else ROOT
        name_of[sid] = names[nid]
        layer_of[sid] = names[nid].split(".", 1)[0]
        dur[sid] = t1 - t0
        if parent != ROOT:
            covered[parent] += t1 - t0
            above[sid] = above[parent] | bit.get(layer_of[parent], 0)

    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    evals_under = dict.fromkeys(LAYERS, 0)
    per_name = {}  # span name -> [calls, total ns, self ns]
    arith_ns = 0
    inf_results = tie_results = 0
    panels = tol_miss = limit_steps = 0
    checks_done = check_failures = 0
    for sid, parent, _nid, _op, _t0, _t1, payload in records:
        sid -= base
        parent = parent - base if parent != ROOT else ROOT
        name, layer = name_of[sid], layer_of[sid]
        own = dur[sid] - covered[sid]
        row = per_name.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += dur[sid]
        row[2] += own
        if layer not in calls:
            continue
        self_ns[layer] += own
        entry = parent == ROOT or layer_of[parent] != layer
        calls[layer] += entry
        if name == "core.gen_eval":
            for other, b in bit.items():
                evals_under[other] += bool(above[sid] & b)
            if parent != ROOT and name_of[parent] == "core.eval_generator":
                arith_ns += dur[sid]
        elif layer == "bregman" and entry and payload is not None:
            inf_results += payload[0]
            tie_results += payload[1]
        elif name == "oracles.integrate" and payload is not None:
            panels += payload[0]
            tol_miss += payload[1]
        elif name.startswith("oracles.limit_"):
            limit_steps += payload or 0
        elif name.startswith("checks.suite.") and payload is not None:
            checks_done += payload[0]
            check_failures += payload[1]

    def count(name):
        return per_name.get(name, (0, 0, 0))[0]

    def ms(name, column):
        return per_name.get(name, (0, 0, 0))[column] / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for fn in ("gen_eval", "gen_grad"):
        out[f"core.{fn}.calls"] = count(f"core.{fn}")
        out[f"core.{fn}.ms"] = ms(f"core.{fn}", 1)
    for fn in ("eval_generator", "gradient", "build_generator"):
        out[f"core.{fn}.calls"] = count(f"core.{fn}")
        out[f"core.{fn}.self_ms"] = ms(f"core.{fn}", 2)
    out["core.arith_share"] = ratio(arith_ns / 1e6, ms("core.eval_generator", 1))
    for layer in ("jensen", "bregman", "means", "statdiv"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
    for layer in ("jensen", "bregman"):
        out[f"{layer}.gen_evals_per_call"] = ratio(evals_under[layer], calls[layer])
    out["bregman.inf_branch_ratio"] = ratio(inf_results, calls["bregman"])
    out["bregman.tie_sensitive"] = tie_results
    integrals = count("oracles.integrate")
    out["oracles.integrate.calls"] = integrals
    out["oracles.integrate.self_ms"] = ms("oracles.integrate", 2)
    out["oracles.integrand.calls"] = count("oracles.integrand")
    out["oracles.integrand.ms"] = ms("oracles.integrand", 1)
    out["oracles.calls_per_integral"] = ratio(count("oracles.integrand"), integrals)
    out["oracles.panels_per_integral"] = ratio(panels, integrals)
    out["oracles.tol_miss"] = tol_miss
    out["oracles.limit.steps"] = limit_steps
    out["oracles.limit.self_ms"] = sum(
        row[2] for name, row in per_name.items() if name.startswith("oracles.limit_")
    ) / 1e6
    for suite in SUITES:
        out[f"checks.{suite}.ms"] = ms(f"checks.suite.{suite}", 1)
    out["checks.checks"] = checks_done
    out["checks.failures"] = check_failures
    return out
