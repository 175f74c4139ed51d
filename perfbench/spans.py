"""Span tracing of the ennola layers from outside the package.

The child side wraps public entry points where their callers look them
up, records one span per call (name, start, end, parent id, counts) in
memory and writes them out when the process ends.  The parent side turns
the spans of many children into per-layer metrics.

A span is named "<module>.<entry>".  Its reported time is its layer self
time: the span's duration minus the time covered by the nearest nested
spans of the same module.  So multiplicities.tau_schur excludes the
exp_u_psi, psi and omega stages it triggers lazily, but includes the
symfunc.to_schur conversion it calls (reported again under symfunc).
poly_gcd is too frequent for spans: its calls and time are counted in
total and attributed to the innermost open multiplicities stage.
"""

from __future__ import annotations

import functools
import json
import os
import time

GCD_STAGE_MODULE = "multiplicities"

# metric name -> unit, in the order the benchmark reports them
LAYER_METRICS = {
    "multiplicities.tau_schur.s": "s",
    "multiplicities.tau_schur.rows": "count",
    "multiplicities.tau_schur.gcd_calls": "count",
    "symfunc.to_schur.s": "s",
    "symfunc.to_schur.calls": "count",
    "multiplicities.psi_schur.s": "s",
    "multiplicities.psi_schur.rows": "count",
    "multiplicities.psi_schur.gcd_calls": "count",
    "multiplicities.omega.s": "s",
    "multiplicities.omega.terms": "count",
    "multiplicities.omega.gcd_calls": "count",
    "hall_littlewood.transformed_hl.s": "s",
    "multiplicities.psi.s": "s",
    "multiplicities.exp_u_psi.s": "s",
    "multiplicities.r_series.s": "s",
    "multiplicities.u_oracle.s": "s",
    "multiplicities.uprime_oracle.s": "s",
    "multiplicities.verify_suite.s": "s",
    "multiplicities.verify_suite.cases": "count",
    "multiplicities.load_cache.s": "s",
    "multiplicities.psi_warm.s": "s",
    "multiplicities.psi_warm.gcd_calls": "count",
    "multiplicities.H_omega.s": "s",
    "types.schur_of_type.s": "s",
    "multiplicities.save_cache.s": "s",
    "multiplicities.save_cache.bytes": "bytes",
    "cli.import.s": "s",
    "characters.kronecker.s": "s",
    "coeffs.poly_gcd.calls": "count",
    "coeffs.poly_gcd.s": "s",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.gcd_calls = 0
        self.gcd_s = 0.0

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None, skip=None):
        """fn wrapped in a span; counts(result, *args) gives the span's
        counts, and skip(*args) true means a memoized call, not traced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span["counts"].update(counts(result, *args))
            return result

        return traced

    def wrap_gcd(self, fn):
        @functools.wraps(fn)
        def traced(a, b):
            t0 = time.perf_counter()
            try:
                return fn(a, b)
            finally:
                self.gcd_s += time.perf_counter() - t0
                self.gcd_calls += 1
                for span in reversed(self._stack):
                    if span["name"].startswith(GCD_STAGE_MODULE + "."):
                        c = span["counts"]
                        c["gcd_calls"] = c.get("gcd_calls", 0) + 1
                        break

        return traced

    def dump(self, path: str) -> None:
        payload = {"spans": self.spans, "gcd_calls": self.gcd_calls, "gcd_s": self.gcd_s}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _series_terms(series, *_args) -> dict:
    return {"terms": sum(len(sf.coeffs) for sf in series.coeffs[1:])}


def _rows(table, *_args) -> dict:
    return {"rows": len(table)}


def _bytes(path, *_args) -> dict:
    return {"bytes": os.path.getsize(path)}


def _cases(report, *_args) -> dict:
    return {"cases": sum(item.cases for item in report.items)}


def install(tracer: Tracer) -> None:
    """Patch each traced name where its caller resolves it at call time."""
    from ennola import cli, coeffs, multiplicities as m
    from ennola.symfunc import SymFunc

    ctx = m.MasterContext
    coeffs.poly_gcd = tracer.wrap_gcd(coeffs.poly_gcd)
    SymFunc.to_schur = tracer.wrap("symfunc.to_schur", SymFunc.to_schur)
    m.transformed_hl = tracer.wrap("hall_littlewood.transformed_hl", m.transformed_hl)
    m.schur_of_type = tracer.wrap("types.schur_of_type", m.schur_of_type)
    kron = tracer.wrap("characters.kronecker", m.kronecker)
    m.kronecker = cli.kronecker = kron

    def lazy_property(attr: str, name: str, counts=None) -> property:
        getter = getattr(ctx, attr).fget
        slot = "_" + attr
        return property(tracer.wrap(name, getter, counts,
                                    skip=lambda self: getattr(self, slot) is not None))

    ctx.omega = lazy_property("omega", "multiplicities.omega", _series_terms)
    ctx.psi = lazy_property("psi", "multiplicities.psi")
    ctx.exp_u_psi = lazy_property("exp_u_psi", "multiplicities.exp_u_psi")
    ctx.r_series = tracer.wrap("multiplicities.r_series", ctx.r_series,
                               skip=lambda self: self._r_series is not None)
    ctx.psi_schur = tracer.wrap("multiplicities.psi_schur", ctx.psi_schur, _rows,
                                skip=lambda self, n: n in self._psi_schur)
    ctx.tau_schur = tracer.wrap("multiplicities.tau_schur", ctx.tau_schur, _rows,
                                skip=lambda self, n: n in self._tau_schur)
    ctx._psi_from_cache = tracer.wrap("multiplicities.psi_warm", ctx._psi_from_cache)
    m.load_cache = tracer.wrap("multiplicities.load_cache", m.load_cache)
    save = tracer.wrap("multiplicities.save_cache", m.save_cache, _bytes)
    m.save_cache = cli.save_cache = save
    m.H_omega = tracer.wrap("multiplicities.H_omega", m.H_omega)
    m.U_poly_product_oracle = tracer.wrap("multiplicities.u_oracle", m.U_poly_product_oracle)
    m.Uprime_poly_product_oracle = tracer.wrap("multiplicities.uprime_oracle",
                                               m.Uprime_poly_product_oracle)
    cli.verify_suite = tracer.wrap("multiplicities.verify_suite", cli.verify_suite, _cases)


# parent side


def layer_self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus that of its nearest nested spans from
    the same module."""
    by_id = {s["id"]: s for s in spans}
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        module = s["name"].split(".", 1)[0]
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"].split(".", 1)[0] == module:
                self_s[parent["id"]] -= s["end"] - s["start"]
                break
            parent = by_id.get(parent["parent"])
    return self_s


class LayerTotals:
    """Per-layer metrics summed over the traced processes of one run."""

    def __init__(self) -> None:
        self.values = {name: 0 for name in LAYER_METRICS}

    def add_process(self, payload: dict) -> None:
        spans = payload["spans"]
        for span, self_s in zip(spans, layer_self_times(spans)):
            name = span["name"]
            self._add(f"{name}.s", self_s)
            self._add(f"{name}.calls", 1)
            for key, count in span["counts"].items():
                self._add(f"{name}.{key}", count)
        self._add("coeffs.poly_gcd.calls", payload["gcd_calls"])
        self._add("coeffs.poly_gcd.s", payload["gcd_s"])

    def _add(self, name: str, value) -> None:
        if name in self.values:
            self.values[name] += value
