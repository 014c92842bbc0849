"""Spans and counters around the calls into each `wavemesh` module.

A probe replaces one module attribute with a wrapper that opens a span, calls
the original and closes the span. Each wrapper sits on the name the caller
looks up: `cli` imports `load_mesh`, `estimate_frames`, `assemble_albo`,
`solve_eigs`, `read_container` and `write_container` by name, `network`
reaches `autodiff` through the module and `adam_step` as its own global, and
`corresp.evaluate` calls `geodesic_rows` as a module global. Spans stay in
memory and are written out when the run ends.
"""

import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a root


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span named `name`; return (result, span index)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()
        self.counters[name + ".calls"] += 1
        return result, idx

    def self_seconds(self):
        """Total self time per span name, in seconds."""
        totals = Counter()
        for span, ns in zip(self.spans, self_times(self.spans)):
            totals[span.name] += ns / 1e9
        return totals


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        reach = s.start_ns
        for k in sorted(kids, key=lambda k: k.start_ns):
            lo, hi = max(k.start_ns, reach), min(k.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


# --- what each probe records beyond calls and self time ------------------------


def _file_bytes(tracer, name, idx, args, result):
    tracer.counters[name + ".bytes"] += os.path.getsize(args[0])


def _logit_bytes(tracer, name, idx, args, result):
    n, c = args[0].value.shape
    tracer.counters[name + ".logit_bytes"] += n * c * 8


def _geodesic_sources(tracer, name, idx, args, result):
    mesh, sources = args[0], args[1]
    tracer.counters[name + ".sources"] += len(sources)
    tracer.counters[name + ".sources_x_n"] += len(sources) * mesh.n_vertices


def _spectrum_cache(tracer, name, idx, args, result):
    tracer.counters["cli.spectrum_cache.attempts"] += 1
    tracer.counters["cli.spectrum_cache.hits"] += result is not None


def _bank_cache(tracer, name, idx, args, result):
    if len(args) < 4 or args[2] is None or args[3] is None:
        return  # uncached build
    tracer.counters["cli.bank_cache.attempts"] += 1
    # every span opened after idx is a descendant of this call
    built = any(s.name == "wavelets.build_filterbank"
                for s in tracer.spans[idx + 1:])
    tracer.counters["cli.bank_cache.hits"] += not built


@dataclass(frozen=True)
class Probe:
    name: str       # <module>.<function>, the layer metric prefix
    owner: str      # wavemesh module whose attribute is replaced
    attr: str
    report: tuple = ("calls", "self_s")
    after: object = None


PROBES = (
    Probe("synth.make_dataset", "synth", "make_dataset"),
    Probe("mesh.load_mesh", "cli", "load_mesh"),
    Probe("curvature.estimate_frames", "cli", "estimate_frames"),
    Probe("operators.assemble_albo", "cli", "assemble_albo"),
    Probe("spectrum.solve_eigs", "cli", "solve_eigs"),
    Probe("wavelets.build_filterbank", "wavelets", "build_filterbank"),
    Probe("containers.write_container", "cli", "write_container",
          ("calls", "self_s", "bytes"), _file_bytes),
    Probe("containers.read_container", "cli", "read_container",
          ("calls", "self_s", "bytes"), _file_bytes),
    Probe("cli._load_spectrum", "cli", "_load_spectrum", (), _spectrum_cache),
    Probe("cli.build_bank", "cli", "build_bank", (), _bank_cache),
    Probe("cli.run_training", "cli", "run_training", ("self_s",)),
    Probe("cli.run_evaluation", "cli", "run_evaluation", ("self_s",)),
    Probe("autodiff.wavelet_mix", "autodiff", "wavelet_mix"),
    Probe("autodiff.softmax_cross_entropy", "autodiff", "softmax_cross_entropy",
          ("calls", "self_s", "logit_bytes"), _logit_bytes),
    Probe("autodiff.backward", "autodiff", "backward"),
    Probe("network.adam_step", "network", "adam_step"),
    Probe("network.train", "network", "train", ("self_s",)),
    Probe("network.descriptors", "network", "descriptors"),
    Probe("corresp.match_nn", "corresp", "match_nn"),
    Probe("corresp.geodesic_rows", "corresp", "geodesic_rows",
          ("calls", "self_s", "sources", "sources_x_n"), _geodesic_sources),
    Probe("corresp.evaluate", "corresp", "evaluate", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "logit_bytes": "B",
         "sources": "count", "sources_x_n": "count"}

# per-layer metric name -> unit, in report order
PER_LAYER = {f"{p.name}.{key}": UNITS[key] for p in PROBES for key in p.report}
PER_LAYER |= {"cli.spectrum_cache.hit_ratio": "ratio",
              "cli.bank_cache.hit_ratio": "ratio",
              "trace.overhead_frac": "ratio"}


def _wrap(tracer, probe, fn):
    def wrapper(*args, **kwargs):
        result, idx = tracer.call(probe.name, fn, args, kwargs)
        if probe.after is not None:
            probe.after(tracer, probe.name, idx, args, result)
        return result
    return wrapper


class Probes:
    """Installs every probe on enter and restores the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for probe in PROBES:
            owner = importlib.import_module(f"wavemesh.{probe.owner}")
            fn = getattr(owner, probe.attr)
            self._saved.append((owner, probe.attr, fn))
            setattr(owner, probe.attr, _wrap(self.tracer, probe, fn))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False


def _hit_ratio(counters, cache):
    attempts = counters[f"cli.{cache}.attempts"]
    return counters[f"cli.{cache}.hits"] / attempts if attempts else 0.0


def layer_metrics(tracer):
    """Every per-layer metric except trace.overhead_frac."""
    self_s = tracer.self_seconds()
    out = {}
    for probe in PROBES:
        for key in probe.report:
            name = f"{probe.name}.{key}"
            out[name] = self_s[probe.name] if key == "self_s" else tracer.counters[name]
    for cache in ("spectrum_cache", "bank_cache"):
        out[f"cli.{cache}.hit_ratio"] = _hit_ratio(tracer.counters, cache)
    return out
