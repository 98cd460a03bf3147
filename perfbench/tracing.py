"""Outside-in layer trace of one benchmark child.

Nothing inside ``rmp`` is changed: the child replaces public functions
at the module attributes their callers look up (``rmp.cli.load_spec``,
``rmp.estimators.sample_triples``, ``rmp.clt.chain_log_norms``, ...) with
wrappers that record a span around each call.  A span is (id, parent,
request, name, start, end, attrs); spans stay in memory and the child
writes them out when it ends.  The first component of a span name is
its layer: one of the modules ``cli``, ``distributions``, ``estimators``,
``product``, ``parallel`` and ``clt``.

``layer_metrics`` turns the spans of one child into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager

LAYERS = ("cli", "distributions", "estimators", "product", "parallel", "clt")

_ESTIMATE_SPANS = ("estimators.estimate_lambda_mc", "estimators.estimate_sigma2_mc")
_SAMPLE = "distributions.sample_triples"
_STREAM = "distributions.make_stream"


class Tracer:
    """In-memory span recorder; safe to use from worker threads."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record ``name`` around the block; yields its attrs dict.

        The parent is the innermost open span of this thread, unless
        given (a chunk run on a pool thread names its map_chunks call).
        """
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "request": self.request,
                 "name": name, "start": start, "end": end, "attrs": attrs}
            )

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0


def _notes_samples(args, result):
    return {"n": args[1]}


def _notes_estimate(args, result):
    r = result[0] if isinstance(result, tuple) else result
    return {"samples": args[1], "minus_inf_events": r.minus_inf_events}


def _notes_chain(args, result):
    return {"steps": args[1] * args[2]}


# (module, attribute, span name, attrs from (args, result))
TARGETS = (
    ("rmp.cli", "load_spec", "cli.load_spec", None),
    ("rmp.cli", "_dump", "cli.dump", None),
    ("rmp.cli", "estimate_lambda_mc", "estimators.estimate_lambda_mc", _notes_estimate),
    ("rmp.cli", "estimate_sigma2_mc", "estimators.estimate_sigma2_mc", _notes_estimate),
    ("rmp.cli", "exact_discrete", "estimators.exact_discrete", None),
    ("rmp.cli", "closed_form", "estimators.closed_form", None),
    ("rmp.cli", "simulate_normalized", "clt.simulate_normalized", None),
    ("rmp.clt", "chain_log_norms", "product.chain_log_norms", _notes_chain),
    ("rmp.clt", "ks_distance", "clt.ks_distance", None),
    ("rmp.estimators", "cross_terms", "estimators.cross_terms", None),
    ("rmp.estimators", "sample_triples", _SAMPLE, _notes_samples),
    ("rmp.estimators", "make_stream", _STREAM, None),
    ("rmp.product", "sample_triples", _SAMPLE, _notes_samples),
    ("rmp.product", "make_stream", _STREAM, None),
)

# map_chunks callers: each chunk they hand to the pool becomes a
# ``<layer>.chunk`` span on the thread that runs it
MAP_CALLERS = (("rmp.estimators", "estimators"), ("rmp.product", "product"))


def _wrap(tracer: Tracer, fn, name: str, notes):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if notes is not None:
                attrs.update(notes(args, result))
            return result

    return traced


def _wrap_map(tracer: Tracer, fn, layer: str):
    @functools.wraps(fn)
    def map_chunks(chunk_fn, n_chunks, threads=1):
        with tracer.span("parallel.map_chunks", chunks=n_chunks, threads=threads):
            sid = tracer.current()

            def chunk(k):
                with tracer.span(f"{layer}.chunk", parent=sid):
                    return chunk_fn(k)

            return fn(chunk, n_chunks, threads)

    return map_chunks


def install(tracer: Tracer) -> None:
    """Replace every traced attribute of the rmp modules by its wrapper."""
    for module, attr, name, notes in TARGETS:
        mod = importlib.import_module(module)
        setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, notes))
    for module, layer in MAP_CALLERS:
        mod = importlib.import_module(module)
        mod.map_chunks = _wrap_map(tracer, mod.map_chunks, layer)


# -- analysis -----------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Per-layer self time: each span's duration minus what its children cover.

    On one thread the layers' self times add up to the root spans'
    durations; with a thread pool, overlapping chunks each count, so
    the sum is busy time rather than wall time.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        own = s["end"] - s["start"] - _covered(children.get(s["id"], ()))
        out[s["name"].split(".", 1)[0]] += own
    return out


def _ancestors(span, by_id):
    while span["parent"]:
        span = by_id[span["parent"]]
        yield span


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced child from its spans.

    A layer that the workload does not run reads 0; so do the
    per-unit ratios whose unit count is 0.
    """
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def total(names, where=lambda s: True):
        return sum(dur(s) for s in spans if s["name"] in names and where(s))

    def under(prefixes):
        return lambda s: any(a["name"] in prefixes for a in _ancestors(s, by_id))

    samples = [s for s in spans if s["name"] == _SAMPLE]
    triples = sum(s["attrs"]["n"] for s in samples)
    sample_s = sum(dur(s) for s in samples)
    estimates = [s for s in spans if s["name"] in _ESTIMATE_SPANS]
    # samples of rmp estimate: one estimate_lambda_mc call per command
    est_samples = sum(
        s["attrs"]["samples"] for s in estimates
        if s["name"] == "estimators.estimate_lambda_mc"
    )
    est_triples = sum(s["attrs"]["n"] for s in samples if under(_ESTIMATE_SPANS)(s))
    map_s = total(("parallel.map_chunks",), under(_ESTIMATE_SPANS))
    chain_s = total(("product.chain_log_norms",))
    steps = sum(
        s["attrs"]["steps"] for s in spans if s["name"] == "product.chain_log_norms"
    )
    in_chain = under(("product.chunk",))
    kernel_s = total(("product.chunk",)) - total((_SAMPLE, _STREAM), in_chain)
    stats_s = total(("clt.simulate_normalized",)) - total(
        ("product.chain_log_norms",), under(("clt.simulate_normalized",))
    )
    m = {
        "distributions.sample_s": sample_s,
        "distributions.ns_per_triple": sample_s / triples * 1e9 if triples else 0.0,
        "distributions.triples": triples,
        "distributions.stream_s": total((_STREAM,)),
        "estimators.cross_terms_s": total(("estimators.cross_terms",)),
        "estimators.map_s": map_s,
        "estimators.reduce_s": total(_ESTIMATE_SPANS) - map_s,
        "estimators.triples_per_sample": est_triples / est_samples if est_samples else 0.0,
        "estimators.exact_s": total(("estimators.exact_discrete", "estimators.closed_form")),
        "estimators.minus_inf_events": sum(s["attrs"]["minus_inf_events"] for s in estimates),
        "product.chain_s": chain_s,
        "product.kernel_s": kernel_s,
        "product.ns_per_step": chain_s / steps * 1e9 if steps else 0.0,
        "parallel.chunks": sum(1 for s in spans if s["name"].endswith(".chunk")),
        "clt.stats_s": stats_s,
        "clt.ks_s": total(("clt.ks_distance",)),
        "cli.dump_s": total(("cli.dump",)),
        "cli.load_spec_s": total(("cli.load_spec",)),
        "trace.wall_s": total(("cli.main",)),
    }
    for layer, secs in self_times(spans).items():
        m[f"{layer}.self_s"] = secs
    return m


# counts that must repeat exactly between children of one run
EXACT_COUNTS = (
    "distributions.triples",
    "parallel.chunks",
    "estimators.triples_per_sample",
    "estimators.minus_inf_events",
)
