"""Spans around expwin's public functions, and the per-layer metrics made from them.

``install`` replaces every public function of the layer modules, in every
layer module namespace that binds it, with a wrapper that records a span.
Callers inside expwin look functions up by those module-level names (``cli``,
``table`` and ``metrics`` import them by name), so ``expwin.metrics.spectrum_fft``
is wrapped as well as ``expwin.spectrum.spectrum_fft``.  A call that does not
go through such a name is not a span and counts as its caller's self time:
the ``cmd_*`` handlers that ``cli.main`` reaches through a dict, private
helpers, and the catalog evaluator that ``kernels`` holds as a callback.
"""
import importlib
import inspect
import time

LAYERS = ("cli", "specs", "table", "metrics", "spectrum", "windows", "kernels")

# A sidelobe peak above this level (1e-12 of |W^(0)|) counts as useful; the
# round-off minima of a 2^20-point FFT of a smooth window lie between about
# -370 and -260 dB.
USEFUL_FLOOR_DB = -240.0


def _window_eval_counts(args, kwargs, out):
    t = kwargs["t"] if "t" in kwargs else args[1]
    return {"points": int(getattr(t, "size", 1))}


def _segment_counts(args, kwargs, out):
    return {
        "nulls": int(out.nulls.size),
        "peaks": int(out.peak_db.size),
        "useful": int((out.peak_db > USEFUL_FLOOR_DB).sum()),
    }


COUNTERS = {
    "windows.window_eval": _window_eval_counts,
    "spectrum.segment_lobes": _segment_counts,
}


class Tracer:
    """Keeps spans in memory: [name, start_ns, end_ns, parent index, request, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec[5] = count(args, kwargs, out)
                return out
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        return traced


def install(tracer):
    """Wrap expwin's public functions in every layer namespace."""
    modules = [importlib.import_module(f"expwin.{layer}") for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            layer = fn.__module__.rpartition(".")[2]
            if not fn.__module__.startswith("expwin.") or layer not in LAYERS:
                continue
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(f"{layer}.{fn.__name__}", fn)
            setattr(mod, attr, wrapped[fn])


def per_request_totals(spans):
    """Sums per (request, key) of self time (ms), calls and counters."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, request, counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, request, counts) in enumerate(spans):
        acc = totals.setdefault(request, {})
        acc[f"{name}.self_ms"] = acc.get(f"{name}.self_ms", 0.0) + (end - start - child_ns[i]) / 1e6
        acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
        for key, value in (counts or {}).items():
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value
    for acc in totals.values():
        peaks = acc.get("spectrum.segment_lobes.peaks", 0)
        acc["spectrum.segment_lobes.useful_share"] = (
            acc["spectrum.segment_lobes.useful"] / peaks if peaks else 0.0
        )
    return totals
