"""Spans and exact call counts around the public functions of `delayfw`.

Nothing in the package is edited.  A wrapper replaces a function where its
caller looks it up: module-level names in the importing module's namespace
(`runner`, `de2mfw` import them by name), methods on their class.  Every
replacement is undone when the `patched` context exits.

Span names are `<layer>.<what>`, where the layer is the `delayfw` module
the time belongs to.  A span's self time is its duration minus the
durations of the spans nested directly in it, so the self times of all
spans add up to the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


def span_targets(dfw) -> list:
    """(owner, attribute, span name) for every wrapped callable.

    `dfw` is a namespace holding the imported `delayfw` modules.
    """
    runner, de2mfw = dfw.runner, dfw.de2mfw
    geo, orc, los, net, dly, met = (dfw.geometry, dfw.oracle, dfw.losses,
                                    dfw.network, dfw.delay, dfw.metrics)
    return [
        (runner, "parse_config", "runner.config"),
        (runner, "_resolve_constants", "runner.constants"),
        (runner, "estimate_constants", "losses.estimate_constants"),
        (runner, "synth_quadratic_stream", "losses.build"),
        (runner, "synth_stream", "losses.build"),
        (runner, "gen_delays", "delay.generate"),
        (runner, "topology", "network.setup"),
        (runner, "metropolis_weights", "network.setup"),
        (runner, "algorithm_constants", "network.setup"),
        (runner, "delmfw_run", "delmfw.run"),
        (runner, "de2mfw_run", "de2mfw.run"),
        (runner, "compute_comparator", "metrics.comparator"),
        (runner, "attach_regret", "metrics.regret"),
        (de2mfw, "metropolis_weights", "network.weights"),
        (de2mfw, "consensus_error", "metrics.consensus"),
        (de2mfw, "per_agent_global_losses", "metrics.per_agent_losses"),
        (geo.ConstraintSet, "lmo", "geometry.lmo"),
        (geo.ConstraintSet, "lmo_batch", "geometry.lmo_batch"),
        (orc.FtplOracle, "__init__", "oracle.init"),
        (orc.FtplOracle, "query", "oracle.query"),
        (orc.FtplOracle, "feedback", "oracle.feedback"),
        (los.QuadraticLoss, "value", "losses.value"),
        (los.QuadraticLoss, "grad", "losses.grad"),
        (los.SoftmaxLoss, "value", "losses.value"),
        (los.SoftmaxLoss, "grad", "losses.grad"),
        (los.LossStream, "average_value", "losses.average_value"),
        (los.LossStream, "total_value", "losses.total_value"),
        (los.LossStream, "total_grad", "losses.total_grad"),
        (net.GossipMatrix, "mix", "network.mix"),
        (dly.FeedbackBuffer, "push", "delay.push"),
        (dly.FeedbackBuffer, "release", "delay.release"),
        (dly.DelaySchedule, "delay", "delay.lookup"),
        (met.RunTrace, "write_csv", "metrics.csv"),
    ]


@contextlib.contextmanager
def patched(replacements):
    """Install (owner, attribute, new value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Tracer:
    """Accumulates per-span call counts, total time and self time."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._child_s = []  # per open span: time covered by its direct children

    def wrap(self, name: str, fn):
        clock, child_s, finish = time.perf_counter, self._child_s, self._finish

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(name, clock() - start)

        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._finish(name, time.perf_counter() - start)

    def _finish(self, name: str, dur: float) -> None:
        inner = self._child_s.pop()
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - inner
        if self._child_s:
            self._child_s[-1] += dur

    def replacements(self, dfw) -> list:
        return [(owner, attr, self.wrap(name, vars(owner)[attr]))
                for owner, attr, name in span_targets(dfw)]

    def layer_self_s(self) -> dict:
        """Self time summed per layer (the span name's first component)."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)


class CallCounter:
    """A `sys.setprofile` hook counting Python call events.

    `total` counts every Python-level call; `by_name` counts calls of the
    callables that the spans named in COUNTED wrap, `rows` the rows passed
    to the batch LMO, and `released` the origins handed back by the
    feedback buffers.
    """

    COUNTED = ("geometry.lmo_batch", "oracle.query", "oracle.feedback", "losses.grad",
               "losses.value", "losses.total_grad", "network.mix", "delay.push")

    def __init__(self, dfw):
        geo, dly = dfw.geometry, dfw.delay
        self._watched = {vars(owner)[attr].__code__: name
                         for owner, attr, name in span_targets(dfw) if name in self.COUNTED}
        self._rows_code = vars(geo.ConstraintSet)["lmo_batch"].__code__
        self._release_code = vars(dly.FeedbackBuffer)["release"].__code__
        self.total = 0
        self.by_name = defaultdict(int)
        self.rows = 0
        self.released = 0

    def hook(self):
        watched, by_name = self._watched, self.by_name
        rows_code, release_code = self._rows_code, self._release_code

        def profile(frame, event, arg):
            if event == "call":
                self.total += 1
                code = frame.f_code
                name = watched.get(code)
                if name is not None:
                    by_name[name] += 1
                    if code is rows_code:
                        self.rows += len(frame.f_locals["z"])
            elif event == "return" and frame.f_code is release_code:
                self.released += len(arg)

        return profile
