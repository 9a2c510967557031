"""Span recorder for the traced run.

`SpanRecorder.install()` rebinds each listed public function in every
`ratchet_lab` module namespace that holds it (for example `experiments.evolve`,
`cli.evolve` and `evolution.kick_step`), so calls made through any of those
names open a span. Each thread keeps its own span stack; a span opened on a
worker thread with an empty stack takes the innermost span of the installing
thread as its parent, which is the `run_fig4` span while the scan pool runs.
`numpy.fft.fft` and `numpy.fft.ifft` are counted, with their points, against
the innermost open span. Spans stay in memory; `layer_metrics` reduces them and
`write_spans` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped per layer; the layer is the defining module.
TRACED = {
    "cli": ("main",),
    "config": ("parse_config", "parse_config_file"),
    "experiments": ("run_figs", "run_fig2", "run_fig3", "run_fig4", "compare_engines",
                    "quantum_kick_ladders", "optical_kick_ladders", "bounce_image",
                    "crop_image"),
    "evolution": ("plane_wave", "kick_step", "free_step", "momentum_spectrum", "evolve",
                  "ladder_record"),
    "model": ("kick_phase_profile",),
    "optics": ("ratchet_mirror", "gaussian_beam", "apply_mirror", "propagate_fresnel",
               "far_field", "bounce_simulation", "row_order_ladder",
               "row_order_probabilities", "render_ccd"),
    "observables": ("mean_momentum", "mean_square_momentum", "participation_ratio",
                    "stats_from_ladder", "polynomial_fit", "distribution_distance"),
    "fileio": ("write_csv", "write_pgm", "write_ndjson"),
    "floquet": ("build_floquet", "propagate"),
}

# Metrics measured only inside the benchmark's own correctness checks.
CHECK_ONLY = ("floquet.build_s", "floquet.propagate_s")


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "cpu_start", "cpu_end",
                 "fft_calls", "fft_points", "note")

    def __init__(self, name: str, layer: str, parent: "Span | None") -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.fft_calls = 0
        self.fft_points = 0
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bounce_key(bound: inspect.BoundArguments, _result) -> tuple:
    args = bound.arguments
    n_levels = args.get("n_levels")
    return (args["hbar_eff"], args["n_kicks"], args["cfg"].n_levels if n_levels is None else n_levels)


def _bytes_written(bound: inspect.BoundArguments, _result) -> int:
    return os.path.getsize(bound.arguments["path"])


# Extra facts recorded on a span once its call returns.
NOTES = {
    "experiments.bounce_image": _bounce_key,
    "fileio.write_csv": _bytes_written,
    "fileio.write_pgm": _bytes_written,
    "fileio.write_ndjson": _bytes_written,
}


class SpanRecorder:
    """Records spans and FFT counts while installed; `spans` holds closed spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unattributed_ffts = 0
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._home_stack[-1] if self._home_stack else None

    def reset(self) -> None:
        self.spans = []
        self.unattributed_ffts = 0

    def _wrap(self, qualname: str, layer: str, fn):
        note = NOTES.get(qualname)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qualname, layer, self._innermost())
            stack = self._stack()
            stack.append(span)
            span.cpu_start = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.thread_time()
                stack.pop()
                self.spans.append(span)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                span.note = note(bound, result)
            return result

        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            span = self._innermost()
            if span is None:
                self.unattributed_ffts += 1
            else:
                span.fft_calls += 1
                span.fft_points += int(np.size(a))
            return fn(a, *args, **kwargs)

        return counted

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced function in every loaded ratchet_lab module."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        self._home_stack = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ratchet_lab" or name.startswith("ratchet_lab."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"ratchet_lab.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        for name in ("fft", "ifft"):
            self._rebind(np.fft, name, self._count_fft(getattr(np.fft, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def write_spans(spans: list[Span], path) -> None:
    """One JSON line per span, parents first, times in seconds from the first span."""
    ordered = sorted(spans, key=lambda s: s.start)
    index = {id(span): i for i, span in enumerate(ordered)}
    threads: dict[int, int] = {}
    origin = ordered[0].start if ordered else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(ordered):
            fh.write(json.dumps({
                "id": i, "parent": None if span.parent is None else index.get(id(span.parent)),
                "name": span.name, "thread": threads.setdefault(span.thread, len(threads)),
                "start": span.start - origin, "end": span.end - origin,
                "cpu": span.cpu_end - span.cpu_start,
                "fft_calls": span.fft_calls, "fft_points": span.fft_points,
            }) + "\n")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _ancestor_named(span: Span, name: str) -> Span | None:
    node = span.parent
    while node is not None and node.name != name:
        node = node.parent
    return node


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one invocation (or one check phase) from its spans.

    `_s` metrics are busy seconds: the summed duration of the outermost spans
    of a function group, or for `self_s` the duration not covered by child
    spans. Layers the spans never entered report 0.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)

    def self_time(span: Span) -> float:
        kids = [(c.start, c.end) for c in children[id(span)]]
        return span.duration - _union_length(kids, span.start, span.end)

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def busy(*names: str) -> float:
        return sum(s.duration for s in named(*names)
                   if s.parent is None or s.parent.name not in names)

    def in_layer(layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer]

    def outermost(layer: str) -> list[Span]:
        return [s for s in in_layer(layer) if s.parent is None or s.parent.layer != layer]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fig4 = named("experiments.run_fig4")
    pool_wait = 0.0
    for span in fig4:
        own = [c for c in children[id(span)] if c.thread == span.thread]
        wall = span.duration - sum(c.duration for c in own)
        cpu = (span.cpu_end - span.cpu_start) - sum(c.cpu_end - c.cpu_start for c in own)
        pool_wait += max(0.0, wall - cpu)
    scan_busy = 0.0
    for span in named("evolution.evolve"):
        scan = _ancestor_named(span, "experiments.run_fig4")
        if scan is not None and span.thread != scan.thread:
            scan_busy += span.duration
    bounce_keys = [s.note for s in named("experiments.bounce_image")]

    kicks = len(named("evolution.kick_step"))
    bounces = len(named("optics.apply_mirror"))
    evolution_ffts = sum(s.fft_calls for s in in_layer("evolution"))
    optics_ffts = sum(s.fft_calls for s in in_layer("optics"))
    observable_spans = outermost("observables")

    return {
        "cli.self_s": sum(self_time(s) for s in in_layer("cli")),
        "config.parse_s": busy("config.parse_config", "config.parse_config_file"),
        "experiments.self_s": sum(self_time(s) for s in in_layer("experiments")),
        "experiments.pool_wait_s": pool_wait,
        "experiments.scan_parallelism": ratio(scan_busy, sum(s.duration for s in fig4)),
        "experiments.bounce_unique_ratio": ratio(len(set(bounce_keys)), len(bounce_keys)),
        "evolution.kicks": kicks,
        "evolution.evolve_calls": len(named("evolution.evolve")),
        "evolution.kick_s": busy("evolution.kick_step"),
        "evolution.free_s": busy("evolution.free_step"),
        "evolution.spectrum_s": busy("evolution.momentum_spectrum"),
        "evolution.evolve_self_s": sum(self_time(s) for s in named("evolution.evolve")),
        "evolution.ladder_record_s": busy("evolution.ladder_record"),
        "evolution.fft_calls": evolution_ffts,
        "evolution.fft_points": sum(s.fft_points for s in in_layer("evolution")),
        "evolution.ffts_per_kick": ratio(evolution_ffts, kicks),
        "model.kick_phase_calls": len(named("model.kick_phase_profile")),
        "model.kick_phase_s": busy("model.kick_phase_profile"),
        "optics.bounces": bounces,
        "optics.bounce_calls": len(named("optics.bounce_simulation")),
        "optics.build_mirror_calls": len(named("optics.ratchet_mirror")),
        "optics.mirror_s": busy("optics.apply_mirror"),
        "optics.fresnel_s": busy("optics.propagate_fresnel"),
        "optics.far_field_s": busy("optics.far_field"),
        "optics.bounce_self_s": sum(self_time(s) for s in named("optics.bounce_simulation")),
        "optics.build_mirror_s": busy("optics.ratchet_mirror"),
        "optics.bin_orders_s": busy("optics.row_order_ladder", "optics.row_order_probabilities"),
        "optics.render_ccd_s": busy("optics.render_ccd"),
        "optics.fft_calls": optics_ffts,
        "optics.fft_points": sum(s.fft_points for s in in_layer("optics")),
        "optics.ffts_per_bounce": ratio(optics_ffts, bounces),
        "observables.calls": len(observable_spans),
        "observables.s": sum(s.duration for s in observable_spans),
        "observables.distance_s": busy("observables.distribution_distance"),
        "fileio.write_s": sum(s.duration for s in outermost("fileio")),
        "fileio.bytes": sum(s.note or 0 for s in in_layer("fileio")),
        "floquet.build_s": busy("floquet.build_floquet"),
        "floquet.propagate_s": busy("floquet.propagate"),
    }
