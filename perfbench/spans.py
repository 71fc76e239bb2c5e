"""Out-of-program tracing: wrap the public functions of each qadic layer.

``Tracer.install`` replaces every named function with a wrapper, in every
loaded ``qadic`` module that holds it (so ``from .grid import inner`` in
``bimodule`` is rebound too), and replaces the named ``Element`` methods on
the class.  ``Tracer.restore`` puts every original back.  A name that no
longer exists is listed in ``absent`` and its metrics are left out.

Three kinds of wrapper, by how often the function runs:

* ``span``   records (name, start, end, parent span, item id) and times;
* ``timed``  only adds to the per-name totals (called too often to keep);
* ``count``  only counts calls; its time stays in the caller's self time.

A layer's self time is the time of its timed calls minus the time of the
timed calls nested directly inside them, so the self times of all layers
plus the time outside any wrapped call add up to the traced wall time.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

LAYERS = ("numbers", "algebra", "wold", "grid", "bimodule", "cli")


@dataclass(frozen=True)
class Probe:
    metric: str          # metric stem, e.g. "grid.fourier"; the layer is its prefix
    module: str          # qadic module that defines the target
    target: str          # function name, or "Element.<method>"
    kind: str            # "span" | "timed" | "count"
    calls: str = ""      # count metric that counts the calls
    sized: str = ""      # count metric that sums len(result.<size_attr>)
    size_attr: str = ""


PROBES = (
    Probe("cli.main", "cli", "main", "span"),
    Probe("cli.parse", "cli", "parse_expr", "span", "cli.parse_calls"),
    Probe("grid.fourier", "grid", "fourier", "span", "grid.fourier_calls",
          "grid.fourier_out_samples", "samples"),
    Probe("grid.fourier", "grid", "fourier_inv", "span", "grid.fourier_calls",
          "grid.fourier_out_samples", "samples"),
    Probe("grid.correlation", "grid", "twisted_correlation", "span"),
    Probe("grid.rep_apply", "grid", "rep_apply", "span"),
    Probe("grid.sample", "grid", "sample_symbol", "span"),
    Probe("grid.inner", "grid", "inner", "timed", "grid.inner_calls"),
    Probe("bimodule.residual", "bimodule", "equivalence_residual", "span"),
    Probe("bimodule.left_action", "bimodule", "left_action", "span"),
    Probe("bimodule.induced_inner", "bimodule", "induced_inner", "span"),
    Probe("bimodule.algebra_inner", "bimodule", "algebra_inner", "span",
          sized="bimodule.inner_terms", size_attr="terms"),
    Probe("algebra.add", "algebra", "Element.__add__", "timed"),
    Probe("algebra.mul", "algebra", "Element.__mul__", "timed"),
    Probe("algebra.normalize", "algebra", "Element._normalize", "timed"),
    Probe("algebra.equals", "algebra", "Element.equals", "span"),
    Probe("algebra.apply", "algebra", "Element.apply", "timed"),
    Probe("algebra.matrix_window", "algebra", "Element.matrix_window", "span"),
    Probe("algebra.expectation", "algebra", "diagonal_expectation", "span"),
    Probe("algebra.compose", "algebra", "compose", "count", "algebra.compose_calls"),
    Probe("wold.build", "wold", "build_extension_unitary", "span"),
    Probe("wold.apply_v_limit", "wold", "apply_v_limit", "span"),
    Probe("wold.build_vn", "wold", "build_vn", "timed", "wold.build_vn_calls"),
    Probe("wold.check", "wold", "check_intertwining", "span"),
    Probe("numbers.character", "numbers", "character", "timed", "numbers.character_calls"),
    Probe("numbers.dyadic", "numbers", "dyadic", "timed"),
    Probe("numbers.solenoid", "numbers", "solenoid_canonical", "span"),
    Probe("numbers.solenoid", "numbers", "solenoid_character", "span"),
)

# Element._normalize sees the terms handed to Element(...) and those it keeps
NORMALIZE = "Element._normalize"
CONSTRUCT_IN, CONSTRUCT_OUT = "algebra.construct_terms_in", "algebra.construct_terms_out"


class Tracer:
    """Span recorder; ``enabled`` gates recording to the timed item calls."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.enabled = False
        self.item_id = -1
        self.spans: list[tuple] = []
        self.time_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self.top_level_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []      # [child_time, span index or None]
        self._saved: list[tuple] = []     # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, probe: Probe, fn):
        metric, layer = probe.metric, probe.metric.split(".", 1)[0]
        counts, stack = self.counts, self._stack
        calls, sized, size_attr = probe.calls, probe.sized, probe.size_attr
        normalize = probe.target == NORMALIZE

        if probe.kind == "count":
            def counted(*args, **kwargs):
                if self.enabled:
                    counts[calls] += 1
                return fn(*args, **kwargs)
            return counted

        record = probe.kind == "span"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if calls:
                counts[calls] += 1
            if normalize:
                counts[CONSTRUCT_IN] += len(args[0].terms)
            frame = [0.0, None]
            if record:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_level_s += dur
                self.time_s[metric] += dur
                self.self_s[metric] += own
                self.layer_self_s[layer] += own
                if record:
                    self.spans[frame[1]] = (metric, start, end, parent, self.item_id)
            if normalize:
                counts[CONSTRUCT_OUT] += len(args[0].terms)
            if sized:
                counts[sized] += len(getattr(result, size_attr))
            return result
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "qadic" or k.startswith("qadic.")) and m is not None]
        for probe in self.probes:
            owner = sys.modules.get(f"qadic.{probe.module}")
            cls_name, _, attr = probe.target.rpartition(".")
            if cls_name and owner is not None:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(probe.target)
                continue
            self._register(probe)
            wrapper = self._wrap(probe, original)
            # a method lives on its class; a function in every module that
            # imported it by name
            for holder in ([owner] if cls_name else modules):
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def _register(self, probe: Probe) -> None:
        if probe.kind != "count":
            self.time_s.setdefault(probe.metric, 0.0)
            self.self_s.setdefault(probe.metric, 0.0)
        keys = [probe.calls, probe.sized]
        if probe.target == NORMALIZE:
            keys += [CONSTRUCT_IN, CONSTRUCT_OUT]
        for key in filter(None, keys):
            self.counts.setdefault(key, 0)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, item = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
