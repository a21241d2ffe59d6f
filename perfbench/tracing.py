"""In-memory span recorder for the traced pass of the benchmark.

Wrappers are installed from outside the program, at the module attribute a
caller looks the function up by (``engine.cost``, ``mechanism.cubic_root``,
``benchmarks.reward_effort_quadratic``), and removed again when the traced
pass ends, so the untraced pass runs the program exactly as shipped.  A
span's layer is the copesim module that defines the wrapped function.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _words(args, kwargs):
    return int(args[3] if len(args) > 3 else kwargs["count"])


def _elements(args, kwargs):
    return _size(args[0], args[1])


def _gl_nodes(args, kwargs):
    order = args[5] if len(args) > 5 else kwargs.get("order", 48)
    return _size(args[0], args[1]) * int(order)


# Computed counts: derived from call arguments, not measured inside the
# program.  Each maps a span name to (count name, function of the call).
COMPUTED = {
    "rng.raw_words": ("rng.words", _words),
    "mechanism.cubic_root": ("mechanism.cubic_root.elements", _elements),
    "mechanism.quadratic_pi_tail_gl": ("mechanism.quadratic_pi_tail_gl.nodes",
                                       _gl_nodes),
    "agents.reward_effort_quadratic": (
        "agents.reward_effort_quadratic.elements", _elements),
}

# (module, attribute) pairs to wrap.  Each binding a caller uses is listed,
# since ``from .x import f`` copies the name into the calling module.  Some
# are not reported by name; they are wrapped so that their time counts in
# the layer that defines them rather than in their caller's.
FUNCTION_SITES = (
    ("rng", "raw_words"), ("rng", "uniforms"), ("rng", "normals"),
    ("rng", "generator"),
    ("engine", "cost"), ("agents", "cost"), ("benchmarks", "cost"),
    ("mechanism", "fd_total_dtheta"),
    ("mechanism", "cubic_root"), ("mechanism", "quadratic_pi_tail_gl"),
    ("mechanism", "quadratic_components_batch"),
    ("mechanism", "linear_tail_closed"), ("mechanism", "predict_batch"),
    ("mechanism", "effort_linear"), ("mechanism", "effort_quadratic"),
    ("mechanism", "payment_rule_linear"),
    ("mechanism", "payment_rule_quadratic"),
    ("mechanism", "effort_general"), ("mechanism", "payment_rule_general"),
    ("mechanism", "schedule_monotonicity_report"),
    ("mechanism", "sufficient_ratio_report"),
    ("agents", "reward_effort_quadratic"),
    ("benchmarks", "reward_effort_quadratic"),
    ("agents", "best_response_type"), ("agents", "best_response_effort"),
    ("agents", "interim_payoff"), ("agents", "information_rent"),
    ("benchmarks", "homogeneous_contract"),
    ("benchmarks", "homogeneous_fallback"),
    ("benchmarks", "homogeneous_response_batch"),
    ("engine", "run_experiment"), ("engine", "run_trial"),
    ("verify", "run_suite"),
    ("cli", "write_results_csv"),
)

METHOD_SITES = (("model", "CostTypeDistribution",
                 ("ppf", "cdf", "pdf", "inverse_hazard")),)

# scipy entry points the mechanism module reaches through its own
# ``optimize`` / ``integrate`` names: counted, not timed, so their time stays
# in the mechanism function that called them.
COUNTED_SITES = (("mechanism", "optimize", "minimize", "mechanism.minimize"),
                 ("mechanism", "integrate", "quad", "mechanism.quad"))


class _CountingModule:
    """Stand-in for a scipy submodule that counts calls to one function."""

    def __init__(self, module, attr, on_call):
        self._module = module
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            on_call()
            return fn(*args, **kwargs)

        setattr(self, attr, counted)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans of one traced pass: name, parent, start and end, kept in flat
    arrays until written out; per-name totals kept alongside."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []          # [span index, child time]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # computed counts and counted calls
        self.t0 = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        computed = COMPUTED.get(name)
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if computed is not None:
                self.counts[computed[0]] += computed[1](args, kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                dur = end - start
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def count_call(self, name: str):
        def on_call():
            self.counts[name] += 1
        return on_call

    @contextlib.contextmanager
    def installed(self, package):
        """Install every wrapper on the modules of ``package`` (the imported
        copesim package) and restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr in FUNCTION_SITES:
                mod = getattr(package, mod_name)
                fn = getattr(mod, attr)
                defining = fn.__module__.rsplit(".", 1)[-1]
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, f"{defining}.{fn.__name__}"))
            for mod_name, cls_name, methods in METHOD_SITES:
                cls = getattr(getattr(package, mod_name), cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    saved.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(fn, f"{mod_name}.{meth}"))
            for mod_name, sub, attr, name in COUNTED_SITES:
                mod = getattr(package, mod_name)
                saved.append((mod, sub, getattr(mod, sub)))
                setattr(mod, sub, _CountingModule(getattr(mod, sub), attr,
                                                  self.count_call(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def root_time(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_start))
                   if self.span_parent[i] < 0)

    def layer_self(self) -> dict:
        """Self time summed per layer, for the layers that had spans."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def count_signature(self) -> dict:
        """Everything that must repeat exactly between two traced passes of
        the same inputs: span call counts, computed counts, counted calls."""
        sig = {f"{k}.calls": v for k, v in self.calls.items()}
        sig.update(self.counts)
        return dict(sorted(sig.items()))

    def spans(self) -> dict:
        return {"names": list(self.names),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_s": [round(s - self.t0, 9) for s in self.span_start],
                "end_s": [round(e - self.t0, 9) for e in self.span_end]}
