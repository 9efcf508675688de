"""Outside-in spans around renewperc's layers, for the traced run only.

The tracer replaces the package's public functions at module-attribute
level (every module attribute bound to the function, so calls through
``cli``'s imports and through a module's own globals are both seen) and the
radius classes' ``quantile`` / ``alpha_array`` methods.  Nothing is
replaced outside ``Tracer.installed()``, and the originals are restored on
exit.  Spans are kept in memory as ``[name, start_ns, end_ns, parent,
op_id, size]`` and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# layer -> public functions whose calls are spanned
FUNCTIONS = {
    "engine": (
        "gf_partial", "dual_law", "percolation_probability", "bounds_report",
        "classify", "forward_connectivity",
    ),
    "renewal": (
        "renewal_probabilities", "ck_sequence", "ck_at", "interarrival",
        "survival_products", "q_sequence_from_config",
    ),
    "radius": ("radius_from_config",),
    "simulate": (
        "connectivity_successes", "dual_successes", "coalescence_times",
        "simulate_connectivity", "simulate_dual", "simulate_coupling",
    ),
    "oracle": ("enumerate_connectivity", "enumerate_dual", "random_tiny_configs"),
}
RADIUS_METHODS = ("quantile", "alpha_array")
ROOT = "cli.command"


def _state_updates(a) -> int:
    n = int(a["horizon"])
    return n * (n + 1) // 2


# work sizes recorded on spans, for the per-unit per-layer metrics
SIZES = {
    "engine.gf_partial": _state_updates,
    "simulate.connectivity_successes": lambda a: int(a["n"]) * int(a["reps"]),
    "simulate.dual_successes": lambda a: int(a["n"]) * int(a["reps"]),
    "simulate.coalescence_times": lambda a: int(a["horizon"]) * len(a["delays"]) * int(a["reps"]),
}


class Tracer:
    """Collects spans for the ops run while it is installed."""

    def __init__(self, package_modules: dict):
        self.spans: list = []
        self._stack: list = []
        self._op_id = None
        self._patches = self._plan(package_modules)

    def _plan(self, modules: dict) -> list:
        patches = []
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        base = modules["radius"].RadiusModel
        for value in vars(modules["radius"]).values():
            if isinstance(value, type) and issubclass(value, base):
                for meth in RADIUS_METHODS:
                    original = vars(value).get(meth)
                    if original is not None:
                        patches.append((value, meth, original, self._wrap(f"radius.{meth}", original)))
        return patches

    def _wrap(self, name: str, fn):
        sizer = SIZES.get(name)
        signature = inspect.signature(fn) if sizer else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = sizer(signature.bind(*args, **kwargs).arguments) if sizer else 0
            record = [name, 0, 0, stack[-1] if stack else None, self._op_id, size]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, op_id: str):
        """Spans every call of the op, under one root span for the CLI command."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op_id = op_id
        record = [ROOT, 0, 0, None, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
            self._op_id = None
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def aggregate(spans: list) -> dict:
    """name -> {"self_ns", "calls", "size"} summed over all spans."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"self_ns": 0, "calls": 0, "size": 0})
        entry["self_ns"] += own
        entry["calls"] += 1
        entry["size"] += span[5]
    return totals


def self_sums(spans: list) -> dict:
    """op_id -> sum of the self times of the op's spans (ns)."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[4]] = out.get(span[4], 0) + own
    return out
