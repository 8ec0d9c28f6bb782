"""In-memory tracing of rootlink's public functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper wherever the
caller looks the name up: in every ``rootlink`` module that bound the
function at import (``from .roots import roots_structural`` makes a second
binding in ``report``, ``links`` and ``selftest``), on the class for methods,
and on ``rootlink.kernels`` for the integer kernels, which ``matrix`` calls as
``kernels.inverse_scaled``.  Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

Spanned functions record ``(name, start, end, parent span, request id)``.
Counted functions only bump a call counter: they are called up to O(n^2)
times per document, and a span each would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# (module, qualified name) pairs; "Class.method" patches the class attribute.
SPANNED = (
    ("cli", "main"),
    ("selftest", "run_selftest"),
    ("specfile", "parse_spec"),
    ("build", "build_matrix"),
    ("report", "build_report"),
    ("report", "render_report"),
    ("roots", "build_structure_sets"),
    ("roots", "roots_structural"),
    ("roots", "fixed_leaf_exit"),
    ("roots", "roots_transpose"),
    ("links", "link_matrix"),
    ("links", "zero_pattern"),
    ("inverse", "transition_kernel"),
    ("inverse", "neumann_check"),
    ("kernels", "inverse_scaled"),
    ("kernels", "matmul_int"),
)
COUNTED = (
    ("inverse", "RestrictionCache.inverse"),
    ("links", "link_structural"),
    ("build", "validate_annotation"),
    ("tree", "DyadicTree.lca"),
    ("tree", "DyadicTree.geodesic_edges"),
)
ENTRY_POINTS = ("cli.main", "selftest.run_selftest")


def _resolve(module_name: str, qualname: str):
    module = sys.modules[f"rootlink.{module_name}"]
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (name id, start, end, parent index, request); None while still open.
        self.spans: list = []
        self.counts: Counter[str] = Counter(
            {
                name: 0
                for name in (
                    "kernels.inverse_scaled.dup_calls",
                    "kernels.inverse_scaled.order3_sum",
                    "kernels.matmul_int.order3_sum",
                    "inverse.RestrictionCache.inverse.misses",
                )
            }
        )
        self.counts.update({f"{module}.{name}.calls": 0 for module, name in COUNTED})
        self.request = -1
        self.kernel_calls = 0
        self.kernel_order_max = 0
        self.kernel_max_bits = 0
        self._stack: list[int] = []
        self._seen_inputs: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- requests ------------------------------------------------------------

    def start_request(self, request: int) -> None:
        """Tag later spans with ``request``; duplicate inputs are per request."""
        self.request = request
        self._seen_inputs = set()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.request)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_inverse(self, fn: Callable) -> Callable:
        """Count calls, and misses: calls that ran the integer kernel."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(cache, node):
            counts["inverse.RestrictionCache.inverse.calls"] += 1
            before = self.kernel_calls
            result = fn(cache, node)
            if self.kernel_calls != before:
                counts["inverse.RestrictionCache.inverse.misses"] += 1
            return result

        return wrapper

    def _kernel_inverse(self, fn: Callable) -> Callable:
        """Count duplicate inputs, Σn³ and the largest det/adj bit length."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a):
            key = tuple(map(tuple, a))
            if key in self._seen_inputs:
                counts["kernels.inverse_scaled.dup_calls"] += 1
            else:
                self._seen_inputs.add(key)
            self.kernel_calls += 1
            n = len(a)
            counts["kernels.inverse_scaled.order3_sum"] += n**3
            self.kernel_order_max = max(self.kernel_order_max, n)
            result = fn(a)
            if result is not None:
                det, adj = result
                bits = max(
                    [abs(det).bit_length()]
                    + [abs(x).bit_length() for row in adj for x in row]
                )
                self.kernel_max_bits = max(self.kernel_max_bits, bits)
            return result

        return wrapper

    def _kernel_matmul(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            inner = len(b)
            cols = len(b[0]) if b else 0
            counts["kernels.matmul_int.order3_sum"] += len(a) * inner * cols
            return fn(a, b)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each place it is looked up."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, qualname in SPANNED + COUNTED:
            owner, attr, original = _resolve(module_name, qualname)
            name = f"{module_name}.{qualname}"
            if name == "inverse.RestrictionCache.inverse":
                wrapper = self._cache_inverse(original)
            elif (module_name, qualname) in COUNTED:
                wrapper = self._counted(name, original)
            else:
                inner = original
                if name == "kernels.inverse_scaled":
                    inner = self._kernel_inverse(original)
                elif name == "kernels.matmul_int":
                    inner = self._kernel_matmul(original)
                wrapper = self._spanned(name, inner)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                for module in list(sys.modules.values()):
                    if module is None or not (
                        module.__name__ == "rootlink"
                        or module.__name__.startswith("rootlink.")
                    ):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def _child_time(self) -> list[float]:
        """Time each span spent inside its direct child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: inclusive and self seconds, calls, misses, counts."""
        child_time = self._child_time()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        out.update(self.counts)
        out["kernels.inverse_scaled.order_max"] = self.kernel_order_max
        out["kernels.inverse_scaled.max_bits"] = self.kernel_max_bits
        out["entry.self_s"] = sum(own[name] for name in ENTRY_POINTS)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines after a header naming the fields.

        Line ``k`` after the header is span ``k``; times are integer
        nanoseconds from the start of the first span.
        """
        child_time = self._child_time()
        origin = self.spans[0][1] if self.spans else 0.0
        header = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "self_ns", "parent", "request"],
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, (name_id, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    f"[{name_id},{round((start - origin) * 1e9)},"
                    f"{round((end - origin) * 1e9)},"
                    f"{round((end - start - child_time[index]) * 1e9)},{parent},{request}]\n"
                )
