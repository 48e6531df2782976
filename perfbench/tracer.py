"""Span and counter tracing of flowpoly's module functions, for traced runs.

The tracer replaces module attributes (``flowpoly.<module>.<name>``) and
class attributes with timing wrappers while it is active, and puts the
originals back when it is not, so code outside the timed operations and
every untraced run see flowpoly unchanged.  A function listed as a span
records (id, parent, trace id, name, start, end) per call; a function
called thousands of times per operation only adds to its call count and
summed times.  Both kinds keep self time: the duration minus the time
spent in wrapped callees.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "flowpoly"
SPAN = "span"
COUNT = "count"

# (module, attribute path, mode).  Generator functions are timed per resume.
TARGETS = (
    ("abelian", "GroupSpec.validate", COUNT),
    ("abelian", "GroupSpec.add", COUNT),
    ("abelian", "GroupSpec.negate", COUNT),
    ("flows", "enumerate_zero_sum", COUNT),
    ("flows", "count_nz_flows_bruteforce", COUNT),
    ("flows", "nz_flow_boundary_counts", SPAN),
    ("flows", "decomposition_check", SPAN),
    ("graphs", "components", COUNT),
    ("graphs", "bonds", SPAN),
    ("graphs", "lambda_family", COUNT),
    ("assigning", "compat_signature", COUNT),
    ("assigning", "poly_subset_expansion", COUNT),
    ("assigning", "poly_nbb", COUNT),
    ("assigning", "broken_bonds", SPAN),
    ("assigning", "induced_assigning", COUNT),
    ("polynomial", "IntPolynomial.__init__", COUNT),
    ("polynomial", "IntPolynomial.eval", COUNT),
    ("polynomial", "IntPolynomial.signless_coefficients", COUNT),
    ("harness", "run_verification", SPAN),
    ("catalog", "all_multigraphs", COUNT),
    ("cli", "main", SPAN),
    ("cli", "parse_graph_document", SPAN),
    ("cli", "parse_b_document", SPAN),
)

@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: dict[str, int] = field(default_factory=dict)


def _package_modules() -> list[tuple[str, object]]:
    return [
        (name, module) for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.stats: dict[str, Stat] = {}
        self.trace_id = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 1
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        modules = [module for _, module in _package_modules()]
        patches = []
        for module_name, path, mode in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            name = f"{module_name}.{path}"
            if original is None:
                self.missing.append(name)
                continue
            self.stats[name] = Stat()
            wrapper = self._wrap(original, name, mode)
            if owner is not module:
                patches.append((owner, attr, original, wrapper))
                continue
            # Every module that bound the function by name calls through its own copy.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    @contextmanager
    def active(self, trace_id: int, root: str | None = None):
        """Wrap the targets for the duration; record a root span if named."""
        self.trace_id = trace_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        frame = [self._new_id(), 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            if root is not None:
                self.spans.append((frame[0], 0, trace_id, root, start, end))

    def reset(self) -> None:
        self.spans.clear()
        for name in self.stats:
            self.stats[name] = Stat()

    def _wrap(self, func, name: str, mode: str):
        stack = self._stack
        clock = time.perf_counter
        record = mode == SPAN
        observe = name in ("assigning.poly_subset_expansion", "assigning.poly_nbb")
        tracer = self

        def finish(frame, start: float, end: float) -> None:
            elapsed = end - start
            stat = tracer.stats[name]
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if record:
                parent = stack[-1][0] if stack else 0
                tracer.spans.append((frame[0], parent, tracer.trace_id, name, start, end))

        if inspect.isgeneratorfunction(func):

            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                try:
                    while True:
                        frame = [tracer._new_id(), 0.0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end = clock()
                            stack.pop()
                            finish(frame, start, end)
                        extra = tracer.stats[name].extra
                        extra["yielded"] = extra.get("yielded", 0) + 1
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame = [tracer._new_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                finish(frame, start, end)
            if observe:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _observe(self, name: str, args, result) -> None:
        """Subsets each polynomial algorithm visits, and those poly_nbb counts."""
        extra = self.stats[name].extra
        extra["masks"] = extra.get("masks", 0) + (1 << args[0].edge_count)
        if name == "assigning.poly_nbb":
            # The signless coefficients a_i are the absolute coefficients.
            counted = sum(abs(c) for c in result.coefficients)
            extra["counted"] = extra.get("counted", 0) + counted

    def dump(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "stats": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    **s.extra,
                }
                for name, s in self.stats.items()
            },
            "missing_targets": self.missing,
        }


class CacheSet:
    """Every functools cache in the package's modules and their classes.

    Found by walking the modules, so caches added later are cleared too.
    Construction empties them; clear() adds each cache's hits and misses
    to running totals first.
    """

    def __init__(self) -> None:
        self.caches: list[object] = []
        for mod_name, module in _package_modules():
            for value in vars(module).values():
                self._add(value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for member in vars(value).values():
                        self._add(member)
        for cache in self.caches:
            cache.cache_clear()
        self.hits = [0] * len(self.caches)
        self.misses = [0] * len(self.caches)

    def _add(self, value) -> None:
        if (
            callable(getattr(value, "cache_clear", None))
            and callable(getattr(value, "cache_info", None))
            and all(value is not cache for cache in self.caches)
        ):
            self.caches.append(value)

    def clear(self) -> None:
        for i, cache in enumerate(self.caches):
            info = cache.cache_info()
            self.hits[i] += info.hits
            self.misses[i] += info.misses
            cache.cache_clear()

    def totals(self, cache) -> tuple[int, int]:
        """(hits, misses) of one cache so far; zeros if it is not known."""
        for i, known in enumerate(self.caches):
            if known is cache:
                return self.hits[i], self.misses[i]
        return 0, 0
