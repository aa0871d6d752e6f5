"""Span tracer installed into an operation process from outside the package.

`Tracer.install` wraps the public functions of each layer and rebinds every
module attribute of haltongain that refers to the original, so a call made
through `cli.randomize`, `rqmc.nested_scramble_digits` or a module's own
globals is traced alike.  A name the package no longer has is skipped and
reported as absent.

One span is kept per wrapped call: (id, name, parent id, start, end, busy).
`busy` is end - start for a call; for a generator it is only the time spent
inside the generator's own frames, so a consumer's work between rows is not
charged to it.  Self time is busy minus the busy time of direct children.
Counters are taken at the same boundaries from call arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import time
from collections import Counter, defaultdict

from verify import primes

# Public functions traced, by layer module.
LAYERS = {
    "primes": ("first_primes",),
    "halton": ("halton_points",),
    "scramble": ("randomize", "nested_scramble_digits", "permutation_node",
                 "linear_scramble_digits", "draw_linear_scramble"),
    "gains": ("gamma_max", "gain_exact", "gain_bruteforce", "gain_curve", "bounds_table"),
    "rqmc": ("rqmc_estimate", "evaluate"),
}


class Tracer:
    def __init__(self, op: str) -> None:
        self.op = op
        self.spans: list[tuple[int, str, int, float, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack = [-1]
        self._ids = itertools.count()
        self._primes = None
        self._cached = 0

    def wrap(self, name: str, fn):
        """`fn` recording one span per call, or per generator it returns."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._generator(name, fn(*args, **kwargs))
            return gen_wrapper
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end, end - start))
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result
        return wrapper

    def _generator(self, name: str, gen):
        """Re-yield `gen`, timing only its resumptions; counts rows."""
        sid, parent, clock = next(self._ids), self._stack[-1], time.perf_counter
        first = last = None
        busy = 0.0
        try:
            while True:
                self._stack.append(sid)
                t = clock()
                first = t if first is None else first
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = clock()
                    busy += last - t
                    self._stack.pop()
                self.counts[name + ".rows"] += 1
                yield item
        finally:
            if first is not None:
                self.spans.append((sid, name, parent, first, last, busy))

    def install(self, package: str = "haltongain") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        self._primes = sys.modules.get(f"{package}.primes")
        self._cached = self._cache_size() or 0
        self._count_keyed_streams(sys.modules.get(f"{package}.scramble"))

    def _count_keyed_streams(self, scramble) -> None:
        cls = getattr(scramble, "KeyedStream", None)
        if not isinstance(cls, type):
            self.absent.append("scramble.KeyedStream")
            return
        init, counts = cls.__init__, self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts["scramble.keyed_streams"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted

    def _cache_size(self) -> int | None:
        cache = getattr(self._primes, "_cache", None)
        return len(cache) if isinstance(cache, list) else None

    def report(self) -> dict:
        """Per-name calls, busy and self time, counters, and absent names."""
        child_busy: defaultdict[int, float] = defaultdict(float)
        for _, _, parent, _, _, busy in self.spans:
            child_busy[parent] += busy
        busy_s: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        for sid, name, _, _, _, busy in self.spans:
            busy_s[name] += busy
            self_s[name] += busy - child_busy[sid]
        counts = dict(self.counts)
        counts.update((f"{name}.calls", n) for name, n in
                      Counter(span[1] for span in self.spans).items())
        return {"op": self.op, "spans": len(self.spans), "busy_s": dict(busy_s),
                "self_s": dict(self_s), "counts": counts, "absent": self.absent}


def _first_primes(tr: Tracer, fn, args, kwargs, result) -> None:
    size = tr._cache_size()
    if size is None:
        tr.absent.append("primes._cache")
        return
    tr.counts["primes.primes_sieved"] += size - tr._cached
    tr.counts["primes.cache_hits"] += size == tr._cached
    tr._cached = size


def _halton_points(tr: Tracer, fn, args, kwargs, result) -> None:
    tr.counts["halton.coords_generated"] += result.count * result.dimension


def _nested(tr: Tracer, fn, args, kwargs, result) -> None:
    tr.counts["scramble.nested_positions"] += len(result.digits)


def _gamma_max(tr: Tracer, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    cap = bound.arguments.get("n_cap")
    cycle = math.prod(primes(bound.arguments["d"]))  # one full cycle is searched at most
    tr.counts["gains.n_searched"] += cycle if cap is None else min(cap, cycle)


def _rqmc_estimate(tr: Tracer, fn, args, kwargs, result) -> None:
    tr.counts["rqmc.replicates"] += result.replicates
    tr.counts["rqmc.replicate_points"] += result.replicates * result.n


_OBSERVERS = {
    "primes.first_primes": _first_primes,
    "halton.halton_points": _halton_points,
    "scramble.nested_scramble_digits": _nested,
    "gains.gamma_max": _gamma_max,
    "rqmc.rqmc_estimate": _rqmc_estimate,
}
