"""Span tracing from outside the package.

The tracer replaces the module attributes that callers look up at call
time (for instance ``sturmjumps.jumps.phase``, which ``find_jump``
resolves through its module globals) with wrappers that record a span
per call and harvest the counters the results already carry.  Nothing
under ``src/`` changes.  Attributes that a later version of the package
no longer has are skipped, and their metrics read 0.

Spans live in memory as tuples ``(id, parent, name, start, end)`` and
are written once, when the run ends.  Calls made in another process
(the worker processes of ``jump_sequence`` with ``workers > 1``) pass
through untraced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import resource
import time
from collections import defaultdict

_clock = time.perf_counter


class NullTracer:
    """Tracing off: call-site spans cost one no-op context manager."""

    active = False

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, k=1):
        pass

    @contextlib.contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.active = False
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._value_calls = [0]

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        if not self.active or os.getpid() != self.pid:
            yield
            return
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def count(self, name, k=1):
        if self.active:
            self.counters[name] += k

    @contextlib.contextmanager
    def paused(self):
        """Leave the enclosed calls out of the trace."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    @property
    def value_calls(self) -> int:
        return self._value_calls[0]

    def instrument_potential(self, p):
        """Count calls through the potential's cached ``value_fn`` slot."""
        if not self.active or "value_fn" not in type(p).__dict__:
            return
        fn = p.value_fn
        if getattr(fn, "_counted", False):
            return
        calls = self._value_calls

        def counted(x):
            calls[0] += 1
            return fn(x)

        counted._counted = True
        p.__dict__["value_fn"] = counted

    # -- wrapping module attributes -----------------------------------------

    def wrap(self, module, attr: str, span_name: str, on_call=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``on_call(bound_arguments, result, seconds)`` harvests counters from
        the call; ``bound_arguments`` is None when the signature cannot be
        bound.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return orig(*args, **kwargs)
            bound = None
            if sig is not None and on_call is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError:
                    bound = None
            if on_call is not None and bound is not None:
                first = next(iter(bound.arguments.values()), None)
                if hasattr(first, "value_fn"):
                    tracer.instrument_potential(first)
            t0 = _clock()
            with tracer.span(span_name):
                result = orig(*args, **kwargs)
            if on_call is not None:
                on_call(bound.arguments if bound is not None else None, result, _clock() - t0)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def install(self):
        import sturmjumps.cli as cli
        import sturmjumps.jumps as jumps
        import sturmjumps.liouville_green as lgmod
        import sturmjumps.oscillation as osc

        c = self.counters

        def on_phase(args, res, _dt):
            c["rk_steps"] += getattr(res, "steps", 0)
            c["rk_rejected"] += getattr(res, "rejected_steps", 0)

        def on_quad(args, res, _dt):
            c["quad_evals"] += getattr(res, "evaluations", 0)

        def on_find_jump(args, rec, _dt):
            if args is None:
                return
            tol, n = args.get("tol"), args.get("n")
            residual = getattr(rec, "residual", None)
            if tol and n and residual is not None:
                c["residual_over_tol_max"] = max(c["residual_over_tol_max"], residual / (tol * n))

        def on_sequence(args, _res, dt):
            # worker CPU comes from RUSAGE_CHILDREN: the pool's processes
            # are the only children this process waits for
            workers = (args or {}).get("workers", 1) or 1
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = usage.ru_utime + usage.ru_stime
            if workers > 1:
                c["pool_cpu_s"] += cpu - self._children_cpu
                c["pool_capacity_s"] += dt * workers
            self._children_cpu = cpu

        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._children_cpu = usage.ru_utime + usage.ru_stime
        self.wrap(cli, "jump_sequence", "jumps.jump_sequence", on_sequence)
        self.wrap(cli, "conjecture_fit", "asymptotics.conjecture_fit")
        self.wrap(jumps, "find_jump", "jumps.find_jump", on_find_jump)
        self.wrap(jumps, "phase", "oscillation.phase", on_phase)
        self.wrap(jumps, "integrate_sqrt_v", "quadrature.integrate_sqrt_v", on_quad)
        self.wrap(osc, "phase", "oscillation.phase", on_phase)
        self.wrap(lgmod, "integrate_sqrt_v", "quadrature.integrate_sqrt_v", on_quad)
        self.wrap(lgmod, "eval_jet2", "expr.eval_jet2")

    def uninstall(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def span_table(spans):
    """Durations and self times per span name, and child counts per (parent, child) name."""
    names = {}
    dur = {}
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        names[sid] = name
        dur[sid] = end - start
        if parent:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: {"dur": [], "self": []})
    children = defaultdict(int)
    for sid, parent, name, start, end in spans:
        by_name[name]["dur"].append(dur[sid])
        by_name[name]["self"].append(dur[sid] - child_time[sid])
        if parent in names:
            children[(names[parent], name)] += 1
    return by_name, children
