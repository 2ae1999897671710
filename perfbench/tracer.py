"""In-memory span tracer that wraps functions from outside the program.

A span is [name, start, end, parent index, counts]. Spans are kept in a
list and written out once, when the traced run ends. Each thread keeps
its own stack of open spans, so a span's parent is the innermost span
open in the same thread when it started.
"""

import functools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = []  # counters that raised, as "span: error"
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """Returns fn wrapped in a span called `name`. `count(args, kwargs,
        result)` may return a dict of counts to attach; it runs after the
        span has ended, and if it raises the error is recorded in
        `errors` instead of reaching the program."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            with self._lock:
                spans.append(span)
                stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[4] = count(args, kwargs, result)
                except Exception as exc:  # tracing must not change what the program does
                    self.errors.append("%s: %r" % (name, exc))
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children of one parent may overlap (threads); their union is
    subtracted, clipped to the parent's interval.
    """
    children = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def install(tracer, name, owner, attr, count=None, package="edgevitals"):
    """Wraps the function `owner.attr` everywhere the package binds it.

    For a module-level function this rebinds every attribute of every
    loaded `package.*` module that holds the same function object, so
    callers that imported it by name (`from .x import f`) are traced too.
    For a method (owner is a class) the class attribute is replaced.
    Returns the number of bindings wrapped.
    """
    target = getattr(owner, attr)
    wrapped = tracer.wrap(name, target, count)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return 1
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is target:
                setattr(module, key, wrapped)
                bound += 1
    return bound
