"""Spans around lapra functions, recorded from outside the package.

A Tracer replaces a function with a wrapper at the place where its caller
looks it up: a module global such as ``lapra.cli:load_g2o``, or a class
attribute such as ``lapra.decomposition:RobotBlock.schur_contribution``.
Each recorded call becomes one span with a name, start, end and the
enclosing span. Spans stay in memory until the caller takes them;
``self_times`` turns them into per-name self time, the duration minus the
part covered by child spans.

A target that no longer exists is listed in ``missing`` instead of being
wrapped, so a renamed function shows up as missing, not as zero time and not
as a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in the same list, -1 for a root
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(path: str):
    """Return (owner, attribute) for "package.module:Attr.attr", or None if it is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans for wrapped targets; layer spans only while `tracing` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.tracing = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, path: str, name: str, always: bool = False,
             skip_under: tuple[str, ...] = (), observe=None) -> None:
        """Record a span named `name` around every call of the target at `path`.

        With always=False the span is recorded only while `tracing` is set.
        Calls made directly inside a span named in `skip_under` are not
        recorded, so their time stays with that span. `observe(span, args,
        result)` runs after the span has closed and may fill `span.info`.
        """
        found = resolve(path)
        if found is None:
            self.missing.append(path)
            return
        owner, attr = found
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not (always or tracer.tracing) or (stack and tracer.spans[stack[-1]].name in skip_under):
                return original(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def take_spans(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def restore(self) -> None:
        """Put every wrapped target back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    out: dict[str, float] = {}
    for s, c in zip(spans, covered):
        out[s.name] = out.get(s.name, 0.0) + s.duration - c
    return out


def spans_json(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.info}
            for s in spans]
