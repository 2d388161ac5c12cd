"""Spans around the public calls the benchmark makes, and what they yield.

A span records its name, start and end (seconds on the run's clock), the
span that caused it, the job it belongs to, and attributes: the sizes of
the call (n, m, N, dim, d, support) and counts computed from array sizes
and return values.  Spans stay in memory during the run and are written
out once at the end, one JSON object per line.

The untraced run uses the same `Tracer` with ``enabled=False``: `call`
then invokes the function directly and records nothing.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass, field

# Span attributes that are exact counts and add up across calls.
COUNT_ATTRS = ("bytes_computed", "terms_out", "iterations")


@dataclass
class Span:
    id: int
    parent: int | None
    job: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans when enabled; otherwise a direct pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._origin = time.perf_counter()
        self._job: Span | None = None
        self._alloc_seen: set = set()

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._job
        span = Span(
            id=len(self.spans),
            parent=None if parent is None else parent.id,
            job=None if parent is None else parent.job,
            name=name,
            start=self._now(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def begin_job(self, job_id: int, kind: str, attrs: dict) -> None:
        if self.enabled:
            span = self._open(f"job.{kind}", attrs)
            span.job = job_id
            self._job = span

    def end_job(self, ok: bool) -> None:
        if self.enabled and self._job is not None:
            self._job.end = self._now()
            self._job.attrs["ok"] = ok
            self._job = None

    def call(self, name, fn, *args, attrs=None, counts=None, alloc=False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts(result)`` returns exact counts to store on the span.
        With ``alloc`` the first call of each name and size runs under
        tracemalloc, which slows it, and the span gets its peak traced
        allocation; the peak depends only on the sizes.  A call that
        raises is recorded with ``returned = False`` and the exception
        propagates.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name, attrs or {})
        key = (name, tuple(sorted(span.attrs.items())))
        measure = alloc and key not in self._alloc_seen
        if measure:
            self._alloc_seen.add(key)
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs["returned"] = False
            raise
        finally:
            if measure:
                span.attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            span.end = self._now()
        span.attrs["returned"] = True
        if counts is not None:
            span.attrs.update(counts(result))
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def derive(spans: list[Span]) -> dict:
    """Per-name call counts, busy time and summed attributes, plus job self time.

    A span's self time is its duration minus the part of it its child
    spans cover.  Job spans are the roots; every call span is a child.
    """
    per_name: dict[str, dict] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    job_busy = job_self = 0.0
    jobs = 0
    for s in spans:
        if s.parent is None:
            jobs += 1
            dur = s.end - s.start
            job_busy += dur
            job_self += dur - _covered(children.get(s.id, []))
            continue
        entry = per_name.setdefault(
            s.name,
            {"calls": 0, "returned": 0, "busy_s": 0.0, "sums": {}, "peaks": {}},
        )
        entry["calls"] += 1
        entry["returned"] += int(bool(s.attrs.get("returned")))
        entry["busy_s"] += s.end - s.start
        for key, value in s.attrs.items():
            if key.startswith("peak_"):
                entry["peaks"][key] = max(entry["peaks"].get(key, 0), value)
            elif key in COUNT_ATTRS:
                entry["sums"][key] = entry["sums"].get(key, 0) + value
    return {
        "layers": per_name,
        "jobs": jobs,
        "job_busy_s": job_busy,
        "job_self_s": job_self,
    }
