"""In-memory span log of one benchmark run, and self times from it.

The runner opens a span around each of its calls into a layer's public
functions (``bench.*`` names).  In a traced run the program's own
spans, read from a :class:`repro.obs.Tracer`, are grafted into the same
log, so one tree covers both.  Everything stays in memory until
:meth:`SpanLog.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Iterator


class SpanLog:
    """Spans as dicts: ``id``, ``name``, ``start``, ``end``, ``parent``
    (an ``id`` or ``None``), ``run`` (the run id) and ``attrs``.
    Times are ``time.perf_counter()`` seconds."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[dict] = []
        self._open: list[int] = []

    def _add(self, name: str, start: float, parent: int | None, attrs: dict) -> dict:
        record = {
            "id": len(self.records) + 1,
            "name": name,
            "start": start,
            "end": None,
            "parent": parent,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.records.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent = self._open[-1] if self._open else None
        record = self._add(name, time.perf_counter(), parent, attrs)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def graft(self, tracer, epoch: float) -> None:
        """Copy ``tracer``'s spans into the log.

        ``epoch`` is the tracer's time origin on the ``perf_counter``
        clock.  A program span with no program parent is parented under
        the innermost benchmark span that encloses it in time; the
        runner is single-threaded, so that span is the one that called
        into the program.
        """
        own = [r for r in self.records if r["end"] is not None]
        new_id: dict[int, int] = {}
        for span in sorted(tracer.spans, key=lambda s: s.span_id):
            start = epoch + span.start
            end = start + span.duration
            if span.parent_id in new_id:
                parent = new_id[span.parent_id]
            else:
                mid = 0.5 * (start + end)
                enclosing = [r for r in own if r["start"] <= mid <= r["end"]]
                parent = max(enclosing, key=lambda r: r["start"])["id"] if enclosing else None
            attrs = {k: v for k, v in span.attrs.items() if not k.startswith("__")}
            record = self._add(span.name, start, parent, attrs)
            record["end"] = end
            new_id[span.span_id] = record["id"]

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def subtree(self, root: dict) -> list[dict]:
        """``root`` and every span below it."""
        members = {root["id"]}
        out = [root]
        # Parents always have smaller ids than their children.
        for record in self.records:
            if record["parent"] in members:
                members.add(record["id"])
                out.append(record)
        return out

    def self_times(self, root: dict) -> dict[str, float]:
        """Self time per span name over ``root``'s subtree: each span's
        duration minus the time its child spans cover."""
        spans = self.subtree(root)
        own = {r["id"]: self.duration(r) for r in spans}
        for record in spans[1:]:
            own[record["parent"]] -= self.duration(record)
        totals: dict[str, float] = {}
        for record in spans:
            totals[record["name"]] = totals.get(record["name"], 0.0) + own[record["id"]]
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(r) for r in self.records if r["name"] == name)

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for key, value in extra.items():
                fh.write(json.dumps({"type": key, "value": value}, sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps({"type": "span", **record}, sort_keys=True) + "\n")
