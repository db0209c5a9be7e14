"""Per-process resource monitoring for traced runs.

:class:`ResourceMonitor` is a sampling daemon thread recording RSS/CPU
gauges (and an RSS histogram, so the percentile rendering applies) for
the current process — the per-run resource companion the run ledger
(:mod:`repro.obs.ledger`) persists.
"""

from __future__ import annotations

import os
import threading
import time

from .tracer import Tracer

__all__ = ["ResourceMonitor"]


# ----------------------------------------------------------------------
# Resource monitoring
# ----------------------------------------------------------------------
def _self_rss_mb() -> float | None:
    """Current resident set of this process in MiB (Linux /proc)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        return None


def _self_cpu_s() -> float | None:
    """CPU seconds (user + system) consumed by this process."""
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    except Exception:
        return None


class ResourceMonitor:
    """Daemon thread sampling this process's RSS/CPU into a tracer.

    Gauges (last-value / peak semantics):

    * ``resource.rss_mb`` — most recent resident set;
    * ``resource.peak_rss_mb`` — maximum sampled resident set;
    * ``resource.cpu_s`` — CPU seconds consumed since :meth:`start`;
    * ``resource.cpu_percent`` — average CPU utilisation since start.

    Each sample also feeds the ``resource.rss_mb`` histogram so the
    summary's percentile rendering (p50/p95/p99) applies to memory.
    Overhead is one /proc read + one getrusage per ``interval_s``;
    platforms without /proc keep the CPU gauges and skip RSS.
    """

    def __init__(self, tracer: Tracer, interval_s: float = 0.25):
        self.tracer = tracer
        self.interval_s = max(0.02, interval_s)
        self.peak_rss_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        self._cpu0: float | None = None

    def start(self) -> "ResourceMonitor":
        if self._thread is not None:
            return self
        self._t0 = time.monotonic()
        self._cpu0 = _self_cpu_s()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _sample(self) -> None:
        rss = _self_rss_mb()
        if rss is not None:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            self.tracer.gauge("resource.rss_mb", rss)
            self.tracer.gauge("resource.peak_rss_mb", self.peak_rss_mb)
            self.tracer.observe("resource.rss_mb", rss)
        cpu = _self_cpu_s()
        if cpu is not None and self._cpu0 is not None:
            spent = cpu - self._cpu0
            wall = time.monotonic() - self._t0
            self.tracer.gauge("resource.cpu_s", spent)
            if wall > 0:
                self.tracer.gauge("resource.cpu_percent", 100.0 * spent / wall)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def stop(self) -> None:
        """Stop sampling (idempotent); records one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self._sample()

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
