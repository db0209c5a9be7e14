"""Resource monitor: RSS/CPU gauges sampled into a tracer."""

import os

from repro import obs


class TestResourceMonitor:
    def test_monitor_records_gauges(self):
        tracer = obs.Tracer()
        with obs.ResourceMonitor(tracer, interval_s=0.03) as monitor:
            ballast = bytearray(4 * 1024 * 1024)
            import time as _time

            _time.sleep(0.12)
            assert len(ballast) > 0
        gauges = tracer.gauges
        assert gauges.get("resource.cpu_s", -1.0) >= 0.0
        if os.path.exists("/proc/self/statm"):
            assert gauges["resource.rss_mb"] > 0
            assert gauges["resource.peak_rss_mb"] >= gauges["resource.rss_mb"]
            assert monitor.peak_rss_mb == gauges["resource.peak_rss_mb"]
            assert tracer.histograms["resource.rss_mb"]

    def test_stop_is_idempotent(self):
        monitor = obs.ResourceMonitor(obs.Tracer(), interval_s=0.05).start()
        monitor.stop()
        monitor.stop()  # second stop must be a no-op
        assert monitor._thread is None
