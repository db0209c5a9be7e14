"""Run ledger: record construction, persistence, analysis, CLI wiring.

The ledger contract (``docs/OBSERVABILITY.md``): every flow command
appends one ``repro-ledger/1`` JSONL record distilled from its tracer,
``repro ledger`` reads the history back tolerating a torn tail, and
two consecutive identical runs are comparable with exit code 0.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs import ledger


def _make_tracer() -> obs.Tracer:
    tracer = obs.Tracer()
    tracer.install()
    try:
        with obs.span("flow.run"):
            with obs.span("flow.map"):
                obs.count("cache.hit", 3)
            with obs.span("synth.rewrite"):
                obs.count("cache.miss", 1)
        obs.count("spice.newton.iterations", 999)  # hot-loop: not persisted
        obs.gauge("resource.peak_rss_mb", 120.5)
    finally:
        tracer.uninstall()
    return tracer


class TestRecord:
    def test_build_record_shape(self):
        record = ledger.build_record(
            _make_tracer(), command="synthesize", config={"circuit": "ctrl"}
        )
        assert record["schema"] == ledger.LEDGER_SCHEMA
        assert record["command"] == "synthesize"
        assert record["status"] == "ok"
        assert record["duration_s"] > 0
        assert set(record["stages"]) == {"flow.run", "flow.map", "synth.rewrite"}
        assert record["stages"]["flow.run"]["calls"] == 1
        assert record["stages"]["flow.run"]["wall_s"] >= (
            record["stages"]["flow.map"]["wall_s"]
        )
        assert record["counters"] == {"cache.hit": 3, "cache.miss": 1}
        assert "spice.newton.iterations" not in record["counters"]
        assert record["peak_rss_mb"] == 120.5
        assert record["config_fingerprint"]
        json.dumps(record)  # must be plain JSON

    def test_fingerprint_matches_journal(self):
        # Same canonicalization as the run journal, so a journaled run
        # and its ledger record can be correlated by fingerprint.
        from repro.resilience.journal import config_fingerprint

        config = {"circuit": "ctrl", "temperature": 10.0}
        assert ledger.config_fingerprint(config) == config_fingerprint(config)
        assert ledger.config_fingerprint(None) is None


class TestPersistence:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "ledger.jsonl"
        first = ledger.build_record(_make_tracer(), command="a", config={})
        second = ledger.build_record(_make_tracer(), command="b", config={})
        ledger.append(first, path)
        ledger.append(second, path)
        records = ledger.read(path)
        assert [r["command"] for r in records] == ["a", "b"]

    def test_read_tolerates_torn_tail_and_junk(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append(
            ledger.build_record(_make_tracer(), command="a", config={}), path
        )
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"schema": "other/1", "command": "ignored"}\n')
            fh.write('{"schema": "repro-ledger/1", "command": "b"}\n')
            fh.write('{"schema": "repro-ledger/1", "command":')  # torn tail
        records = ledger.read(path)
        assert [r["command"] for r in records] == ["a", "b"]

    def test_read_missing_file(self, tmp_path):
        assert ledger.read(tmp_path / "absent.jsonl") == []

    def test_ledger_path_resolution(self, monkeypatch):
        assert ledger.ledger_path("x.jsonl").name == "x.jsonl"
        for off in ("", "0", "off", "none", "disabled", " OFF "):
            assert ledger.ledger_path(off) is None
        monkeypatch.setenv("REPRO_LEDGER", "from-env.jsonl")
        assert ledger.ledger_path().name == "from-env.jsonl"
        assert ledger.ledger_path("flag-wins.jsonl").name == "flag-wins.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert ledger.ledger_path() is None
        monkeypatch.delenv("REPRO_LEDGER")
        assert str(ledger.ledger_path()) == ledger.DEFAULT_LEDGER_PATH


class TestAnalysis:
    def _record(self, command="synthesize", duration=2.0, stages=None,
                counters=None, fingerprint="abc"):
        return {
            "schema": ledger.LEDGER_SCHEMA,
            "command": command,
            "duration_s": duration,
            "peak_rss_mb": 100.0,
            "config_fingerprint": fingerprint,
            "stages": stages or {},
            "counters": counters or {},
        }

    def test_compare_stage_deltas(self):
        old = self._record(
            duration=2.0,
            stages={"flow.map": {"calls": 1, "wall_s": 1.0, "self_s": 1.0}},
            counters={"cache.hit": 2},
        )
        new = self._record(
            duration=3.0,
            stages={
                "flow.map": {"calls": 1, "wall_s": 1.5, "self_s": 1.5},
                "flow.sta": {"calls": 1, "wall_s": 0.2, "self_s": 0.2},
            },
            counters={"cache.hit": 5},
        )
        delta = ledger.compare(old, new)
        assert delta["same_config"] is True
        assert delta["duration_delta"] == pytest.approx(0.5)
        rows = {row["stage"]: row for row in delta["stages"]}
        assert rows["flow.map"]["delta"] == pytest.approx(0.5)
        assert rows["flow.sta"]["old_s"] is None
        assert rows["flow.sta"]["delta"] is None
        assert delta["counter_deltas"] == {"cache.hit": 3}

    def test_compare_flags_config_mismatch(self):
        delta = ledger.compare(
            self._record(fingerprint="abc"), self._record(fingerprint="xyz")
        )
        assert delta["same_config"] is False

    def test_trend_series_and_sparkline(self):
        records = [
            self._record(command="synthesize", duration=d) for d in (1.0, 2.0, 3.0)
        ] + [self._record(command="evaluate", duration=5.0)]
        series = ledger.trend(records, field="duration_s")
        assert series["synthesize"] == [1.0, 2.0, 3.0]
        assert series["evaluate"] == [5.0]
        assert ledger.trend(records, field="duration_s", last=2)[
            "synthesize"
        ] == [2.0, 3.0]
        spark = ledger.sparkline([1.0, 2.0, 3.0])
        assert len(spark) == 3 and spark[0] != spark[-1]
        assert ledger.sparkline([2.0, 2.0]) == "▁▁"
        assert ledger.sparkline([]) == ""

    def test_trend_stage_field(self):
        records = [
            self._record(
                stages={"flow.map": {"calls": 1, "wall_s": w, "self_s": w}}
            )
            for w in (0.5, 0.7)
        ]
        assert ledger.trend(records, field="stages.flow.map")[
            "synthesize"
        ] == [0.5, 0.7]


class TestCliLedger:
    """Acceptance: two runs -> two records -> comparable with exit 0.

    The conftest fixture points ``REPRO_LEDGER`` at a per-test temp
    file, so these runs never touch a real ``.repro/ledger.jsonl``.
    """

    def _run(self, argv):
        return main(argv)

    def test_two_runs_two_records_compare_ok(self, capsys):
        path = os.environ["REPRO_LEDGER"]
        args = ["synthesize", "ctrl", "--preset", "small", "-s", "baseline"]
        assert self._run(args) == 0
        assert self._run(args) == 0
        records = ledger.read(path)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)
        assert records[0]["config_fingerprint"] == records[1]["config_fingerprint"]
        assert records[0]["stages"], "per-stage table missing"
        capsys.readouterr()

        assert self._run(["ledger", "list"]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out

        assert self._run(["ledger", "compare"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "flow." in out  # per-stage delta rows

        assert self._run(["ledger", "show"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["schema"] == ledger.LEDGER_SCHEMA

        assert self._run(["ledger", "trend"]) == 0
        assert "synthesize" in capsys.readouterr().out

    def test_no_ledger_flag_skips_record(self):
        path = os.environ["REPRO_LEDGER"]
        assert self._run(
            ["synthesize", "ctrl", "--preset", "small", "-s", "baseline",
             "--no-ledger"]
        ) == 0
        assert not os.path.exists(path)

    def test_ledger_disabled_via_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert self._run(["ledger", "list"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_compare_needs_two_records(self, capsys):
        with pytest.raises(SystemExit):
            self._run(["ledger", "compare"])
        assert "no old record" in capsys.readouterr().err

    def test_failed_run_recorded_with_error_status(self):
        path = os.environ["REPRO_LEDGER"]
        # A nonexistent circuit file aborts the command (SystemExit)
        # after the tracer is installed; the ledger must still record
        # the attempt, with error status.
        with pytest.raises(SystemExit):
            self._run(["synthesize", "/nonexistent/x.aig", "--preset", "small"])
        records = ledger.read(path)
        assert len(records) == 1
        assert records[0]["status"] == "error"
