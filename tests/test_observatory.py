"""Tests for the benchmark observatory: history, `repro report`, CLI.

The cross-backend judge has its own module (``test_judge.py``); here we
cover the trajectory file (append/load round-trip, provenance meta), the
report builder (trends, anchor resolution, regression gate), and the CLI
wiring (``bench --history``, ``report`` exit codes, ``--json``).
"""

import copy
import json

import pytest

from repro.bench.runner import collect_meta, run_suite
from repro.cli import main
from repro.errors import ParseError, ReproError
from repro.observatory import (
    HISTORY_SCHEMA,
    REPORT_SCHEMA,
    append_history,
    build_report,
    format_report,
    history_line,
    load_history,
    resolve_anchor,
)


@pytest.fixture(scope="module")
def smoke_document():
    return run_suite("smoke", quick=True, workers=0, timeout=60.0)


def _slowed(document, factor=2.0, pad=0.1):
    """A deep copy of ``document`` with every scenario slowed down."""
    slow = copy.deepcopy(document)
    for row in slow["scenarios"]:
        row["seconds"] = row["seconds"] * factor + pad
    slow["totals"]["busy_seconds"] = sum(r["seconds"] for r in slow["scenarios"])
    return slow


class TestBenchMeta:
    """Satellite: every fresh BENCH document carries provenance meta."""

    def test_document_embeds_meta(self, smoke_document):
        meta = smoke_document["meta"]
        # UTC ISO-8601 with the explicit Z suffix
        assert meta["generated_at"].endswith("Z")
        assert "T" in meta["generated_at"]
        assert meta["hostname"]
        # this test runs inside the repo, so the SHA must resolve
        assert meta["git_sha"] and len(meta["git_sha"]) == 40

    def test_collect_meta_survives_no_git(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        meta = collect_meta()
        assert meta["git_sha"] is None
        assert meta["generated_at"].endswith("Z")

    def test_meta_threads_into_history_line(self, smoke_document):
        line = history_line(smoke_document)
        assert line["schema"] == HISTORY_SCHEMA
        assert line["recorded_at"] == smoke_document["meta"]["generated_at"]
        assert line["git_sha"] == smoke_document["meta"]["git_sha"]
        assert line["hostname"] == smoke_document["meta"]["hostname"]
        assert line["suite"] == "smoke"
        assert line["quick"] is True
        assert line["options"]["checker"] == smoke_document["checker"]
        assert line["bench"] is smoke_document

    def test_pre_meta_documents_still_wrap(self, smoke_document):
        legacy = copy.deepcopy(smoke_document)
        del legacy["meta"]
        line = history_line(legacy)
        # provenance collected on the spot rather than lost
        assert line["recorded_at"].endswith("Z")
        assert line["hostname"]

    def test_non_bench_document_rejected(self):
        with pytest.raises(ReproError, match="not a BENCH document"):
            history_line({"schema": "repro-report/1"})


class TestHistoryRoundTrip:
    def test_append_load_two_runs(self, tmp_path, smoke_document):
        path = tmp_path / "deep" / "HISTORY.jsonl"  # parent dirs created
        append_history(smoke_document, str(path))
        append_history(_slowed(smoke_document), str(path))
        entries = load_history(str(path))
        assert len(entries) == 2
        assert all(e["schema"] == HISTORY_SCHEMA for e in entries)
        # oldest first, full document embedded losslessly
        assert entries[0]["bench"]["totals"] == smoke_document["totals"]
        assert (
            entries[1]["bench"]["totals"]["busy_seconds"]
            > entries[0]["bench"]["totals"]["busy_seconds"]
        )

    def test_blank_and_comment_lines_skipped(self, tmp_path, smoke_document):
        path = tmp_path / "HISTORY.jsonl"
        append_history(smoke_document, str(path))
        with open(path, "a") as handle:
            handle.write("\n# a nightly job left this note\n")
        append_history(smoke_document, str(path))
        assert len(load_history(str(path))) == 2

    def test_suite_filter(self, tmp_path, smoke_document):
        path = tmp_path / "HISTORY.jsonl"
        append_history(smoke_document, str(path))
        other = copy.deepcopy(smoke_document)
        other["suite"] = "full"
        append_history(other, str(path))
        assert len(load_history(str(path), suite="smoke")) == 1
        with pytest.raises(ReproError, match="no runs of suite"):
            load_history(str(path), suite="zoo")

    def test_missing_file_gets_recipe(self, tmp_path):
        with pytest.raises(ReproError, match="repro bench .*--history"):
            load_history(str(tmp_path / "absent.jsonl"))

    def test_malformed_lines_name_path_and_lineno(self, tmp_path, smoke_document):
        path = tmp_path / "HISTORY.jsonl"
        append_history(smoke_document, str(path))
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ParseError, match=r"HISTORY\.jsonl:2: bad JSON"):
            load_history(str(path))

        path.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ParseError, match="not a history line"):
            load_history(str(path))

        path.write_text(json.dumps({"schema": HISTORY_SCHEMA}) + "\n")
        with pytest.raises(ParseError, match="no 'bench' document"):
            load_history(str(path))


class TestAnchorResolution:
    def _entries(self, smoke_document, shas):
        entries = []
        for sha in shas:
            line = history_line(smoke_document)
            line["git_sha"] = sha
            entries.append(line)
        return entries

    def test_index_and_negative_index(self, smoke_document):
        entries = self._entries(smoke_document, ["aaa", "bbb", "ccc"])
        assert resolve_anchor(entries, anchor=0) == 0
        assert resolve_anchor(entries, anchor=2) == 2
        assert resolve_anchor(entries, anchor=-1) == 2
        assert resolve_anchor(entries, anchor=-3) == 0
        with pytest.raises(ReproError, match="out of range"):
            resolve_anchor(entries, anchor=3)
        with pytest.raises(ReproError, match="out of range"):
            resolve_anchor(entries, anchor=-4)

    def test_sha_prefix_picks_most_recent_match(self, smoke_document):
        entries = self._entries(smoke_document, ["abc111", "def222", "abc333"])
        assert resolve_anchor(entries, anchor_sha="abc3") == 2
        assert resolve_anchor(entries, anchor_sha="abc") == 2  # newest wins
        assert resolve_anchor(entries, anchor_sha="def") == 1
        with pytest.raises(ReproError, match="no run with git sha"):
            resolve_anchor(entries, anchor_sha="feed")


class TestBuildReport:
    def test_single_run_is_vacuously_ok(self, smoke_document):
        document = build_report([history_line(smoke_document)])
        assert document["schema"] == REPORT_SCHEMA
        assert document["ok"] is True
        assert document["regressions"]["regressions"] == []
        assert any(
            "single run" in note for note in document["regressions"]["notes"]
        )

    def test_runs_and_trends_shapes(self, smoke_document):
        entries = [
            history_line(smoke_document),
            history_line(_slowed(smoke_document, factor=1.0, pad=0.0)),
        ]
        document = build_report(entries)
        assert [run["index"] for run in document["runs"]] == [0, 1]
        run = document["runs"][0]
        assert run["scenarios"] == smoke_document["totals"]["scenarios"]
        assert 0.0 <= run["cache_hit_rate"] <= 1.0
        assert 0.0 <= run["memo_hit_rate"] <= 1.0
        # one trend slot per run, for every scenario and family
        for series in document["trends"]["scenarios"].values():
            assert len(series["seconds"]) == 2
            assert len(series["status"]) == 2
        for series in document["trends"]["families"].values():
            assert len(series["mean_seconds"]) == 2
            assert series["scenarios"][0] >= 1

    def test_identical_runs_pass_injected_slowdown_fails(self, smoke_document):
        same = [history_line(smoke_document), history_line(smoke_document)]
        assert build_report(same)["ok"] is True

        entries = [
            history_line(smoke_document),
            history_line(_slowed(smoke_document)),
        ]
        document = build_report(entries)
        assert document["ok"] is False
        assert document["regressions"]["regressions"]

    def test_anchor_sha_pins_the_comparison(self, smoke_document):
        slow_line = history_line(_slowed(smoke_document))
        slow_line["git_sha"] = "feedface" + "0" * 32
        entries = [slow_line, history_line(smoke_document)]
        # default anchor (the slow run) vs the fast latest: fine
        assert build_report(entries)["ok"] is True
        # anchoring on the latest's own sha compares it to itself: fine too
        sha = entries[1]["git_sha"]
        assert build_report(entries, anchor_sha=sha[:8])["ok"] is True

    def test_config_mismatch_and_cross_host_notes(self, smoke_document):
        entries = [history_line(smoke_document), history_line(smoke_document)]
        entries[0]["quick"] = False
        entries[0]["hostname"] = "somewhere-else"
        notes = build_report(entries)["regressions"]["notes"]
        assert any("configuration differs on quick" in note for note in notes)
        assert any("different hosts" in note for note in notes)

    def test_empty_history_rejected(self):
        with pytest.raises(ReproError, match="no runs"):
            build_report([])

    def test_format_report_renders(self, smoke_document):
        entries = [
            history_line(smoke_document),
            history_line(_slowed(smoke_document)),
        ]
        text = format_report(build_report(entries))
        assert "bench history: 2 run(s)" in text
        assert "per-family mean seconds" in text
        assert "slowest scenarios" in text
        assert "REGRESSED" in text


class TestCli:
    def test_bench_history_appends_and_report_gates(
        self, tmp_path, smoke_document, capsys
    ):
        history = tmp_path / "HISTORY.jsonl"
        assert (
            main(
                ["bench", "--suite", "smoke", "--quick",
                 "--out", str(tmp_path / "BENCH.json"),
                 "--history", str(history)]
            )
            == 0
        )
        assert "appended to history" in capsys.readouterr().err
        assert len(load_history(str(history))) == 1

        # one run: report renders and exits 0
        assert main(["report", str(history)]) == 0
        assert "single run" in capsys.readouterr().out

        # append an artificially slow second run: report exits non-zero
        append_history(_slowed(smoke_document), str(history))
        assert main(["report", str(history)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_report_json_and_out(self, tmp_path, smoke_document, capsys):
        history = tmp_path / "HISTORY.jsonl"
        append_history(smoke_document, str(history))
        append_history(smoke_document, str(history))
        out = tmp_path / "REPORT.json"
        assert main(["report", str(history), "--json", "--out", str(out)]) == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc["schema"] == REPORT_SCHEMA
        assert stdout_doc["ok"] is True
        assert json.loads(out.read_text())["runs"] == stdout_doc["runs"]

    def test_report_loads_lines_recorded_with_removed_shards_option(
        self, tmp_path, smoke_document, capsys
    ):
        """History lines written while ``shards`` was a bench option (in
        the line's ``options`` and the embedded document) still load, and
        compare equal in configuration to lines recorded without it."""
        old = history_line(copy.deepcopy(smoke_document))
        old["options"]["shards"] = 1
        old["bench"]["shards"] = 1
        path = tmp_path / "HISTORY.jsonl"
        path.write_text(json.dumps(old) + "\n")
        append_history(smoke_document, str(path))
        entries = load_history(str(path))
        assert entries[0]["options"] == entries[1]["options"]
        assert "shards" not in entries[1]["options"]
        assert main(["report", str(path), "--json"]) == 0
        notes = json.loads(capsys.readouterr().out)["regressions"]["notes"]
        assert not any("configuration differs" in note for note in notes)

    def test_report_missing_history_exits_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "no bench history" in capsys.readouterr().err

    def test_report_malformed_history_exits_four(self, tmp_path, capsys):
        path = tmp_path / "HISTORY.jsonl"
        path.write_text("{broken\n")
        assert main(["report", str(path)]) == 4
        assert "parse error" in capsys.readouterr().err
