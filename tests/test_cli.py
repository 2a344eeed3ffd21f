"""Tests for the command-line interface."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.io import dump
from repro.lang import parse_program


class TestStats:
    def test_stats_prints_table(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "76" in output and "pagination" in output


class TestRecord:
    def test_record_writes_json(self, tmp_path, capsys):
        destination = tmp_path / "b74.json"
        assert main(["record", "b74", "-o", str(destination)]) == 0
        payload = json.loads(destination.read_text())
        assert payload["version"] == 1
        assert payload["actions"]
        assert "recorded" in capsys.readouterr().out

    def test_record_unknown_benchmark(self, capsys):
        assert main(["record", "b999"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_record_respects_cap(self, tmp_path):
        destination = tmp_path / "b21.json"
        assert main(["record", "b21", "-o", str(destination), "--max-actions", "20"]) == 0
        payload = json.loads(destination.read_text())
        assert len(payload["actions"]) == 20


class TestSynthesize:
    def test_synthesize_from_recording(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        assert main(["record", "b74", "-o", str(recording_path)]) == 0
        assert main(["synthesize", str(recording_path), "--cut", "4"]) == 0
        output = capsys.readouterr().out
        assert "foreach" in output
        assert "predicted next action" in output

    def test_synthesize_too_short_prefix(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b74", "-o", str(recording_path)])
        assert main(["synthesize", str(recording_path), "--cut", "1"]) == 1
        assert "no generalizing program" in capsys.readouterr().out

    def test_synthesize_with_data_source(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b57", "-o", str(recording_path), "--max-actions", "12"])
        data_path = tmp_path / "data.json"
        from repro.benchmarks import benchmark_by_id

        data_path.write_text(json.dumps(benchmark_by_id("b57").data.value))
        assert main([
            "synthesize", str(recording_path), "--cut", "7", "--data", str(data_path)
        ]) == 0
        assert "ValuePaths" in capsys.readouterr().out

    def test_unknown_backend_exits_2_before_synthesis(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        assert main(["record", "b74", "-o", str(recording_path)]) == 0
        capsys.readouterr()
        for backend in ("redis", "file"):
            assert main([
                "synthesize", str(recording_path), "--cut", "4", "--backend", backend
            ]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert repr(backend) in line
            assert "'memory'" in line and "'remote://host:port'" in line


class TestServe:
    def test_unknown_backend_exits_2_before_serving(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for backend in ("redis", "file"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "2", "--backend", backend],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, cwd=root,
                start_new_session=True,  # one group: cleanup reaches every worker
            )
            try:
                # a server that starts anyway never exits: the timeout fails it
                out, err = proc.communicate(timeout=60)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            assert proc.returncode == 2
            assert "listening" not in out
            (line,) = err.splitlines()
            assert line.startswith("repro serve: ") and repr(backend) in line
            assert "'memory'" in line and "'remote://host:port'" in line


class TestReplay:
    def test_replay_program_against_benchmark(self, tmp_path, capsys):
        program = parse_program(
            "foreach i in Children(/html[1]/body[1]/ul[1], li) do\n"
            "  ScrapeText(i/span[1])"
        )
        program_path = tmp_path / "program.json"
        with open(program_path, "w") as handle:
            dump(program, handle)
        assert main(["replay", str(program_path), "--benchmark", "b74"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12  # b74 has 12 items

    def test_replay_failure_reported(self, tmp_path, capsys):
        program = parse_program("Click(//button[@class='missing'][1])")
        program_path = tmp_path / "program.json"
        with open(program_path, "w") as handle:
            dump(program, handle)
        assert main(["replay", str(program_path), "--benchmark", "b74"]) == 1
        assert "replay failed" in capsys.readouterr().err


def write_program(tmp_path, text, name="program.json"):
    program_path = tmp_path / name
    with open(program_path, "w") as handle:
        dump(parse_program(text), handle)
    return program_path


class TestCheck:
    def test_clean_program_ok(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])\nGoBack")
        assert main(["check", str(program_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_warning_still_passes(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path, "foreach r in Dscts(/, li) do\n  ScrapeText(//h3[1])"
        )
        assert main(["check", str(program_path)]) == 0
        output = capsys.readouterr().out
        assert "never used" in output
        assert "1 warning(s)" in output

    def test_data_typing_error_fails(self, tmp_path, capsys):
        program_path = write_program(tmp_path, 'EnterData(//input[1], x["nope"][1])')
        data_path = tmp_path / "data.json"
        data_path.write_text(json.dumps({"zips": ["48104"]}))
        assert main(["check", str(program_path), "--data", str(data_path)]) == 1
        assert "does not resolve" in capsys.readouterr().out

    def test_recording_file_rejected(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b74", "-o", str(recording_path)])
        assert main(["check", str(recording_path)]) == 2
        assert "serialized program" in capsys.readouterr().err


class TestLint:
    def test_clean_program_ok(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path, "foreach r in Dscts(/, div[@class='card']) do\n  ScrapeText(r//h3[1])"
        )
        assert main(["lint", str(program_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_warning_fails(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])")
        assert main(["lint", str(program_path)]) == 1
        assert "no-extraction" in capsys.readouterr().out

    def test_disable_suppresses(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])")
        assert main(["lint", str(program_path), "--disable", "no-extraction"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_rule_rejected(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])")
        assert main(["lint", str(program_path), "--disable", "bogus"]) == 2
        assert "unknown lint rules" in capsys.readouterr().err


class TestExport:
    def test_export_to_stdout(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "ScrapeText(//h3[1])")
        assert main(["export", str(program_path)]) == 0
        output = capsys.readouterr().out
        assert "from selenium import webdriver" in output

    def test_export_imacros(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "ScrapeText(//h3[1])")
        assert main(["export", str(program_path), "--target", "imacros"]) == 0
        assert "iimPlay" in capsys.readouterr().out

    def test_export_playwright_to_file(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "ScrapeText(//h3[1])")
        destination = tmp_path / "robot.py"
        assert main([
            "export", str(program_path), "--target", "playwright",
            "-o", str(destination),
        ]) == 0
        assert "sync_playwright" in destination.read_text()
        assert "wrote playwright script" in capsys.readouterr().out

    def test_export_bakes_start_url(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "ScrapeText(//h3[1])")
        assert main([
            "export", str(program_path), "--start-url", "http://example.com",
        ]) == 0
        assert "START_URL = 'http://example.com'" in capsys.readouterr().out


class TestExplain:
    def test_explain_per_action(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b74", "-o", str(recording_path)])
        program_path = write_program(
            tmp_path,
            "foreach i in Children(/html[1]/body[1]/ul[1], li) do\n"
            "  ScrapeText(i/span[1])",
        )
        assert main([
            "explain", str(program_path), "--recording", str(recording_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "stmt 0.0" in output
        assert "[iter 1]" in output

    def test_explain_summary(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b74", "-o", str(recording_path)])
        program_path = write_program(
            tmp_path,
            "foreach i in Children(/html[1]/body[1]/ul[1], li) do\n"
            "  ScrapeText(i/span[1])",
        )
        assert main([
            "explain", str(program_path), "--recording", str(recording_path),
            "--summary",
        ]) == 0
        assert "actions per statement" in capsys.readouterr().out


class TestProtocolSchema:
    def test_prints_the_committed_schema(self, capsys):
        from repro.cli import main
        from repro.protocol.schema import SCHEMA_PATH

        assert main(["protocol-schema"]) == 0
        printed = capsys.readouterr().out
        assert printed == SCHEMA_PATH.read_text(), (
            "`repro protocol-schema` output drifted from the committed schema"
        )

    def test_schema_document_shape(self, capsys):
        import json

        from repro.cli import main
        from repro.protocol import PROTOCOL_VERSION

        main(["protocol-schema"])
        document = json.loads(capsys.readouterr().out)
        assert document["protocol_version"] == PROTOCOL_VERSION
        assert "session_snapshot" in document["messages"]


class TestAnalyze:
    def test_clean_program_reports_domains(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path,
            "foreach r in Dscts(/, div[@class='card']) do\n  ScrapeText(r//h3[1])",
        )
        assert main(["analyze", str(program_path)]) == 0
        output = capsys.readouterr().out
        assert "effect:      read-only (safe to auto-replay)" in output
        assert "termination: terminating" in output
        assert "cost:" in output and "fragility:" in output
        assert "ok" in output

    def test_unresolved_selector_fails_with_recording(self, tmp_path, capsys):
        recording_path = tmp_path / "rec.json"
        main(["record", "b74", "-o", str(recording_path)])
        program_path = write_program(
            tmp_path, "ScrapeText(//div[@class='missing'][1])"
        )
        assert main([
            "analyze", str(program_path), "--recording", str(recording_path)
        ]) == 1
        assert "unresolved-selector" in capsys.readouterr().out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path,
            "while true do\n"
            "  ScrapeText(/html[1]/body[1]/div[2]/h3[1])\n"
            "  Click(/html[1]/body[1]/button[1])",
        )
        assert main(["analyze", str(program_path)]) == 0
        assert "possibly-nonterminating" in capsys.readouterr().out

    def test_json_payload(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path,
            "foreach r in Dscts(/, div[@class='card']) do\n  ScrapeText(r//h3[1])",
        )
        assert main(["analyze", str(program_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "analyze"
        assert payload["errors"] == 0
        analysis = payload["analysis"]
        assert analysis["effect"] == "read-only"
        assert analysis["termination"] == "terminating"
        assert analysis["loops"] and analysis["selectors"]

    def test_load_failure_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestDiagnosticsJson:
    def test_check_json_shares_payload_shape(self, tmp_path, capsys):
        program_path = write_program(
            tmp_path, "foreach r in Dscts(/, li) do\n  ScrapeText(//h3[1])"
        )
        assert main(["check", str(program_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "check"
        assert payload["warnings"] == 1
        assert payload["findings"][0]["rule"]

    def test_lint_json_shares_payload_shape(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])")
        assert main(["lint", str(program_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "lint"
        assert any(f["rule"] == "no-extraction" for f in payload["findings"])

    def test_payloads_share_version_and_keys(self, tmp_path, capsys):
        program_path = write_program(tmp_path, "Click(//a[1])\nScrapeText(//h3[1])")
        shapes = []
        for argv in (
            ["check", str(program_path), "--json"],
            ["lint", str(program_path), "--json"],
            ["analyze", str(program_path), "--json"],
        ):
            main(argv)
            payload = json.loads(capsys.readouterr().out)
            shapes.append((payload["version"], set(payload) >= {
                "version", "tool", "findings", "errors", "warnings"
            }))
        assert shapes == [(1, True)] * 3
