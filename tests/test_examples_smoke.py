"""Smoke tests: every example script must run end-to-end (scaled down)."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py", ["m88ksim", "400"])
        out = capsys.readouterr().out
        assert "base machine" in out and "SRT machine" in out
        assert "store comparisons" not in out  # sanity: real output text
        assert "faults detected" in out

    def test_custom_program(self, capsys):
        run_example("custom_program.py", [])
        out = capsys.readouterr().out
        assert "checksum" in out
        assert "agreed on every output" in out

    def test_crt_vs_lockstep(self, capsys):
        run_example("crt_vs_lockstep.py", ["m88ksim", "ijpeg", "400"])
        out = capsys.readouterr().out
        assert "Lock0" in out and "Lock8" in out and "CRT" in out
        assert "CRT vs Lock8" in out

    def test_fault_injection_demo(self, capsys):
        run_example("fault_injection_demo.py", ["m88ksim", "4"])
        out = capsys.readouterr().out
        assert "transient single-bit faults" in out
        assert "PSR" in out

    def test_campaign_demo(self, capsys):
        run_example("campaign_demo.py", ["m88ksim", "3"])
        out = capsys.readouterr().out
        assert "simulated kill" in out
        assert "re-ran only" in out
        assert "coverage" in out and "Wilson" in out

    def test_avf_demo(self, capsys):
        # avf_demo exits via sys.exit(main()); 0 means the soundness
        # spot-check against the injection oracle passed.
        with pytest.raises(SystemExit) as excinfo:
            run_example("avf_demo.py", ["200"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "Per-component AVF" in out
        assert "logic-masked" in out and "dead" in out
        assert "soundness holds" in out

    def test_recovery_demo(self, capsys):
        run_example("recovery_demo.py", ["gcc", "800"])
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "unrecoverable" in out
        assert "prefix matches fault-free run" in out
        assert "all three verdicts rendered as designed" in out

    def test_serve_demo(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_example("serve_demo.py", ["m88ksim", "3"])
        out = capsys.readouterr().out
        assert "one execution, two answers" in out
        assert "cache_hit=True" in out
        assert f"drained cleanly; removed {tmp_path}" in out
        assert list(tmp_path.iterdir()) == []  # the workdir is gone

    def test_chaos_demo(self, capsys):
        run_example("chaos_demo.py", ["6", "2"])
        out = capsys.readouterr().out
        assert "byte-identical to clean run: True" in out
        assert "outcome 'infra-failure'" in out
