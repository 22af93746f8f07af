"""Tests for the command-line tool chain (python -m repro)."""

import pytest

from repro import errors
from repro.cli import main

CLEAN = """
int main(void) {
    long *p = (long*)malloc(8);
    p[0] = 41;
    long v = p[0] + 1;
    free(p);
    print_int(v);
    return 0;
}
"""

BUGGY = """
int main(void) {
    long *p = (long*)malloc(8);
    free(p);
    return (int)(p[0] & 0);
}
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return str(path)


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.c"
    path.write_text(BUGGY)
    return str(path)


class TestRun:
    def test_run_clean(self, clean_file, capsys):
        assert main(["run", clean_file]) == 0
        out = capsys.readouterr().out
        assert "status : exit" in out
        assert "'42'" in out

    def test_run_detects_bug(self, buggy_file, capsys):
        rc = main(["run", buggy_file, "--scheme", "hwst128_tchk"])
        assert rc == errors.EXIT_TEMPORAL
        out = capsys.readouterr().out
        assert "temporal_violation" in out
        assert "TemporalViolation" in out  # trap line

    def test_run_with_stats(self, clean_file, capsys):
        assert main(["run", clean_file, "--stats"]) == 0
        assert "loads" in capsys.readouterr().out

    def test_run_with_trace(self, buggy_file, capsys):
        rc = main(["run", buggy_file, "--scheme", "sbcets",
                   "--trace", "8"])
        assert rc == errors.EXIT_TEMPORAL
        assert "last retired instructions" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.c"]) == errors.EXIT_FAILURE

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main(void) { return undeclared; }")
        assert main(["run", str(path)]) == errors.EXIT_TOOLCHAIN
        assert "error" in capsys.readouterr().err


class TestCompile:
    def test_compile_summary(self, clean_file, capsys):
        assert main(["compile", clean_file]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "entry" in out

    def test_disasm(self, clean_file, capsys):
        assert main(["compile", clean_file, "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out
        assert "jalr" in out

    def test_encode_writes_binary(self, clean_file, tmp_path, capsys):
        out_bin = str(tmp_path / "prog.bin")
        assert main(["compile", clean_file, "--encode", out_bin]) == 0
        blob = open(out_bin, "rb").read()
        assert len(blob) % 4 == 0 and len(blob) > 100

    def test_encoded_binary_decodes(self, clean_file, tmp_path):
        out_bin = str(tmp_path / "prog.bin")
        main(["compile", clean_file, "--encode", out_bin,
              "--scheme", "hwst128_tchk"])
        from repro.isa.encoding import decode_program

        instrs = decode_program(open(out_bin, "rb").read())
        assert any(i.op == "tchk" for i in instrs)


class TestListings:
    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "hwst128_tchk" in out and "sbcets" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "treeadd" in out and "bzip2" in out

    def test_workload_run(self, capsys):
        assert main(["workloads", "--run", "treeadd",
                     "--scale", "small"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_workload_unknown(self, capsys):
        assert main(["workloads", "--run", "nope"]) == 1


class TestJuliet:
    def test_juliet_show(self, capsys):
        assert main(["juliet", "--cwe", "415", "--limit", "1",
                     "--show"]) == 0
        out = capsys.readouterr().out
        assert "CWE415" in out and "free(p)" in out

    def test_juliet_run(self, capsys):
        assert main(["juliet", "--cwe", "476", "--limit", "1",
                     "--scheme", "sbcets"]) == 0
        assert "DETECTED" in capsys.readouterr().out


class TestExperimentsPassthrough:
    def test_hwcost(self, capsys):
        assert main(["experiments", "hwcost"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "fig4" in capsys.readouterr().out


class TestExitCodes:
    """Every ReproError class maps to a distinct documented exit code."""

    def _run(self, tmp_path, source, *argv):
        path = tmp_path / "prog.c"
        path.write_text(source)
        return main(["run", str(path), *argv])

    def test_codes_are_distinct(self):
        codes = [errors.EXIT_OK, errors.EXIT_FAILURE, errors.EXIT_USAGE,
                 errors.EXIT_TOOLCHAIN, errors.EXIT_SPATIAL,
                 errors.EXIT_TEMPORAL, errors.EXIT_MEMFAULT,
                 errors.EXIT_SIMLIMIT, errors.EXIT_ABORT,
                 errors.EXIT_ILLEGAL, errors.EXIT_SHADOW_OOM]
        assert len(set(codes)) == len(codes)

    def test_exit_code_for_walks_mro(self):
        assert errors.exit_code_for(
            errors.ParseError("x", 1, 1)) == errors.EXIT_TOOLCHAIN
        assert errors.exit_code_for(
            errors.SemanticError("x")) == errors.EXIT_TOOLCHAIN
        assert errors.exit_code_for(
            errors.SpatialViolation(0, 0, 0, 8)) == errors.EXIT_SPATIAL
        assert errors.exit_code_for(
            errors.TemporalViolation(0, 1, 2, 3)) == errors.EXIT_TEMPORAL
        assert errors.exit_code_for(
            errors.MemoryFault(0)) == errors.EXIT_MEMFAULT
        assert errors.exit_code_for(
            errors.SimLimitExceeded(9)) == errors.EXIT_SIMLIMIT
        assert errors.exit_code_for(
            errors.ReproError("generic")) == errors.EXIT_FAILURE

    def test_toolchain_error(self, tmp_path):
        rc = self._run(tmp_path, "int main(void) { return nope; }")
        assert rc == errors.EXIT_TOOLCHAIN

    def test_spatial_violation(self, tmp_path):
        src = """
        int main(void) {
            long *a = (long*)malloc(8);
            a[3] = 1;
            return 0;
        }
        """
        rc = self._run(tmp_path, src, "--scheme", "hwst128")
        assert rc == errors.EXIT_SPATIAL

    def test_temporal_violation(self, tmp_path):
        src = """
        int main(void) {
            long *p = (long*)malloc(8);
            free(p);
            return (int)(p[0] & 0);
        }
        """
        rc = self._run(tmp_path, src, "--scheme", "hwst128_tchk")
        assert rc == errors.EXIT_TEMPORAL

    def test_memory_fault(self, tmp_path):
        src = """
        int main(void) {
            long *p = 0;
            return (int)(p[0] & 0);
        }
        """
        rc = self._run(tmp_path, src, "--scheme", "baseline")
        assert rc == errors.EXIT_MEMFAULT

    def test_sim_limit(self, tmp_path):
        src = "int main(void) { while (1) {} return 0; }"
        rc = self._run(tmp_path, src, "--max-instructions", "1000")
        assert rc == errors.EXIT_SIMLIMIT

    def test_nonzero_exit_is_generic_failure(self, tmp_path):
        rc = self._run(tmp_path, "int main(void) { return 3; }")
        assert rc == errors.EXIT_FAILURE

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing file operand
        assert exc.value.code == errors.EXIT_USAGE


class TestFaultCampaign:
    def test_smoke_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        rc = main(["faultcampaign", "--scheme", "hwst128", "--n", "6",
                   "--seed", "5", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fault campaign" in text
        import json

        report = json.loads(open(out).read())
        assert report["schema"] == "repro.faultinject/v1"
        assert sum(report["scoreboard"].values()) == 6
        assert report["scoreboard"]["crash"] == 0
        assert report["scoreboard"]["hang"] == 0

    def test_unknown_family_is_usage_error(self, capsys):
        rc = main(["faultcampaign", "--faults", "nope", "--n", "1"])
        assert rc == errors.EXIT_USAGE
        assert "unknown fault families" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# robustness exit codes + signal handling (repro serve / campaigns)
# ---------------------------------------------------------------------------

import json
import os
import signal
import subprocess
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestRobustnessExitCodes:
    def test_new_codes_are_stable(self):
        assert errors.EXIT_INTERRUPTED == 12
        assert errors.EXIT_OVERLOAD_SHED == 13
        assert errors.EXIT_DRAIN_TIMEOUT == 14

    def test_error_classes_map_to_their_codes(self):
        assert errors.exit_code_for(
            errors.CampaignInterrupted(3, 10)) == errors.EXIT_INTERRUPTED
        assert errors.exit_code_for(
            errors.OverloadShed("queue full")) == \
            errors.EXIT_OVERLOAD_SHED
        assert errors.exit_code_for(
            errors.DrainTimeout(2, 5.0)) == errors.EXIT_DRAIN_TIMEOUT

    def test_status_mapping_is_shared_with_serve(self):
        # The serve envelope's cli_exit_code uses this same function,
        # so the CLI and the service can never disagree.
        assert errors.exit_code_for_status("exit", 0) == errors.EXIT_OK
        assert errors.exit_code_for_status("exit", 3) == \
            errors.EXIT_FAILURE
        assert errors.exit_code_for_status("temporal_violation") == \
            errors.EXIT_TEMPORAL
        assert errors.exit_code_for_status("limit") == \
            errors.EXIT_SIMLIMIT


#: Per campaign subcommand: extra argv, report schema, and the rows of
#: its report that ``completed`` counts. Each outlives its first 0.1 s heartbeat by at
#: least one more batch (fuzz: 25-program rounds; the others: 16 cells).
_CAMPAIGNS = {
    "fuzz": (["--n", "50"], "repro.fuzz/v1",
             lambda report: len(report["programs"])),
    "faultcampaign": (["--n", "200"], "repro.faultinject/v1",
                      lambda report: len(report["injections"])),
    "conform": ([], "repro.spec/v1",
                lambda report: report["totals"]["cells"]),
}


class TestGracefulInterrupt:
    @pytest.mark.parametrize("command", sorted(_CAMPAIGNS))
    def test_sigterm_flushes_truncated_report(self, command, tmp_path):
        """SIGTERM mid-campaign: the current batch finishes, a valid
        truncated report over the completed cells reaches --out, and
        the exit code is 12."""
        argv, schema, rows = _CAMPAIGNS[command]
        out = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", command, *argv,
             "--heartbeat", "0.1", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        try:
            first = proc.stderr.readline()   # first heartbeat tick
            assert first.strip(), "campaign produced no heartbeat"
            proc.send_signal(signal.SIGTERM)
            _, stderr_rest = proc.communicate(timeout=180)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == errors.EXIT_INTERRUPTED
        assert "interrupt" in (first + stderr_rest)
        report = json.loads(out.read_text())
        assert report["schema"] == schema
        assert report["interrupted"] is True
        assert report["completed"] == rows(report)
        total = json.loads(first)["total"]
        assert 0 < report["completed"] < total
