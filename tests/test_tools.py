"""tools/compare.py end to end: each subcommand on one tree against itself, and a planted change.

The tool runs in a subprocess, so that its BLAS pin and the packages it
imports under other names stay out of the test process.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def compare(*argv):
    """(exit status, stdout lines) of one tools/compare.py run."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "compare.py")] + list(argv),
                          capture_output=True, text=True, timeout=300)
    assert not proc.stderr, proc.stderr
    return proc.returncode, proc.stdout.splitlines()


class TestCompare:
    def test_steps_same_tree_is_identical(self):
        status, lines = compare("steps", SRC, SRC, "--particles", "16", "--steps", "20",
                                "--repeats", "1", "--methods", "WGAD-CA-BLOB,SVGD")
        assert status == 0
        assert lines[0].split() == ["method", "old_us", "new_us", "ratio", "old_flt", "new_flt",
                                    "identical"]
        rows = {line.split()[0]: line.split() for line in lines[1:3]}
        assert set(rows) == {"WGAD-CA-BLOB", "SVGD"}
        assert all(row[-1] == "yes" for row in rows.values())
        assert lines[3].startswith("sum")
        assert lines[4].startswith("target gmm:2, M=16, 20 steps per soak, best of 1 repeats")
        assert len(lines) == 5  # no deviation lines

    def test_gp_same_tree_has_zero_deviation(self):
        status, lines = compare("gp", SRC, SRC, "--points", "4", "--batch", "2", "--repeats", "1")
        assert status == 0
        assert lines[0].split()[-2:] == ["potential", "score"]
        rows = [line.split() for line in lines[1:3]]
        assert [row[:2] for row in rows] == [["synthetic", "221"], ["irregular", "90"]]
        for row in rows:
            assert row[7:9] == ["1.00", "1.00"]  # one cho_factor per point on each side
            assert [float(v) for v in row[9:]] == [0.0, 0.0]
        assert lines[3].endswith("max deviation 0 (bound 1e-10)")

    def test_w2_same_tree_has_zero_deviation(self):
        status, lines = compare("w2", SRC, SRC, "--seeds", "36:37", "--default-seeds", "0:0",
                                "--repeats", "1")
        assert status == 0
        rows = [line.split() for line in lines if line.startswith("gmm2-run ")]
        # one run of 200 iterations with a checkpoint every 100: three instances
        assert [row[:3] for row in rows[:2]] == [["gmm2-run", "3", "old"], ["gmm2-run", "3", "new"]]
        assert rows[0][7:12] == rows[1][7:12]  # cells1, infeas, iters, evals/i, steps/i
        assert not any(line.startswith("default") for line in lines)
        assert lines[-1].startswith("max relative deviation 0 (bound 1e-12)")

    def test_gp_planted_jitter_change_exits_1(self, tmp_path):
        planted = tmp_path / "src"
        shutil.copytree(SRC, planted, ignore=shutil.ignore_patterns("__pycache__"))
        targets = planted / "parvikit" / "targets.py"
        text = targets.read_text()
        assert text.count("    JITTER = 0.04\n") == 1
        targets.write_text(text.replace("    JITTER = 0.04\n", "    JITTER = 0.05\n"))
        status, lines = compare("gp", SRC, str(planted), "--points", "4", "--batch", "2",
                                "--repeats", "1")
        assert status == 1
        assert float(lines[-1].split("max deviation ")[1].split()[0]) > 1e-10

    @pytest.mark.parametrize("argv", [["steps", "--particles", "1"], ["steps", "--target", "gp:2"],
                                      ["gp", "--batch", "0"], ["w2", "--repeats", "0"]])
    def test_bad_option_is_a_usage_error(self, argv):
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "compare.py"), argv[0],
                               SRC, SRC] + argv[1:], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "must be" in proc.stderr
