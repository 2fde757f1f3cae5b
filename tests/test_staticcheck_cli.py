"""The one analysis CLI: the 0/1/2 exit-code contract for AST and flow
rules alike, JSON output, the summary cache and the baseline workflow
with both kinds of finding, and — the acceptance criterion — that the
real tree is clean against the committed baseline, which
``--write-baseline`` reproduces byte for byte."""

import filecmp
import json
import os
import shutil

from repro.staticcheck import main as staticcheck_main
from repro.staticcheck import path_key

import repro

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "staticcheck-baseline.txt")

UNGATED = (
    "class S:\n"
    "    def put(self, k, v):\n"
    "        self._mem.write_u64(k, v)\n"
)


RAISES = "def f():\n    raise ValueError('x')\n"


def main(argv):
    """The CLI, without touching the working directory's summary cache
    (tests that exercise the cache pass their own ``--cache-dir``)."""
    if not any(arg.startswith("--cache-dir") for arg in argv):
        argv = ["--no-cache"] + argv
    return staticcheck_main(argv)


def dirty_file(tmp_path):
    """An ungated store in a ``structures/`` package (in checker scope)."""
    pkg = tmp_path / "structures"
    pkg.mkdir(exist_ok=True)
    target = pkg / "bad.py"
    target.write_text(UNGATED)
    return target


def clean_file(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("def f(x):\n    return x\n")
    return target


# -- exit codes -------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    """0 clean, 1 findings, 2 usage error."""
    clean = clean_file(tmp_path)
    dirty = dirty_file(tmp_path)

    assert main(["--no-baseline", str(clean)]) == 0
    assert main(["--no-baseline", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:3:" in out and "persist-order" in out
    assert main(["--select", "no-such-checker", str(clean)]) == 2
    assert main(["--no-baseline", str(tmp_path / "missing.py")]) == 2
    capsys.readouterr()


def test_exit_code_contract_is_shared_with_lint(tmp_path, capsys):
    """AST (lint) rules and flow rules: 0 clean, 1 findings, 2 usage
    error, from the one CLI."""
    clean = clean_file(tmp_path)
    flow_dirty = dirty_file(tmp_path)
    ast_dirty = tmp_path / "ast_dirty.py"
    ast_dirty.write_text(RAISES)

    for dirty, rule_id, location, bad_flag in (
            (ast_dirty, "typed-errors", "ast_dirty.py:2:",
             ["--select", "no-such-rule"]),
            (flow_dirty, "persist-order", "bad.py:3:",
             ["--select", "no-such-checker"])):
        assert main(["--no-baseline", str(clean)]) == 0
        assert main(["--no-baseline", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert location in out and rule_id in out
        assert main(bad_flag + [str(dirty)]) == 2
    capsys.readouterr()


def test_cli_list_checkers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "persist-order" in out
    assert "det-taint" in out
    assert "pm-escape" in out
    assert "typed-errors" in out


# -- JSON output ------------------------------------------------------------

def test_cli_json_findings(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    assert main(["--format", "json", "--no-baseline", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["findings"]) == 1
    entry = payload["findings"][0]
    assert sorted(entry) == ["col", "line", "message", "path", "rule"]
    assert entry["rule"] == "persist-order"
    assert entry["line"] == 3


def test_cli_json_empty_findings_when_clean(tmp_path, capsys):
    clean = clean_file(tmp_path)
    assert main(["--format", "json", "--no-baseline", str(clean)]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": 1,
                                                   "findings": []}


# -- baseline workflow ------------------------------------------------------

def test_baseline_roundtrip_accepts_then_catches_regressions(tmp_path,
                                                             capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"

    assert main(["--write-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 0
    assert "TODO" in baseline.read_text()  # unjustified entries are marked

    assert main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "baseline-accepted" in capsys.readouterr().err

    # A second violation goes beyond the accepted count: CI must fail.
    dirty.write_text(UNGATED + (
        "    def stamp(self, k):\n"
        "        self._mem.write_u64(0, k)\n"
    ))
    assert main(["--baseline", str(baseline), str(dirty)]) == 1
    capsys.readouterr()


def test_baseline_stale_entries_are_reported(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"
    key = path_key(str(dirty))
    baseline.write_text("# shrunk since\n%s persist-order 5\n" % key)
    assert main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "unused slot" in capsys.readouterr().err


def test_no_baseline_flag_reports_everything(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"
    assert main(["--write-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 0
    assert main(["--no-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 1
    capsys.readouterr()


# -- AST rules in the whole-program run -------------------------------------

def ast_rule_package(tmp_path):
    """A two-module package; one module raises a bare builtin."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "low.py").write_text(RAISES)
    (pkg / "top.py").write_text("from pkg.low import f\n\n\n"
                                "def g():\n    return f()\n")
    return pkg


def test_ast_rule_findings_come_from_the_summary_cache(tmp_path, capsys):
    pkg = ast_rule_package(tmp_path)
    argv = ["--cache-dir", str(tmp_path / "cache"), "--no-baseline",
            "--format", "json", str(pkg)]
    assert main(argv) == 1
    cold = capsys.readouterr()
    assert main(argv) == 1
    warm = capsys.readouterr()
    assert "re-analyzed 2/2" in cold.err
    assert "re-analyzed 0/2" in warm.err
    assert warm.out == cold.out
    rules = [f["rule"] for f in json.loads(cold.out)["findings"]]
    assert rules == ["typed-errors"]


def test_baseline_accepts_ast_rule_findings(tmp_path, capsys):
    pkg = ast_rule_package(tmp_path)
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("# accepted for this test\n%s typed-errors 1\n"
                        % path_key(str(pkg / "low.py")))
    assert main(["--baseline", str(baseline), str(pkg)]) == 0
    assert "clean (1 baseline-accepted" in capsys.readouterr().err

    # One more bare raise goes beyond the accepted count: exit 1.
    (pkg / "low.py").write_text(RAISES + "\n\ndef h():\n"
                                "    raise KeyError('y')\n")
    assert main(["--baseline", str(baseline), str(pkg)]) == 1
    captured = capsys.readouterr()
    assert "low.py:6:" in captured.out and "typed-errors" in captured.out
    assert "1 new finding(s) (1 baseline-accepted)" in captured.err


# -- the tree itself --------------------------------------------------------

def test_real_tree_is_clean_against_committed_baseline(capsys):
    assert main([SRC_REPRO, "--baseline", BASELINE]) == 0
    capsys.readouterr()


def test_write_baseline_reproduces_the_committed_baseline(tmp_path,
                                                          capsys):
    """Regenerating keeps every entry, count, justification line break
    and the header, so the committed file is its own fixed point."""
    target = tmp_path / "staticcheck-baseline.txt"
    shutil.copyfile(BASELINE, target)
    assert main(["--write-baseline", "--baseline", str(target),
                 SRC_REPRO]) == 0
    capsys.readouterr()
    assert filecmp.cmp(str(target), BASELINE, shallow=False), \
        target.read_text()


def test_committed_baseline_is_fully_justified():
    with open(BASELINE, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert "TODO" not in text
    # Every entry line has a justification comment directly above it.
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line and not line.startswith("#"):
            assert index > 0 and lines[index - 1].startswith("#"), line
