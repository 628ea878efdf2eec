"""The tools: ``tools/outcome_scan.py --compare`` on synthetic scan lines
(what it calls a difference, what only moved by rounding, and its exit
code), ``--compare`` and ``--check`` under ``-X dev``, the whole scan
against its pinned content (``--check``), the line and token counter
``tools/code_lines.py``, the paired timer ``tools/ab.py`` run on this
tree against itself and against a changed copy, and the stage table
``tools/stage_times.py`` in its three modes."""

import copy
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from porism_lab.figures import FIGURE_IDS


ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


outcome_scan = _tool("outcome_scan")
code_lines = _tool("code_lines")
stage_times = _tool("stage_times")

ROWS = [
    # [quantity, status, verdict, samples, check, tolerance, mean, spread_rel]
    ["circumcircle_residual", "pass", "invariant", 38, "residual", 1e-10, 2.9e-16, 8.1],
    ["ratio_e1", "pass", "invariant", 38, "spread", 1e-9, 1.75, 1e-15],
    ["ratio_i9", "fail", "varies", 38, "spread", 1e-9, float("nan"), float("nan")],
]


def _line(R=1.0):
    return {
        "R": R, "rho": 0.2, "n": 38,
        "verify": {"outcome": "report", "error": None, "rows": copy.deepcopy(ROWS),
                   "max_circumconic_condition": 12.5, "json_sha256": "a", "csv_sha256": "b",
                   "skips_sha256": "g"},
        "sweep": {"outcome": "report", "error": None, "csv_sha256": "c", "skips_sha256": "d"},
        "scalar": {"outcome": "report", "error": None, "values_sha256": "e"},
        "figure:obtuse": {"outcome": "report", "error": None, "svg_sha256": "s"},
        "figure:inconics": {"outcome": "DegenerateConic", "error": "I3x: canonical form is empty"},
    }


def _scans():
    return [_line(1.0), _line(1000.0)], [_line(1.0), _line(1000.0)]


def test_identical_scans_give_nothing():
    before, after = _scans()
    assert outcome_scan.compare(before, after) == ([], [])


@pytest.mark.parametrize("column, value", [(1, "fail"), (2, "varies"), (3, 37), (5, 1e-8)],
                         ids=["status", "verdict", "samples", "tolerance"])
def test_a_changed_row_field_is_a_difference(column, value):
    before, after = _scans()
    after[1]["verify"]["rows"][1][column] = value
    found, _ = outcome_scan.compare(before, after)
    assert len(found) == 1 and found[0].startswith("R=1000.0 rho=0.2 n=38 verify row:")


@pytest.mark.parametrize("run", ["verify", "sweep", "scalar", "figure:obtuse", "figure:inconics"])
def test_a_changed_outcome_or_message_is_a_difference(run):
    before, after = _scans()
    after[0][run]["error"] = "DegenerateConic at t = 0.5"
    found, _ = outcome_scan.compare(before, after)
    assert len(found) == 1 and found[0].startswith(f"R=1.0 rho=0.2 n=38 {run}:")
    after[0][run].update(outcome="DegenerateConic", error=None)
    assert len(outcome_scan.compare(before, after)[0]) == 1


def test_rounding_moves_only():
    before, after = _scans()
    residual, spread = after[0]["verify"]["rows"][0], after[0]["verify"]["rows"][1]
    residual[6] *= 2.0  # a residual mean moves by any amount
    spread[6] *= 1.0 + 5e-14  # within 1e-13
    after[0]["verify"]["max_circumconic_condition"] *= 1.0 + 5e-14
    after[1]["scalar"]["values_sha256"] = "f"
    found, moved = outcome_scan.compare(before, after)
    assert found == []
    assert len(moved) == 4
    assert "R=1000.0 rho=0.2 n=38 scalar values_sha256 differs" in moved


@pytest.mark.parametrize("run", ("verify", "sweep"))
def test_a_changed_skip_log_is_a_difference(run):
    before, after = _scans()
    after[1][run]["skips_sha256"] = "h"
    assert outcome_scan.compare(before, after) == (
        [f"R=1000.0 rho=0.2 n=38 {run} skips_sha256 differs"], [])


def test_a_changed_figure_is_a_difference_never_rounding():
    # Figure bytes are compared exactly, under --compare and under --check;
    # a figure run on one side only is a difference too.
    before, after = _scans()
    after[1]["figure:obtuse"]["svg_sha256"] = "t"
    where = "R=1000.0 rho=0.2 n=38 figure:obtuse"
    assert outcome_scan.compare(before, after) == ([f"{where} svg_sha256 differs"], [])
    assert outcome_scan.check(outcome_scan.pinned(before), after) == [
        f"{where}: {before[1]['figure:obtuse']} -> {after[1]['figure:obtuse']}"]
    del after[0]["figure:inconics"]
    assert len(outcome_scan.compare(before, after)[0]) == 2
    assert len(outcome_scan.check(outcome_scan.pinned(before), after)) == 2


def test_a_spread_mean_beyond_1e_13_is_a_difference():
    before, after = _scans()
    after[0]["verify"]["rows"][1][6] *= 1.0 + 3e-13
    after[1]["verify"]["max_circumconic_condition"] *= 1.0 + 3e-13
    found, moved = outcome_scan.compare(before, after)
    assert len(found) == 2 and moved == []
    assert "ratio_e1 mean" in found[0] and "max_circumconic_condition" in found[1]


def test_nan_on_both_sides_is_neither():
    before, after = _scans()
    for scan in (before, after):
        scan[0]["verify"]["max_circumconic_condition"] = math.nan
    assert math.isnan(after[0]["verify"]["rows"][2][6])
    assert outcome_scan.compare(before, after) == ([], [])
    after[1]["verify"]["rows"][2][6] = 1.0  # NaN on one side only
    assert len(outcome_scan.compare(before, after)[0]) == 1


def test_compare_exit_code(tmp_path, capsys):
    before, after = _scans()
    paths = []
    for name, scan in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(line) + "\n" for line in scan))
    assert outcome_scan.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.endswith("2 configs: 0 differences, 0 moved by rounding\n")
    after[0]["verify"]["rows"][0][1] = "fail"
    paths[1].write_text("".join(json.dumps(line) + "\n" for line in after))
    assert outcome_scan.main(["--compare", str(paths[0]), str(paths[1])]) == 1


def test_compare_and_check_close_the_files_they_read(tmp_path):
    """``--compare`` and ``--check`` under ``python -X dev``, which warns of
    every file left open, print no ResourceWarning."""
    scan, pin = tmp_path / "scan.jsonl", tmp_path / "pin.json"
    scan.write_text("".join(json.dumps(line) + "\n" for line in _scans()[0]))
    pin.write_text(outcome_scan.pinned_text(outcome_scan.pinned(_scans()[0])))
    for args in (["--compare", scan, scan], ["--check", pin, scan]):
        run = subprocess.run([sys.executable, "-X", "dev", str(ROOT / "tools" / "outcome_scan.py"),
                              *map(str, args)], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "ResourceWarning" not in run.stderr, run.stderr


PINNED = ROOT / "tests" / "outcome_scan.json"


def test_the_outcome_scan_matches_the_pinned_scan():
    """The whole outcome scan, run on this tree, has the verdict-level
    content that tests/outcome_scan.json pins (74 verifies pass, 25 have a
    failing row, 60 abort) and the same bytes of every figure: 1,213 SVGs
    and 59 refusals.  That file is regenerated (``--pin``) only with a
    change of outcome or figure bytes that is named as such.  It was made
    with numpy 2.4.6 on x86-64; a numpy or libm whose sin or cos rounds
    differently can move figure digests (README, "Layout")."""
    scan = [outcome_scan.scan_one(*config) for config in outcome_scan.configs()]
    pin = json.loads(PINNED.read_text())
    assert outcome_scan.check(pin, scan) == []
    assert outcome_scan.pinned_text(pin) == PINNED.read_text()


def test_pinned_content_leaves_out_what_rounding_moves():
    before, after = _scans()
    pin = outcome_scan.pinned(before)
    assert pin["counts"] == {"pass": 0, "FAIL": 2, "abort": 0}
    assert pin["rows"] == [[r[0], r[4], r[5]] for r in ROWS]
    for line in after:
        line["verify"]["rows"][0][6] *= 2.0
        line["verify"]["max_circumconic_condition"] = 1.0
        line["scalar"]["values_sha256"] = line["verify"]["json_sha256"] = "moved"
    assert outcome_scan.check(pin, after) == []
    after[1]["verify"]["rows"][1][3] = 37
    after[0]["sweep"]["skips_sha256"] = "other"
    assert outcome_scan.check(pin, after) == [
        "R=1.0 rho=0.2 n=38 sweep: {'outcome': 'report', 'error': None, 'skips_sha256': 'd'}"
        " -> {'outcome': 'report', 'error': None, 'skips_sha256': 'other'}",
        f"R=1000.0 rho=0.2 n=38 verify: {pin['configs'][1]['verify']} -> "
        f"{outcome_scan.pinned(after)['configs'][1]['verify']}"]
    after[0]["verify"] = {"outcome": "DegenerateConic", "error": "E1: conic of rank < 3 at t = 0.0"}
    assert outcome_scan.pinned(after)["counts"] == {"pass": 0, "FAIL": 1, "abort": 1}


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code, with a comment\n"
        '    """Docstring."""\n'
        "    y = (x +\n"
        "         1)\n"
        '    return """not a\n'
        'docstring"""\n'
        "\n"
        'def g(): """One line."""; return 1\n'
    )
    assert code_lines.code_lines(source) == 6


def test_code_lines_print_the_parser_tokens_beside_the_lines(tmp_path, capsys):
    # def f ( ) : NEWLINE INDENT "Doc" NEWLINE return ( 1 + 2 ) NEWLINE
    # DEDENT ENDMARKER: the comment, the NL inside the parentheses and the
    # blank line's NL are not parsed.
    source = 'def f():\n    """Doc."""\n    return (1 +  # c\n            2)\n\n'
    assert code_lines.parser_tokens(source) == 18
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     3     18 {tmp_path / 'a.py'}", f"     1      5 {tmp_path / 'b.py'}",
        "     4     23 total"]


def _ab(parent):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(parent),
                           "--workload", "member-scalar", "--rounds", "2"],
                          capture_output=True, text=True, timeout=300)


def test_ab_of_the_tree_against_itself():
    run = _ab(ROOT)  # a path, so no git is needed
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == ("member-scalar: 2 rounds, seed 1, sides alternating ABBA by round; "
                        "outputs agree on all 16 ops and the warm-up op")
    assert lines[1].startswith("parent (") and lines[2].startswith("tree (")
    assert lines[1].endswith(", 0 failed ops") and lines[2].endswith(", 0 failed ops")
    assert lines[3].startswith("ratio tree/parent: median ") and lines[3].endswith(" of 2 pairs")


def test_ab_stops_where_the_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "porism_lab", tmp_path / "src" / "porism_lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    svg = tmp_path / "src" / "porism_lab" / "svg.py"
    svg.write_text(svg.read_text().replace("_SEGMENTS = 256", "_SEGMENTS = 128"))
    run = _ab(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert run.stdout.startswith("round -1: outputs differ at [0][5]: ")



_SHORT = ["--t-samples", "12", "--runs", "1"]


def test_stage_times_prints_every_stage_and_the_total(capsys):
    assert stage_times.main(_SHORT) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [*stage_times.STAGES, "total"]
    assert all(line.split()[2] == "ms" and float(line.split()[1]) >= 0.0 for line in lines)


def test_stage_times_memory_prints_each_stage_peak_and_kept(capsys):
    assert stage_times.main([*_SHORT, "--memory"]) == 0
    head, *rows, verify = capsys.readouterr().out.splitlines()
    assert head.split()[:3] == ["stage", "peak", "kept"]
    assert [row.split()[0] for row in rows] == list(stage_times.STAGES)
    peaks = {row.split()[0]: float(row.split()[1]) for row in rows}
    # Every stage allocates; the conic stack is the largest of the stages.
    assert min(peaks.values()) > 0.0 and max(peaks, key=peaks.get) == "conics"
    assert verify.startswith("run_verify ") and verify.endswith(" KiB per sample")


@pytest.mark.parametrize("memory", [False, True], ids=["time", "memory"])
def test_stage_times_json(capsys, memory):
    assert stage_times.main([*_SHORT, "--json"] + ["--memory"] * memory) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["t_samples"], out["runs"]) == (12, 1)
    if memory:
        assert list(out["peak_kib"]) == list(out["kept_kib"]) == list(stage_times.STAGES)
        # The rows drop the conic stage after its last row.
        assert out["kept_kib"]["rows"] < 0.0
        assert out["verify_peak_kib"] > 0.0
        # The per-sample figure is rounded to 1e-4, the total to 0.1 KiB.
        assert abs(out["verify_peak_kib_per_sample"] - out["verify_peak_kib"] / 12) <= 0.01
    else:
        assert list(out["median_ms"]) == list(stage_times.STAGES)
        assert out["total_ms"] >= max(out["median_ms"].values())


def test_stage_times_member_prints_every_part_and_each_figure(capsys):
    assert stage_times.main(["--member", "--runs", "1"]) == 0
    *lines, ranks, raised = capsys.readouterr().out.splitlines()
    figures = [f"figure:{i}" for i in FIGURE_IDS]
    assert [line.split()[0] for line in lines] == [*stage_times.MEMBER_PARTS, *figures, "svg",
                                                   "op"]
    assert all(line.split()[2] == "ms" and float(line.split()[1]) >= 0.0 for line in lines)
    head, counts = ranks.split(": ")
    assert head == "rank tests per op (median)"
    assert [count.split(" ", 1)[1] for count in counts.split(", ")] == [
        "by the tier", "by the full filter", "by the SVD"]
    assert raised == "0 ops raised and are left out"


def test_rank_counts_count_each_decision_once():
    """``RankCounts`` counts every rank test once, by what decided it, and
    puts the package's decisions back."""
    from porism_lab import rank
    from porism_lab.geom import ConicMatrix

    counts, before = stage_times.RankCounts(), (rank._certified_full, rank._rank_decision)
    counts.install(rank)
    try:
        ConicMatrix.from_coeffs(1, 0, 1, 0, 0, -1).rank_test  # the tier
        ConicMatrix.from_coeffs(1, 0, 1e-13, 0, 0, -1).rank_test  # the filter: deficient
        ConicMatrix.from_coeffs(1, 0, 1.2e-12, 0, 0, -1).rank_test  # the SVD
        assert counts.take() == (1, 1, 1)
        x = np.array([[1.0, 0, 0, 0, 1, 0, 0, 0, 1], [1.0, 0, 0, 0, 1e-13, 0, 0, 0, 1]]).T
        rank.rank_test_batch(3, 2, lambda cols: x[:, cols])
        rank.rank_test_batch(3, 2, lambda cols: x[:, cols], condition=True)  # no tier
        assert counts.take() == (1, 3, 0)
    finally:
        counts.restore()
    assert (rank._certified_full, rank._rank_decision) == before


def test_svg_time_sums_each_canvas_call_once():
    """``SvgTime`` sums the time of every timed ``SvgCanvas`` call, and puts
    the class's methods back."""
    from porism_lab import svg

    before = {name: vars(svg.SvgCanvas)[name] for name in stage_times.SvgTime.METHODS}
    clock, canvas = stage_times.SvgTime(), svg.SvgCanvas()
    clock.install(svg)
    try:
        start = time.perf_counter()
        canvas.polyline([(0.0, 0.0), (1.0, 1.0)])
        canvas.circle(0.0, 0.0, 1.0)
        canvas.dot(0.5, 0.5)
        canvas.label(0.5, 0.5, "P")
        canvas.render("t")
        outside = time.perf_counter() - start
        inside = clock.take()
        assert 0.0 < inside <= outside
        assert clock.take() == 0.0
    finally:
        clock.restore()
    assert {name: vars(svg.SvgCanvas)[name] for name in stage_times.SvgTime.METHODS} == before


def test_stage_times_member_json(capsys):
    assert stage_times.main(["--member", "--runs", "1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["runs"], out["seed"], out["raised"]) == (1, stage_times.MEMBER_SEED, 0)
    assert list(out["median_ms"]) == [*stage_times.MEMBER_PARTS,
                                      *(f"figure:{i}" for i in FIGURE_IDS), "svg"]
    # The time inside the canvas is a share of its figure's.
    assert 0.0 < out["median_ms"]["svg"] < max(out["median_ms"][f"figure:{i}"]
                                               for i in FIGURE_IDS)
    assert out["op_ms"] > 0.0 and out["op_mean_ms"] > 0.0
    assert list(out["rank_tests"]) == list(stage_times.RankCounts.KINDS)
    # Every member op's conics are well conditioned: the tier decides.
    assert out["rank_tests"]["tier"] > 0
