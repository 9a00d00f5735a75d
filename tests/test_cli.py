"""End-to-end command line checks, run in process through main()."""

import argparse
import json
import re
import resource
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import numpy as np
import pytest
from conftest import resealed

from sawbound import automaton
from sawbound.automaton import StateGraph, build, load_graph, save_graph
from sawbound.cli import _parser, format_bound, main
from sawbound.geometry import LEFT, RIGHT
from sawbound.simplify import Options
from sawbound.spectral import MAX_ROUNDS, TOL, optimize

README = Path(__file__).resolve().parents[1] / "README.md"

BASELINE_FLAGS = [
    "--no-line-like",
    "--no-lacking-simpl",
    "--no-small-bridges",
    "--no-large-bridges",
    "--no-small-loops",
    "--no-two-pass",
]


def test_build_then_solve(tmp_path, capsys):
    path = tmp_path / "k6.graph"
    assert main(["build", "--k", "6", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("states: ")
    assert f"wrote {path}" in out
    assert path.is_file()

    assert main(["solve", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bound: ")
    bound = float(out.split()[1])
    assert abs(bound - 2.721548087) < 1e-6


def test_build_baseline_flags_reach_three_states(tmp_path, capsys):
    path = tmp_path / "k4.graph"
    argv = ["build", "--k", "4", "--out", str(path)] + BASELINE_FLAGS
    assert main(argv) == 0
    assert "states: 3" in capsys.readouterr().out


def _peak_rss_mb_now() -> float:
    # the process peak only grows, so a report's figure is at most this
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_build_report_json(tmp_path, capsys):
    path = tmp_path / "k4.graph"
    report = tmp_path / "build.json"
    argv = ["build", "--k", "4", "--out", str(path), "--report", str(report),
            "--no-line-like"]
    assert main(argv) == 0
    printed = int(capsys.readouterr().out.split()[1])
    data = json.loads(report.read_text())
    assert data["states"] == printed
    assert data["file_bytes"] == path.stat().st_size
    assert data["config"]["k"] == 4
    assert data["config"]["options"]["line_like"] is False
    assert data["config"]["options"]["small_loops"] is True
    stats = {}
    build(4, Options(line_like=False), stats=stats)
    names = ("pass2_recomputed", "pass2_keys")
    assert [data[name] for name in names] == [stats[name] for name in names]
    assert data["pass1_s"] > 0 and data["pass2_s"] >= 0
    assert 0 < data["peak_rss_mb"] <= _peak_rss_mb_now()


def test_build_report_expansion_counters(tmp_path, capsys):
    report = tmp_path / "build.json"
    argv = ["build", "--k", "8", "--out", str(tmp_path / "k8.graph"), "--report", str(report)]
    assert main(argv) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    stats = {}
    build(8, stats=stats)
    names = ("rewrite_walks", "memo_hits", "memo_misses", "memo_stale")
    assert [data[name] for name in names] == [stats[name] for name in names]
    assert data["rewrite_walks"] > 0 and data["memo_hits"] > 0


def test_solve_report_json(tmp_path, capsys):
    path = tmp_path / "k6.graph"
    assert main(["build", "--k", "6", "--out", str(path)]) == 0
    capsys.readouterr()

    report = tmp_path / "solve.json"
    assert main(["solve", "--graph", str(path), "--report", str(report)]) == 0
    printed = capsys.readouterr().out
    data = json.loads(report.read_text())
    ceiling = Decimal(data["bound"]).quantize(Decimal("1e-9"), rounding=ROUND_CEILING)
    assert f"bound: {ceiling}\n" == printed
    assert data["converged"] is True
    assert data["fixed_point"] is True
    assert data["rounds_used"] <= MAX_ROUNDS
    assert data["config"]["k"] == 6
    assert abs(data["bound"] - 2.721548087) < 1e-6
    assert 0 < data["peak_rss_mb"] <= _peak_rss_mb_now()


def test_solve_report_round_telemetry(tmp_path, capsys):
    path = tmp_path / "k6.graph"
    save_graph(build(6), str(path))
    res = optimize(load_graph(str(path)))
    assert res.round_changes[-1] == 0
    report = tmp_path / "solve.json"
    assert main(["solve", "--graph", str(path), "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    for key in ("round_iterations", "round_gaps", "round_changes"):
        values = getattr(res, key)
        assert len(values) == res.rounds_used
        assert data[key] == values
    # loose rounds first, and the run ends on a round at the full tolerance
    assert res.round_gaps[0] >= TOL
    assert res.round_gaps[-1] < TOL


def test_report_format_option_is_gone(tmp_path, capsys, monkeypatch):
    # reports are JSON only; the option that picked text or csv is rejected
    monkeypatch.chdir(tmp_path)
    for command in (["build", "--k", "4"], ["solve", "--graph", "absent.graph"],
                    ["ablate", "--k", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--report", "r.json", "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("value, text", [
    (2.679818778045, "2.679818779"),  # k=16 default; rounding to nearest goes below
    (2.684973492599, "2.684973493"),
])
def test_format_bound_rounds_up(value, text):
    assert format_bound(value) == text


def test_readme_names_every_flag():
    # the Command line section and the parser must name the same --flags
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parser = _parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        opt
        for p in sub.choices.values()
        for action in p._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == declared


def test_readme_names_every_report_key(tmp_path, capsys):
    # every key of a build and a solve report, and of its config, is named
    # in backticks in the Command line section
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([a-z0-9_]+)`", section))
    path, report = tmp_path / "k4.graph", tmp_path / "report.json"
    for argv in (["build", "--k", "4", "--out", str(path)], ["solve", "--graph", str(path)]):
        assert main(argv + ["--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data) | set(data["config"]) <= documented
    capsys.readouterr()


def test_readme_names_every_graph_error():
    # every GraphFileError class in automaton.py is named in the Graph files section
    section = README.read_text().split("## Graph files", 1)[1].split("\n## ", 1)[0]
    defined = {
        name
        for name, obj in vars(automaton).items()
        if isinstance(obj, type) and issubclass(obj, automaton.GraphFileError)
    }
    assert "GraphEmptyError" in defined
    assert defined <= set(re.findall(r"Graph[A-Za-z]*Error", section))


def test_ablate_table(tmp_path, capsys):
    report = tmp_path / "ablate.json"
    assert main(["ablate", "--k", "4", "--report", str(report)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "line_like,lacking_simpl,two_pass,bound,states"
    assert len(out) == 7
    combos = [tuple(int(f) for f in line.split(",")[:3]) for line in out[1:]]
    assert combos == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    for line in out[1:]:
        fields = line.split(",")
        assert float(fields[3]) > 2.62002
        assert int(fields[4]) >= 3
    rows = json.loads(report.read_text())
    assert [(r["line_like"], r["lacking_simpl"], r["two_pass"]) for r in rows] == combos
    for row, line in zip(rows, out[1:]):
        assert line.split(",")[3:] == [format_bound(row["bound"]), str(row["states"])]


def test_ablate_bad_k_prints_no_table(capsys):
    assert main(["ablate", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be even and within [4, 40], got 3\n"


def test_verify_clean_graph(tmp_path, capsys):
    path = tmp_path / "k6.graph"
    assert main(["build", "--k", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", str(path), "--n-max", "6"]) == 0
    out = capsys.readouterr().out
    for name in ("children-recomputation", "soundness", "coverage",
                 "erasure-exactness"):
        assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_verify_rejects_large_k(tmp_path, capsys):
    g = build(6)
    tall = StateGraph(12, g.options, g.states, g.allowances, g.offsets, g.ids)
    path = tmp_path / "k12.graph"
    save_graph(tall, str(path))
    assert main(["verify", "--graph", str(path)]) == 2
    assert "k <= 10" in capsys.readouterr().err


def test_verify_catches_tampered_children(tmp_path, capsys):
    g = build(6)
    # drop the last stored Right child of the first state that has one
    seg = next(3 * s + 1 for s in range(len(g)) if len(g.children(s, 1)))
    ids = np.delete(g.ids, g.offsets[seg + 1] - 1)
    offsets = g.offsets.copy()
    offsets[seg + 1:] -= 1
    bad = StateGraph(g.k, g.options, g.states, g.allowances, offsets, ids)
    path = tmp_path / "tampered.graph"
    save_graph(bad, str(path))
    assert main(["verify", "--graph", str(path), "--n-max", "4"]) == 4
    assert "FAIL children-recomputation" in capsys.readouterr().out


@pytest.mark.parametrize("blind_rebuild", [False, True])
def test_verify_catches_a_stale_pass_one_segment(tmp_path, capsys, monkeypatch, blind_rebuild):
    # put back the pass-1 children (the one-pass build's) of one state that
    # pass 2 changes; with a blind rebuild, pass 2 skips that state too, so
    # only the full recomputation over the stored states can tell
    g = build(8)
    one = build(8, Options(two_pass=False))
    s = next(s for s in range(len(g))
             if not np.array_equal(g.ids[g.offsets[3 * s]:g.offsets[3 * s + 3]],
                                   one.ids[one.offsets[3 * s]:one.offsets[3 * s + 3]]))
    counts = np.diff(g.offsets)
    counts[3 * s:3 * s + 3] = np.diff(one.offsets)[3 * s:3 * s + 3]
    ids = np.concatenate((g.ids[:g.offsets[3 * s]],
                          one.ids[one.offsets[3 * s]:one.offsets[3 * s + 3]],
                          g.ids[g.offsets[3 * s + 3]:]))
    stale = StateGraph(8, g.options, g.states, g.allowances,
                       np.concatenate(([0], np.cumsum(counts))), ids)
    if blind_rebuild:
        select = automaton._stale_states

        def skip_s(ctx, starts, passed):
            out = select(ctx, starts, passed)
            return out[out != s] if ctx.opts == Options() else out

        monkeypatch.setattr(automaton, "_stale_states", skip_s)
        assert build(8) == stale
    path = tmp_path / "stale.graph"
    save_graph(stale, str(path))
    assert main(["verify", "--graph", str(path), "--n-max", "4"]) == 4
    assert "FAIL children-recomputation" in capsys.readouterr().out


@pytest.mark.parametrize("planar_a", [True, False])
def test_verify_reports_closure_failures(tmp_path, capsys, planar_a):
    # the single step R is a canonical walk within the budget but not a
    # member; the children recomputed for it leave the stored state set,
    # which soundness and coverage report as failures
    g = build(6, Options(planar_a=planar_a))
    assert bytes([RIGHT]) not in g.states
    states = list(g.states)
    states[5] = bytes([RIGHT])
    path = tmp_path / "closure.graph"
    save_graph(StateGraph(g.k, g.options, states, g.allowances, g.offsets, g.ids), str(path))
    assert main(["verify", "--graph", str(path), "--n-max", "4"]) == 4
    out = capsys.readouterr().out
    assert "FAIL soundness: candidate state" in out
    assert "FAIL coverage" in out


def test_verify_rejects_negative_n_max(tmp_path, capsys):
    path = tmp_path / "k4.graph"
    save_graph(build(4), str(path))
    assert main(["verify", "--graph", str(path), "--n-max", "-1"]) == 2
    assert "--n-max" in capsys.readouterr().err


def test_missing_and_corrupt_files_exit_io(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "absent.graph")]) == 3
    assert "error:" in capsys.readouterr().err
    junk = tmp_path / "junk.graph"
    junk.write_bytes(b"XXXX" + bytes(40))
    assert main(["solve", "--graph", str(junk)]) == 3
    assert "error:" in capsys.readouterr().err


def test_invalid_structure_exits_io(tmp_path, capsys):
    g = build(4)
    path = tmp_path / "bad.graph"
    save_graph(StateGraph(g.k, g.options, g.states, [3] * len(g), g.offsets, g.ids), str(path))
    assert main(["solve", "--graph", str(path)]) == 3
    assert "allowance" in capsys.readouterr().err

    save_graph(g, str(path))
    blob = bytearray(path.read_bytes())
    blob[8] |= 1 << 6  # the retired staged-children option bit
    path.write_bytes(resealed(blob))
    assert main(["solve", "--graph", str(path)]) == 3
    assert "staged-children" in capsys.readouterr().err

    states = list(g.states)
    states[1] = bytes([RIGHT, LEFT, RIGHT])
    save_graph(StateGraph(g.k, g.options, states, g.allowances, g.offsets, g.ids), str(path))
    assert main(["solve", "--graph", str(path)]) == 3
    assert "not a self-avoiding walk" in capsys.readouterr().err


def test_empty_graph_exits_io(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    save_graph(StateGraph(6, Options(), [], [], [0], []), str(path))
    assert main(["solve", "--graph", str(path)]) == 3
    assert "no states" in capsys.readouterr().err


def test_bad_k_exits_usage(tmp_path, capsys):
    assert main(["build", "--k", "5", "--out", str(tmp_path / "x.graph")]) == 2
    assert "error:" in capsys.readouterr().err
