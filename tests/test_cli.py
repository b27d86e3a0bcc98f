import gc
import importlib.util
import os
import random
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cfcolor.cli import main
from cfcolor.coloring import parse_coloring, verify_cf
from cfcolor.generators import complete_bipartite, path
from cfcolor.graph import format_edge_list, parse_edge_list

from reference import naive_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_color_bipartite_gen(capsys):
    code, out, _ = run(capsys, "color", "--mode", "bipartite",
                       "--gen", "complete-bipartite:3:3")
    assert code == 0
    head, body = out.split("\n", 1)
    assert head == "mode=bipartite n=6 m=9 colors_used=3 bound<=3"
    col = parse_coloring(body)
    assert verify_cf(complete_bipartite(3, 3), col).conflict_free()


def test_color_writes_output_file(capsys, tmp_path):
    target = tmp_path / "coloring.txt"
    code, out, _ = run(capsys, "color", "--mode", "general",
                       "--gen", "complete:6", "--output", str(target))
    assert code == 0
    assert "mode=general n=6 m=15" in out
    col = parse_coloring(target.read_text())
    assert col.is_total()


def test_color_tree_mode_is_exact(capsys):
    code, out, _ = run(capsys, "color", "--mode", "tree", "--gen", "path:4")
    assert code == 0
    assert "colors_used=2" in out


def test_color_cycle_mode(capsys):
    code, out, _ = run(capsys, "color", "--mode", "cycle", "--n", "7")
    assert code == 0
    assert "mode=cycle n=7 m=7 colors_used=2 bound<=2" in out


def test_color_dot_format(capsys):
    code, out, _ = run(capsys, "color", "--mode", "cycle", "--n", "4",
                       "--format", "dot")
    assert code == 0
    assert "graph cf {" in out
    assert '0 -- 1 [label="1" color="#1b9e77"];' in out
    assert '1 -- 2 [label="2" color="#d95f02"];' in out


def test_color_rejects_odd_cycle_in_bipartite_mode(capsys):
    code, _, err = run(capsys, "color", "--mode", "bipartite", "--gen", "cycle:5")
    assert code == 2
    assert "not bipartite" in err


def test_probability_out_of_range_is_bad_input(capsys):
    code, out, err = run(capsys, "color", "--mode", "general",
                         "--gen", "random-graph:6:1.7:1")
    assert (code, out) == (2, "")
    assert err == "error: edge probability must lie in [0, 1], got 1.7\n"


def test_bad_generator_spec(capsys):
    code, _, err = run(capsys, "color", "--mode", "general", "--gen", "torus:3")
    assert code == 2
    assert "unknown generator family" in err


@pytest.mark.parametrize("spec, fields", [
    ("complete:4:9", "complete takes 1 field(s), got 2"),
    ("path:4:1:2", "path takes 1 field(s), got 3"),
    ("random-graph:5", "random-graph takes 3 field(s), got 1"),
    ("path:", "path takes 1 field(s), got 0"),
    ("path", "path takes 1 field(s), got 0"),
], ids=["complete:4:9", "path:4:1:2", "random-graph:5", "path:", "path"])
def test_generator_spec_with_wrong_field_count_is_bad_input(capsys, spec, fields):
    code, out, err = run(capsys, "color", "--mode", "general", "--gen", spec)
    assert (code, out) == (2, "")
    assert err == f"error: bad generator spec {spec!r}: {fields}\n"


def test_verify_rejects_hostile_vertex_count_without_allocating(capsys, tmp_path, monkeypatch):
    import cfcolor.graph as graph_mod

    def refuse(*_args):
        raise AssertionError("build_graph called for a hostile header")

    monkeypatch.setattr(graph_mod, "build_graph", refuse)
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("2000000000 0")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("0 0\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph_file),
                         "--coloring", str(coloring_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: header promises 2000000000 vertices for 0 edges")


def test_verify_rejects_negative_vertex_count(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1 0\n")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("0 0\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph_file),
                         "--coloring", str(coloring_file))
    assert (code, out) == (2, "")
    assert err == "error: size too small: vertex count must be >= 0, got -1\n"


def test_missing_input_source(capsys):
    code, _, err = run(capsys, "color", "--mode", "general")
    assert code == 2
    assert "no input source" in err


def test_both_input_sources_rejected(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("2 1\n0 1\n")
    code, _, err = run(capsys, "color", "--mode", "general",
                       "--input", str(f), "--gen", "path:3")
    assert code == 2
    assert "not both" in err


def test_verify_accepts_and_rejects(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("3 2\n0 1\n1 2\n")
    good = tmp_path / "good.txt"
    good.write_text("2 2\n0 1\n1 2\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1\n1 1\n")

    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--coloring", str(good))
    assert code == 0
    assert out == "conflict-free: all 2 edges satisfied\n"

    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--coloring", str(bad))
    assert code == 1
    assert out == "unsatisfied: 0 1\n"


@pytest.mark.parametrize("pick", ["cyclic", "random"])
def test_verify_colors_near_a_billion_stay_bounded(capsys, tmp_path, pick):
    # colors this large must not become bit masks as wide as the color
    g = path(12)
    rng = random.Random(16)
    if pick == "cyclic":
        colors = [10**9 - e % 3 for e in range(g.m)]
    else:
        colors = [rng.choice((0, 10**9 - 1, 10**9)) for _ in range(g.m)]
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(format_edge_list(g))
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text(f"{g.m} {10**9}\n" + "".join(f"{e} {x}\n" for e, x in enumerate(colors)))
    unsatisfied, _ = naive_report(g, parse_coloring(coloring_file.read_text()))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                           "--coloring", str(coloring_file))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if unsatisfied:
        assert (code, out) == (1, "unsatisfied: " + " ".join(map(str, unsatisfied)) + "\n")
    else:
        assert (code, out) == (0, f"conflict-free: all {g.m} edges satisfied\n")
    assert peak < 1024 * 1024


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "general", "--input", "{bad}"],
    ["verify", "--graph", "{bad}", "--coloring", "{c}"],
    ["verify", "--graph", "{g}", "--coloring", "{bad}"],
], ids=["input", "graph", "coloring"])
def test_undecodable_file_is_bad_input(capsys, tmp_path, argv):
    files = {"bad": b"\xff\xfe3 2\n0 1\n", "g": b"3 2\n0 1\n1 2\n", "c": b"2 2\n0 1\n1 2\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, *[a.format(**{n: tmp_path / n for n in files}) for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{tmp_path / 'bad'} is not UTF-8 text" in err


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "bipartite", "--gen", "path:3", "--output", "{missing}/c.txt"],
    ["decide-tree", "--gen", "path:5", "--f-out", "{tmp}/f.txt",
     "--coloring-out", "{missing}/c.txt"],
    ["survey-trees", "--n", "4", "--out", "{missing}/s.csv"],
], ids=["color", "decide-tree", "survey-trees"])
def test_failed_output_write_leaves_stdout_empty(capsys, tmp_path, argv):
    dirs = {"tmp": tmp_path, "missing": tmp_path / "missing"}
    code, out, err = run(capsys, *[a.format(**dirs) for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if argv[0] == "decide-tree":
        assert (tmp_path / "f.txt").read_text() == "1 3\n"


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "bipartite", "--gen", "path:3", "--output", ""],
    ["decide-tree", "--gen", "path:5", "--f-out", ""],
    ["decide-tree", "--gen", "path:5", "--f-out", "{tmp}/f.txt", "--coloring-out", ""],
    ["survey-trees", "--n", "4", "--out", ""],
], ids=["output", "f-out", "coloring-out", "out"])
def test_empty_output_path_is_bad_input(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out, err) == (2, "", "error: output path is empty\n")
    # refused before any file is written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "bipartite", "--input", "", "--gen", "path:3"],
    ["decide-tree", "--input", ""],
    ["oracle", "--input", ""],
    ["verify", "--graph", "", "--coloring", "{tmp}/c.txt"],
    ["verify", "--graph", "{tmp}/g.txt", "--coloring", ""],
], ids=["color-input", "decide-tree-input", "oracle-input", "verify-graph", "verify-coloring"])
def test_empty_input_path_is_bad_input(capsys, tmp_path, argv):
    # Both files are malformed: reading either first would report it instead.
    (tmp_path / "g.txt").write_text("not an edge list\n")
    (tmp_path / "c.txt").write_text("not a coloring\n")
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out, err) == (2, "", "error: input path is empty\n")


@pytest.mark.parametrize("argv,message", [
    (["color", "--mode", "general", "--gen", ""], "unknown generator family ''"),
    (["color", "--mode", "cycle", "--n", "3", "--gen", ""],
     "--mode cycle takes --n, not an input file"),
], ids=["general", "cycle"])
def test_empty_generator_spec_is_a_spec(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--graph", str(tmp_path / "none.txt"),
                       "--coloring", str(tmp_path / "none2.txt"))
    assert code == 2
    assert "error:" in err


def test_verify_negative_palette_is_bad_input(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("0 0\n")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("0 -1\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph_file),
                         "--coloring", str(coloring_file))
    assert code == 2
    assert out == ""
    assert "palette size must be >= 0, got -1" in err
    assert "internal error" not in err


def test_verify_negative_palette_is_named_before_any_entry(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("2 1\n0 1\n")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("1 -1\n0 0\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph_file),
                         "--coloring", str(coloring_file))
    assert (code, out) == (2, "")
    assert err == "error: palette size must be >= 0, got -1\n"


def test_decide_tree_with_witness(capsys, tmp_path):
    f_out = tmp_path / "f.txt"
    col_out = tmp_path / "col.txt"
    code, out, _ = run(capsys, "decide-tree", "--gen", "path:3",
                       "--f-out", str(f_out), "--coloring-out", str(col_out))
    assert code == 0
    assert out == "index=2\n"
    assert f_out.read_text() == "1\n"
    assert parse_coloring(col_out.read_text()).colors == (2, 1)


def test_decide_tree_index_three(capsys, tmp_path, needs_three_tree):
    g_file = tmp_path / "t.txt"
    g_file.write_text(format_edge_list(needs_three_tree))
    code, out, _ = run(capsys, "decide-tree", "--input", str(g_file))
    assert code == 0
    assert out == "index=3\n"


def test_decide_tree_rejects_cycles(capsys):
    code, _, err = run(capsys, "decide-tree", "--gen", "cycle:4")
    assert code == 2
    assert "not a tree" in err


def test_oracle_reports_sandwich(capsys):
    code, out, _ = run(capsys, "oracle", "--gen", "path:4")
    assert code == 0
    assert out == "scf=1 cf=2 sandwich=ok\n"


def test_oracle_respects_k_max(capsys):
    code, out, _ = run(capsys, "oracle", "--gen", "complete:4", "--k-max", "2")
    assert code == 1
    assert "no conflict-free coloring with k <= 2" in out


def test_oracle_budget_exit(capsys):
    code, _, err = run(capsys, "oracle", "--gen", "complete:6",
                       "--budget", "100")
    assert code == 4
    assert "budget exceeded" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--k-max", "0", "error: --k-max must be >= 1, got 0\n"),
    ("--k-max", "-3", "error: --k-max must be >= 1, got -3\n"),
    ("--budget", "-1", "error: --budget must be >= 0, got -1\n"),
])
def test_oracle_rejects_bad_limits(capsys, flag, value, message):
    code, out, err = run(capsys, "oracle", "--gen", "path:3", flag, value)
    assert code == 2
    assert out == ""
    assert err == message


def test_oracle_zero_budget_is_a_budget_not_bad_input(capsys):
    code, _, err = run(capsys, "oracle", "--gen", "path:3", "--budget", "0")
    assert code == 4
    assert err == "budget exceeded after 1 states\n"


def test_oracle_huge_k_max_allocates_nothing_k_sized(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "oracle", "--gen", "path:3", "--k-max", str(10**9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "scf=1 cf=2 sandwich=ok\n")
    assert peak < 1024 * 1024


def _run_under_address_cap(argv: list[str], cap_mib: int) -> subprocess.CompletedProcess:
    # RLIMIT_AS is set in preexec_fn, in the child after fork, so it binds
    # the child only. A child that hangs fails the test by the timeout.
    cap = cap_mib * 1024 * 1024

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "cfcolor.cli", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=limit, timeout=60)


def test_oracle_default_k_max_memory_follows_the_k_reached():
    # With --k-max defaulting to m, count lists sized for k_max up front
    # would hold n * m slots, about 80 GB here; grown one slot per k, the
    # search stopped at k = 1 needs little. This request's VmPeak measured
    # 92 MB (Linux, CPython 3.11), so the cap on the child's address space
    # is 150 MiB.
    proc = _run_under_address_cap(["oracle", "--gen", "path:100000", "--budget", "0"], 150)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", "budget exceeded after 1 states\n")


# Each request has about 10^5 edges. VmPeak was measured with the same
# command (Linux, CPython 3.11); each cap leaves at least 40 % above it.
@pytest.mark.parametrize("argv, header, cap_mib", [
    # VmPeak 80 MiB
    ("color --mode general --gen path:100000",
     "mode=general n=100000 m=99999 colors_used=3 bound<=3", 125),
    # VmPeak 70 MiB
    ("color --mode bipartite --gen path:100000",
     "mode=bipartite n=100000 m=99999 colors_used=3 bound<=3", 125),
    # VmPeak 72 MiB
    ("color --mode tree --gen random-tree:100000:1",
     "mode=tree n=100000 m=99999 colors_used=3 bound<=3", 115),
    # VmPeak 72 MiB
    ("decide-tree --gen random-tree:100000:1", "index=3", 115),
], ids=["color-general", "color-bipartite", "color-tree", "decide-tree"])
def test_large_request_runs_under_an_address_space_cap(argv, header, cap_mib):
    proc = _run_under_address_cap(argv.split(), cap_mib)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == header


def test_out_of_memory_under_an_address_space_cap():
    # 55 MiB is well below this request's VmPeak (80 MiB above). Scanning
    # caps from 40 to 82 MiB on Linux, CPython 3.10 to 3.13 exited 3 from 40
    # to 76 MiB; while main printed a traceback here, it hung at 55 MiB.
    proc = _run_under_address_cap(["color", "--mode", "general", "--gen", "path:100000"], 55)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "internal error: out of memory\n")


def test_survey_trees_csv(capsys, tmp_path):
    out_file = tmp_path / "survey.csv"
    code, out, _ = run(capsys, "survey-trees", "--n", "4", "--out", str(out_file))
    assert code == 0
    assert out == "surveyed 16 trees on n=4: index3=0\n"
    lines = out_file.read_text().splitlines()
    assert lines[0] == "tree,edges,index,agree"
    assert len(lines) == 17
    assert all(row.endswith(",true") for row in lines[1:])
    assert {row.split(",")[2] for row in lines[1:]} == {"2"}


def test_survey_trees_stdout(capsys):
    code, out, err = run(capsys, "survey-trees", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tree,edges,index,agree"
    assert len(lines) == 4
    assert "surveyed 3 trees on n=3: index3=0" in err


def test_survey_trees_counts_index_three(capsys, tmp_path):
    out_file = tmp_path / "survey.csv"
    code, out, _ = run(capsys, "survey-trees", "--n", "6", "--out", str(out_file))
    assert (code, out) == (0, "surveyed 1296 trees on n=6: index3=360\n")
    assert all(row.endswith(",true") for row in out_file.read_text().splitlines()[1:])


def test_round_trip_through_files(capsys, tmp_path):
    g_file = tmp_path / "g.txt"
    col_file = tmp_path / "c.txt"
    code, _, _ = run(capsys, "color", "--mode", "general",
                     "--gen", "random-graph:12:0.4:5", "--output", str(col_file))
    assert code == 0
    from cfcolor.generators import random_graph

    g = random_graph(12, 0.4, 5)
    g_file.write_text(format_edge_list(g))
    code, out, _ = run(capsys, "verify", "--graph", str(g_file),
                       "--coloring", str(col_file))
    assert code == 0
    assert "conflict-free" in out


def test_reverification_failure_maps_to_internal(capsys, monkeypatch):
    import cfcolor.cli as cli_mod
    from cfcolor.coloring import SatisfactionReport

    monkeypatch.setattr(
        cli_mod, "verify_cf",
        lambda g, c: SatisfactionReport(unsatisfied=(0,), witness={}),
    )
    code, _, err = run(capsys, "color", "--mode", "cycle", "--n", "5")
    assert code == 3
    assert "internal error" in err


def test_unexpected_exception_maps_to_internal(capsys, monkeypatch):
    import cfcolor.cli as cli_mod

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "cmd_oracle", boom)
    code, _, err = run(capsys, "oracle", "--gen", "path:4")
    assert code == 3
    assert err.endswith("internal error: RuntimeError: boom\n")


def test_out_of_memory_exits_3_without_a_traceback(capsys, monkeypatch):
    # printing a traceback can spin when the address space is exhausted, so
    # a MemoryError gets one fixed line instead
    import traceback

    import cfcolor.cli as cli_mod

    def oom(g):
        raise MemoryError

    def no_traceback(*args, **kwargs):
        raise AssertionError("traceback printed for a MemoryError")

    monkeypatch.setattr(cli_mod, "bipartite_cf_coloring", oom)
    monkeypatch.setattr(traceback, "print_exc", no_traceback)
    code, out, err = run(capsys, "color", "--mode", "bipartite", "--gen", "path:3")
    assert (code, out, err) == (3, "", "internal error: out of memory\n")


def test_out_of_memory_exits_3_when_its_line_cannot_be_written(monkeypatch):
    # under memory pressure the out-of-memory line itself may fail to print
    import cfcolor.cli as cli_mod

    class ExhaustedStream:
        def write(self, text):
            raise MemoryError

        def flush(self):
            pass

    def oom(g):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "bipartite_cf_coloring", oom)
    monkeypatch.setattr(sys, "stderr", ExhaustedStream())
    assert main(["color", "--mode", "bipartite", "--gen", "path:3"]) == 3


def test_files_are_read_and_written_as_utf8_whatever_the_locale(tmp_path):
    # -X warn_default_encoding warns at every text read or write that falls
    # back on the locale's encoding, and -W error makes that warning raise
    g_file, c_file, f_file, d_file = (str(tmp_path / name)
                                      for name in ("g.txt", "c.txt", "f.txt", "d.txt"))
    Path(g_file).write_text(format_edge_list(path(5)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for argv in (["color", "--mode", "bipartite", "--input", g_file, "--output", c_file],
                 ["verify", "--graph", g_file, "--coloring", c_file],
                 ["decide-tree", "--input", g_file, "--f-out", f_file, "--coloring-out", d_file]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "cfcolor.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert Path(f_file).read_text(encoding="utf-8") == "1 3\n"
    coloring = parse_coloring(Path(d_file).read_text(encoding="utf-8"))
    assert verify_cf(path(5), coloring).conflict_free()


@pytest.mark.parametrize("collector_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, exit_code", [
    (["color", "--mode", "bipartite", "--gen", "path:3"], 0),
    (["oracle", "--gen", "complete:4", "--k-max", "2"], 1),
    (["color", "--mode", "bipartite", "--gen", "cycle:5"], 2),
    (["oracle", "--gen", "path:4"], 3),
    (["oracle", "--gen", "complete:6", "--budget", "100"], 4),
], ids=["exit0", "exit1", "exit2", "exit3", "exit4"])
def test_collector_pause_is_scoped_to_the_request(capsys, monkeypatch, argv, exit_code,
                                                  collector_on):
    import cfcolor.cli as cli_mod

    seen = []

    def boom(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    if exit_code == 3:
        monkeypatch.setattr(cli_mod, "cmd_oracle", boom)
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        code, _, _ = run(capsys, *argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was_on else gc.disable)()
    assert (code, after) == (exit_code, collector_on)
    assert seen == ([False] if exit_code == 3 else [])


def _collections_during(call):
    """(number of cyclic collections started during call(), its result)."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        result = call()
    finally:
        gc.callbacks.remove(count)
    return len(starts), result


def test_request_runs_without_cyclic_collections(capsys, monkeypatch):
    import cfcolor.cli as cli_mod
    from cfcolor.bipartite import bipartite_cf_coloring
    from cfcolor.generators import random_bipartite

    def library_call():
        return bipartite_cf_coloring(random_bipartite(300, 300, 0.05, 1))

    assert gc.isenabled()
    # the same work called as a library does collect, so 0 below is the pause
    assert _collections_during(library_call)[0] > 0
    # counted from the command's start: parsing the arguments may still collect
    counts = []
    real = cli_mod.cmd_color

    def counted(args):
        collections, code = _collections_during(lambda: real(args))
        counts.append(collections)
        return code

    monkeypatch.setattr(cli_mod, "cmd_color", counted)
    argv = ["color", "--mode", "bipartite", "--gen", "random-bipartite:300:300:0.05:1"]
    assert (main(argv), counts) == (0, [0])
    assert capsys.readouterr().out.startswith("mode=bipartite n=600 ")


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "tree", "--gen", "path:5"],
    ["decide-tree", "--gen", "path:5"],
])
def test_tree_requests_run_the_dp_once(capsys, monkeypatch, argv):
    import cfcolor.tree as tree_mod

    calls = []
    original = tree_mod._forward_f

    def counting(rooting):
        calls.append(len(rooting[0]) - 1)
        return original(rooting)

    # every DP run, through any public entry point, starts with the forward
    # pass tree._forward_f
    monkeypatch.setattr(tree_mod, "_forward_f", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "colors_used=2" in out or out.startswith("index=2\n")
    assert calls == [4]


@pytest.mark.parametrize("mode", ["bipartite", "general"])
def test_construction_failure_maps_to_internal(capsys, monkeypatch, mode):
    # the constructions do not verify themselves: a core that satisfies
    # nothing is caught by color's one check on the total, which exits 3
    # with nothing on stdout
    import cfcolor.bipartite as bipartite_mod
    import cfcolor.general as general_mod

    def leaves_all_uncolored(neighbours, incident, is_x, colors, base):
        return None

    monkeypatch.setattr(bipartite_mod, "_dominate", leaves_all_uncolored)
    monkeypatch.setattr(general_mod, "_dominate", leaves_all_uncolored)
    code, out, err = run(capsys, "color", "--mode", mode, "--gen", "path:4")
    assert (code, out) == (3, "")
    assert err == "internal error: construction left edges [0, 1, 2] unsatisfied\n"


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "tree", "--gen", "path:5"],
    ["decide-tree", "--gen", "path:5"],
])
def test_rejected_tree_witness_maps_to_internal(capsys, monkeypatch, argv):
    # the CLI never reads an F set from the user, so a witness that fails
    # the F check is a bug in the package, and nothing reaches stdout
    import cfcolor.cli as cli_mod

    monkeypatch.setattr(cli_mod, "decide_tree", lambda g: (2, frozenset({0, 1})))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("internal soundness failure: "
                   "edge subset rejected, violated edges: [0, 3]\n")


@pytest.mark.parametrize("argv, head, verified", [
    (["color", "--mode", "general", "--gen", "complete:5"], "mode=general", [True]),
    (["color", "--mode", "bipartite", "--gen", "complete-bipartite:3:4"], "mode=bipartite",
     [True]),
    (["color", "--mode", "cycle", "--n", "7"], "mode=cycle", [True]),
    # an index-3 tree, which tree mode colors with the bipartite construction
    (["color", "--mode", "tree", "--gen", "random-tree:9:1"],
     "mode=tree n=9 m=8 colors_used=3", [True]),
    (["decide-tree", "--gen", "random-tree:9:1"], "index=3\n", []),
], ids=["general", "bipartite", "cycle", "tree-index-3", "decide-tree"])
def test_request_verifies_only_the_coloring_it_prints(capsys, monkeypatch, argv, head,
                                                       verified):
    import cfcolor.bipartite as bipartite_mod
    import cfcolor.cli as cli_mod
    import cfcolor.tree as tree_mod

    calls = []

    def counting(g, c):
        calls.append(c.is_total())
        return verify_cf(g, c)

    # every module of the package that calls verify_cf
    for mod in (bipartite_mod, cli_mod, tree_mod):
        monkeypatch.setattr(mod, "verify_cf", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith(head)
    assert calls == verified


@pytest.mark.parametrize("mode, g", [
    ("bipartite", complete_bipartite(3, 4)),
    ("general", complete_bipartite(3, 4)),
    ("tree", path(6)),
])
def test_color_and_verify_never_decode_the_witness(capsys, monkeypatch, tmp_path, mode, g):
    # both commands read only the unsatisfied edges of verify_cf's report
    import cfcolor.coloring as coloring_mod

    def no_decode(self):
        raise AssertionError("witness decoded")

    monkeypatch.setattr(coloring_mod._Witness, "_decoded", no_decode)
    g_file, col_file, bad_file = (tmp_path / name for name in ("g.txt", "c.txt", "bad.txt"))
    g_file.write_text(format_edge_list(g))
    code, out, _ = run(capsys, "color", "--mode", mode, "--input", str(g_file),
                       "--output", str(col_file))
    assert code == 0 and out.startswith(f"mode={mode} ")
    code, out, _ = run(capsys, "verify", "--graph", str(g_file), "--coloring", str(col_file))
    assert (code, out) == (0, f"conflict-free: all {g.m} edges satisfied\n")
    bad_file.write_text(f"{g.m} 1\n" + "".join(f"{e} 1\n" for e in range(g.m)))
    code, out, _ = run(capsys, "verify", "--graph", str(g_file), "--coloring", str(bad_file))
    unsatisfied = " ".join(map(str, range(g.m)))
    assert (code, out) == (1, f"unsatisfied: {unsatisfied}\n")
    # the patch bites: reading a witness would have raised
    with pytest.raises(AssertionError, match="witness decoded"):
        verify_cf(g, parse_coloring(col_file.read_text())).witness.get(0)


def test_verify_never_indexes_the_graph(capsys, monkeypatch, tmp_path):
    # verify checks the edge list and never builds a Graph's index
    import cfcolor.graph as graph_mod

    g = complete_bipartite(3, 4)
    g_file, col_file, bad_file = (tmp_path / name for name in ("g.txt", "c.txt", "bad.txt"))
    g_file.write_text(format_edge_list(g))
    assert run(capsys, "color", "--mode", "bipartite", "--input", str(g_file),
               "--output", str(col_file))[0] == 0
    bad_file.write_text(f"{g.m} 1\n" + "".join(f"{e} 1\n" for e in range(g.m)))
    argvs = [("verify", "--graph", str(g_file), "--coloring", str(c)) for c in (col_file, bad_file)]
    before = [run(capsys, *argv)[:2] for argv in argvs]
    assert before == [(0, f"conflict-free: all {g.m} edges satisfied\n"),
                      (1, "unsatisfied: " + " ".join(map(str, range(g.m))) + "\n")]

    def refuse(*_args):
        raise AssertionError("index built")

    monkeypatch.setattr(graph_mod, "_index", refuse)
    assert [run(capsys, *argv)[:2] for argv in argvs] == before
    # the patch bites: the color command reads a Graph
    assert run(capsys, "color", "--mode", "bipartite", "--input", str(g_file))[0] == 3


@pytest.mark.parametrize("argv, out", [
    (["color", "--mode", "tree", "--gen", "path:5"], "mode=tree n=5 m=4 colors_used=2"),
    (["decide-tree", "--gen", "path:5"], "index=2\nF: 1 3\n"),
    (["decide-tree", "--gen", "path:5", "--f-out", os.devnull, "--coloring-out", os.devnull],
     "index=2\n"),
])
def test_index_two_tree_request_roots_the_tree_once(capsys, monkeypatch, argv, out):
    import cfcolor.tree as tree_mod

    calls = []
    original = tree_mod._require_tree

    def counting(g, min_edges):
        calls.append(g.n)
        return original(g, min_edges)

    monkeypatch.setattr(tree_mod, "_require_tree", counting)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.startswith(out)
    assert calls == [5]


@pytest.mark.parametrize("argv", [
    ["color", "--mode", "cycle", "--n", "7", "--gen", "cycle:5"],
    ["color", "--mode", "general", "--n", "9", "--gen", "path:4"],
])
def test_color_rejects_conflicting_inputs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


REPO = Path(__file__).resolve().parent.parent


def _setuptools_builds_wheels():
    # setuptools ships bdist_wheel itself from 70.1; older ones need `wheel`
    return any(importlib.util.find_spec(name) is not None
               for name in ("setuptools.command.bdist_wheel", "wheel"))


def _install_into_venv(tmp_path, env):
    """Install a copy of the checkout into a fresh venv, offline; return its bin dir.

    The installers write build/ and *.egg-info into the source tree, so they
    run on a copy. The venv sees the system site-packages, which supply pip
    and setuptools, so nothing is downloaded.
    """
    src = tmp_path / "cfcolor-src"
    src.mkdir()
    shutil.copy(REPO / "pyproject.toml", src)
    shutil.copy(REPO / "README.md", src)
    shutil.copytree(REPO / "src", src / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv)], check=True)
    bin_dir = venv / "bin"
    python = str(bin_dir / "python")
    if _setuptools_builds_wheels():
        cmd = [python, "-m", "pip", "install", "--no-build-isolation",
               "--no-index", "--no-deps", "--disable-pip-version-check", str(src)]
    else:
        # both routes write the console script from [project.scripts]
        cmd = [python, "-c", "from setuptools import setup; setup()",
               "develop", "--no-deps"]
    proc = subprocess.run(cmd, cwd=src, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return bin_dir


def test_console_entry_point_installed(tmp_path):
    pytest.importorskip("setuptools")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    bin_dir = _install_into_venv(tmp_path, env)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])

    script = shutil.which("cfcolor", path=env["PATH"])
    assert script is not None
    assert Path(script).parent == bin_dir

    def cfcolor(*argv):
        return subprocess.run([script, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    ok = cfcolor("oracle", "--gen", "path:4")
    assert (ok.returncode, ok.stdout) == (0, "scf=1 cf=2 sandwich=ok\n"), ok.stderr
    bad = cfcolor("color", "--mode", "general", "--gen", "torus:3")
    assert bad.returncode == 2
    assert "unknown generator family" in bad.stderr


def test_module_entry_point_matches_main(capsys):
    argv = ["color", "--mode", "cycle", "--n", "5"]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "cfcolor.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
