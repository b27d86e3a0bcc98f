import importlib.util
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cfcolor.cli import main
from cfcolor.coloring import parse_coloring, verify_cf
from cfcolor.generators import complete_bipartite
from cfcolor.graph import format_edge_list, parse_edge_list


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


@pytest.mark.parametrize("spec", ["complete:4:9", "path:4:1:2"])
def test_generator_spec_with_extra_fields_is_bad_input(capsys, spec):
    code, out, err = run(capsys, "color", "--mode", "general", "--gen", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad generator spec {spec!r}:")


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


def test_extension_failure_maps_to_internal(capsys, monkeypatch):
    # a construction whose partial leaves edges unsatisfied is a bug in the
    # package, not bad input: color never reads a partial from the user
    import cfcolor.bipartite as bipartite_mod
    from cfcolor.coloring import EdgeColoring

    def all_uncolored(g, b):
        return EdgeColoring(k=2, colors=(0,) * g.m), None

    monkeypatch.setattr(bipartite_mod, "bipartite_scf_coloring", all_uncolored)
    code, _, err = run(capsys, "color", "--mode", "bipartite", "--gen", "path:4")
    assert code == 3
    assert err == ("internal soundness failure: "
                   "partial coloring leaves edges unsatisfied: [0, 1, 2]\n")


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


@pytest.mark.parametrize("mode, spec", [
    ("general", "complete:5"),
    ("bipartite", "complete-bipartite:3:4"),
])
def test_color_verifies_partial_and_total_once_each(capsys, monkeypatch, mode, spec):
    import cfcolor.bipartite as bipartite_mod
    import cfcolor.cli as cli_mod

    calls = []

    def counting(g, c):
        calls.append(c.is_total())
        return verify_cf(g, c)

    monkeypatch.setattr(bipartite_mod, "verify_cf", counting)
    monkeypatch.setattr(cli_mod, "verify_cf", counting)
    code, _, _ = run(capsys, "color", "--mode", mode, "--gen", spec)
    assert code == 0
    assert calls == [False, True]


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
