import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import simqwalk.walk
from simqwalk import karate_club_edges
from simqwalk.cli import _build_parser, _json_text, main

from reference_karate import TRIANGLE_COMMUNITIES

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def edges_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "karate.txt"
    path.write_text(
        "# benchmark fixture\n"
        + "\n".join(f"{u} {v}" for u, v in karate_club_edges())
        + "\n"
    )
    return path


def run_cli(args, out_path):
    code = main(args + ["--output", str(out_path)])
    return code, out_path.read_text()


def test_build_counts(edges_file, tmp_path):
    code, text = run_cli(["build", str(edges_file)], tmp_path / "b.json")
    assert code == 0
    doc = json.loads(text)
    assert doc["counts"] == {"0": 34, "1": 78, "2": 45, "3": 11, "4": 2}
    assert doc["max_dim"] == 4


def test_build_respects_max_dim(edges_file, tmp_path):
    code, text = run_cli(["build", "--max-dim", "2", str(edges_file)], tmp_path / "b2.json")
    assert code == 0
    assert json.loads(text)["counts"] == {"0": 34, "1": 78, "2": 45}


def test_output_bytes_stable(edges_file, tmp_path):
    args = ["detect", "--dim", "2", "--time-steps", "60", str(edges_file)]
    _, first = run_cli(list(args), tmp_path / "one.json")
    _, second = run_cli(list(args), tmp_path / "two.json")
    assert first == second


def test_spectrum_json(edges_file, tmp_path):
    code, text = run_cli(["spectrum", "--dim", "0", str(edges_file)], tmp_path / "s.json")
    assert code == 0
    doc = json.loads(text)
    assert doc["dim"] == 0
    assert doc["betti"] == 1
    assert len(doc["eigenvalues"]) == 34
    assert doc["eigenvalues"] == sorted(doc["eigenvalues"])


def test_walk_table(edges_file, tmp_path):
    code, text = run_cli(
        ["walk", "--dim", "1", "--source", "33,34", "--time-steps", "40", str(edges_file)],
        tmp_path / "w.json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["source"] == [33, 34]
    assert len(doc["table"]) == 78
    assert all(0.0 <= row["q"] <= 1.0 for row in doc["table"])


def test_walk_source_canonicalized(edges_file, tmp_path):
    code, text = run_cli(
        ["walk", "--dim", "1", "--source", "34,33", "--time-steps", "5", str(edges_file)],
        tmp_path / "w2.json",
    )
    assert code == 0
    assert json.loads(text)["source"] == [33, 34]


def test_walk_source_not_integers_is_validation_error(edges_file, capsys):
    assert main(["walk", "--dim", "1", "--source", "1,x", str(edges_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: --source takes comma-joined vertex ids")
    assert err.count("\n") == 1


def test_detect_triangles(edges_file, tmp_path):
    code, text = run_cli(
        ["detect", "--dim", "2", "--time-steps", "100", str(edges_file)], tmp_path / "d.json"
    )
    assert code == 0
    doc = json.loads(text)
    got = {frozenset(tuple(s) for s in com) for com in doc["communities"]}
    assert got == {frozenset(c) for c in TRIANGLE_COMMUNITIES}
    assert doc["modularity"] == pytest.approx(0.515, abs=1e-3)


def test_detect_dot_edges_colored(edges_file, tmp_path):
    code, text = run_cli(
        ["detect", "--dim", "1", "--format", "dot", "--time-steps", "20", str(edges_file)],
        tmp_path / "d.dot",
    )
    assert code == 0
    assert text.startswith("graph communities {")
    assert '33 -- 34 [color="' in text


def test_detect_dot_higher_dim_has_table(edges_file, tmp_path):
    code, text = run_cli(
        ["detect", "--dim", "3", "--format", "dot", "--time-steps", "20", str(edges_file)],
        tmp_path / "d3.dot",
    )
    assert code == 0
    assert "// 3-simplex communities:" in text
    assert "(9,31,33,34)" in text


def test_detect_renders_dot_only_for_dot_format(edges_file, tmp_path, monkeypatch):
    def unexpected(*args):
        raise AssertionError("DOT rendered for non-DOT output")

    monkeypatch.setattr("simqwalk.cli._detect_dot", unexpected)
    for fmt in ("json", "csv"):
        code, _ = run_cli(
            ["detect", "--dim", "2", "--format", fmt, "--time-steps", "5", str(edges_file)],
            tmp_path / f"d.{fmt}",
        )
        assert code == 0


def test_modularity_roundtrip(edges_file, tmp_path):
    code, text = run_cli(
        ["detect", "--dim", "2", "--time-steps", "100", str(edges_file)], tmp_path / "d.json"
    )
    assert code == 0
    detected = json.loads(text)
    partition_file = tmp_path / "part.json"
    partition_file.write_text(json.dumps({"communities": detected["communities"]}))
    code, text = run_cli(
        ["modularity", "--dim", "2", "--partition", str(partition_file), str(edges_file)],
        tmp_path / "m.json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["modularity"] == pytest.approx(detected["modularity"], abs=1e-12)
    assert doc["arc_count"] == 302
    assert sum(doc["contributions"]) == pytest.approx(doc["modularity"], abs=1e-9)


_LOADS_SCIPY = """
import json, sys
from pathlib import Path
import simqwalk

edges, work, commands = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
loaded = [sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]
import simqwalk.cli

for argv in commands:
    if isinstance(argv, str):  # a library call
        exec(argv, {"simqwalk": simqwalk})
    else:
        if argv[0] == "modularity":
            argv = argv + ["--partition", str(work / "part.json")]
        assert simqwalk.cli.main(argv + [str(edges), "--output", str(work / "out.json")]) == 0
        if argv[0] == "detect" and "finite" in argv:
            communities = json.loads((work / "out.json").read_text())["communities"]
            (work / "part.json").write_text(json.dumps({"communities": communities}))
    loaded.append(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""


def _scipy_modules(edges_file, work, commands):
    """The scipy modules loaded in a fresh interpreter after ``import
    simqwalk`` and after each command, run in turn: a CLI argv list, or a
    string of Python run with ``simqwalk`` in scope."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _LOADS_SCIPY, str(edges_file), str(work),
                           json.dumps(commands)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scipy_loads_only_where_a_sparse_matrix_is_made(edges_file, tmp_path):
    # numpy alone: the package and every command
    commands = [["build"], *(["spectrum", "--dim", str(n)] for n in range(3)),
                ["verify", "--dim", "1"], ["verify", "--dim", "2"],
                ["detect", "--dim", "2", "--method", "finite", "--time-steps", "5"],
                ["modularity", "--dim", "2"], ["detect", "--dim", "2", "--method", "spectral"],
                ["walk", "--dim", "2", "--source", "1,2,3", "--time-steps", "5"],
                ["walk", "--dim", "2", "--source", "1,2,3", "--method", "spectral"]]
    assert _scipy_modules(edges_file, tmp_path, commands) == [[]] * (len(commands) + 1)
    # the public sparse builders load scipy.sparse on first use, each in a
    # fresh interpreter, as scipy once loaded stays loaded
    for call in ("simqwalk.karate_club_complex().boundary_matrix(1)",
                 "simqwalk.hodge_laplacian(simqwalk.karate_club_complex(), 1)"):
        before, after = _scipy_modules(edges_file, tmp_path, [call])
        assert before == [] and "scipy.sparse" in after, call


def test_no_command_loads_scipy_linalg(edges_file, tmp_path):
    # no scipy module at all, scipy.linalg included, on dims 1 and 3 too
    commands = [["build"], ["detect", "--dim", "1", "--method", "finite", "--time-steps", "5"],
                ["detect", "--dim", "1", "--method", "spectral"], ["modularity", "--dim", "1"],
                ["walk", "--dim", "3", "--source", "1,2,3,4", "--method", "spectral"],
                ["walk", "--dim", "3", "--source", "1,2,3,4", "--time-steps", "5"],
                ["spectrum", "--dim", "1"], ["verify", "--dim", "2"]]
    assert _scipy_modules(edges_file, tmp_path, commands) == [[]] * (len(commands) + 1)


def test_verify_reports_identities(edges_file, tmp_path):
    # 1 <= n < max_dim multiplies two boundary matrices
    flags = ["boundary_product_zero", "up_down_zero", "down_up_zero", "all_hold"]
    for n in ("1", "2"):
        code, text = run_cli(["verify", "--dim", n, str(edges_file)], tmp_path / "v.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["dim"] == int(n)
        for flag in flags:
            assert doc[flag] is True, (n, flag)

        code, text = run_cli(
            ["verify", "--dim", n, "--format", "csv", str(edges_file)], tmp_path / "v.csv"
        )
        assert code == 0
        assert text.splitlines() == ["identity,holds"] + [f"{flag},True" for flag in flags]


def test_json_converts_numpy_scalars():
    payload = {"flag": np.bool_(True), "count": np.int64(3), "x": [np.float32(0.1)]}
    assert json.loads(_json_text(payload)) == {"flag": True, "count": 3, "x": [0.10000000149]}


def test_csv_format(edges_file, tmp_path):
    code, text = run_cli(["build", "--format", "csv", str(edges_file)], tmp_path / "b.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "dim,count"
    assert lines[1] == "0,34"

    code, text = run_cli(
        ["detect", "--dim", "4", "--format", "csv", str(edges_file)], tmp_path / "d.csv"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "community,simplex"
    assert lines[1] == "0,1 2 3 4 8"


def test_walk_spectral_method(edges_file, tmp_path):
    code, text = run_cli(
        ["walk", "--dim", "2", "--source", "1,2,3", "--method", "spectral", str(edges_file)],
        tmp_path / "ws.json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["method"] == "spectral"
    assert doc["time_steps"] is None
    assert len(doc["table"]) == 44  # active triangles only

    code, text = run_cli(
        ["walk", "--dim", "2", "--source", "1,2,3", "--time-steps", "400", str(edges_file)],
        tmp_path / "wf.json",
    )
    finite = {tuple(r["target"]): r["q"] for r in json.loads(text)["table"]}
    exact = {tuple(r["target"]): r["q"] for r in doc["table"]}
    assert max(abs(finite[t] - exact[t]) for t in exact) < 1e-3


def test_spectrum_tolerance_flag(edges_file, tmp_path):
    code, text = run_cli(
        ["spectrum", "--dim", "0", "--tolerance", "100", str(edges_file)], tmp_path / "st.json"
    )
    assert code == 0
    assert json.loads(text)["betti"] == 34  # everything below an absurd tolerance


def test_detect_threshold_flag(edges_file, tmp_path):
    code, text = run_cli(
        ["detect", "--dim", "4", "--threshold", "geq", str(edges_file)], tmp_path / "dg.json"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["communities"] == [[[1, 2, 3, 4, 8], [1, 2, 3, 4, 14]]]
    assert doc["modularity"] == 0.0


def test_detect_without_adjacency_reports_null_modularity(tmp_path):
    bowtie = tmp_path / "bowtie.txt"
    bowtie.write_text("1 2\n1 3\n2 3\n3 4\n3 5\n4 5\n")
    code, text = run_cli(["detect", "--dim", "2", str(bowtie)], tmp_path / "db.json")
    assert code == 0
    doc = json.loads(text)
    assert doc["modularity"] is None
    assert len(doc["communities"]) == 2


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["build", str(tmp_path / "missing.txt")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_non_utf8_input_is_io_error(tmp_path, capsys):
    bad = tmp_path / "binary.txt"
    bad.write_bytes(b"\xff\xfe1 2\n2 3\n")
    assert main(["build", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: i/o error:") and "UTF-8" in err
    assert err.count("\n") == 1


def test_bad_dimension_is_validation_error(edges_file, capsys):
    assert main(["spectrum", "--dim", "9", str(edges_file)]) == 1
    capsys.readouterr()


def test_bad_flag_exits_1(edges_file):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--dim", "2", "--method", "bogus", str(edges_file)])
    assert exc.value.code == 1


_CLI_CALLS = """
import contextlib, hashlib, io, json, sys
import simqwalk.cli

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = simqwalk.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))])
print(json.dumps(results))
"""


def _cli_calls(commands, prelude="", **env):
    """Exit code and SHA-256 of stdout and of stderr of each CLI argv, run in
    turn in one fresh interpreter with ``env`` added to its environment,
    after the statements ``prelude``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    done = subprocess.run([sys.executable, "-c", prelude + _CLI_CALLS, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_one_parser_serves_every_call_after_a_bad_flag(edges_file):
    assert _build_parser() is _build_parser()
    bad = ["detect", "--dim", "2", "--method", "bogus", str(edges_file)]
    build = ["build", str(edges_file)]
    detect = ["detect", "--dim", "2", "--time-steps", "5", str(edges_file)]
    together = _cli_calls([bad, build, detect])
    assert [code for code, *_ in together] == [1, 0, 0]
    assert together == _cli_calls([bad]) + _cli_calls([build]) + _cli_calls([detect])


def test_dot_only_for_detect(edges_file, capsys):
    assert main(["build", "--format", "dot", str(edges_file)]) == 1
    capsys.readouterr()


def test_vertex_ids_beyond_int64(tmp_path):
    big = 10**20
    path = tmp_path / "big.txt"
    path.write_text(f"1 2\n2 {big}\n1 {big}\n")
    _, text = run_cli(["build", str(path)], tmp_path / "b.json")
    assert json.loads(text) == {"max_dim": 2, "counts": {"0": 3, "1": 3, "2": 1}}
    _, text = run_cli(["spectrum", "--dim", "1", str(path)], tmp_path / "s.json")
    assert json.loads(text) == {"dim": 1, "eigenvalues": [3.0, 3.0, 3.0], "betti": 0}
    _, text = run_cli(["detect", "--dim", "1", str(path)], tmp_path / "d.json")
    doc = json.loads(text)
    assert doc["communities"] == [[[1, 2], [2, big]], [[1, big]]]
    assert doc["modularity"] == -0.222222222222
    assert f"{big}" in text


def test_self_loop_input_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    assert main(["build", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1 x\n", "line 1: non-integer vertex in '1 x'"),
    ("1 2\n1 2.0\n", "line 2: non-integer vertex in '1 2.0'"),
    ("# header\n1\n", "line 2: expected two vertex ids, got '1'"),
    ("1 2 3\n", "line 1: expected two vertex ids, got '1 2 3'"),
    ("1 2 # note\n", "line 1: expected two vertex ids, got '1 2 # note'"),
    ("1 2\n0 1\n", "line 2: vertex ids must be >= 1"),
    ("1 2\n\n2 -3\n", "line 3: vertex ids must be >= 1"),
    ("1 2\r\n\r\n3 3\r\n", "line 3: self-loop at vertex 3"),
    ("", "empty complex"),
    ("# nothing\n\n", "empty complex"),
], ids=["word", "float", "one-id", "three-ids", "trailing-comment", "zero", "negative", "self-loop",
        "empty", "comments-only"])
def test_malformed_edge_file_message(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text.encode())
    assert main(["build", str(bad)]) == 1
    assert capsys.readouterr().err == f"simqwalk: {message}\n"


_NOT_A_PARTITION = "partition JSON must carry a 'communities' list of simplex lists: "


@pytest.mark.parametrize("text, message", [
    ("{", "partition file is not valid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ("[1, 2]", _NOT_A_PARTITION + "list indices must be integers or slices, not str"),
    ("{}", _NOT_A_PARTITION + "'communities'"),
    ('{"communities": 5}', _NOT_A_PARTITION + "'int' object is not iterable"),
    ('{"communities": [[[1, 2], [true, 3]]]}',
     _NOT_A_PARTITION + "vertex ids must be integers >= 1, got (True, 3)"),
    ('{"communities": [[[1, "2"]]]}', _NOT_A_PARTITION + "vertex ids must be integers >= 1, got (1, '2')"),
    ('{"communities": [[[0, 1]]]}', _NOT_A_PARTITION + "vertex ids must be integers >= 1, got (0, 1)"),
    ('{"communities": [[[[1], 2]]]}', _NOT_A_PARTITION + "vertex ids must be integers >= 1, got ([1], 2)"),
    ('{"communities": [[[1, 2]], [[3, 3]]]}', _NOT_A_PARTITION + "repeated vertex 3 in (3, 3)"),
    ('{"communities": [[[]]]}', _NOT_A_PARTITION + "a simplex needs at least one vertex"),
    ('{"communities": [[[1, 2, 3]]]}',
     "partition does not cover the n-simplices exactly (missing 4, extraneous 1)"),
    ('{"communities": [[[1, 2], [1, 3]], [[2, 1], [2, 3], [3, 4]]]}', "(1, 2) appears in two communities"),
    ('{"communities": [[[1, 2], [2, 1], [1, 3], [2, 3], [3, 4]]]}', "(1, 2) appears in two communities"),
    ('{"communities": [[[1, 2], [1, 3]], [], [[1, 2]]]}', "empty community"),
    ('{"communities": [[[1, 3], [1, 3]], []]}', "(1, 3) appears in two communities"),
    ('{"communities": [[[1, 2], [1, 3], [2, 3], [3, 4], [5, 6]], [[6, 5]]]}',
     "(5, 6) appears in two communities"),
    ('{"communities": [[[1, 2], [1, 3], [2, 3]], [[3, 5]]]}',
     "partition does not cover the n-simplices exactly (missing 1, extraneous 1)"),
    ('{"communities": [[[1, 2], [1, 3]]]}',
     "partition does not cover the n-simplices exactly (missing 2, extraneous 0)"),
    ('{"communities": [[[1, 2], [1, 3], [2, 3]], [[3, 100000000000000000000]]]}',
     "partition does not cover the n-simplices exactly (missing 1, extraneous 1)"),
], ids=["broken", "list", "no-key", "not-a-list", "boolean", "string", "zero", "nested", "repeated-vertex",
        "no-vertex", "wrong-dimension", "shared", "twice-in-one", "empty-before-shared",
        "shared-before-empty", "extraneous-shared", "missing-and-extraneous", "missing", "wide-id"])
def test_malformed_partition_file_message(tmp_path, capsys, text, message):
    edges, part = tmp_path / "edges.txt", tmp_path / "part.json"
    edges.write_text("1 2\n1 3\n2 3\n3 4\n")
    part.write_text(text)
    assert main(["modularity", "--dim", "1", "--partition", str(part), str(edges)]) == 1
    assert capsys.readouterr().err == f"simqwalk: {message}\n"


def test_partition_file_takes_integral_floats_and_any_vertex_order(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n1 3\n2 3\n3 4\n")
    outputs = []
    for text in ('{"communities": [[[1, 2], [1, 3], [2, 3]], [[3, 4]]]}',
                 '{"communities": [[[2.0, 1.0], [3, 1], [2, 3]], [[4, 3]]]}'):
        part = tmp_path / "part.json"
        part.write_text(text)
        assert main(["modularity", "--dim", "1", "--partition", str(part), str(edges)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_spectrum_rejects_non_finite_tolerance(edges_file, capsys, tolerance):
    assert main(["spectrum", "--dim", "1", "--tolerance", tolerance, str(edges_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: kernel_tol must be positive and finite")
    assert err.count("\n") == 1


def test_unknown_source_message_is_unquoted(edges_file, capsys):
    assert main(["walk", "--dim", "2", "--source", "1,2", str(edges_file)]) == 1
    assert capsys.readouterr().err == "simqwalk: (1, 2) is not an active 2-simplex\n"


# JSON reads 1e400 as infinity, which int() cannot convert
@pytest.mark.parametrize("vertex", ['"a"', "1e400", "NaN"])
def test_modularity_rejects_non_integer_vertex(edges_file, tmp_path, capsys, vertex):
    part = tmp_path / "part.json"
    part.write_text('{"communities": [[[1, %s]]]}' % vertex)
    code = main(["modularity", "--dim", "1", "--partition", str(part), str(edges_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: partition JSON") and err.count("\n") == 1


@pytest.mark.parametrize("vertex", ["1.5", "true"])
def test_modularity_rejects_non_integral_vertex(edges_file, tmp_path, capsys, vertex):
    # a bare int() read both as vertex 1, so the otherwise valid partition
    # of every edge into one community scored as if it held (1, 2)
    edges = [[u, v] for u, v in karate_club_edges()]
    assert edges[0] == [1, 2]
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"communities": [edges]}).replace("[1, 2]", f"[{vertex}, 2]", 1))
    code = main(["modularity", "--dim", "1", "--partition", str(part), str(edges_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert "vertex ids must be integers" in err and err.count("\n") == 1


def test_spectral_walk_beyond_memory_is_numerical_error(edges_file, capsys, monkeypatch):
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
    monkeypatch.setattr(simqwalk.walk.os, "sysconf", memory.get)
    argv = ["walk", "--dim", "1", "--source", "1,2", "--method", "spectral", str(edges_file)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: numerical error:") and "physical memory" in err
    assert err.count("\n") == 1


def test_failed_allocation_is_numerical_error(edges_file, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "eigh", no_memory)
    assert main(["detect", "--dim", "2", "--method", "spectral", str(edges_file)]) == 3
    err = capsys.readouterr().err
    assert err == "simqwalk: numerical error: the spectrum of 302 arcs ran out of memory\n"


@pytest.mark.parametrize("steps", ["0", "-7"])
@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("command", [["walk", "--source", "1,2"], ["detect"]])
def test_non_positive_time_steps_rejected(edges_file, capsys, command, method, steps):
    argv = command + ["--dim", "1", "--method", method, "--time-steps", steps, str(edges_file)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "simqwalk: time_steps must be >= 1\n"


@pytest.mark.parametrize("command", [["walk", "--source", "1,2"], ["detect"]])
def test_horizon_past_its_error_bound_exits_1_at_once(edges_file, capsys, monkeypatch, command):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr(simqwalk.walk, "_evolution", no_evolution)
    argv = command + ["--dim", "1", "--time-steps", str(10**20), str(edges_file)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"simqwalk: time_steps {10**20} is too long: its rounding "
                                       "error bound reaches 1, the norm of the state\n")


@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_karate_detect_matches_bench_goldens(edges_file, capsys, n, method):
    golden = ROOT / "bench" / "golden" / f"karate_detect_n{n}_{method}.json"
    argv = ["detect", "--dim", str(n), "--method", method, "--time-steps", "100", str(edges_file)]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


_RELABELINGS = {"19-digit": lambda v: v + 10**18, "beyond-int64": lambda v: v * 10**19 + 7}


@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("relabel", list(_RELABELINGS))
def test_karate_detect_under_order_preserving_relabeling(tmp_path, capsys, relabel, method):
    # ids that keep the vertex order give the golden partition, mapped, and
    # the same modularity, through the edge-list parser and the clique build
    label = _RELABELINGS[relabel]
    edges_file = tmp_path / "relabelled.txt"
    edges_file.write_text("".join(f"{label(u)} {label(v)}\n" for u, v in karate_club_edges()))
    for n in range(1, 5):
        golden = json.loads((ROOT / "bench" / "golden" / f"karate_detect_n{n}_{method}.json").read_text())
        assert main(["detect", "--dim", str(n), "--method", method, "--time-steps", "100",
                     str(edges_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        mapped = [[[label(v) for v in simplex] for simplex in community] for community in golden["communities"]]
        assert doc["communities"] == mapped
        assert doc["modularity"] == golden["modularity"]
        assert {k: v for k, v in doc.items() if k != "communities"} == {
            k: v for k, v in golden.items() if k != "communities"}


# the geq threshold recruits weights within the error band of 1/m, so these
# outputs pin the tie decisions (the n = 4 pair is an exact tie)
@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_karate_detect_geq_matches_goldens(edges_file, capsys, n, method):
    golden = ROOT / "tests" / "golden" / f"karate_detect_n{n}_{method}_geq.json"
    argv = ["detect", "--dim", str(n), "--method", method, "--time-steps", "100",
            "--threshold", "geq", str(edges_file)]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


_WALK_SOURCES = [(1, "33,34"), (2, "1,2,3"), (3, "1,2,3,4"), (4, "1,2,3,4,8")]
# the spectral walk at n = 1 is left out: one of its weights moves in the 12th
# digit with the number of threads LAPACK splits the eigh over, so its bytes
# hold per thread count only (README, "Threads"; see the test below)
_WALK_CASES = ([(n, source, "finite") for n, source in _WALK_SOURCES]
               + [(n, source, "spectral") for n, source in _WALK_SOURCES[1:]])


def _walk_argv(n, source, method, edges_file):
    return ["walk", "--dim", str(n), "--source", source, "--method", method,
            "--time-steps", "100", "--format", "json", str(edges_file)]


@pytest.mark.parametrize("n, source, method", _WALK_CASES,
                         ids=[f"{n}-{source}" + ("-spectral" if method == "spectral" else "")
                              for n, source, method in _WALK_CASES])
def test_karate_walk_matches_goldens(edges_file, capsys, n, source, method):
    golden = ROOT / "tests" / "golden" / f"karate_walk_n{n}_{method}.json"
    assert main(_walk_argv(n, source, method, edges_file)) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_outputs_do_not_depend_on_the_blas_thread_count(edges_file):
    commands, goldens = [], []
    for n in range(1, 5):
        for method in ("finite", "spectral"):
            commands.append(["detect", "--dim", str(n), "--method", method,
                             "--time-steps", "100", str(edges_file)])
            goldens.append(ROOT / "bench" / "golden" / f"karate_detect_n{n}_{method}.json")
    for n, source, method in _WALK_CASES:
        commands.append(_walk_argv(n, source, method, edges_file))
        goldens.append(ROOT / "tests" / "golden" / f"karate_walk_n{n}_{method}.json")
    empty = hashlib.sha256(b"").hexdigest()
    expected = [[0, hashlib.sha256(golden.read_bytes()).hexdigest(), empty] for golden in goldens]
    assert _cli_calls(commands, OPENBLAS_NUM_THREADS="1") == expected
    assert _cli_calls(commands, OPENBLAS_NUM_THREADS="2") == expected
    # finite commands with every state of two degree classes or more in two halves
    finite = [i for i, argv in enumerate(commands) if "finite" in argv]
    split = "import simqwalk.walk\nsimqwalk.walk._SPLIT_CELLS = 0\n"
    for threads in ("1", "2"):
        assert (_cli_calls([commands[i] for i in finite], split, OPENBLAS_NUM_THREADS=threads)
                == [expected[i] for i in finite])


def test_spectral_walk_at_n1_repeats_its_bytes_at_each_blas_thread_count(edges_file):
    # fresh interpreters, and a repeat inside one, agree at one thread count;
    # the two counts are not compared, as one weight's 12th digit differs
    argv = _walk_argv(1, "1,2", "spectral", edges_file)
    for threads in ("1", "2"):
        runs = (_cli_calls([argv, argv], OPENBLAS_NUM_THREADS=threads)
                + _cli_calls([argv], OPENBLAS_NUM_THREADS=threads))
        assert runs[0][0] == 0 and runs == [runs[0]] * 3, threads


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_karate_hodge_matches_goldens(edges_file, capsys, n, command):
    golden = ROOT / "tests" / "golden" / f"karate_{command}_n{n}.json"
    assert main([command, "--dim", str(n), str(edges_file)]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_modularity_non_utf8_partition_is_io_error(edges_file, tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_bytes(b"\xff\xfe{}")
    code = main(["modularity", "--dim", "1", "--partition", str(part), str(edges_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: i/o error:") and "UTF-8" in err
    assert err.count("\n") == 1


# -- fuzzing ------------------------------------------------------------------------

FUZZ_FLAGS = {
    "build": ("--max-dim", "--format", "--output"),
    "spectrum": ("--dim", "--max-dim", "--format", "--output", "--tolerance"),
    "walk": ("--dim", "--max-dim", "--format", "--output", "--source", "--time-steps", "--method"),
    "detect": ("--dim", "--max-dim", "--format", "--output", "--time-steps", "--method",
               "--threshold"),
    "modularity": ("--dim", "--max-dim", "--format", "--output", "--partition"),
    "verify": ("--dim", "--max-dim", "--format", "--output"),
}
# each flag's values: a tuple of valid ones, then a tuple of bad ones
FUZZ_VALUES = {
    "--dim": (("0", "1", "2", "3"), ("-1", "99", "x", "")),
    "--max-dim": (("1", "2", "4"), ("0", "-1", "99", "x")),
    "--format": (("json", "csv", "dot"), ("xml",)),
    "--tolerance": (("1e-9", "0.5"), ("0", "-1", "nan", "inf", "x")),
    "--source": (("1,2", "1,2,3", "2,1", "4,5,6"),
                 ("1,x", "", "1,,2", "1,1", "99,100", "1", "-1,2", "1,2,3,4,5,6")),
    "--time-steps": (("1", "7"), ("0", "-5", "x")),
    "--method": (("finite", "spectral"), ("exact",)),
    "--threshold": (("strict", "geq"), ("loose",)),
}
FUZZ_JUNK = ("--bogus", "-z", "--dim=", "extra.txt", "--max-dim", "--source", "-h")
# flags a command cannot run without are left out less often than the rest
FUZZ_REQUIRED = ("--dim", "--source", "--partition")


def _fuzz_files(tmp_path):
    """Valid and bad edge files, partition files and output paths."""
    texts = {
        # a 4-clique, a triangle sharing vertex 4 and a loose edge
        "small.txt": "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n4 6\n5 6\n7 8\n",
        "empty.txt": "",
        "comments.txt": "# nothing but a comment\n",
        "malformed.txt": "1 x\n",
        "one_column.txt": "1\n",
        "self_loop.txt": "1 1\n",
        "zero_vertex.txt": "0 1\n",
        "part.json": '{"communities": [[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]], '
                     '[[4, 5], [4, 6], [5, 6]], [[7, 8]]]}',
        "part_empty.json": '{"communities": []}',
        "part_bad.json": '{"communities": [[[1, "a"]]]}',
        "part_shape.json": '{"communities": 5}',
        "part_list.json": "[1, 2]",
        "part_broken.json": "{",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe1 2\n")
    path = lambda name: str(tmp_path / name)
    directory = str(tmp_path)
    return {
        "input": ((path("small.txt"),),
                  (*map(path, ("empty.txt", "comments.txt", "malformed.txt", "one_column.txt",
                               "self_loop.txt", "zero_vertex.txt", "binary.txt", "missing.txt")),
                   directory)),
        "--partition": ((path("part.json"),),
                        (*map(path, ("part_empty.json", "part_bad.json", "part_shape.json",
                                     "part_list.json", "part_broken.json", "binary.txt",
                                     "missing.json")),
                         directory)),
        "--output": ((path("out.txt"),), (path("no_such_dir/out.txt"), directory)),
    }


def _fuzz_argv(rng, files):
    draw = lambda valid, bad: rng.choice(bad if rng.random() < 0.25 else valid)
    command = "frobnicate" if rng.random() < 0.05 else rng.choice(list(FUZZ_FLAGS))
    argv = [command]
    for flag in FUZZ_FLAGS.get(command, ("--dim",)):
        if rng.random() < (0.95 if flag in FUZZ_REQUIRED else 0.3):
            argv += [flag, draw(*(files.get(flag) or FUZZ_VALUES[flag]))]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(FUZZ_JUNK))
    if rng.random() < 0.95:
        argv.append(draw(*files["input"]))
    return argv


def test_fuzzed_argv_ends_with_exit_code_and_one_line(tmp_path, capsys):
    rng = random.Random(20240)
    files = _fuzz_files(tmp_path)
    for _ in range(200):
        argv = _fuzz_argv(rng, files)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a bad flag or value
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        if err:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err, argv
