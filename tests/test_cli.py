import json
import random
from pathlib import Path

import numpy as np
import pytest

import simqwalk.walk
from simqwalk import karate_club_edges
from simqwalk.cli import _json_text, main

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


def test_verify_reports_identities(edges_file, tmp_path):
    # 1 <= n < max_dim multiplies two boundary matrices (scipy count_nonzero)
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


def test_dot_only_for_detect(edges_file, capsys):
    assert main(["build", "--format", "dot", str(edges_file)]) == 1
    capsys.readouterr()


def test_self_loop_input_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    assert main(["build", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err


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


@pytest.mark.parametrize("steps", ["0", "-7"])
@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("command", [["walk", "--source", "1,2"], ["detect"]])
def test_non_positive_time_steps_rejected(edges_file, capsys, command, method, steps):
    argv = command + ["--dim", "1", "--method", method, "--time-steps", steps, str(edges_file)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "simqwalk: time_steps must be >= 1\n"


@pytest.mark.parametrize("method", ["finite", "spectral"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_karate_detect_matches_bench_goldens(edges_file, capsys, n, method):
    golden = ROOT / "bench" / "golden" / f"karate_detect_n{n}_{method}.json"
    argv = ["detect", "--dim", str(n), "--method", method, "--time-steps", "100", str(edges_file)]
    assert main(argv) == 0
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
