import json

import numpy as np
import pytest

from simqwalk import karate_club_edges
from simqwalk.cli import _json_text, main

from reference_karate import TRIANGLE_COMMUNITIES


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


def test_modularity_non_utf8_partition_is_io_error(edges_file, tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_bytes(b"\xff\xfe{}")
    code = main(["modularity", "--dim", "1", "--partition", str(part), str(edges_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("simqwalk: i/o error:") and "UTF-8" in err
    assert err.count("\n") == 1
