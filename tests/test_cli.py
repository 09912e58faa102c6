import json
from pathlib import Path

import pytest

from hopfgalois.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_degree_2(tmp_path, capsys):
    code, out, _ = run(
        ["catalog", "--degree", "2", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    assert "1" in out


def test_catalog_csv_and_fixtures(tmp_path, capsys):
    args = ["catalog", "--degree", "4", "--cache-dir", str(tmp_path), "--format", "csv",
            "--seed-fixtures"]
    code, out, _ = run(args, capsys)
    assert code == 0 and out.strip() == "4,8"
    # second run compares against the recorded fixture
    code, out, _ = run(args, capsys)
    assert code == 0
    fixtures = json.loads((tmp_path / "fixtures.json").read_text())
    assert fixtures["catalog/degree4"]["value"] == 8


def test_no_hgs_csv(tmp_path, capsys):
    code, out, _ = run(
        ["no-hgs", "--degree", "4", "--cache-dir", str(tmp_path), "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Degree,TransClasses,NoHGS"
    assert lines[1] == "4,8,0"


def test_no_hgs_json(tmp_path, capsys):
    code, out, _ = run(
        ["no-hgs", "--degree", "5", "--cache-dir", str(tmp_path), "--format", "json"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 5 and obj["no_hgs"] == 0


def test_unsupported_degree_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["catalog", "--degree", "28", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "not supported" in err


def test_verify_pq_burnside_pass(tmp_path, capsys):
    code, out, _ = run(
        ["verify-pq", "--p", "5", "--q", "3"], capsys
    )
    assert code == 0
    assert "pass" in out


def test_verify_pq_usage_error(tmp_path, capsys):
    code, _, err = run(
        ["verify-pq", "--p", "3", "--q", "3"], capsys
    )
    assert code == 2


def test_analyze_pair_file(tmp_path, capsys):
    pair = {
        "degree": 3,
        "G": ["(0 1 2)", "(0 1)"],
        "H": ["(0 1)"],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(
        ["analyze", str(path), "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    assert "core order: 1" in out
    assert "admitted types" in out


def test_analyze_image_array_input(tmp_path, capsys):
    pair = {
        "degree": 4,
        "G": [[1, 2, 3, 0], [1, 0, 3, 2]],
        "H": [[1, 0, 3, 2]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(
        ["analyze", str(path), "--cache-dir", str(tmp_path), "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 4
    assert obj["admitted_types"]


def test_analyze_degree4_galois_quotient(tmp_path, capsys):
    # D4 on 4 points with its central subgroup: the quotient is the regular
    # Klein four group, a degree-4 Galois quotient
    pair = {"degree": 4, "G": ["(0 1 2 3)", "(0 2)"], "H": ["(0 2)(1 3)"]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, _ = run(
        ["analyze", str(path), "--cache-dir", str(tmp_path), "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["core_order"] == 2
    assert obj["quotient_regular"] is True
    assert obj["quotient_order"] == 4


def test_analyze_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(["analyze", str(path), "--cache-dir", str(tmp_path)], capsys)
    assert code == 2


@pytest.mark.parametrize("pair", [
    {"degree": 4, "G": ["(0 1 2 3)"], "H": [[0, 1, 2, 5]]},
    {"degree": 4, "G": ["(0 1 2 3"], "H": []},
    {"degree": "4", "G": ["(0 1 2 3)"], "H": []},
    [4, ["(0 1 2 3)"], []],
    {"degree": 4, "G": ["(0 1 2 3)"]},
], ids=["not-a-permutation", "unclosed-cycle", "string-degree", "not-an-object", "missing-key"])
def test_analyze_bad_pair_file_exit_2(tmp_path, capsys, pair):
    """A pair file that parses as JSON but holds no valid pair is a usage
    error naming the file, not a traceback with the mismatch exit code."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, _, err = run(["analyze", str(path), "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    assert str(path) in err


def test_extend_even_degree_rejected(tmp_path, capsys):
    code, _, err = run(
        ["extend", "--degree", "4", "--entry", "0", "--auto-prime",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "odd" in err


def test_extend_no_witness_rejected(tmp_path, capsys):
    code, _, err = run(
        ["extend", "--degree", "5", "--entry", "0", "--auto-prime",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "witness" in err


def test_extend_bad_primes_rejected_before_analysis(tmp_path, capsys, monkeypatch):
    import hopfgalois.pipeline as pipeline

    def no_analysis(*args, **kwargs):
        raise AssertionError("the degree was analysed before --primes was checked")

    monkeypatch.setattr(pipeline, "analyze_degree", no_analysis)
    code, _, err = run(
        ["extend", "--degree", "5", "--entry", "0", "--primes", "5,x",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "--primes" in err


@pytest.mark.parametrize("store", [
    json.dumps([1, 2, 3]).encode(),
    json.dumps({"catalog/degree4": {"computed_at": "2024-01-01T00:00:00Z"}}).encode(),
    b"\xff\xfe{",
], ids=["not-an-object", "entry-without-value", "undecodable-bytes"])
def test_damaged_fixture_store_starts_afresh(tmp_path, capsys, store):
    """A fixture store that does not decode, or parses but is damaged, is
    seeded afresh, not a traceback with the mismatch exit code."""
    (tmp_path / "fixtures.json").write_bytes(store)
    code, out, _ = run(["catalog", "--degree", "4", "--cache-dir", str(tmp_path),
                        "--seed-fixtures"], capsys)
    assert code == 0 and "8 transitive subgroup classes" in out
    fixtures = json.loads((tmp_path / "fixtures.json").read_text())
    assert fixtures["catalog/degree4"]["value"] == 8


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_order_must_be_positive(tmp_path, capsys, value):
    """--max-order below 1 is a usage error naming the flag, not a resource limit."""
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--degree", "4", "--cache-dir", str(tmp_path), "--max-order", value])
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


_VERIFY_PQ = ["verify-pq", "--p", "7", "--q", "3"]
_EXTEND = ["extend", "--degree", "5", "--entry", "0", "--auto-prime"]


@pytest.mark.parametrize("command, retired", [
    (_VERIFY_PQ, ["--cache-dir", "cache"]),
    (_VERIFY_PQ, ["--max-order", "1"]),
    (_VERIFY_PQ, ["--resume"]),
    (_VERIFY_PQ, ["--seed-fixtures"]),
    (_VERIFY_PQ, ["--format", "csv"]),
    (["analyze", "pair.json"], ["--resume"]),
    (["analyze", "pair.json"], ["--seed-fixtures"]),
    (["analyze", "pair.json"], ["--format", "csv"]),
    (_EXTEND, ["--seed-fixtures"]),
    (_EXTEND, ["--format", "csv"]),
    (["catalog", "--degree", "4"], ["--resume"]),
], ids=lambda argv: "=".join(argv) if argv[0].startswith("--") else argv[0])
def test_retired_flags_rejected(capsys, command, retired):
    """A flag or value that no command reads is a usage error naming it,
    not silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(command + retired)
    assert exc.value.code == 2
    assert retired[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["catalog", "--degree", "3"],
    ["no-hgs", "--degree", "3"],
    ["analyze", "PAIR"],
    ["extend", "--degree", "3", "--entry", "0", "--primes", "7"],
], ids=lambda argv: argv[0])
def test_kept_flags_reach_their_reader(tmp_path, capsys, monkeypatch, argv):
    """--cache-dir, --max-order and (where a command has it) --resume reach
    build_catalogue or analyze_degree, with the environment's cache
    directory as the default."""
    import hopfgalois.pipeline as pipeline
    from hopfgalois.subgroups import DEFAULT_MAX_ORDER

    seen = []

    def build_catalogue(n, **kwargs):
        seen.append(kwargs)
        return []

    def analyze_degree(n, **kwargs):
        seen.append(kwargs)
        return [], {}

    monkeypatch.setattr(pipeline, "build_catalogue", build_catalogue)
    monkeypatch.setattr(pipeline, "analyze_degree", analyze_degree)
    monkeypatch.setenv("HOPFGALOIS_CACHE_DIR", str(tmp_path / "env"))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"degree": 3, "G": ["(0 1 2)"], "H": []}))
    argv = [str(pair) if a == "PAIR" else a for a in argv]
    resume = argv[0] in ("no-hgs", "extend")
    main(argv)
    main(argv + ["--cache-dir", str(tmp_path / "flag"), "--max-order", "99"]
         + ["--resume"] * resume)
    capsys.readouterr()
    expected = [
        {"cache_dir": tmp_path / "env", "max_order": DEFAULT_MAX_ORDER},
        {"cache_dir": tmp_path / "flag", "max_order": 99},
    ]
    if resume:
        expected[0]["resume"], expected[1]["resume"] = False, True
    assert seen == expected
