from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys

import pytest

from fdplace.cli import main
from fdplace.model import Node

from conftest import fixture_path as _fixture_path
from conftest import load_model


def fixture_path(name: str) -> str:
    return str(_fixture_path(name))


EXPECTED_KEYS = [
    "command",
    "model_digest",
    "objective",
    "witness",
    "wall_time_ms",
    "algorithm",
]


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args: str) -> dict:
    code, out, _err = run_cli(capsys, *args)
    assert code == 0, out
    return json.loads(out)


def test_solve_single_report(capsys):
    model = fixture_path("two_rows.json")
    report = run_json(capsys, "solve-single", model, "--rho", "3")
    assert list(report) == EXPECTED_KEYS
    assert report["command"] == "solve-single"
    assert report["objective"] == [0, 1, 7, 7]
    assert len(report["witness"]["leaves"]) == 3
    assert report["algorithm"] == "fast"
    assert isinstance(report["wall_time_ms"], int)
    with open(model, "rb") as fh:
        assert report["model_digest"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("algorithm", ["basic", "fast", "greedy"])
def test_solve_single_algorithms_agree(capsys, algorithm):
    model = fixture_path("two_rows.json")
    report = run_json(
        capsys, "solve-single", model, "--rho", "3", "--algorithm", algorithm
    )
    assert report["objective"] == [0, 1, 7, 7]
    assert report["algorithm"] == algorithm


def test_solve_single_objective_line_on_stderr(capsys):
    model = fixture_path("two_rows.json")
    code, out, err = run_cli(capsys, "solve-single", model, "--rho", "3")
    assert code == 0
    assert "objective <0,1,7,7>" in err
    assert "objective <" not in out


def test_eval_placement_fixtures(capsys):
    model = fixture_path("two_rows.json")
    clustered = run_json(
        capsys,
        "eval",
        model,
        "--placement",
        fixture_path("two_rows_clustered.json"),
        "--rho",
        "3",
    )
    assert clustered["objective"] == [2, 0, 3, 10]
    spread = run_json(
        capsys,
        "eval",
        model,
        "--placement",
        fixture_path("two_rows_spread.json"),
        "--rho",
        "3",
    )
    assert spread["objective"] == [0, 1, 7, 7]
    # rho defaults to the placement size, which is 3 here as well.
    default = run_json(
        capsys, "eval", model, "--placement", fixture_path("two_rows_spread.json")
    )
    assert default["objective"] == [0, 1, 7, 7]


def test_eval_blocks(capsys):
    report = run_json(
        capsys,
        "eval",
        fixture_path("shared_tree.json"),
        "--blocks",
        fixture_path("shared_tree_blocks.json"),
    )
    assert report["objective"] == [3, 4, 14, 9]
    assert len(report["witness"]["blocks"]) == 3


def test_eval_argument_combinations(capsys):
    model = fixture_path("two_rows.json")
    code, _out, err = run_cli(capsys, "eval", model)
    assert code == 2 and "error:" in err
    code, _out, err = run_cli(
        capsys,
        "eval",
        model,
        "--placement",
        fixture_path("two_rows_spread.json"),
        "--blocks",
        fixture_path("shared_tree_blocks.json"),
    )
    assert code == 2
    code, _out, err = run_cli(
        capsys,
        "eval",
        model,
        "--blocks",
        fixture_path("shared_tree_blocks.json"),
        "--rho",
        "3",
    )
    assert code == 2 and "--rho" in err
    spread = fixture_path("two_rows_spread.json")
    code, out, err = run_cli(
        capsys, "eval", model, "--placement", spread, "--rho", "99999999999999"
    )
    assert code == 2 and out == ""
    assert "exceeds the 9 leaves" in err
    report = run_json(capsys, "eval", model, "--placement", spread, "--rho", "9")
    assert len(report["objective"]) == 10


def test_check_reports_balance(capsys):
    model = fixture_path("two_rows.json")
    code, out, _err = run_cli(
        capsys, "check", model, "--placement", fixture_path("two_rows_spread.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"balanced": True, "violations": []}

    code, out, _err = run_cli(
        capsys, "check", model, "--placement", fixture_path("two_rows_clustered.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"] is False
    assert doc["violations"]
    for violation in doc["violations"]:
        assert list(violation) == [
            "node",
            "light_child",
            "heavy_child",
            "light_count",
            "heavy_count",
        ]


def test_solve_multi_cli(capsys):
    model = fixture_path("shared_tree.json")
    report = run_json(capsys, "solve-multi", model, "--sizes", "3,3,2")
    assert report["command"] == "solve-multi"
    assert report["algorithm"] == "dp"
    assert sorted(len(b) for b in report["witness"]["blocks"]) == [2, 3, 3]

    code, _out, err = run_cli(capsys, "solve-multi", model, "--sizes", "3,3,2", "--skew", "0")
    assert code == 4 and "skew" in err

    code, _out, _err = run_cli(capsys, "solve-multi", model, "--sizes", "a,b")
    assert code == 2

    code, _out, _err = run_cli(capsys, "solve-multi", model, "--sizes", "")
    assert code == 2


def test_infeasible_requests_exit_3(capsys):
    model = fixture_path("two_rows.json")
    code, _out, err = run_cli(capsys, "solve-single", model, "--rho", "100")
    assert code == 3 and "error:" in err
    code, _out, err = run_cli(capsys, "solve-multi", model, "--sizes", "10")
    assert code == 3
    # The oracle refuses the same request with the same message.
    assert run_cli(capsys, "oracle-multi", model, "--sizes", "10") == (3, "", err)
    # Refused by the leaf count before any census of that length exists.
    code, out, err = run_cli(capsys, "solve-multi", model, "--sizes", "3,99999999999999")
    assert code == 3 and out == ""
    assert "exceeds the 9 available leaves" in err
    code, _out, _err = run_cli(capsys, "oracle-single", model, "--rho", "0")
    assert code == 3
    # Each refusal rule has one owner, so solver and oracle answer alike.
    for command, oracle, request, values in (
        ("solve-single", "oracle-single", "--rho", ("0", "100")),
        ("solve-multi", "oracle-multi", "--sizes", ("0", "10", "5,5")),
    ):
        for value in values:
            solved = run_cli(capsys, command, model, request, value)
            assert solved[0] == 3 and solved[1] == "" and solved[2].startswith("error: ")
            assert run_cli(capsys, oracle, model, request, value) == solved


def test_oracle_guard_exits_3(capsys, monkeypatch):
    model = fixture_path("two_rows.json")
    code, _out, err = run_cli(
        capsys, "oracle-single", model, "--rho", "3", "--guard", "1"
    )
    assert code == 3 and "error:" in err
    monkeypatch.setenv("FDPLACE_ORACLE_GUARD", "1")
    code, _out, _err = run_cli(capsys, "oracle-single", model, "--rho", "3")
    assert code == 3


def test_oracle_commands_match_solvers(capsys):
    model = fixture_path("two_rows.json")
    report = run_json(capsys, "oracle-single", model, "--rho", "3")
    assert report["objective"] == [0, 1, 7, 7]
    report = run_json(
        capsys, "oracle-multi", fixture_path("shared_tree.json"), "--sizes", "3,3,2"
    )
    solved = run_json(
        capsys, "solve-multi", fixture_path("shared_tree.json"), "--sizes", "3,3,2"
    )
    assert report["objective"] == solved["objective"]


def test_bad_model_file_exits_2(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "solve-single", "/no/such/file.json", "--rho", "1")
    assert code == 2 and "error:" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _out, _err = run_cli(capsys, "solve-single", str(broken), "--rho", "1")
    assert code == 2


def test_gen_is_deterministic(capsys, tmp_path):
    code, first, _err = run_cli(capsys, "gen", "--leaves", "12", "--seed", "5")
    assert code == 0
    code, second, _err = run_cli(capsys, "gen", "--leaves", "12", "--seed", "5")
    assert code == 0
    assert first == second

    out_file = tmp_path / "model.json"
    code, piped, _err = run_cli(
        capsys, "gen", "--leaves", "12", "--seed", "5", "--out", str(out_file)
    )
    assert code == 0 and piped == ""
    assert out_file.read_text() == first

    report = run_json(capsys, "solve-single", str(out_file), "--rho", "4")
    assert report["objective"]


def test_gen_to_an_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "gen", "--leaves", "5", "--seed", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write model file:")
    assert not target.exists()


def test_solving_and_evaluating_build_no_node_objects(capsys, monkeypatch, tmp_path):
    # The solvers and evaluators run on the compiled tree; Node objects
    # exist only for the id views, which these commands never read.
    # Node is a named tuple, so construction is counted in __new__.
    built = []
    original = Node.__new__

    def counting(cls, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("id"))
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Node, "__new__", counting)
    model = fixture_path("shared_tree.json")
    solved = run_json(capsys, "solve-single", model, "--rho", "3", "--algorithm", "fast")
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(solved["witness"]))
    run_json(capsys, "eval", model, "--placement", str(placement))
    code, _out, _err = run_cli(capsys, "check", model, "--placement", str(placement))
    assert code == 0
    multi = run_json(capsys, "solve-multi", model, "--sizes", "3,3,2")
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps(multi["witness"]))
    run_json(capsys, "eval", model, "--blocks", str(blocks))
    assert built == []
    # The counter does see the id view being built.
    assert len(load_model("shared_tree.json").nodes) == len(built) == 10


def test_gen_rejects_bad_parameters(capsys):
    code, _out, _err = run_cli(capsys, "gen", "--leaves", "0", "--seed", "1")
    assert code == 2
    code, _out, _err = run_cli(
        capsys, "gen", "--leaves", "2", "--seed", "1", "--roots", "5"
    )
    assert code == 2


def test_oracles_choose_more_leaves_than_the_recursion_limit(capsys, tmp_path):
    # One candidate each, so the guard lets both through; choosing 1200
    # leaves one at a time must not recurse once per leaf.
    model = str(tmp_path / "model.json")
    code, _out, _err = run_cli(capsys, "gen", "--leaves", "1200", "--seed", "1", "--out", model)
    assert code == 0
    solved = run_json(capsys, "solve-single", model, "--rho", "1200")
    single = run_json(capsys, "oracle-single", model, "--rho", "1200")
    multi = run_json(capsys, "oracle-multi", model, "--sizes", "1200")
    assert single["objective"] == solved["objective"]
    assert multi["objective"] == solved["objective"]


def test_oracle_multi_places_more_blocks_than_the_recursion_limit(capsys, tmp_path):
    # One leaf of capacity 1500 and 1500 blocks of one replica: a single
    # candidate, but one block position per pick.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"nodes": [{"id": "only", "parent": None, "capacity": 1500}]}))
    sizes = ",".join(["1"] * 1500)
    solved = run_json(capsys, "solve-multi", str(model), "--sizes", sizes)
    report = run_json(capsys, "oracle-multi", str(model), "--sizes", sizes)
    assert report["objective"] == solved["objective"] == [1500, 0]
    assert report["witness"] == solved["witness"]


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("target", ["model", "--placement", "--blocks"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, target):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    if target == "model":
        args = ["solve-single", str(deep), "--rho", "1"]
    else:
        args = ["eval", fixture_path("two_rows.json"), target, str(deep)]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON:"), err


def test_undecodable_placements_exit_2(capsys, tmp_path):
    model = fixture_path("two_rows.json")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"leaves": ["\xff"]}')
    code, out, err = run_cli(capsys, "eval", model, "--placement", str(latin))
    assert code == 2 and out == "" and "not UTF-8" in err
    # Beyond the interpreter's digit limit for int().
    huge = tmp_path / "huge.json"
    huge.write_text('{"blocks": [[' + "9" * 5000 + "]]}")
    code, out, err = run_cli(capsys, "eval", model, "--blocks", str(huge))
    assert code == 2 and out == "" and err.startswith("error: invalid JSON:")
    missing = str(tmp_path / "missing.json")
    for option in ("--blocks", "--placement"):
        code, out, err = run_cli(capsys, "eval", model, option, missing)
        assert code == 2 and out == "" and err.startswith("error: cannot read file:")


def test_threads_flag_is_refused(capsys):
    model = fixture_path("two_rows.json")
    for command, request in (("solve-single", "--rho"), ("solve-multi", "--sizes")):
        with pytest.raises(SystemExit) as exc:
            main([command, model, request, "3", "--threads", "2"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fdplace",
            "solve-single",
            fixture_path("two_rows.json"),
            "--rho",
            "3",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["objective"] == [0, 1, 7, 7]


def test_reports_are_stable_between_runs(capsys):
    model = fixture_path("two_rows.json")
    first = run_json(capsys, "solve-single", model, "--rho", "3")
    second = run_json(capsys, "solve-single", model, "--rho", "3")
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert first == second


def test_out_of_memory_exits_3():
    # 100 MB of address space leaves room for the interpreter and runs
    # out about a second into generating a 10^8-leaf model.
    limit = 100 << 20

    def cap_address_space() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "fdplace", "gen", "--leaves", "100000000", "--seed", "1"],
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert proc.stdout == ""
