from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import tracemalloc
from collections.abc import Callable
from pathlib import Path

import pytest

from fdplace import cli
from fdplace.cli import main
from fdplace.errors import GuardLimitError, InfeasibleError, ModelError, SkewOverrideError
from fdplace.generate import random_model
from fdplace.metrics import failure_aggregate, parse_placement
from fdplace.model import Node, parse_model, render_model
from fdplace.multi import solve_multi
from fdplace.oracle import oracle_single
from fdplace.single import solve_fast

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


@pytest.mark.parametrize(
    ("options", "line"),
    [
        ((), "error: eval needs exactly one of --placement or --blocks"),
        (("--blocks", "unused.json", "--rho", "3"), "error: --rho applies only to --placement"),
    ],
    ids=["no flag", "blocks with rho"],
)
def test_eval_checks_its_flags_before_the_model(capsys, tmp_path, options, line):
    # A usage error needs no parse: it wins over a model that would not
    # parse, while a bad model still wins over an unreadable placement
    # (test_bad_model_file_exits_2).
    path = tmp_path / "broken.json"
    path.write_bytes(b"{not json")
    assert run_cli(capsys, "eval", str(path), *options) == (2, "", line + "\n")


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


def test_oracle_guard_exits_3(capsys):
    model = fixture_path("two_rows.json")
    code, _out, err = run_cli(
        capsys, "oracle-single", model, "--rho", "3", "--guard", "1"
    )
    assert code == 3 and "error:" in err


def test_no_module_reads_the_environment(capsys, monkeypatch):
    # The guard comes from --guard or guard= alone: no source file reads
    # the environment, and a guard variable set there changes nothing.
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "os.environ" not in text and "getenv" not in text, path.name
    monkeypatch.setenv("FDPLACE_ORACLE_GUARD", "1")
    code, out, _err = run_cli(capsys, "oracle-single", fixture_path("two_rows.json"), "--rho", "3")
    assert code == 0 and json.loads(out)["objective"] == [0, 1, 7, 7]


# The exit code main gives each refusal type.
EXIT_CODES = {ModelError: 2, InfeasibleError: 3, GuardLimitError: 3, SkewOverrideError: 4}


def test_cli_refuses_what_the_library_refuses(capsys, tmp_path):
    # Each request has one rule, in the library: the CLI exits with the
    # code of the exception the library call raises, and prints it.
    model_path = fixture_path("two_rows.json")
    model = load_model("two_rows.json")
    spread_path = fixture_path("two_rows_spread.json")
    spread = parse_placement(_fixture_path("two_rows_spread.json").read_text())
    table = [
        (["solve-single", "--rho", "0"], lambda: solve_fast(model, 0)),
        (["solve-single", "--rho", "10"], lambda: solve_fast(model, 10)),
        (["eval", "--placement", spread_path, "--rho", "10"],
         lambda: failure_aggregate(model, spread, 10)),
        (["eval", "--placement", spread_path, "--rho", "2"],
         lambda: failure_aggregate(model, spread, 2)),
        (["solve-multi", "--sizes", "3,1", "--skew", "1"],
         lambda: solve_multi(model, [3, 1], skew=1)),
        (["oracle-single", "--rho", "3", "--guard", "1"],
         lambda: oracle_single(model, 3, guard=1)),
    ]
    for (command, *options), call in table:
        with pytest.raises(tuple(EXIT_CODES)) as refused:
            call()
        expected = (EXIT_CODES[type(refused.value)], "", f"error: {refused.value}\n")
        assert run_cli(capsys, command, model_path, *options) == expected, command
    # Above the leaf count, a placement refused anyway names its own fault.
    ghost_path = tmp_path / "ghost.json"
    ghost_path.write_text('{"leaves": ["srv1", "ghost"]}', encoding="utf-8")
    refused = run_cli(capsys, "eval", model_path, "--placement", str(ghost_path), "--rho", "10")
    assert refused == (2, "", "error: placement names unknown node 'ghost'\n")


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


MODEL_COMMANDS = (
    ("solve-single", "--rho", "1"),
    ("solve-multi", "--sizes", "1"),
    ("eval", "--placement", "unused.json"),
    ("check", "--placement", "unused.json"),
    ("oracle-single", "--rho", "1"),
    ("oracle-multi", "--sizes", "1"),
)

# (file name, its bytes or None for no file, the stderr line; {path} is
# the file's path).
BAD_MODEL_FILES = (
    (
        "missing.json",
        None,
        "error: cannot read model file: [Errno 2] No such file or directory: {path!r}",
    ),
    (
        "latin.json",
        b'{"nodes": [{"id": "\xff"}]}',
        "error: model file is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 19: invalid start byte",
    ),
    (
        "broken.json",
        b"{not json",
        "error: invalid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)",
    ),
    ("empty.json", b'{"nodes": []}', "error: model has no nodes"),
)


@pytest.mark.parametrize(
    ("name", "data", "line"), BAD_MODEL_FILES, ids=[case[0] for case in BAD_MODEL_FILES]
)
def test_bad_model_file_exits_2(capsys, tmp_path, name, data, line):
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    for command, option, value in MODEL_COMMANDS:
        code, out, err = run_cli(capsys, command, str(path), option, value)
        assert (code, out, err) == (2, "", line.format(path=str(path)) + "\n"), command


def test_model_digest_is_the_sha256_of_the_file_bytes(capsys, tmp_path):
    # Ids outside ASCII take two, three and four bytes in UTF-8, so the
    # digest of the decoded text re-encoded some other way would differ.
    doc = {
        "nodes": [
            {"id": "日本", "parent": None},
            {"id": "é", "parent": "日本", "capacity": 1},
            {"id": "\U0001f5c4", "parent": "日本", "capacity": 2},
            {"id": "ß", "parent": None, "capacity": 1},
        ]
    }
    path = tmp_path / "unicode.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    report = run_json(capsys, "solve-single", str(path), "--rho", "2")
    assert report["model_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["witness"]["leaves"] == sorted(["ß", "é"])


def traced_peak(call: Callable[[], object]) -> tuple[int, object]:
    """The peak of the memory traced while call runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_loading_a_model_keeps_one_copy_of_it(tmp_path):
    # The bytes are dropped once hashed and decoded, and each node entry
    # once its fields are stored, so loading peaks little above the
    # decoded document itself (about 1.2 times it; 1.5 while the bytes
    # and every entry stayed alive).
    path = tmp_path / "model.json"
    path.write_text(render_model(random_model(20_000, 1)), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    decoded, _doc = traced_peak(lambda: json.loads(text))
    loaded, (model, digest) = traced_peak(lambda: cli._load_model(str(path)))
    assert loaded <= 1.3 * decoded, (loaded, decoded)
    assert vars(model.tree) == vars(parse_model(text).tree)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


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
    refusals = [("--max-fanout", "1", "max_fanout"), ("--max-capacity", "0", "max_capacity")]
    for flag, value, name in refusals:
        code, _out, err = run_cli(capsys, "gen", "--leaves", "5", "--seed", "1", flag, value)
        assert (code, f"{name} must be at least" in err) == (2, True)


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
