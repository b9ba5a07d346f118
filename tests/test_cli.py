import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linrel import cli
from linrel import serialize as ser
from linrel import suites as sts
from linrel.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "linrel.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_gen_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = main(["gen", "--xdim", "2", "--ydim", "2", "--alpha", "1",
                 "--beta", "1", "--seed", "7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["measured"]["alpha"] == 1
    assert doc["measured"]["beta"] == 1
    assert doc["header"]["seed"] == 7
    assert "instance_hash" in doc["header"]
    assert doc["spec"]["x_dim"] == 2


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--xdim", "3", "--ydim", "3", "--alpha", "1", "--beta", "1",
            "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_infeasible_exit_2(capsys):
    code = main(["gen", "--xdim", "2", "--ydim", "2", "--alpha", "3",
                 "--beta", "1"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_analyze_worked_pair(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "seed" not in doc["header"]  # nothing in analyze is random
    assert doc["pair"]["nu"] == 1
    assert doc["A"]["gamma"] == pytest.approx(1.0)
    assert doc["A"]["alpha"] == 1 and doc["A"]["beta"] == 1
    assert all(doc["A"]["duality"].values())
    assert doc["pair"]["bound_valid"]
    assert doc["pair"]["radii"]["pencil"] == pytest.approx(1.0)


def test_analyze_identity_pair_all_zero_indices(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key in ("A", "B"):
        assert doc[key]["alpha"] == 0 and doc[key]["beta"] == 0
        assert doc[key]["beta_prime"] == 0
    assert doc["pair"]["nu"] == "inf"


def test_analyze_zero_graph_gamma_inf(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"x_dim": 2, "y_dim": 2, "graph": {"ambient": 4, "basis": []}},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(inst), "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert doc["A"]["gamma"] == "inf"
    assert doc["A"]["alpha"] == 0


def test_analyze_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(bad)])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command", [["analyze"], ["verify", "--replay"]])
def test_unreadable_input_is_input_error(tmp_path, capsys, kind, command):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SystemExit) as exc:
        main([*command, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_analyze_duality_keys_match_suite_lemmas(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    analysis, summary = tmp_path / "analysis.json", tmp_path / "summary.json"
    assert main(["analyze", str(inst), "--out", str(analysis)]) == 0
    assert main(["verify", "--suite", "duality", "--trials", "3", "--seed", "1",
                 "--out", str(summary)]) == 0
    keys = set(json.loads(analysis.read_text())["A"]["duality"])
    lemmas = set(json.loads(summary.read_text())["suites"]["duality"]["lemmas"])
    assert keys == lemmas


def _graph_a(**changes) -> dict:
    """A = graph span{(1, 0)} in C x C, in the graph schema."""
    a = {"x_dim": 1, "y_dim": 1,
         "graph": {"ambient": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]}}
    a.update(changes)
    return a


def _with_entry(entry) -> dict:
    return _graph_a(graph={"ambient": 2, "basis": [[entry, [0.0, 0.0]]]})


_BAD_INSTANCES = {
    "inf-entry": {"A": _with_entry("inf"), "B": {"matrix": [[1.0]]}},
    "three-element-entry": {"A": _with_entry([1.0, 0.0, 0.0]), "B": {"matrix": [[1.0]]}},
    "short-column": {"A": _graph_a(graph={"ambient": 2, "basis": [[[1.0, 0.0]]]}),
                     "B": {"matrix": [[1.0]]}},
    "x-dim-mismatch": {"A": _graph_a(x_dim=2), "B": {"matrix": [[1.0]]}},
    "ambient-zero": {"A": _graph_a(graph={"ambient": 0, "basis": []}),
                     "B": {"matrix": [[1.0]]}},
    "non-numeric-string": {"A": _with_entry("one"), "B": {"matrix": [[1.0]]}},
    "missing-B": {"A": _graph_a()},
    "ragged-matrix": {"A": {"matrix": [[1.0, 0.0], [1.0]]}, "B": {"matrix": [[1.0]]}},
    "null-entry": {"A": _with_entry(None), "B": {"matrix": [[1.0]]}},
    "matrix-inf-entry": {"A": _graph_a(), "B": {"matrix": [["inf"]]}},
    "space-mismatch": {"A": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
                       "B": {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
}


@pytest.mark.parametrize("command", ["analyze", "chains"])
def test_bad_instance_base_is_valid(tmp_path, command):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"A": _graph_a(), "B": {"matrix": [[1.0]]}}))
    assert main([command, str(inst), "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("command", ["analyze", "chains"])
@pytest.mark.parametrize("case", list(_BAD_INSTANCES))
def test_bad_instance_is_input_error(tmp_path, capsys, command, case):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_BAD_INSTANCES[case]))
    with pytest.raises(SystemExit) as exc:
        main([command, str(inst), "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "is not an instance file" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--sigma", "-1"],
    ["analyze", "--tau", "-1"],
    ["analyze", "--eps", "-0.5"],
    ["sweep", "--sigma", "nan"],
    ["sweep", "--grid-points", "-1"],
    ["chains", "--max-n", "-2"],
    ["chains", "--max-n", str(cli._MAX_N_CEILING + 1)],
], ids=["analyze-sigma", "analyze-tau", "analyze-eps", "sweep-sigma-nan",
        "sweep-grid-points", "chains-max-n", "chains-max-n-above-ceiling"])
def test_invalid_number_is_input_error(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    command, *options = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(inst), *options, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert options[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--xdim", "2", "--ydim", "2", "--alpha", "1", "--beta", "1"],
    ["verify", "--suite", "gap", "--trials", "2"],
], ids=["gen", "verify"])
def test_negative_seed_is_input_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_sweep_outputs(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
    }))
    base = tmp_path / "sweep"
    assert main(["sweep", str(inst), "--sigma", "0", "--tau", "1",
                 "--grid-points", "4", "--phases", "4",
                 "--out", str(base)]) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["radii"]["full"] == pytest.approx(1.0)
    assert all(r["alpha"] == 1 for r in doc["records"])
    csv_text = (tmp_path / "sweep.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("re,im,alpha")
    assert len(lines) == 1 + 1 + 4 * 4  # header + lambda 0 + grid


def test_sweep_header_only_csv(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    base = tmp_path / "empty"
    assert main(["sweep", str(inst), "--sigma", "0", "--tau", "1",
                 "--grid-points", "0", "--out", str(base)]) == 0
    lines = (tmp_path / "empty.csv").read_text().strip().split("\n")
    assert lines == [lines[0]]


def test_sweep_deterministic_bytes(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
    }))
    for name in ("s1", "s2"):
        assert main(["sweep", str(inst), "--sigma", "0", "--tau", "1",
                     "--grid-points", "3", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_chains_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "A": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "B": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    assert main(["chains", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nu"] == 1
    assert doc["m_dims"][0] == 2
    assert doc["nu_duality"]["equality_nu"] is True


def test_verify_small_pass(tmp_path):
    out = tmp_path / "summary.json"
    code = main(["verify", "--suite", "gap", "--trials", "12", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["conclusion_failures"] == 0
    assert doc["suites"]["gap"]["lemmas"]["gap_dimension"]["fail"] == 0
    assert doc["header"]["seed"] == 3
    assert "tolerances" in doc["header"]


def test_verify_trials_zero_vacuous(tmp_path):
    out = tmp_path / "summary.json"
    assert main(["verify", "--suite", "duality", "--trials", "0",
                 "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["conclusion_failures"] == 0
    assert doc["suites"]["duality"]["lemmas"] == {}


def test_verify_negative_trials_is_input_error(tmp_path, capsys):
    out = tmp_path / "summary.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "gap", "--trials", "-3", "--seed", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_verify_replay_round_trip(tmp_path):
    # replay re-runs serialized cases and reproduces the verdict
    from linrel import suites as sts
    payload = {"suite": "duality", "seed": 5,
               "cases": [sts._pair_case(5, i)[0] for i in range(3)]}
    replay_file = tmp_path / "replay.json"
    replay_file.write_text(ser.canonical_json(payload))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--replay", str(replay_file), "--out", str(out1)]) == 0
    assert main(["verify", "--replay", str(replay_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["suites"]["duality"]["trials"] == 3


def test_verify_replay_of_the_written_text_gives_the_suite_result(tmp_path):
    # A payload written as canonical JSON, "-0" entries and all, replays to
    # the run that wrote it: the same instance digest and the same tallies.
    from linrel import serialize as ser
    payload = {"suite": "duality", "seed": 1,
               "cases": [sts._SUITES["duality"][0](1, i)[0] for i in range(30)]}
    replay_file = tmp_path / "replay.json"
    replay_file.write_text(ser.canonical_json(payload))
    assert '-0,' in replay_file.read_text()
    out = tmp_path / "out.json"
    assert main(["verify", "--replay", str(replay_file), "--out", str(out)]) == 0
    doc = ser.loads(out.read_text())
    assert doc["suites"]["duality"] == sts.run_suite("duality", 30, 1).to_dict()


def test_verify_replay_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["verify", "--replay", str(bad)]) == 2


@pytest.mark.parametrize("doc", [
    {"cases": [{}]},
    {"suite": "nosuch", "cases": []},
    {"replay": [{"suite": "gap"}]},
    {"suite": "gap", "seed": "x", "cases": []},
    {"suite": "gap", "cases": [{"M": 3}]},
    {"suite": "stability", "cases": [{"A": {"matrix": [[1]]}, "B": {"matrix": [[1]]}}]},
    {"suite": "algebra", "cases": [{"A": 1}]},
], ids=["no-suite", "unknown-suite", "no-cases", "seed-not-int", "gap-case-body",
        "stability-no-bound", "algebra-case-body"])
def test_verify_replay_malformed_file_is_input_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--replay", str(bad), "--out", str(tmp_path / "out.json")]) == 2
    assert "is not a replay file" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_verify_replay_names_the_malformed_case(tmp_path, capsys):
    good = sts._gap_case(1, 0)[0]
    doc = {"replay": [{"suite": "gap", "cases": [good]},
                      {"suite": "gap", "cases": [good, {"M": good["M"]}]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(ser.canonical_json(doc))
    assert main(["verify", "--replay", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "gap case 1: KeyError: 'N'" in captured.err
    assert captured.out == ""


def test_verify_replay_check_faults_still_surface(tmp_path, monkeypatch):
    # Only decoding is an input error; a fault inside a check propagates.
    def broken(case, rec, rng):
        raise ValueError("fault inside a check")

    monkeypatch.setitem(sts._SUITES, "gap", (sts._gap_case, sts._decode_gap, broken))
    replay = tmp_path / "replay.json"
    replay.write_text(ser.canonical_json({"suite": "gap", "cases": [sts._gap_case(1, 0)[0]]}))
    with pytest.raises(ValueError, match="fault inside a check"):
        main(["verify", "--replay", str(replay)])


def test_a_forced_failure_is_stored_as_plain_json_and_replays(tmp_path, monkeypatch):
    # A case payload holds Subspace values; the failure it records holds
    # the case as its text reads back, so the result passes json.dumps and
    # the summary's replay list reproduces the failure.
    build, decode, check = sts._SUITES["algebra"]

    def failing(case, rec, rng):
        check(case, rec, rng)
        rec.check("forced", False, "forced failure")

    monkeypatch.setitem(sts._SUITES, "algebra", (build, decode, failing))
    result = sts.run_suite("algebra", 4, 1)
    assert [f["lemma"] for f in result.failures] == ["forced"] * 4
    json.dumps(result.to_dict())
    for i, failure in enumerate(result.failures):
        assert ser.canonical_json(failure["case"]) == ser.canonical_json(build(1, i)[0])
    summary, replayed = tmp_path / "summary.json", tmp_path / "replayed.json"
    assert main(["verify", "--suite", "algebra", "--trials", "4", "--seed", "1",
                 "--out", str(summary)]) == 1
    assert main(["verify", "--replay", str(summary), "--out", str(replayed)]) == 1
    want = ser.loads(summary.read_text())["suites"]["algebra"]
    got = ser.loads(replayed.read_text())["suites"]["algebra"]
    assert got["lemmas"]["forced"] == {"pass": 0, "fail": 4, "not_applicable": 0,
                                       "indeterminate": 0}
    assert got == want


def test_cli_import_leaves_scipy_unloaded():
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = ("import sys, linrel.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
