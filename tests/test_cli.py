import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import logzono
from logzono import cli
from logzono.casestudies import INTERSECTION_SOURCE, LfsrSpec
from logzono.reach import ContainmentReport


@pytest.fixture()
def system_file(tmp_path):
    p = tmp_path / "crossing.lbn"
    p.write_text(INTERSECTION_SOURCE)
    return str(p)


@pytest.fixture()
def zono_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(
        {"dim": 2, "center": "11", "generators": ["01", "10"]}))
    b.write_text(json.dumps(
        {"dim": 2, "center": "00", "generators": ["11"]}))
    return str(a), str(b)


def run(args):
    return cli.main(args)


def test_reach_text_uses_file_horizon(system_file, capsys):
    assert run(["reach", system_file]) == 0
    out = capsys.readouterr().out
    assert "k=10" in out and "k=11" not in out


def test_reach_both_reports_containment(system_file, capsys):
    assert run(["reach", system_file, "--backend", "both"]) == 0
    assert "containment: ok" in capsys.readouterr().out


def test_reach_json_shape(system_file, capsys):
    assert run(["reach", system_file, "--backend", "both",
                "--horizon", "3", "--out", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"zonotope", "explicit", "containment"}
    assert d["containment"]["ok"] is True
    assert [s["size"] for s in d["explicit"]["steps"]] == [12, 13, 14, 14]


def test_reach_csv_rows(system_file, capsys):
    assert run(["reach", system_file, "--horizon", "2",
                "--backend", "both", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,backend,time_s,size,joint_count"
    assert len(lines) == 1 + 3 * 2


def test_reach_horizon_zero(system_file, capsys):
    assert run(["reach", system_file, "--horizon", "0",
                "--out", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["zonotope"]["steps"]) == 1


def test_reach_parse_error_has_location(tmp_path, capsys):
    bad = tmp_path / "bad.lbn"
    bad.write_text("state x;\nx^ = 1;\n")
    assert run(["reach", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2, col 2" in err


def test_reach_missing_file(capsys):
    assert run(["reach", "/nonexistent/x.lbn"]) == 1
    assert "error:" in capsys.readouterr().err


def test_reach_rule_deeper_than_recursion_limit(tmp_path, capsys):
    # the chain, in as many parentheses, parses without recursion, and
    # both backends run on its lowered instructions
    depth = sys.getrecursionlimit() + 200
    chain = "(" * depth + " & ".join(["u"] * depth + ["x"]) + ")" * depth
    deep = tmp_path / "deep.lbn"
    deep.write_text(f"state x; input u; x' = {chain};"
                    "init x = {0,1}; in u = {0,1}; horizon 3;")
    for backend in ("zono", "exact", "both"):
        assert run(["reach", str(deep), "--backend", backend, "--out", "json"]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        for result in cli._backend_list(backend):
            steps = out[result]["steps"]
            assert [s["var_sets"] for s in steps] == [{"x": [0, 1]}] * 4
    assert out["containment"]["ok"]       # the last run, --backend both


def test_json_deeper_than_recursion_limit(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert run(["contains", str(deep), "0"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: input nested too deeply")


def test_reach_soundness_exit_code(system_file, monkeypatch, capsys):
    # force the violation branch; a real one would be a library bug
    monkeypatch.setattr(
        cli, "check_containment",
        lambda a, b: ContainmentReport(False, [(0, "0000", "p1")], [1]))
    assert run(["reach", system_file, "--horizon", "1",
                "--backend", "both"]) == 2
    assert "VIOLATED" in capsys.readouterr().out


def test_lfsr_verified_key(capsys):
    assert run(["lfsr", "--length", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "verified true" in out


def test_lfsr_deterministic_given_seed(capsys):
    run(["lfsr", "--length", "8", "--seed", "5", "--out", "json"])
    first = json.loads(capsys.readouterr().out)["key"]
    run(["lfsr", "--length", "8", "--seed", "5", "--out", "json"])
    assert json.loads(capsys.readouterr().out)["key"] == first


def test_lfsr_search_failure_exit_code(tmp_path, capsys):
    inst = tmp_path / "impossible.json"
    inst.write_text(json.dumps({
        "spec": LfsrSpec(4, (4, 3), (4,)).to_json_dict(),
        "message": [0] * 16, "cipher": [1] * 16}))
    assert run(["lfsr", "--instance", str(inst)]) == 3


@pytest.mark.parametrize("message, cipher, bad", [
    ([0, 2, 0, 0], [0] * 4, "message[1]"), ([-1, 0, 0, 0], [0] * 4, "message[0]"),
    ([0] * 4, [0, 0, 0, "1"], "cipher[3]"), ([0] * 4, [0, True, 0, 0], "cipher[1]"),
])
def test_lfsr_instance_bits_are_checked(tmp_path, capsys, message, cipher, bad):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"spec": LfsrSpec(4, (4, 3), (4,)).to_json_dict(),
                                "message": message, "cipher": cipher}))
    assert run(["lfsr", "--instance", str(inst)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {bad} must be the int 0 or 1")


_SPEC4 = {"length": 4, "feedback": [4, 3], "output": [4]}


@pytest.mark.parametrize("instance, error", [
    ([1], "instance must be a JSON object with spec, message, cipher, got list"),
    ({"spec": _SPEC4, "cipher": [0] * 4}, "instance has no 'message' field"),
    ({"spec": 4, "message": [0] * 4, "cipher": [0] * 4},
     "spec must be a JSON object with length, feedback, output, got int"),
    ({"spec": {"length": 4, "feedback": [4, 3]}, "message": [0] * 4, "cipher": [0] * 4},
     "spec has no 'output' field"),
    ({"spec": _SPEC4, "message": 5, "cipher": [0] * 4}, "message must be a list of bits, got 5"),
    ({"spec": _SPEC4, "message": [0] * 4, "cipher": "0000"},
     "cipher must be a list of bits, got '0000'"),
    ({"spec": {**_SPEC4, "feedback": ["4", 3]}, "message": [0] * 4, "cipher": [0] * 4},
     "spec feedback taps must be ints, got ['4', 3]"),
    ({"spec": {**_SPEC4, "output": [True]}, "message": [0] * 4, "cipher": [0] * 4},
     "spec output taps must be ints, got [True]"),
    ({"spec": {**_SPEC4, "feedback": 4}, "message": [0] * 4, "cipher": [0] * 4},
     "spec feedback must be a list of taps, got 4"),
    ({"spec": {**_SPEC4, "length": "4"}, "message": [0] * 4, "cipher": [0] * 4},
     "spec length must be an int, got '4'"),
])
def test_lfsr_instance_shape_errors_name_the_field(tmp_path, capsys, instance, error):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    assert run(["lfsr", "--instance", str(inst)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["lfsr", "--length", "0"], ["lfsr", "--length", "-3"], ["lfsr", "--length", "1"],
    ["lfsr", "--length", "2"], ["bench", "lfsr", "--lengths", "0"],
])
def test_lfsr_length_below_three_names_the_length(argv, capsys):
    assert run(argv) == cli.EXIT_INPUT
    length = argv[-1]
    assert capsys.readouterr().err == f"error: LFSR length must be at least 3, got {length}\n"


def test_lfsr_repeated_tap_is_an_input_error(capsys):
    assert run(["lfsr", "--length", "4", "--taps", "4,3,3", "--output-taps", "4"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: spec feedback lists tap 3 twice: [4, 3, 3]\n"


def test_lfsr_underdetermined_warning(capsys):
    assert run(["lfsr", "--length", "8", "--message-len", "4",
                "--seed", "2"]) in (0, 3)
    assert "under-determined" in capsys.readouterr().err


def test_set_xor_evaluate(zono_files, capsys):
    a, b = zono_files
    assert run(["set", "xor", a, b, "--evaluate"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["generators"] == ["01", "10", "11"]
    assert sorted(d["points"]) == ["00", "01", "10", "11"]


def test_set_not_single_operand(zono_files, capsys):
    a, b = zono_files
    assert run(["set", "not", b]) == 0
    assert json.loads(capsys.readouterr().out)["center"] == "11"
    assert run(["set", "not", a, b]) == 1
    assert run(["set", "and", a]) == 1


def test_set_dimension_mismatch(zono_files, tmp_path, capsys):
    a, _ = zono_files
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"dim": 3, "center": "000", "generators": []}))
    assert run(["set", "and", a, str(c)]) == 1


def test_reduce_drops_duplicate(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(
        {"dim": 2, "center": "00", "generators": ["10", "10", "01"]}))
    assert run(["reduce", str(z), "--evaluate"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["gamma_before"], d["gamma_after"]) == (3, 2)
    assert sorted(d["points"]) == ["00", "01", "10", "11"]


def test_reduce_gamma_cap_binds_only_on_evaluate(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(
        {"dim": 2, "center": "00", "generators": ["10", "10", "01"]}))
    assert run(["reduce", str(z), "--gamma-cap", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma_after"] == 2
    assert run(["reduce", str(z), "--evaluate", "--gamma-cap", "2"]) == 0
    capsys.readouterr()
    assert run(["reduce", str(z), "--evaluate", "--gamma-cap", "1"]) == 1
    assert "cap 1" in capsys.readouterr().err


def test_contains_true_false(zono_files, capsys):
    a, b = zono_files
    assert run(["contains", a, "00"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["contains", b, "01"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_contains_bad_point(zono_files, capsys):
    a, _ = zono_files
    assert run(["contains", a, "0x"]) == 1


@pytest.mark.parametrize("payload", [
    {"dim": 3, "center": 101, "generators": []},
    {"dim": 1, "center": "1", "generators": [1]},
    {"dim": 1, "center": "1", "generators": None},
    [1, 2],
])
def test_contains_malformed_zonotope_json(tmp_path, capsys, payload):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(payload))
    assert run(["contains", str(z), "101"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_golden_writes_canonical_json(system_file, tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert run(["reach", system_file, "--horizon", "1",
                "--golden", str(golden)]) == 0
    d = json.loads(golden.read_text())
    assert [s["size"] for s in d["zonotope"]["steps"]] == [12, 13]
    # canonical form: keys sorted, trailing newline
    text = golden.read_text()
    assert text.endswith("\n")
    assert text == json.dumps(d, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["contains", "A", "01"], ["set", "not", "A"], ["reduce", "A"]])
def test_out_csv_rejected_where_no_csv_form(zono_files, tmp_path, capsys, argv):
    # argparse refuses the format before the command runs, so --golden
    # writes nothing
    golden = tmp_path / "g.json"
    argv = [zono_files[0] if a == "A" else a for a in argv]
    assert run(argv + ["--out", "csv", "--golden", str(golden)]) == cli.EXIT_INPUT
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert not golden.exists()


def test_gamma_cap_validation(zono_files, capsys):
    a, _ = zono_files
    assert run(["set", "not", a, "--gamma-cap", "-1"]) == 1
    assert run(["reduce", a, "--gamma-cap", "-1"]) == 1


@pytest.mark.parametrize("argv", [
    ["reach", "SYSTEM", "--bogus"],
    ["reach", "SYSTEM", "--horizon", "x"],
    ["reach", "SYSTEM", "--gamma-cap", "1"],
    ["lfsr", "--gamma-cap", "1"],
    ["contains", "SYSTEM", "0", "--gamma-cap", "1"],
    ["bench", "lfsr", "--gamma-cap", "1"],
    ["lfsr", "--message-len", "0"],
    ["lfsr", "--message-len", "-5"],
    ["frobnicate"],
])
def test_usage_errors_are_input_errors(system_file, capsys, argv):
    """argparse exits 2 on its own, which would read as EXIT_SOUNDNESS."""
    argv = [system_file if a == "SYSTEM" else a for a in argv]
    assert run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: logzono") and "error: " in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["reach", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
    assert "--gamma-cap" not in capsys.readouterr().out


def test_gamma_cap_flag_does_not_leak(zono_files, monkeypatch, capsys):
    monkeypatch.delenv("LOGZONO_GAMMA_CAP", raising=False)
    a, _ = zono_files
    assert run(["set", "not", a, "--evaluate", "--gamma-cap", "1"]) == 1
    assert "cap 1" in capsys.readouterr().err
    assert "LOGZONO_GAMMA_CAP" not in os.environ
    assert run(["set", "not", a, "--evaluate"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 4


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_env_gamma_cap_is_input_error(zono_files, monkeypatch, capsys,
                                          raw):
    monkeypatch.setenv("LOGZONO_GAMMA_CAP", raw)
    assert run(["set", "not", zono_files[0], "--evaluate"]) == cli.EXIT_INPUT
    assert "LOGZONO_GAMMA_CAP" in capsys.readouterr().err


def test_bench_intersection_csv(capsys):
    assert run(["bench", "intersection", "--horizons", "2,3",
                "--backend", "exact"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,backend,time_s,size,joint_count"
    assert lines[1].startswith("2,explicit,") and lines[1].endswith(",14,36")


def _child_env(**extra):
    """The current environment, with the imported logzono first on
    PYTHONPATH, so a child interpreter runs the same code whether or not
    the package is installed."""
    env = dict(os.environ)
    src = str(Path(logzono.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def _declares_console_script():
    """pyproject.toml maps the `logzono` console script to cli.main."""
    text = (Path(__file__).resolve().parent.parent
            / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib
        scripts = tomllib.loads(text)["project"].get("scripts", {})
        return scripts.get("logzono") == "logzono.cli:main"
    # no tomllib before 3.11: look inside the [project.scripts] table
    table = text.partition("[project.scripts]")[2].split("\n[", 1)[0]
    return 'logzono = "logzono.cli:main"' in table


def test_console_script_and_env_cap(tmp_path):
    z = tmp_path / "wide.json"
    gens = ["0001", "0010", "0100", "1000"]
    z.write_text(json.dumps({"dim": 4, "center": "0000",
                             "generators": gens}))
    proc = subprocess.run(
        [sys.executable, "-m", "logzono.cli", "set", "not", str(z),
         "--evaluate"],
        capture_output=True, text=True,
        env=_child_env(LOGZONO_GAMMA_CAP="2"))
    assert proc.returncode == 1
    assert "cap 2" in proc.stderr

    # the console script an install puts on PATH, and the module it runs
    assert _declares_console_script()
    help_proc = subprocess.run(
        [sys.executable, "-m", "logzono.cli", "--help"],
        capture_output=True, text=True, env=_child_env())
    assert help_proc.returncode == 0
    assert "reach" in help_proc.stdout


@pytest.mark.skipif(shutil.which("logzono") is None,
                    reason="logzono console script not on PATH "
                           "(package not installed)")
def test_console_script_help():
    help_proc = subprocess.run(["logzono", "--help"],
                               capture_output=True, text=True)
    assert help_proc.returncode == 0
    assert "reach" in help_proc.stdout
