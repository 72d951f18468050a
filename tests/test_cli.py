import json

import pytest

from banglab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "\\x. x !x")
    assert code == 0 and out.strip() == "\\x. x !x"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "!y")
    assert code == 0 and json.loads(out) == {"k": "bang", "inner": {"k": "var", "name": "y"}}


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "\\x.")
    assert code == 2 and "error" in err


def test_deep_term_is_a_usage_error(capsys):
    # 600 levels overflow print_term, 1,500 already overflow parse_term.
    for depth in (600, 1500):
        code, out, err = run(capsys, "parse", "!" * depth + "x")
        assert code == 2 and out == "" and err == "error: term nested too deeply\n"


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "(\\x.!der !x) !y", "--strategy", "surface",
                       "--fuel", "10")
    assert code == 0
    assert "!der !y" in out and "dB" in out and "s!" in out


def test_reduce_json_trace(capsys):
    code, out, _ = run(capsys, "--json", "reduce", "(\\z.z) !!u")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [l["rule"] for l in lines[:-1]] == ["dB", "s!"]
    assert lines[-1] == {"status": "normalized", "steps": 2, "term": "!u"}


def test_normalize_full(capsys):
    code, out, _ = run(capsys, "normalize", "!(der !y)", "--strategy", "full")
    assert code == 0 and "!y" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "x x")
    assert code == 0 and out.startswith("ne")
    code, out, _ = run(capsys, "classify", "!s u")
    assert "clash-nf" in out


def test_measure_json(capsys):
    code, out, _ = run(capsys, "measure", "--json", "x !x[y<-z]")
    data = json.loads(out)
    assert data == {"pot_mult": {"x": 2, "z": 1}, "multi_size": [0]}


def test_typings(capsys):
    code, out, _ = run(capsys, "typings", "x x", "--limit", "3")
    assert code == 0 and out.count("|-") == 3


def test_inhabit(capsys):
    code, out, _ = run(capsys, "inhabit", "--system", "B", "--type", "[a]->[a]")
    assert code == 0 and "\\w0. !w0" in out
    code, out, _ = run(capsys, "--json", "inhabit", "--type", "[]")
    data = json.loads(out)
    assert data["status"] == "inhabited" and data["witness"] == "!(\\z. z)"


def test_testable(capsys):
    code, out, _ = run(capsys, "testable", "--type", "[]")
    assert out.strip() == "yes"
    code, out, _ = run(capsys, "testable", "--type", "[a]->[a]", "--env", "x:[a]")
    assert out.strip() == "no"


def test_meaningful(capsys):
    code, out, _ = run(capsys, "--json", "meaningful", "x x")
    data = json.loads(out)
    assert data["status"] == "meaningless"
    code, out, _ = run(capsys, "--json", "meaningful", "\\z.z")
    data = json.loads(out)
    assert data["status"] == "meaningful" and data["testing_context"] == "[] !!(\\z. z)"


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "x y", "--from", "cbn")
    assert out.strip() == "x !y"
    code, out, _ = run(capsys, "embed", "x", "--from", "cbv")
    assert out.strip() == "!x"


def test_simulate(capsys):
    code, out, _ = run(capsys, "simulate", "(\\x.y x x) ((\\z.z) (\\z.z))",
                       "--from", "cbv", "--fuel", "20")
    assert code == 0 and "projected: True" in out


def test_transfer(capsys):
    code, out, _ = run(capsys, "transfer", "x (\\y.z)", "--from", "cbv")
    assert code == 0 and "agreed=True" in out


def test_check_derivation_roundtrip(capsys, tmp_path, monkeypatch):
    from banglab.typesys import B, typings_enumerate
    from banglab.syntax import parse_term

    d = next(iter(typings_enumerate(B, parse_term("x x"))))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(d.to_json() | {"binder": None}))
    code, out, _ = run(capsys, "check-derivation", str(path))
    assert code == 0 and out.strip() == "ok"


def test_check_derivation_bad_input(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"system": "B", "term": "x", "type": "[a]"}))
    for path, says in ((missing, "No such file"), (incomplete, "rule")):
        code, _, err = run(capsys, "check-derivation", str(path))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert says in err


def test_testable_malformed_env(capsys):
    code, _, err = run(capsys, "testable", "--type", "[]", "--env", "x")
    assert code == 2 and err.count("\n") == 1
    assert "'x'" in err and "name:type" in err


def test_typings_bad_bounds(capsys):
    for flag, value in (("--pool", "9"), ("--pool", "0"), ("--depth", "0"), ("--card", "0")):
        code, _, err = run(capsys, "typings", "x", flag, value)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert flag[2:] in err


def test_prop_test_exit_and_determinism(capsys):
    for suite in ("measure", "confluence"):
        code, out1, _ = run(capsys, "--json", "prop-test", "--suite", suite,
                            "--seed", "3", "--count", "30")
        assert code == 0
        code, out2, _ = run(capsys, "--json", "prop-test", "--suite", suite,
                            "--seed", "3", "--count", "30")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_s"), d2.pop("elapsed_s")
        assert d1 == d2 and d1["fail"] == 0


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BANGLAB_SEED", "99")
    code, out, _ = run(capsys, "--json", "prop-test", "--suite", "measure",
                       "--count", "10")
    assert json.loads(out)["config"]["seed"] == 99


def test_corpus_suite(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0 and "fail=0" in out
