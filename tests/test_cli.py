import json
import os
import subprocess
import sys

import pytest

import banglab
from banglab import inhabitation, meaning, suites, typesys
from banglab.cli import main
from banglab.meaning import meaningful
from banglab.syntax import parse_term
from banglab.typesys import B, check_derivation, parse_type


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


def test_deep_type_is_a_usage_error(capsys):
    deep = "[" * 1200 + "a" + "]" * 1200
    for argv in (("inhabit", "--type", deep), ("testable", "--type", "a", "--env", f"x:{deep}")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == "error: type nested too deeply\n"


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


def test_typings_limit_zero_prints_nothing(capsys):
    assert run(capsys, "typings", "x", "--limit", "0") == (0, "", "")
    code, out, _ = run(capsys, "typings", "x", "--limit", "1")
    assert code == 0 and out == "x: [a] |- x : a\n"


def test_inhabit(capsys):
    code, out, _ = run(capsys, "inhabit", "--system", "B", "--type", "[a]->[a]")
    assert code == 0 and "\\w0. !w0" in out
    code, out, _ = run(capsys, "--json", "inhabit", "--type", "[]")
    data = json.loads(out)
    assert data["status"] == "inhabited" and data["witness"] == "!(\\z. z)"


def _node(rule, env, term, ty, *premises):
    return {"system": "B", "rule": rule, "env": env, "term": term, "type": ty,
            "premises": list(premises)}


INHABIT_PINS = {
    "[a]->[a]": {
        "status": "inhabited", "reason": "", "witness": "\\w0. !w0",
        "derivation": _node("abs", {}, "\\w0. !w0", "[a] -> [a]",
                            _node("bang", {"%0": "[a]"}, "!%0", "[a]",
                                  _node("var", {"%0": "[a]"}, "%0", "a")))},
    "[[]]": {
        "status": "inhabited", "reason": "", "witness": "!!(\\z. z)",
        "derivation": _node("bang", {}, "!!(\\z. z)", "[[]]",
                            _node("bang", {}, "!(\\z. z)", "[]"))},
    "[]->[]": {
        "status": "inhabited", "reason": "", "witness": "\\w0. !(\\z. z)",
        "derivation": _node("abs", {}, "\\w0. !(\\z. z)", "[] -> []",
                            _node("bang", {}, "!(\\z. z)", "[]"))},
    # the goal is deeper than the typing bounds, so no derivation comes back
    "[[a]->[a]]": {"status": "inhabited", "reason": "", "witness": "!(\\w0. !w0)"},
    "[[]]->[[]]": {
        "status": "inhabited", "reason": "", "witness": "\\w0. !w0",
        "derivation": _node("abs", {}, "\\w0. !w0", "[[]] -> [[]]",
                            _node("bang", {"%0": "[[]]"}, "!%0", "[[]]",
                                  _node("var", {"%0": "[[]]"}, "%0", "[]")))},
    "[a,a]->[a]": {"status": "unknown", "reason": "no witness within search bounds"},
}


def test_inhabit_json_pinned(capsys):
    for goal, want in INHABIT_PINS.items():
        code, out, _ = run(capsys, "--json", "inhabit", "--type", goal)
        assert code == 0 and out == json.dumps(want, indent=2) + "\n", goal


def test_meaning_builds_no_inhabitant_derivation(capsys, monkeypatch):
    # meaningful reads only the witnesses of the goals it inhabits; their
    # derivations are built when first read, as `inhabit --json` reads them
    inhabitation.inhabit.cache_clear()
    calls, find = [], inhabitation.find_derivation
    monkeypatch.setattr(inhabitation, "find_derivation",
                        lambda *args: calls.append(args) or find(*args))
    for src in ("x", "x y", "der x", "\\x. x !x"):
        assert meaningful(parse_term(src)).meaningful, src
    assert calls == []
    d = inhabitation.inhabit(B, parse_type("[a]->[a]")).derivation
    assert len(calls) == 1 and check_derivation(d) is None
    code, out, _ = run(capsys, "--json", "inhabit", "--type", "[a]->[a]")
    assert code == 0 and out == json.dumps(INHABIT_PINS["[a]->[a]"], indent=2) + "\n"


def test_closed_stdout_exits_quietly():
    # A reader that has gone away, as with `banglab ... | head -c 100`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(banglab.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "banglab.cli", "--json", "inhabit",
                               "--type", "[a]->[a]"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_testable(capsys):
    code, out, _ = run(capsys, "testable", "--type", "[]")
    assert out.strip() == "yes"
    code, out, _ = run(capsys, "testable", "--type", "[a]->[a]", "--env", "x:[a]")
    assert out.strip() == "no"


def test_failed_replay_exits_1_naming_term_and_context(capsys, monkeypatch):
    monkeypatch.setattr(meaning, "replay", lambda ctx, t, fuel: None)
    code, out, err = run(capsys, "meaningful", "\\z.z")
    assert code == 1 and out == ""
    assert err == "error: testable typing failed to replay: \\z. z in [] !!(\\z. z)\n"


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

    stream = typings_enumerate(B, parse_term("x x"))
    _, derivation = next(stream)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(derivation().to_json() | {"binder": None}))
    code, out, _ = run(capsys, "check-derivation", str(path))
    assert code == 0 and out.strip() == "ok"


def test_check_derivation_reads_printed_derivations(capsys, tmp_path):
    # the JSON prints opened bodies such as !%0 and no binder field
    printed = []
    for term in ("\\x.\\y.x", "(\\x.!x)[y<-!z]"):
        code, out, _ = run(capsys, "--json", "typings", term, "--limit", "20")
        assert code == 0
        printed += out.splitlines()
    code, out, _ = run(capsys, "--json", "inhabit", "--type", "[a]->[a]")
    printed.append(json.dumps(json.loads(out)["derivation"]))
    assert any("%0" in d for d in printed)
    path = tmp_path / "d.json"
    for d in printed:
        path.write_text(d)
        code, out, _ = run(capsys, "check-derivation", str(path))
        assert code == 0 and out.strip() == "ok", d


def test_check_derivation_bad_input(capsys, tmp_path):
    node = {"system": "B", "rule": "var", "env": {"x": "[a]"}, "term": "x", "type": "a"}
    (tmp_path / "node.json").write_text(json.dumps(node))
    assert run(capsys, "check-derivation", str(tmp_path / "node.json"))[:2] == (0, "ok\n")
    bad = [({"system": "B", "term": "x", "type": "[a]"}, "rule"),
           # each a malformed field of the valid node above
           (node | {"env": []}, "'env'"), (node | {"env": {"x": 5}}, "'x'"),
           (node | {"env": {"x": "a"}}, "multitype"), (node | {"term": 5}, "'term'"),
           (node | {"premises": 5}, "'premises'"), (node | {"system": "Q"}, "system 'Q'"),
           (node | {"binder": 5}, "'binder'")]
    cases = [(tmp_path / "missing.json", "No such file")]
    for i, (data, says) in enumerate(bad):
        cases.append((tmp_path / f"bad{i}.json", says))
        cases[-1][0].write_text(json.dumps(data))
    for path, says in cases:
        code, out, err = run(capsys, "check-derivation", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert says in err, err


def test_testable_malformed_env(capsys):
    code, _, err = run(capsys, "testable", "--type", "[]", "--env", "x")
    assert code == 2 and err.count("\n") == 1
    assert "'x'" in err and "name:type" in err
    for env, says in ((["x:a"], "multitype"), (["x:[a]", "x:[b]"], "x more than once")):
        code, _, err = run(capsys, "testable", "--type", "[]", "--env", *env)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert says in err


def test_typings_bad_bounds(capsys, monkeypatch):
    monkeypatch.setattr(typesys, "type_universe", None)  # bounds past the cap build none
    for flag, value in (("--pool", "9"), ("--pool", "0"), ("--depth", "0"), ("--card", "0"),
                        ("--depth", "5"), ("--card", "1000")):
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


def test_prop_test_reports_the_size_bound_it_ran(capsys, monkeypatch):
    # grammar, typability and transfer cap the size bound; the report says so
    seen = []
    monkeypatch.setattr(suites, "enum_terms", lambda n, *a, **k: seen.append(n) or [])
    for suite, cap in (("grammar", 7), ("typability", 6), ("transfer", 6)):
        for size in (cap - 2, cap + 2):
            code, out, _ = run(capsys, "--json", "prop-test", "--suite", suite,
                               "--size", str(size))
            assert code == 0
            assert json.loads(out)["config"]["size_bound"] == seen[-1] == min(size, cap)


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BANGLAB_SEED", "99")
    code, out, _ = run(capsys, "--json", "prop-test", "--suite", "measure",
                       "--count", "10")
    assert json.loads(out)["config"]["seed"] == 99


def test_seed_env_var_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("BANGLAB_SEED", "abc")
    code, out, err = run(capsys, "parse", "x")
    assert code == 2 and out == "" and err == "error: BANGLAB_SEED must be an integer\n"


def test_corpus_suite(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0 and "fail=0" in out


def test_count_flags_reject_negative_values(capsys):
    for argv in (("normalize", "(\\x.x) !y", "--fuel", "-1"),
                 ("reduce", "(\\x.x) !y", "--fuel", "-1"),
                 ("--fuel", "-1", "normalize", "x"),
                 ("normalize", "x", "--card", "-1"),
                 ("--depth", "-3", "normalize", "x"),
                 ("normalize", "x", "--pool", "-1"),
                 ("typings", "x", "--fuel", "ten"),
                 ("typings", "x", "--limit", "-1"),
                 ("prop-test", "--suite", "measure", "--count", "-5"),
                 ("prop-test", "--suite", "grammar", "--size", "-2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error: argument --" in err, argv
    code, out, _ = run(capsys, "normalize", "(\\x.x) !y", "--fuel", "0")
    assert code == 0 and out.startswith("fuel-exhausted after 0 steps")
