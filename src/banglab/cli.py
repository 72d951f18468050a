"""Command-line front end.

Subcommands cover parsing, reduction, classification, measures, typing,
inhabitation, meaningfulness, the call-by-name/value embeddings, and
the seeded property suites.  Exit codes: 0 success, 1 property failure
or a testing context that fails to replay, 2 usage error, 141 when the
reader of standard output goes away early.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import cbnv, measures, reduction, suites, typesys
from .inhabitation import inhabit, testable
from .meaning import Budgets, ReplayFailure, meaningful
from .syntax import (free_vars, parse_term, print_term, term_to_json,
                     ParseError)
from .typesys import Bounds, parse_type


def natural(text: str) -> int:
    """The type of the bounds and count flags: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _bounds(ns) -> Bounds:
    return Bounds(card=ns.card, pool=ns.pool, depth=ns.depth)


def _budgets(ns) -> Budgets:
    return Budgets(fuel=ns.fuel, type_bounds=_bounds(ns))


def _emit(ns, data, text: str):
    print(json.dumps(data, indent=2) if ns.json else text)


def cmd_parse(ns) -> int:
    t = parse_term(ns.term)
    _emit(ns, term_to_json(t), print_term(t))
    return 0


def cmd_reduce(ns) -> int:
    t = parse_term(ns.term)
    out = reduction.normalize(t, ns.strategy, ns.fuel, keep_trace=True)
    if ns.json or getattr(ns, "trace", False):
        for i, (rule, pos, term) in enumerate(out.trace):
            print(json.dumps({"step": i + 1, "rule": rule.value,
                              "position": list(pos), "term": print_term(term)}))
        print(json.dumps({"status": out.status, "steps": out.steps,
                          "term": print_term(out.term)}))
    else:
        for i, (rule, pos, term) in enumerate(out.trace):
            print(f"{i + 1:3d} {rule.value:3s} @{'.'.join(map(str, pos)) or 'root'}  "
                  f"{print_term(term)}")
        print(f"{out.status} after {out.steps} steps: {print_term(out.term)}")
    return 0


def cmd_normalize(ns) -> int:
    t = parse_term(ns.term)
    out = reduction.normalize(t, ns.strategy, ns.fuel)
    _emit(ns, {"status": out.status, "steps": out.steps, "term": print_term(out.term)},
          f"{out.status} after {out.steps} steps: {print_term(out.term)}")
    return 0


def cmd_classify(ns) -> int:
    t = parse_term(ns.term)
    cls = reduction.classify(t)
    clashes = reduction.static_clashes(t, ns.strategy)
    _emit(ns, {"class": cls.value, "clash_free_nf": cls.in_no_s,
               "clashes": [{"position": list(p), "shape": s} for p, s in clashes]},
          f"{cls.value} (clash-free NF: {cls.in_no_s}); "
          f"{len(clashes)} clash position(s)")
    return 0


def cmd_measure(ns) -> int:
    t = parse_term(ns.term)
    pm = {x: measures.pot_mult(x, t) for x in sorted(free_vars(t))}
    msz = list(measures.multi_size(t).elems)
    _emit(ns, {"pot_mult": pm, "multi_size": msz},
          f"pot_mult: {pm}\nmulti_size: {msz}")
    return 0


def cmd_typings(ns) -> int:
    t = parse_term(ns.term)
    shown = 0
    for (env, ty), derivation in itertools.islice(
            typesys.typings_enumerate(ns.system, t, _bounds(ns)), ns.limit):
        if ns.json:
            print(json.dumps(derivation().to_json()))
        else:
            print(typesys.Judgment(env, t, ty))
        shown += 1
    if not shown and ns.limit:
        print("no typings within bounds", file=sys.stderr)
    return 0


def cmd_check_derivation(ns) -> int:
    try:
        if ns.file == "-":
            data = json.load(sys.stdin)
        else:
            with open(ns.file) as f:
                data = json.load(f)
    except OSError as e:
        raise ValueError(f"cannot read {ns.file}: {e.strerror}") from e
    d = _derivation_from_json(data)
    err = typesys.check_derivation(d)
    _emit(ns, {"ok": err is None, "error": err}, err or "ok")
    return 0 if err is None else 1


_JSON_KINDS = {str: "string", dict: "object", list: "array"}


def _field(data: dict, key: str, kind: type, default=None):
    """data[key] (or the default), which must be a JSON value of the kind."""
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} in a derivation node must be a JSON "
                         f"{_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


def _derivation_from_json(data) -> typesys.Derivation:
    if not isinstance(data, dict):
        raise ValueError("a derivation node must be a JSON object")
    missing = [k for k in ("system", "rule", "term", "type") if k not in data]
    if missing:
        raise ValueError(f"derivation node without {', '.join(missing)}")
    system, rule = _field(data, "system", str), _field(data, "rule", str)
    if system not in (typesys.B, typesys.N, typesys.V):
        raise ValueError(f"unknown system {system!r}: expected B, N or V")
    bindings = _field(data, "env", dict, {})
    env = typesys.Env(tuple((n, _multitype(f"env binding {n!r}", _field(bindings, n, str)))
                            for n in bindings))
    term = parse_term(_field(data, "term", str))
    binder = None
    if data.get("binder") is not None:
        binder = _field(data, "binder", str)
    elif rule in ("abs", "es"):
        # to_json writes no binder: derivations open each binder with the
        # name _opening takes from the node's own term
        binder = typesys._opening(term)
    return typesys.Derivation(
        system, rule, typesys.Judgment(env, term, parse_type(_field(data, "type", str))),
        tuple(_derivation_from_json(p) for p in _field(data, "premises", list, [])),
        binder=binder)


def cmd_inhabit(ns) -> int:
    goal = parse_type(ns.type)
    res = inhabit(ns.system, goal, _bounds(ns))
    data = {"status": res.status, "reason": res.reason}
    if res.witness is not None:
        data["witness"] = print_term(res.witness)
    if res.derivation is not None:
        data["derivation"] = res.derivation.to_json()
    _emit(ns, data, f"{res.status}"
          + (f": {print_term(res.witness)}" if res.witness else f" ({res.reason})"))
    return 0


def _multitype(what: str, text: str) -> typesys.Multi:
    m = parse_type(text)
    if not isinstance(m, typesys.Multi):
        raise ValueError(f"{what}: a variable's type must be a multitype, like [a]")
    return m


def _binding(pair: str):
    name, colon, ty = pair.partition(":")
    if not (name and colon):
        raise ValueError(f"malformed --env binding {pair!r}: expected name:type, like x:[a]")
    return name, _multitype(f"--env binding {pair!r}", ty)


def cmd_testable(ns) -> int:
    goal = parse_type(ns.type)
    bindings = [_binding(pair) for pair in ns.env]
    env = typesys.Env(tuple(bindings))
    res = testable(ns.system, (env, goal), _bounds(ns))
    _emit(ns, {"verdict": res.verdict}, res.verdict)
    return 0


def cmd_meaningful(ns) -> int:
    t = parse_term(ns.term)
    v = meaningful(t, _budgets(ns))
    data = {"status": v.status, "reason": v.reason}
    if v.evidence is not None:
        data["testing_context"] = str(v.evidence.context)
        data["reduces_to"] = print_term(v.evidence.result)
        data["steps"] = v.evidence.steps
    text = f"{v.status}: {v.reason}"
    if v.evidence is not None:
        text += (f"\n  context: {v.evidence.context}"
                 f"\n  reaches: {print_term(v.evidence.result)}")
    _emit(ns, data, text)
    return 0


def cmd_embed(ns) -> int:
    t = parse_term(ns.term)
    e = cbnv.embed(ns.source, t)
    _emit(ns, {"term": print_term(e)}, print_term(e))
    return 0


def cmd_simulate(ns) -> int:
    t = parse_term(ns.term)
    rep = cbnv.simulate_check(ns.source, t, ns.fuel)
    _emit(ns, {"steps": rep.source_steps, "projected": rep.projected},
          f"{rep.source_steps} source steps; projected: {rep.projected}")
    return 0 if rep.projected else 1


def cmd_transfer(ns) -> int:
    t = parse_term(ns.term)
    rep = cbnv.transfer_check(ns.source, t, _budgets(ns))
    _emit(ns, {"source": rep.source.status, "image": rep.image.status,
               "agreed": rep.agreed, "note": rep.note},
          f"source={rep.source.status} image={rep.image.status} agreed={rep.agreed}")
    return 0 if rep.agreed else 1


def cmd_prop_test(ns) -> int:
    cfg = suites.SuiteConfig(suite=ns.suite, seed=ns.seed, count=ns.count,
                             size_bound=ns.size, fuel=ns.fuel, bounds=_bounds(ns))
    rep = suites.run_suite(cfg)
    if ns.json:
        print(json.dumps(rep.to_json(), indent=2))
    else:
        print(f"suite {rep.suite}: {rep.statement}")
        print(f"  pass={rep.passed} fail={rep.failed} unknown={rep.unknown} "
              f"({rep.elapsed:.1f}s)")
        for n in rep.notes:
            print(f"  note: {n}")
        for f in rep.failures:
            print(f"  FAIL {f}")
    return 0 if rep.failed == 0 else 1


def main(argv=None) -> int:
    try:
        default_seed = int(os.environ.get("BANGLAB_SEED", "1"))
    except ValueError:
        print("error: BANGLAB_SEED must be an integer", file=sys.stderr)
        return 2
    top = argparse.ArgumentParser(prog="banglab")
    top.add_argument("--json", action="store_true", help="emit JSON")
    top.add_argument("--fuel", type=natural, default=200)
    top.add_argument("--card", type=natural, default=2, help="multiset cardinality bound")
    top.add_argument("--depth", type=natural, default=3, help="type depth bound")
    top.add_argument("--pool", type=natural, default=2, help="type variable pool size")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    for flag in ("--fuel", "--card", "--depth", "--pool"):
        common.add_argument(flag, type=natural, default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse); p.add_argument("term")
    for name, fn in (("reduce", cmd_reduce), ("normalize", cmd_normalize)):
        p = add(name, fn)
        p.add_argument("term")
        p.add_argument("--strategy", choices=["surface", "full"], default="surface")
        if name == "reduce":
            p.add_argument("--trace", action="store_true",
                           help="emit the trace as JSON lines")
    p = add("classify", cmd_classify)
    p.add_argument("term")
    p.add_argument("--strategy", choices=["surface", "full"], default="surface")
    p = add("measure", cmd_measure); p.add_argument("term")
    p = add("typings", cmd_typings)
    p.add_argument("term")
    p.add_argument("--system", choices=["B", "N", "V"], default="B")
    p.add_argument("--limit", type=natural, default=20)
    p = add("check-derivation", cmd_check_derivation)
    p.add_argument("file", help="JSON derivation ('-' for stdin)")
    p = add("inhabit", cmd_inhabit)
    p.add_argument("--system", choices=["B", "N", "V"], default="B")
    p.add_argument("--type", required=True)
    p = add("testable", cmd_testable)
    p.add_argument("--system", choices=["B", "N", "V"], default="B")
    p.add_argument("--type", required=True)
    p.add_argument("--env", nargs="*", default=[], help="bindings like x:[a]")
    p = add("meaningful", cmd_meaningful); p.add_argument("term")
    for name, fn in (("embed", cmd_embed), ("simulate", cmd_simulate),
                     ("transfer", cmd_transfer)):
        p = add(name, fn)
        p.add_argument("term")
        p.add_argument("--from", dest="source", choices=["cbn", "cbv"], required=True)
    p = add("prop-test", cmd_prop_test)
    p.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--count", type=natural, default=200)
    p.add_argument("--size", type=natural, default=8)
    p = add("corpus", cmd_prop_test)
    p.set_defaults(suite="corpus", seed=default_seed, count=1, size=8)

    try:
        ns = top.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = ns.fn(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does): drop the rest of
        # the output, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ReplayFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
