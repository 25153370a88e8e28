"""Command-line interface.

Every subcommand emits a single JSON document on stdout (stable key order,
schema_version field, seeds echoed), except DOT output for automaton
graphs and the optional --format text tables. Exit codes: 0 success, 1
domain/usage error, 2 resource-cap error. Each subcommand's flags are
declared once, in _COMMANDS, and the parser is built from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import superpatterns as S  # its walk functions load numpy on first use
from . import bounds as B
from . import dfa as D
from . import patterns as P
from .errors import ResourceLimitError

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics, exit code 1 for usage problems
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cap(args) -> int:
    """The enumeration cap of this run: --max-enum where given (0 too),
    else SUPERPATTERNS_MAX_ENUM, else the library default. The old k! cap
    SUPERPATTERNS_MAX_K is refused, not dropped."""
    if "SUPERPATTERNS_MAX_K" in os.environ:
        raise ValueError("SUPERPATTERNS_MAX_K is no longer read; SUPERPATTERNS_MAX_ENUM caps k!")
    try:
        cap = int(os.environ.get("SUPERPATTERNS_MAX_ENUM", P.MAX_ENUM_WORDS))
    except ValueError:
        raise ValueError("SUPERPATTERNS_MAX_ENUM must be an integer") from None
    return cap if getattr(args, "max_enum", None) is None else args.max_enum


def _emit(payload: dict, fmt: str = "json") -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if fmt == "text":
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _flag(dest: str) -> str:
    """The command-line spelling of an argparse dest."""
    return "--in" if dest == "in_path" else "--" + dest.replace("_", "-")


def _reads(table: dict) -> tuple:
    """Every flag that some entry (flags it needs, other flags it takes,
    ...) of table reads, each once, in table order."""
    return tuple(dict.fromkeys(dest for entry in table.values() for dest in entry[0] + entry[1]))


def _check_flags(args, what: str, table: dict, name: str) -> None:
    """Refuse each flag that table[name] = (flags it needs, other flags it
    takes, ...) needs and args lack, then each that only other entries read."""
    needs, takes = table[name][:2]
    missing = [_flag(dest) for dest in needs if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"{what} needs {' and '.join(missing)}")
    for dest in _reads(table):
        if dest not in needs + takes and getattr(args, dest) is not None:
            raise ValueError(f"{what} does not read {_flag(dest)}")


def _run_mode(args, cap):
    """Run the mode of args.command (_MODES) that the first given flag of
    one of its entries chooses, in table order, naming it by that flag."""
    command, table = args.command, _MODES[args.command]
    for mode, (needs, takes, run) in table.items():
        for dest in needs + takes:
            if getattr(args, dest) is not None:
                _check_flags(args, f"{command} {_flag(dest)}", table, mode)
                return run(args, cap)
    firsts = [_flag((needs + takes)[0]) for needs, takes, _ in table.values()]
    raise ValueError(f"{command} needs {' or '.join(firsts)}")


def _read_input(args, name: str, parse, coerce):
    """--name's value through coerce, or the text of --name-file through parse."""
    value, path = getattr(args, name), getattr(args, f"{name}_file")
    if path:
        if value is not None:
            raise ValueError(f"give --{name} or --{name}-file, not both")
        with open(path) as fh:
            return parse(fh.read())
    if value is None:
        raise ValueError(f"need --{name} or --{name}-file")
    return coerce(value)


def _read_word(args) -> P.Word:
    if args.word_file and args.r is not None:
        raise ValueError("give --r or --word-file, not both: the file's r= header is its alphabet")
    return _read_input(args, "word", P.parse_word, lambda letters: P.as_word(letters, args.r))


def _read_perm(args) -> P.Permutation:
    return _read_input(args, "perm", P.parse_permutation, P.as_permutation)


_WORD = ("word", "word_file", "r")
_PERM = ("perm", "perm_file")


def _load_dfa(args):
    with open(args.in_path) as fh:
        return D.dfa_from_json(fh.read())


# kind: (flags it needs, other flags it takes, build); greedy checks its own word
_BUILDERS = {
    "greedy": ((), _WORD, lambda args: D.build_greedy_dfa(_read_word(args))),
    "subset": (("k",), (), lambda args: D.build_subset_dfa(args.k)),
    "two-track": (("k",), (), lambda args: D.build_two_track_dfa(args.k)),
    "random": (
        ("k", "states"), ("dfa_seed",),
        lambda args: D.random_k_dfa(args.k, args.states, args.dfa_seed or 0),
    ),
    "file": (("in_path",), (), _load_dfa),
}


def _build_dfa(args):
    builder = getattr(args, "builder", None)
    if builder is not None and args.dfa is not None:
        raise ValueError("give a builder argument or --dfa, not both")
    kind = builder or args.dfa
    if kind is None:
        raise ValueError("no automaton named: use --dfa or a builder argument")
    _check_flags(args, f"--dfa {kind}", _BUILDERS, kind)
    return _BUILDERS[kind][2](args)


def _emit_dfa(dfa, fmt: str, include_infinite: bool = False) -> None:
    if fmt == "dot":
        sys.stdout.write(D.dfa_to_dot(dfa, include_infinite=include_infinite))
    elif fmt == "text":
        print(f"k: {dfa.alphabet_size}")
        print(f"root: {dfa.root}")
        for v, t, u, c in D.finite_edges(dfa):
            print(f"{v} --{t}({c})--> {u}")
    else:
        print(D.dfa_to_json(dfa))


# ---------------------------------------------------------------------------
# handlers: each returns its payload, or None when it printed an automaton


def _cmd_contains(args, cap):
    sigma = _read_word(args)
    tau = _read_perm(args)
    emb = P.find_embedding(sigma, tau)
    payload = {
        "word": list(sigma.letters),
        "r": sigma.alphabet_size,
        "perm": list(tau.images),
        "contains": emb is not None,
        "witness": list(emb) if emb is not None else None,
    }
    if sigma.alphabet_size == tau.k:
        greedy = P.greedy_embed(sigma, tau)
        payload["greedy_embedding"] = list(greedy) if greedy is not None else None
    return payload


def _cmd_census(args, cap):
    sigma = _read_word(args)
    pats = P.pattern_set(sigma, args.k, max_words=cap)
    payload = {
        "word": list(sigma.letters),
        "r": sigma.alphabet_size,
        "k": args.k,
        "n": len(sigma),
        "count": len(pats),
        "factorial_k": math.factorial(args.k),
    }
    if args.list:
        payload["patterns"] = sorted(list(p.images) for p in pats)
    return payload


def _superpattern_check(args, cap):
    sigma = _read_word(args)
    return {
        "mode": "check",
        "word": list(sigma.letters),
        "k": args.k,
        "superpattern": P.is_superpattern(sigma, args.k, max_words=cap),
    }


def _superpattern_search(args, cap):
    return {
        "mode": "search",
        "k": args.k,
        "r": args.search_r,
        "n_max": args.n_max,
        "minimal_length": P.minimal_superpattern_length(
            args.k, args.search_r, args.n_max, max_words=cap
        ),
    }


def _cmd_f_oracle(args, cap):
    best, witness = P.f_oracle(args.k, args.n, max_words=cap)
    return {
        "k": args.k,
        "n": args.n,
        "max_count": best,
        "witness": list(witness.letters),
    }


def _dfa_cost(args, cap, dfa):
    # the walk's start, word and total: no states or step costs
    walk = _cmd_walk(args, cap, dfa)
    keys = ("start", "walk_word", "total_cost")
    return {key: walk[key] for key in keys}


def _dfa_census(args, cap, dfa):
    census = D.perm_cost_census(dfa, max_words=cap)
    payload = {
        "k": dfa.alphabet_size,
        "census": [{"cost": D._cost_to_jsonable(c), "count": n} for c, n in census.items()],
    }
    if args.budget is not None:
        payload["budget"] = args.budget
        payload["count_within_budget"] = sum(n for c, n in census.items() if c <= args.budget)
    return payload


# action: (flags it needs, other flags it takes, run); dfa build with
# --format dot runs as dot
_ACTIONS = {
    "build": ((), (), lambda args, cap, dfa: _emit_dfa(dfa, args.format)),
    "dot": (
        (), ("include_infinite",),
        lambda args, cap, dfa: _emit_dfa(dfa, "dot", bool(args.include_infinite)),
    ),
    "cost": (("walk_word",), ("start",), _dfa_cost),
    "census": ((), ("budget", "max_enum"), _dfa_census),
}


def _cmd_dfa(args, cap):
    dfa = _build_dfa(args)
    action = "dot" if args.action == "build" and args.format == "dot" else args.action
    _check_flags(args, f"dfa {args.action}", _ACTIONS, action)
    payload = _ACTIONS[action][2](args, cap, dfa)
    return None if payload is None else {"command": f"dfa {args.action}", **payload}


def _cmd_cheapen(args, cap):
    # every cheapened row is a permutation of [k]: no infinite edge to draw
    _emit_dfa(D.cheapen(_build_dfa(args)), args.format)


def _cmd_walk(args, cap, dfa=None):
    dfa = _build_dfa(args) if dfa is None else dfa
    start = dfa.root if args.start is None else args.start
    trace = D.walk_cost(dfa, start, args.walk_word)
    return {
        "start": start,
        "walk_word": list(args.walk_word),
        "states": list(trace.states),
        "step_costs": [D._cost_to_jsonable(c) for c in trace.step_costs],
        "total_cost": D._cost_to_jsonable(trace.total_cost),
    }


def _cmd_exact_p(args, cap):
    dfa = _build_dfa(args)
    state = dfa.root if args.state is None else args.state
    p = S.exact_P(
        dfa, state, args.L, args.epsilon,
        strict=args.comparator == "lt", max_words=cap,
    )
    return {
        "k": dfa.alphabet_size,
        "L": args.L,
        "epsilon": args.epsilon,
        "state": state,
        "comparator": "<" if args.comparator == "lt" else "<=",
        "p": float(p),
        "p_numerator": p.numerator,
        "p_denominator": p.denominator,
    }


def _cmd_estimate_p(args, cap):
    dfa = _build_dfa(args)
    state = dfa.root if args.state is None else args.state
    rep = S.estimate_P(
        dfa, state, args.L, args.epsilon, args.samples, args.seed,
        strict=args.comparator == "lt", threads=args.threads,
    )
    return rep.to_json_dict()


def _cmd_decompose(args, cap):
    dfa = _build_dfa(args)
    tau = _read_perm(args)
    dec = S.xy_decompose(dfa, tau)
    return {
        "perm": list(tau.images),
        "step_costs": list(dec.step_costs),
        "x_ranks": list(dec.x_ranks),
        "y_slacks": list(dec.y_slacks),
        "pool_sizes": list(dec.pool_sizes),
        "total_cost": dec.total_cost,
        "y_total": sum(dec.y_slacks),
    }


def _cmd_concentration(args, cap):
    if args.threads < 1:
        raise ValueError(f"need threads >= 1, got {args.threads}")
    dfa = _build_dfa(args)
    rep = S.concentration_experiment(
        dfa, args.M, args.epsilon_star, args.samples, args.seed, max_words=cap
    )
    return {**rep.to_json_dict(), **_con(args)}


def _bcp_check(args, cap):
    sigma = _read_word(args)
    tau = _read_perm(args)
    return {
        "word": list(sigma.letters),
        "perm": list(tau.images),
        "bidirectional": args.bidirectional,
        "contains": P.circular_contains(sigma, tau, args.bidirectional),
    }


def _bcp_census(args, cap):
    sigma = _read_word(args)
    pats = P.circular_pattern_set(sigma, args.k, args.bidirectional, max_words=cap)
    total = math.factorial(args.k)
    return {
        "word": list(sigma.letters),
        "k": args.k,
        "bidirectional": args.bidirectional,
        "count": len(pats),
        "total": total,
        "superpattern": len(pats) == total,
    }


# command: {mode: (flags it needs, other flags it takes, run)}; the first given
# flag of a mode chooses it; a search reads its alphabet from --search-r, not --r
_MODES = {
    "superpattern": {
        "check": ((), _WORD, _superpattern_check),
        "search": (("search_r", "n_max"), (), _superpattern_search),
    },
    "bcp": {
        "check": ((), _PERM, _bcp_check),
        "census": (("k",), ("max_enum",), _bcp_census),
    },
}


def _log_f_arg(args) -> float:
    if args.f is not None and args.log_f is not None:
        raise ValueError("give --f or --log-f, not both")
    if args.f is not None:
        if not 0 <= args.f < math.inf:
            raise ValueError("--f must be a finite non-negative number")
        return -math.inf if args.f == 0 else math.log(args.f)
    if args.log_f is not None:
        return args.log_f
    raise ValueError("need --f or --log-f")


def _birthday(args) -> dict:
    results = {"log_ratio": B.birthday_ratio(args.k, args.L)}
    if args.alpha is not None:
        results.update(alpha=args.alpha, log_bound=B.birthday_bound(args.k, args.alpha))
    return results


def _infeasibility(args) -> dict:
    log_f = _log_f_arg(args)
    return {"log_f": log_f, "certified": B.infeasibility(args.k, args.r, args.n, log_f)}


def _gupta(args) -> dict:
    log_f = _log_f_arg(args)
    return {"log_f": log_f, "necessary_condition_holds": B.gupta_check(args.k, args.n, log_f)}


def _con(args) -> dict:
    c1, c2 = B.con_constants(args.epsilon_star, args.M)
    return {"c_con1": c1, "c_con2_sup": c2}


# bound: (flags it needs and echoes, other flags it takes, results)
_BOUNDS = {
    "forL": (
        ("k", "L", "epsilon"), (),
        lambda args: {"log_value": B.forL_bound(args.k, args.L, args.epsilon)},
    ),
    "birthday": (("k", "L"), ("alpha",), _birthday),
    "theorem-constants": (
        ("epsilon_star",), (), lambda args: asdict(B.theorem_constants(args.epsilon_star)),
    ),
    "hoeffding-x": (
        ("k", "epsilon"), (),
        lambda args: {"log_value": B.hoeffding_x_bound(args.k, args.epsilon)},
    ),
    "infeasibility": (("k", "r", "n"), ("f", "log_f"), _infeasibility),
    "gupta": (("k", "n"), ("f", "log_f"), _gupta),
    "loworder": (
        ("k", "epsilon"), (),
        lambda args: {"hypothesis_holds": B.loworder_predicate(args.k, args.epsilon)},
    ),
    "con": (("epsilon_star", "M"), (), _con),
}


def _cmd_bounds(args, cap):
    which = args.bound
    needs, _, results = _BOUNDS[which]
    _check_flags(args, f"bounds {which}", _BOUNDS, which)
    echo = {dest: getattr(args, dest) for dest in needs}
    return {"bound": which, **echo, **results(args)}


# ---------------------------------------------------------------------------
# parser wiring


# dest: its add_argument keywords, for the flag _flag(dest); each help
# holds for every subcommand that takes the flag
_FLAGS = {
    "word": dict(type=int, nargs="+", help="letters, 1-based (for --dfa greedy, its word)"),
    "word_file": dict(help="path to a word in the text format"),
    "r": dict(type=int, help="alphabet size of the word (default: max letter)"),
    "perm": dict(type=int, nargs="+", help="a permutation in one-line notation"),
    "perm_file": dict(help="path to a permutation in the text format"),
    "k": dict(type=int, help="pattern length; the alphabet size of an automaton"),
    "n": dict(type=int, help="word length"),
    "list": dict(action="store_true", help="also list the patterns"),
    "search_r": dict(type=int, help="alphabet size for search mode"),
    "n_max": dict(type=int, help="largest length for search mode"),
    "max_enum": dict(type=int, help="override the k!/word/walk cap for this run"),
    "dfa": dict(choices=list(_BUILDERS), help="which automaton to build or load"),
    "states": dict(type=int, help="state count for --dfa random"),
    "dfa_seed": dict(type=int, help="seed for --dfa random (default 0)"),
    "in_path": dict(help="JSON file for --dfa file"),
    "include_infinite": dict(action="store_true", default=None, help="also draw infinite edges"),
    "walk_word": dict(type=int, nargs="+", help="letters to walk, 1-based"),
    "start": dict(type=int, help="state the walk starts at (default: root)"),
    "budget": dict(type=int, help="also count permutations of cost at most this"),
    "L": dict(type=int, help="walk length"),
    "epsilon": dict(type=float, help="cost threshold parameter"),
    "state": dict(type=int, help="state the walks start at (default: root)"),
    "comparator": dict(choices=["lt", "le"], default="lt", help="cost < or <= the threshold"),
    "samples": dict(type=int, help="number of sampled walks"),
    "seed": dict(type=int, help="sample seed, in [-2**127, 2**127)"),
    "threads": dict(type=int, default=1, help="at least 1; samples run in one thread anyway"),
    "M": dict(type=int, help="number of windows"),
    "epsilon_star": dict(type=float, help="epsilon*, in (0, 1/2)"),
    "bidirectional": dict(action="store_true", help="also match the reversed word"),
    "alpha": dict(type=float, help="birthday bound parameter"),
    "f": dict(type=float, help="F value (converted to log)"),
    "log_f": dict(type=float, help="natural log of F"),
}

_AUTOMATON = ("dfa", *_reads(_BUILDERS))
_BUILDER = ("builder", dict(nargs="?", choices=list(_BUILDERS), help="automaton kind, or --dfa"))

# command: (flags it needs, other flags it takes, run, help, positionals);
# every command also takes --format, with dot for the automaton printers
_COMMANDS = {
    "contains": ((), _WORD + _PERM, _cmd_contains, "pattern containment with witness", ()),
    "census": (("k",), _WORD + ("list", "max_enum"), _cmd_census, "count length-k patterns", ()),
    "superpattern": (
        ("k",), _reads(_MODES["superpattern"]) + ("max_enum",), _run_mode,
        "check a word / search minimal length", (),
    ),
    "f-oracle": (("k", "n"), ("max_enum",), _cmd_f_oracle, "max pattern count over [k]^n", ()),
    "dfa": (
        (), _AUTOMATON + _reads(_ACTIONS), _cmd_dfa, "build, render, walk, or census automata",
        (("action", dict(choices=list(_ACTIONS))), _BUILDER),
    ),
    "cheapen": ((), _AUTOMATON, _cmd_cheapen, "dominated permutation cost rows", (_BUILDER,)),
    "walk": (("walk_word",), _AUTOMATON + ("start",), _cmd_walk, "full walk trace", (_BUILDER,)),
    "exact-p": (
        ("L", "epsilon"), _AUTOMATON + ("state", "comparator", "max_enum"), _cmd_exact_p,
        "exact low-cost walk probability", (),
    ),
    "estimate-p": (
        ("L", "epsilon", "samples", "seed"), _AUTOMATON + ("state", "comparator", "threads"),
        _cmd_estimate_p, "Monte-Carlo low-cost walk probability", (),
    ),
    "decompose": ((), _AUTOMATON + _PERM, _cmd_decompose, "rank/slack split of a walk", ()),
    "concentration": (
        ("M", "epsilon_star", "samples", "seed"), _AUTOMATON + ("threads", "max_enum"),
        _cmd_concentration, "window event frequencies", (),
    ),
    "bcp": (
        (), _WORD + _reads(_MODES["bcp"]) + ("bidirectional",), _run_mode,
        "bi-directional circular pattern checks", (),
    ),
    "bounds": (
        (), _reads(_BOUNDS), _cmd_bounds, "closed-form constants and predicates",
        (("bound", dict(choices=list(_BOUNDS))),),
    ),
}


def build_parser() -> _Parser:
    top = _Parser(prog="superpatterns")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (needs, takes, run, help, positionals) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=run)
        for dest, keywords in positionals:
            sp.add_argument(dest, **keywords)
        for dest in needs + takes:
            sp.add_argument(_flag(dest), dest=dest, required=dest in needs, **_FLAGS[dest])
        formats = ["json", "dot", "text"] if name in ("dfa", "cheapen") else ["json", "text"]
        sp.add_argument("--format", choices=formats, default="json", help="output format")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        payload = args.func(args, _cap(args))
        if payload is not None:
            _emit({"command": args.command, **payload}, args.format)
        return 0
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
