"""Command-line interface.

Every subcommand emits a single JSON document on stdout (stable key order,
schema_version field, seeds echoed), except DOT output for automaton
graphs and the optional --format text tables. Exit codes: 0 success, 1
domain/usage error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bounds as B
from . import dfa as D
from . import patterns as P
from .errors import ResourceLimitError

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics, exit code 1 for usage problems
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _caps():
    """Default cap overrides from SUPERPATTERNS_MAX_K/_MAX_ENUM, read once
    per command."""
    caps = {"max_k": P.MAX_FACTORIAL_K, "max_enum": P.MAX_ENUM_WORDS}
    for name in caps:
        var = f"SUPERPATTERNS_{name.upper()}"
        try:
            caps[name] = int(os.environ.get(var, caps[name]))
        except ValueError:
            raise ValueError(f"{var} must be an integer") from None
    return caps


def _emit(payload: dict, fmt: str = "json") -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if fmt == "text":
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _read_word(args) -> P.Word:
    if getattr(args, "word_file", None):
        if args.word is not None:
            raise ValueError("give --word or --word-file, not both")
        with open(args.word_file) as fh:
            return P.parse_word(fh.read())
    if getattr(args, "word", None) is None:
        raise ValueError("need --word or --word-file")
    return P.as_word(args.word, getattr(args, "r", None))


def _read_perm(args) -> P.Permutation:
    if getattr(args, "perm_file", None):
        if args.perm is not None:
            raise ValueError("give --perm or --perm-file, not both")
        with open(args.perm_file) as fh:
            return P.parse_permutation(fh.read())
    if getattr(args, "perm", None) is None:
        raise ValueError("need --perm or --perm-file")
    return P.as_permutation(args.perm)


def _add_word_flags(sp, perm: bool = False):
    sp.add_argument("--word", type=int, nargs="+", help="letters, 1-based")
    sp.add_argument("--word-file", help="path to a word in the text format")
    sp.add_argument("--r", type=int, help="alphabet size (default: max letter)")
    if perm:
        sp.add_argument("--perm", type=int, nargs="+", help="one-line notation")
        sp.add_argument("--perm-file")


_BUILDERS = ["greedy", "subset", "two-track", "random", "file"]


def _add_dfa_flags(sp):
    sp.add_argument(
        "--dfa",
        choices=_BUILDERS,
        help="which automaton to build or load",
    )
    sp.add_argument("--word", type=int, nargs="+", help="word for --dfa greedy")
    sp.add_argument("--word-file")
    sp.add_argument("--r", type=int, help="alphabet size for --dfa greedy")
    sp.add_argument("--k", type=int, help="alphabet size for subset/two-track/random")
    sp.add_argument("--states", type=int, help="state count for --dfa random")
    sp.add_argument("--dfa-seed", type=int, default=0, help="seed for --dfa random")
    sp.add_argument("--in", dest="in_path", help="JSON file for --dfa file")


def _add_format(sp, dot: bool = False):
    choices = ["json", "dot", "text"] if dot else ["json", "text"]
    sp.add_argument("--format", choices=choices, default="json")


def _add_cap_flags(sp, enum: bool = False):
    sp.add_argument(
        "--max-k", type=int,
        help="override the k! enumeration guard for this run",
    )
    if enum:
        sp.add_argument(
            "--max-enum", type=int,
            help="override the word/walk enumeration guard for this run",
        )


def _add_threads_flag(sp):
    sp.add_argument(
        "--threads", type=int, default=1,
        help="at least 1; kept for compatibility, samples run in one thread",
    )


def _effective_caps(args, caps) -> dict:
    # a flag set to 0 still overrides the default
    return {
        name: caps[name] if getattr(args, name, None) is None else getattr(args, name)
        for name in caps
    }


def _build_dfa(args):
    kind = getattr(args, "builder", None) or args.dfa
    if kind is None:
        raise ValueError("no automaton named: use --dfa or a builder argument")
    if kind == "greedy":
        return D.build_greedy_dfa(_read_word(args))
    if kind == "subset":
        if args.k is None:
            raise ValueError("--dfa subset needs --k")
        return D.build_subset_dfa(args.k)
    if kind == "two-track":
        if args.k is None:
            raise ValueError("--dfa two-track needs --k")
        return D.build_two_track_dfa(args.k)
    if kind == "random":
        if args.k is None or args.states is None:
            raise ValueError("--dfa random needs --k and --states")
        return D.random_k_dfa(args.k, args.states, args.dfa_seed)
    if args.in_path is None:
        raise ValueError("--dfa file needs --in PATH")
    with open(args.in_path) as fh:
        return D.dfa_from_json(fh.read())


def _emit_dfa(dfa, fmt: str, include_infinite: bool) -> None:
    if fmt == "dot":
        sys.stdout.write(D.dfa_to_dot(dfa, include_infinite=include_infinite))
    elif fmt == "text":
        print(f"k: {dfa.alphabet_size}")
        print(f"root: {dfa.root}")
        for v, t, u, c in D.finite_edges(dfa):
            print(f"{v} --{t}({c})--> {u}")
    else:
        doc = D.dfa_to_json_dict(dfa)
        print(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# handlers


def _cmd_contains(args, caps):
    sigma = _read_word(args)
    tau = _read_perm(args)
    emb = P.find_embedding(sigma, tau)
    payload = {
        "command": "contains",
        "word": list(sigma.letters),
        "r": sigma.alphabet_size,
        "perm": list(tau.images),
        "contains": emb is not None,
        "witness": list(emb) if emb is not None else None,
    }
    if sigma.alphabet_size == tau.k:
        greedy = P.greedy_embed(sigma, tau)
        payload["greedy_embedding"] = list(greedy) if greedy is not None else None
    _emit(payload, args.format)


def _cmd_census(args, caps):
    caps = _effective_caps(args, caps)
    sigma = _read_word(args)
    pats = P.pattern_set(sigma, args.k, max_k=caps["max_k"])
    payload = {
        "command": "census",
        "word": list(sigma.letters),
        "r": sigma.alphabet_size,
        "k": args.k,
        "n": len(sigma),
        "count": len(pats),
        "factorial_k": math.factorial(args.k),
    }
    if args.list:
        payload["patterns"] = sorted(list(p.images) for p in pats)
    _emit(payload, args.format)


def _cmd_superpattern(args, caps):
    caps = _effective_caps(args, caps)
    if args.word is not None or args.word_file is not None:
        if args.search_r is not None or args.n_max is not None:
            raise ValueError(
                "give --word or --word-file (check) or --search-r and --n-max (search), not both"
            )
        sigma = _read_word(args)
        ok = P.is_superpattern(sigma, args.k, max_k=caps["max_k"])
        _emit(
            {
                "command": "superpattern",
                "mode": "check",
                "word": list(sigma.letters),
                "k": args.k,
                "superpattern": ok,
            },
            args.format,
        )
        return
    if args.search_r is None or args.n_max is None:
        raise ValueError(
            "need --word or --word-file for a check, or --search-r and --n-max for a search"
        )
    rows = P.exhaustive_f_search(
        args.k, args.search_r, args.n_max,
        max_words=caps["max_enum"], max_k=caps["max_k"],
    )
    _emit(
        {
            "command": "superpattern",
            "mode": "search",
            "k": args.k,
            "r": args.search_r,
            "rows": [{"n": n, "superpattern_exists": ok} for n, ok in rows],
            "minimal_length": P.minimal_superpattern_length(rows),
        },
        args.format,
    )


def _cmd_f_oracle(args, caps):
    best, witness = P.f_oracle(args.k, args.n, max_k=args.max_k, max_n=args.max_n)
    _emit(
        {
            "command": "f-oracle",
            "k": args.k,
            "n": args.n,
            "max_count": best,
            "witness": list(witness.letters),
        },
        args.format,
    )


def _cmd_dfa(args, caps):
    caps = _effective_caps(args, caps)
    dfa = _build_dfa(args)
    if args.action in ("build", "dot"):
        fmt = "dot" if args.action == "dot" else args.format
        _emit_dfa(dfa, fmt, args.include_infinite)
        return
    if args.action == "cost":
        if args.walk_word is None:
            raise ValueError("dfa cost needs --walk-word")
        # the walk's start, word and total: no states or step costs
        walk = _walk_payload(args, dfa)
        keys = ("start", "walk_word", "total_cost")
        _emit({"command": "dfa cost", **{key: walk[key] for key in keys}}, args.format)
        return
    # census
    census = D.perm_cost_census(dfa, max_k=caps["max_k"])
    payload = {
        "command": "dfa census",
        "k": dfa.alphabet_size,
        "census": [
            {"cost": D._cost_to_jsonable(c), "count": census[c]}
            for c in sorted(census, key=lambda c: (c == D.INFINITY, c))
        ],
    }
    if args.budget is not None:
        payload["budget"] = args.budget
        payload["count_within_budget"] = sum(
            n for c, n in census.items() if c <= args.budget
        )
    _emit(payload, args.format)


def _cmd_cheapen(args, caps):
    dfa = _build_dfa(args)
    _emit_dfa(D.cheapen(dfa), args.format, args.include_infinite)


def _walk_payload(args, dfa) -> dict:
    start = dfa.root if args.start is None else args.start
    trace = D.walk_cost(dfa, start, args.walk_word)
    return {
        "command": "walk",
        "start": start,
        "walk_word": list(args.walk_word),
        "states": list(trace.states),
        "step_costs": [D._cost_to_jsonable(c) for c in trace.step_costs],
        "total_cost": D._cost_to_jsonable(trace.total_cost),
    }


def _cmd_walk(args, caps):
    _emit(_walk_payload(args, _build_dfa(args)), args.format)


def _cmd_exact_p(args, caps):
    from . import walks as W  # numpy: only the walk commands load it

    caps = _effective_caps(args, caps)
    dfa = _build_dfa(args)
    state = dfa.root if args.state is None else args.state
    p = W.exact_P(
        dfa, state, args.L, args.epsilon,
        strict=args.comparator == "lt", max_words=caps["max_enum"],
    )
    _emit(
        {
            "command": "exact-p",
            "k": dfa.alphabet_size,
            "L": args.L,
            "epsilon": args.epsilon,
            "state": state,
            "comparator": "<" if args.comparator == "lt" else "<=",
            "p": float(p),
            "p_numerator": p.numerator,
            "p_denominator": p.denominator,
        },
        args.format,
    )


def _cmd_estimate_p(args, caps):
    from . import walks as W  # numpy: only the walk commands load it

    dfa = _build_dfa(args)
    state = dfa.root if args.state is None else args.state
    rep = W.estimate_P(
        dfa, state, args.L, args.epsilon, args.samples, args.seed,
        strict=args.comparator == "lt", threads=args.threads,
    )
    _emit({"command": "estimate-p", **rep.to_json_dict()}, args.format)


def _cmd_decompose(args, caps):
    from . import walks as W  # numpy: only the walk commands load it

    dfa = _build_dfa(args)
    tau = _read_perm(args)
    dec = W.xy_decompose(dfa, tau)
    _emit(
        {
            "command": "decompose",
            "perm": list(tau.images),
            "step_costs": list(dec.step_costs),
            "x_ranks": list(dec.x_ranks),
            "y_slacks": list(dec.y_slacks),
            "pool_sizes": list(dec.pool_sizes),
            "total_cost": dec.total_cost,
            "y_total": sum(dec.y_slacks),
        },
        args.format,
    )


def _cmd_concentration(args, caps):
    from . import walks as W  # numpy: only the walk commands load it

    if args.threads < 1:
        raise ValueError(f"need threads >= 1, got {args.threads}")
    dfa = _build_dfa(args)
    rep = W.concentration_experiment(
        dfa, args.M, args.epsilon_star, args.samples, args.seed
    )
    c1, c2 = B.con_constants(args.epsilon_star, args.M)
    _emit(
        {
            "command": "concentration",
            **rep.to_json_dict(),
            "c_con1": c1,
            "c_con2_sup": c2,
        },
        args.format,
    )


def _cmd_bcp(args, caps):
    sigma = _read_word(args)
    if args.perm is not None or args.perm_file is not None:
        if args.k is not None:
            raise ValueError("give --perm (single check) or --k (full census), not both")
        tau = _read_perm(args)
        _emit(
            {
                "command": "bcp",
                "word": list(sigma.letters),
                "perm": list(tau.images),
                "bidirectional": args.bidirectional,
                "contains": P.circular_contains(sigma, tau, args.bidirectional),
            },
            args.format,
        )
        return
    if args.k is None:
        raise ValueError("need --perm (single check) or --k (full census)")
    max_k = _effective_caps(args, caps)["max_k"]
    count = len(P.circular_pattern_set(sigma, args.k, args.bidirectional, max_k=max_k))
    total = math.factorial(args.k)
    _emit(
        {
            "command": "bcp",
            "word": list(sigma.letters),
            "k": args.k,
            "bidirectional": args.bidirectional,
            "count": count,
            "total": total,
            "superpattern": count == total,
        },
        args.format,
    )


def _log_f_arg(args) -> float:
    if args.f is not None:
        if not 0 <= args.f < math.inf:
            raise ValueError("--f must be a finite non-negative number")
        return -math.inf if args.f == 0 else math.log(args.f)
    if args.log_f is not None:
        return args.log_f
    raise ValueError("need --f or --log-f")


# the flags each bound reads; --f/--log-f are checked by _log_f_arg
_BOUND_ARGS = {
    "forL": "k L epsilon", "birthday": "k L", "theorem-constants": "epsilon_star",
    "hoeffding-x": "k epsilon", "infeasibility": "k r n", "gupta": "k n",
    "loworder": "k epsilon", "con": "epsilon_star M",
}


def _cmd_bounds(args, caps):
    which = args.bound
    needs = _BOUND_ARGS[which].split()
    missing = [f"--{a.replace('_', '-')}" for a in needs if getattr(args, a) is None]
    if missing:
        raise ValueError(f"bounds {which} needs {' '.join(missing)}")
    if which == "forL":
        lv = B.forL_bound(args.k, args.L, args.epsilon)
        payload = {"bound": "forL", "k": args.k, "L": args.L,
                   "epsilon": args.epsilon, "log_value": lv.log}
    elif which == "birthday":
        ratio = B.birthday_ratio(args.k, args.L)
        payload = {
            "bound": "birthday",
            "k": args.k,
            "L": args.L,
            "log_ratio": ratio.log,
        }
        if args.alpha is not None:
            payload["alpha"] = args.alpha
            payload["log_bound"] = B.birthday_bound(args.k, args.alpha).log
    elif which == "theorem-constants":
        c = B.theorem_constants(args.epsilon_star)
        payload = {
            "bound": "theorem-constants",
            "epsilon_star": args.epsilon_star,
            "epsilon": c.epsilon,
            "alpha": c.alpha,
            "c0": c.c0,
        }
    elif which == "hoeffding-x":
        lv = B.hoeffding_x_bound(args.k, args.epsilon)
        payload = {"bound": "hoeffding-x", "k": args.k,
                   "epsilon": args.epsilon, "log_value": lv.log}
    elif which == "infeasibility":
        log_f = _log_f_arg(args)
        payload = {
            "bound": "infeasibility",
            "k": args.k,
            "r": args.r,
            "n": args.n,
            "log_f": log_f,
            "certified": B.infeasibility(args.k, args.r, args.n, log_f),
        }
    elif which == "gupta":
        log_f = _log_f_arg(args)
        payload = {
            "bound": "gupta",
            "k": args.k,
            "n": args.n,
            "log_f": log_f,
            "necessary_condition_holds": B.gupta_check(args.k, args.n, log_f),
        }
    elif which == "loworder":
        payload = {
            "bound": "loworder",
            "k": args.k,
            "epsilon": args.epsilon,
            "hypothesis_holds": B.loworder_predicate(args.k, args.epsilon),
        }
    else:  # con
        c1, c2 = B.con_constants(args.epsilon_star, args.M)
        payload = {
            "bound": "con",
            "epsilon_star": args.epsilon_star,
            "M": args.M,
            "c_con1": c1,
            "c_con2_sup": c2,
        }
    _emit({"command": "bounds", **payload}, args.format)


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    top = _Parser(prog="superpatterns")
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("contains", help="pattern containment with witness")
    _add_word_flags(sp, perm=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_contains)

    sp = sub.add_parser("census", help="count the length-k patterns of a word")
    _add_word_flags(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--list", action="store_true", help="also list the patterns")
    _add_cap_flags(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("superpattern", help="check a word / search minimal length")
    _add_word_flags(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--search-r", type=int, help="alphabet size for search mode")
    sp.add_argument("--n-max", type=int, help="largest length for search mode")
    _add_cap_flags(sp, enum=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_superpattern)

    sp = sub.add_parser("f-oracle", help="max pattern count over words in [k]^n")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-k", type=int, default=4)
    sp.add_argument("--max-n", type=int, default=12)
    _add_format(sp)
    sp.set_defaults(func=_cmd_f_oracle)

    sp = sub.add_parser("dfa", help="build, render, walk, or census automata")
    sp.add_argument("action", choices=["build", "dot", "cost", "census"])
    sp.add_argument(
        "builder", nargs="?", choices=_BUILDERS,
        help="automaton kind (alternative to --dfa)",
    )
    _add_dfa_flags(sp)
    _add_format(sp, dot=True)
    sp.add_argument("--include-infinite", action="store_true")
    sp.add_argument("--walk-word", type=int, nargs="+")
    sp.add_argument("--start", type=int)
    sp.add_argument("--budget", type=int)
    _add_cap_flags(sp)
    sp.set_defaults(func=_cmd_dfa)

    sp = sub.add_parser("cheapen", help="dominated permutation cost rows")
    sp.add_argument("builder", nargs="?", choices=_BUILDERS)
    _add_dfa_flags(sp)
    _add_format(sp, dot=True)
    sp.add_argument("--include-infinite", action="store_true")
    sp.set_defaults(func=_cmd_cheapen)

    sp = sub.add_parser("walk", help="full walk trace")
    sp.add_argument("builder", nargs="?", choices=_BUILDERS)
    _add_dfa_flags(sp)
    sp.add_argument("--walk-word", type=int, nargs="+", required=True)
    sp.add_argument("--start", type=int)
    _add_format(sp)
    sp.set_defaults(func=_cmd_walk)

    sp = sub.add_parser("exact-p", help="exact low-cost walk probability")
    _add_dfa_flags(sp)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--state", type=int)
    sp.add_argument("--comparator", choices=["lt", "le"], default="lt")
    _add_cap_flags(sp, enum=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_exact_p)

    sp = sub.add_parser("estimate-p", help="Monte-Carlo low-cost walk probability")
    _add_dfa_flags(sp)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--state", type=int)
    sp.add_argument("--comparator", choices=["lt", "le"], default="lt")
    _add_threads_flag(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_estimate_p)

    sp = sub.add_parser("decompose", help="rank/slack split of a permutation walk")
    _add_dfa_flags(sp)
    sp.add_argument("--perm", type=int, nargs="+")
    sp.add_argument("--perm-file")
    _add_format(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("concentration", help="window event frequencies")
    _add_dfa_flags(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--epsilon-star", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_threads_flag(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_concentration)

    sp = sub.add_parser("bcp", help="bi-directional circular pattern checks")
    _add_word_flags(sp, perm=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--bidirectional", action="store_true")
    _add_cap_flags(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_bcp)

    sp = sub.add_parser("bounds", help="closed-form constants and predicates")
    sp.add_argument("bound", choices=list(_BOUND_ARGS))
    sp.add_argument("--k", type=int)
    sp.add_argument("--L", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--M", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--epsilon-star", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--f", type=float, help="F value (converted to log)")
    sp.add_argument("--log-f", type=float, help="natural log of F")
    _add_format(sp)
    sp.set_defaults(func=_cmd_bounds)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args, _caps())
        return 0
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
