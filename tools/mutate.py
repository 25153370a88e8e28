"""Mutation audit: change one operator or constant of a function at a time
and report which mutants its tests fail to notice.

    python tools/mutate.py MODULE FUNCTION [FUNCTION ...] --tests TESTS
        [--rerun TESTS] [--timeout S]
    python tools/mutate.py --self-test

MODULE is a path relative to the repository root, FUNCTION a top-level
function or Class.method of it. The repository is copied to a temporary
directory once, and every mutant is written into that copy, never into
the tree. Each mutant runs ``python -m pytest -x TESTS`` in a child
process that sets its own address-space limit (RLIMIT_AS, 4 GB) and CPU
limit before it starts; the parent kills the child's process group at the
wall limit, so a mutant that never ends (a shift the wrong way, a loop
counter that runs off) reads as a timeout. The outcomes are:

- killed: the tests failed;
- timeout: the wall limit ended the run;
- survived: the tests passed, so they cannot tell the mutant apart.

With --rerun, each survivor runs again against a wider set of tests (the
whole suite, say), and only what survives that too is reported as a
survivor. The last line is a Markdown table row, in the form of the
mutation audit table in ROADMAP.md.

The operators: comparison swaps (< and <=, > and >=, == and !=, is and is
not, in and not in), + and -, * and //, & and |, << and >> (in plain and
augmented assignments), an int constant + 1, and and or, a dropped not,
an if test set to True and to False, and any statement replaced by pass
(a docstring is left alone).
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_BYTES = 4 << 30

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.BitAnd: "&",
    ast.BitOr: "|", ast.LShift: "<<", ast.RShift: ">>", ast.And: "and", ast.Or: "or",
}


def _find(tree: ast.Module, name: str) -> ast.AST:
    body = tree.body
    *outer, last = name.split(".")
    for part in outer:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == part).body
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == last:
            return node
    raise SystemExit(f"mutate: no function {name!r}")


def _sites(func: ast.AST) -> list:
    """(node position in ast.walk(func), variant, "line:column",
    description) for every mutant of func, in walk order."""
    docstring = ast.get_docstring(func, clean=False) is not None and func.body[0]
    out = []
    for pos, node in enumerate(ast.walk(func)):
        line = f"{getattr(node, 'lineno', '?')}:{getattr(node, 'col_offset', '?')}"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    new = _SYMBOLS[_SWAPS[type(op)]]
                    out.append((pos, ("cmp", i), line, f"{_SYMBOLS[type(op)]} -> {new}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
            new = _SYMBOLS[_SWAPS[type(node.op)]]
            out.append((pos, ("op",), line, f"{_SYMBOLS[type(node.op)]} -> {new}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((pos, ("plus1",), line, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((pos, ("not",), line, "drop not"))
        if isinstance(node, ast.If):
            out.append((pos, ("if", True), line, "if test -> True"))
            out.append((pos, ("if", False), line, "if test -> False"))
        if isinstance(node, ast.stmt) and node is not func and node is not docstring:
            if not isinstance(node, ast.Pass):
                kind = type(node).__name__.lower()
                out.append((pos, ("pass",), line, f"{kind} -> pass"))
    return out


def _mutant(tree: ast.Module, name: str, pos: int, variant: tuple) -> str:
    tree = copy.deepcopy(tree)
    func = _find(tree, name)
    node = list(ast.walk(func))[pos]
    kind = variant[0]
    if kind == "cmp":
        node.ops[variant[1]] = _SWAPS[type(node.ops[variant[1]])]()
    elif kind == "op":
        node.op = _SWAPS[type(node.op)]()
    elif kind == "plus1":
        node.value += 1
    elif kind == "not":
        _replace(func, node, node.operand)
    elif kind == "if":
        node.test = ast.Constant(variant[1])
    else:
        _replace(func, node, ast.Pass())
    return ast.unparse(ast.fix_missing_locations(tree))


def _replace(root: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for parent in ast.walk(root):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(v is old for v in value):
                value[[id(v) for v in value].index(id(old))] = new
                return
    raise AssertionError("node not found")


def _limits(cpu_s: int):
    def apply():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))

    return apply


def _run(copy_root: Path, tests: list, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the tests in the copy."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(copy_root / "src"), str(copy_root)]),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        argv, cwd=copy_root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_limits(int(timeout) + 5),
    )
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def audit(root: Path, module: str, functions: list, tests: list, rerun: list | None,
          timeout: float) -> list:
    """Run every mutant of the functions; return (function, "line:column",
    description, outcome) per mutant, printing one line each."""
    tree = ast.parse((root / module).read_text())
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy_root = Path(tmp) / "tree"
        shutil.copytree(root, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks"))
        target = copy_root / module
        # the unparsed, unmutated module must pass, or no outcome means anything
        target.write_text(ast.unparse(tree))
        if _run(copy_root, tests, timeout) != "passed":
            raise SystemExit(f"mutate: {' '.join(tests)} do not pass on the unmutated {module}")
        results = []
        for name in functions:
            for pos, variant, line, what in _sites(_find(tree, name)):
                target.write_text(_mutant(tree, name, pos, variant))
                start = time.perf_counter()
                ran = _run(copy_root, tests, timeout)
                outcome = {"passed": "survived", "failed": "killed", "timeout": "timeout"}[ran]
                if outcome == "survived" and rerun:
                    outcome = {"passed": "survived", "failed": "killed by rerun",
                               "timeout": "timeout in rerun"}[_run(copy_root, rerun, timeout)]
                results.append((name, line, what, outcome))
                print(f"{name}:{line}: {what}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    survivors = [r for r in results if r[3] == "survived"]
    print(f"| {', '.join(f'`{f}`' for f in functions)} | {len(results)} | {len(survivors)} | "
          + "; ".join(f"{line}: {what}" for _, line, what, _ in survivors) + " |")
    return results


_TOY = '''
def identity(x):
    return x


def wait():
    while True:
        break
'''

_TOY_TESTS = '''
from toy import identity, wait


def test_identity():
    assert identity(3) == 3


def test_wait():
    assert wait() is None
'''


def self_test() -> int:
    """The harness on a toy module whose three mutants end three ways:
    identity's return -> pass is killed, wait's while -> pass survives
    (wait returns None either way), and its break -> pass never ends."""
    with tempfile.TemporaryDirectory(prefix="mutate-toy-") as tmp:
        root = Path(tmp)
        (root / "toy.py").write_text(textwrap.dedent(_TOY))
        (root / "test_toy.py").write_text(textwrap.dedent(_TOY_TESTS))
        results = audit(root, "toy.py", ["identity", "wait"], ["test_toy.py"], None, 5)
        untouched = (root / "toy.py").read_text() == textwrap.dedent(_TOY)
    want = [
        ("identity", "3:4", "return -> pass", "killed"),
        ("wait", "7:4", "while -> pass", "survived"),
        ("wait", "8:8", "break -> pass", "timeout"),
    ]
    ok = results == want and untouched
    print("self-test", "passed" if ok else f"FAILED: {results}, toy untouched: {untouched}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", nargs="?")
    parser.add_argument("functions", nargs="*")
    parser.add_argument("--tests", nargs="+")
    parser.add_argument("--rerun", nargs="+", help="tests each survivor runs against again")
    parser.add_argument("--timeout", type=float, default=120, help="wall limit per run, seconds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not (args.module and args.functions and args.tests):
        parser.error("need MODULE, at least one FUNCTION and --tests")
    audit(ROOT, args.module, args.functions, args.tests, args.rerun, args.timeout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
