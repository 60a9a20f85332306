"""Disable each decode-side guard of the wire modules, one at a time.

Every byte a party, worker or client receives is adversary-controlled,
so each ``if …: raise`` guard on a decode path must be one that some
tier-1 test fails without.  For every such guard in :data:`DECODE_PATHS`
this sweep rewrites the guard's condition to ``False`` in a copy of the
tree and runs the decoders' tier-1 tests (:data:`TESTS`) against the
copy: the guard is *caught* when a test fails, and *survives* when they
all pass.  Encoder-side guards (size limits on what this side writes)
are out of scope.

Run from the repo root (``--source`` sweeps another checkout)::

    PYTHONPATH=src python -m tests.guard_sweep [--source DIR]

It prints one line per guard and exits 1 if any guard survives.
"""

import argparse
import ast
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Tuple

from tests.test_retired_rules import REPO_ROOT, copy_repo, run_tier1

#: Module under ``src/repro`` -> the functions that decode what it reads.
DECODE_PATHS = {
    "cluster/wire.py": ("Message.decode", "MessageChannel.recv"),
    "cluster/meshwire.py": ("decode_train",),
    "serve/wire.py": ("decode_line", "_finite_float", "decode_request"),
    "net/trains.py": ("split_records", "decode_train_body"),
    "runtime/transport.py": ("_split_records", "_open_train"),
}

#: A run of the tests takes seconds; past this, a mutation hangs them.
HANG_SECONDS = 120

#: The tier-1 test files that exercise those decoders.
TESTS = (
    "tests/cluster/test_wire.py", "tests/cluster/test_mesh_faults.py",
    "tests/serve/test_wire.py", "tests/net/test_party.py",
    "tests/runtime/test_transport.py", "tests/test_fuzz_decoding.py",
)


def guards(source: str, functions: Tuple[str, ...]) -> Iterator[
    Tuple[str, ast.If]
]:
    """Yield ``(function, node)`` for every ``if`` in ``functions`` whose
    body is a lone ``raise``."""

    def walk(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.If]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, f"{scope}{child.name}.")
                continue
            name = scope[:-1]
            if (
                isinstance(child, ast.If) and name in functions
                and not child.orelse and len(child.body) == 1
                and isinstance(child.body[0], ast.Raise)
            ):
                yield name, child
            yield from walk(child, scope)

    yield from walk(ast.parse(source), "")


def disabled(source: str, guard: ast.If) -> str:
    """``source`` with ``guard``'s condition replaced by ``False``."""
    data = source.encode("utf-8")
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line.encode("utf-8")))
    test = guard.test
    begin = starts[test.lineno - 1] + test.col_offset
    end = starts[test.end_lineno - 1] + test.end_col_offset
    return (data[:begin] + b"False" + data[end:]).decode("utf-8")


def _verdict(tree: Path) -> str:
    """Run :data:`TESTS` against the (mutated) ``tree``; name what caught
    it."""
    try:
        run = run_tier1(tree, "-x", *TESTS, timeout=HANG_SECONDS)
    except subprocess.TimeoutExpired:
        return f"caught: the tests hang (killed after {HANG_SECONDS} s)"
    for line in run.stdout.splitlines():
        if line.startswith("FAILED "):
            return "caught by " + line[len("FAILED "):].split(" - ")[0]
    if run.returncode == 0:
        return "survives"
    return f"caught: pytest exit {run.returncode}"


def sweep(source_root: Path) -> Iterator[Tuple[str, int, str, str, str]]:
    """Yield ``(module, line, function, condition, verdict)`` per guard."""
    with tempfile.TemporaryDirectory() as scratch:
        tree = copy_repo(Path(scratch), source_root)
        for relative, functions in DECODE_PATHS.items():
            target = tree / "src" / "repro" / relative
            original = target.read_text(encoding="utf-8")
            for function, guard in guards(original, functions):
                condition = ast.get_source_segment(original, guard.test)
                target.write_text(disabled(original, guard), encoding="utf-8")
                try:
                    verdict = _verdict(tree)
                finally:
                    target.write_text(original, encoding="utf-8")
                yield (relative, guard.lineno, function,
                       " ".join(str(condition).split()), verdict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=REPO_ROOT,
                        help="checkout to sweep (default: this one)")
    args = parser.parse_args(argv)
    guards_seen = survivors = 0
    for relative, line, function, condition, verdict in sweep(args.source):
        print(f"{relative}:{line} {function}: if {condition}: raise -> "
              f"{verdict}", flush=True)
        guards_seen += 1
        survivors += verdict == "survives"
    print(f"{guards_seen} guards, {survivors} survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
