"""Committed mutants: each entry breaks the program in one place and names
the tests that must catch it.

For each entry the runner copies the whole tree into a temporary directory,
replaces the entry's ``old`` text with its ``new`` text in its file and runs
only the named tests there; every one of them must fail.  The whole tree is
copied because ``pyproject.toml`` sets ``pythonpath = ["src"]``, which puts
the checkout's own ``src/`` ahead of ``PYTHONPATH``.  The named tests first
run once on an unchanged copy, where they must pass, so a test that fails
anyway kills no mutant.

Run from anywhere:

    python tools/mutants.py

Exits 0 when every mutant is killed, and 1 naming each mutant that survives
or each entry that does not apply (its ``old`` text must occur exactly once
and differ from ``new``).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


REGISTRY = (
    Mutant(
        "selection-key-prefers-smaller-blocks", "src/bfpsearch/search.py",
        "    return (primary, cand.dm_sum_bits, -bs, se)\n",
        "    return (primary, cand.dm_sum_bits, bs, se)\n",
        ("tests/test_search.py::test_search_matches_the_reference_search",),
    ),
    Mutant(
        "json-allows-nan", "src/bfpsearch/cli.py",
        "indent=2, allow_nan=False)",
        "indent=2, allow_nan=True)",
        ("tests/test_cli_contract.py::test_every_run_keeps_the_exit_code_contract",),
    ),
    Mutant(
        "energy-check-always-passes", "src/bfpsearch/energy.py",
        "    if not (math.isfinite(joules) and joules > 0):\n",
        "    if False:\n",
        ("tests/test_energy.py::test_total_that_rounds_to_zero_rejected",
         "tests/test_energy.py::test_total_that_overflows_rejected_though_no_layer_does",
         "tests/test_energy.py::test_layer_that_rounds_to_zero_rejected_though_the_total_does_not"),
    ),
    Mutant(
        "search-without-missing-shape-check", "src/bfpsearch/search.py",
        "    if None in layer_tables:\n"
        "        raise SearchError(f\"no mapping table for the shape of layer "
        "{model.layers[layer_tables.index(None)].index}\")\n",
        "",
        ("tests/test_search.py::test_tables_missing_a_layers_shape_raise_naming_the_layer",),
    ),
    Mutant(
        "role-bits-without-length-check", "src/bfpsearch/dm.py",
        "    if len(specs) != len(OPERANDS):\n"
        "        raise MappingError(f\"expected one spec per operand {OPERANDS}, got {len(specs)}\")\n",
        "",
        ("tests/test_dm.py::test_a_spec_sequence_needs_one_entry_per_operand",),
    ),
    Mutant(
        "table-without-empty-permutations-check", "src/bfpsearch/tiling.py",
        "        if not self.permutations:\n"
        "            raise MappingError(\"a mapping table needs at least one loop order\")\n",
        "",
        ("tests/test_tiling.py::test_table_rejects_an_empty_loop_order_list",),
    ),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "*.egg-info")


def problems(mutants) -> list:
    """Why each entry that cannot be applied to the tree cannot be."""
    out = []
    for m in mutants:
        with open(os.path.join(ROOT, m.file), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            out.append(f"{m.name}: its old text occurs {count} times in {m.file}, not once")
        if m.old == m.new:
            out.append(f"{m.name}: its new text is its old text")
        if not m.tests:
            out.append(f"{m.name}: it names no test")
    return out


def run_tests(tree: str, tests) -> tuple:
    """(pytest's exit code, the node ids it reports failed) for ``tests`` in ``tree``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode, re.findall(r"^FAILED (\S+)", proc.stdout, re.M)


def in_copy(fn, mutant: Mutant | None = None):
    """``fn(tree)`` on a fresh copy of the tree, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is not None:
            path = os.path.join(tree, mutant.file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new, 1))
        return fn(tree)


def main() -> int:
    bad = problems(REGISTRY)
    for line in bad:
        print(f"does not apply: {line}")
    if bad:
        return 1

    tests = sorted({t for m in REGISTRY for t in m.tests})
    code, failed = in_copy(lambda tree: run_tests(tree, tests))
    if code != 0:
        print(f"the named tests do not pass on the unchanged tree (pytest exit {code}): {failed}")
        return 1

    survivors = []
    for m in REGISTRY:
        start = time.perf_counter()
        code, failed = in_copy(lambda tree: run_tests(tree, m.tests), m)
        # Exit 1 is "some tests failed"; any other code (a collection error,
        # say) shows nothing about the named tests.
        missed = [t for t in m.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
        if code != 1 or missed:
            survivors.append(m.name)
            print(f"SURVIVED {m.name}: pytest exit {code}; passed or not run: {missed}")
        else:
            print(f"killed   {m.name} ({time.perf_counter() - start:.1f} s)")
    if survivors:
        print(f"{len(survivors)} of {len(REGISTRY)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(REGISTRY)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
