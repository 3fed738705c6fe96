#!/usr/bin/env python
"""Census of the code the live surfaces run, printed as markdown.

A ``sys.setprofile`` / ``threading.setprofile`` hook records every code
object under ``src/repro`` entered while the CLI's model commands, twelve
sort shapes on ``inproc://6`` and two examples run in this process;
``ast`` lists the defs (functions and methods, not nested ones).  Prints
the defs entered, the def lines never entered per file, and the defs
whose name appears outside ``tests/`` only on its own ``def`` line (a
name match, so a shared method name hides a dead twin).  ``proc://``,
``tcp://`` and the service run in other processes and read as never
entered; the ledger lanes drive them.

    PYTHONPATH=src python scripts/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
entered = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))


def list_defs():
    """``(path, first line incl. decorators, name, line count)`` per def."""
    defs = []
    for path in sorted(SRC.rglob("*.py")):
        def walk(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    defs.append((str(path), first, child.name,
                                 child.end_lineno - first + 1))
                elif isinstance(child, ast.ClassDef):
                    walk(child)
        walk(ast.parse(path.read_text(), str(path)))
    return defs


def drive():
    import repro
    from repro.cli import main

    for argv in (["tables"], ["report", "--fast"], ["theory"], ["scalable"],
                 ["wireless", "-n", "4000"], ["simulate"],
                 ["simulate", "--algorithm", "terasort"],
                 ["figures", "--fast"], ["stragglers", "-t", "10"]):
        main(argv)
    with tempfile.TemporaryDirectory() as tmp:
        main(["gen", "-n", "2000", "-o", f"{tmp}/in.bin"])
        data = repro.teragen(12000, seed=1)
        source = repro.TeragenSource(12000, seed=1)
        budget = 256 * 1024
        shapes = [
            repro.TeraSortSpec(data),
            repro.TeraSortSpec(input=source),
            repro.TeraSortSpec(data, overlap=True),
            repro.TeraSortSpec(data, memory_budget=budget),
            repro.TeraSortSpec(input=source, speculation=True),
            repro.TeraSortSpec(data, sampled_partitioner=True),
            repro.CodedTeraSortSpec(data, 2),
            repro.CodedTeraSortSpec(data, 3, schedule="serial"),
            repro.CodedTeraSortSpec(data, 2, overlap=True),
            repro.CodedTeraSortSpec(data, 2, memory_budget=budget),
            repro.CodedTeraSortSpec(data, 1, group_size=3),
            repro.CodedTeraSortSpec(data, 2, group_size=3),
        ]
        with repro.Session(repro.connect("inproc://6", timeout=120)) as s:
            for spec in shapes:
                s.submit(spec).result()
    for example, args in (("quickstart.py", ["-n", "6000"]),
                          ("cmr_wordcount.py", [])):
        sys.argv = [example] + args
        try:
            runpy.run_path(str(ROOT / "examples" / example),
                           run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    defs = list_defs()
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            drive()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    seen = {(os.path.abspath(f), line) for f, line in entered}
    live = [d for d in defs if (d[0], d[1]) in seen]
    dead = [d for d in defs if (d[0], d[1]) not in seen]
    lines = sum(d[3] for d in defs)
    print(f"entered {len(live)} of {len(defs)} defs "
          f"({sum(d[3] for d in live)} of {lines} def lines)\n")
    per_file = Counter()
    for path, _first, _name, n in dead:
        per_file[Path(path).relative_to(ROOT)] += n
    print(f"never entered: {sum(per_file.values())} def lines\n")
    for path, n in per_file.most_common():
        print(f"- `{path}` {n}")
    outside = "\n".join(
        p.read_text() for top in ("src", "scripts", "examples", "benchmarks")
        for p in (ROOT / top).rglob("*.py"))
    words = Counter(re.findall(r"\w+", outside))
    defined = Counter(name for _p, _f, name, _n in defs)
    orphans = [d for d in defs if not d[2].startswith("__")
               and words[d[2]] <= defined[d[2]]]
    print(f"\nno reference outside tests/: {len(orphans)} defs, "
          f"{sum(d[3] for d in orphans)} lines\n")
    for path, first, name, n in orphans:
        print(f"- `{Path(path).relative_to(ROOT)}:{first}` {name} ({n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
