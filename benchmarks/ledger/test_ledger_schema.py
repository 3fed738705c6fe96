"""Schema checks for the ledger: the tables, BENCHMARK.json and a result agree.

Runs in seconds and measures nothing::

    python3 -m pytest benchmarks/ledger/test_ledger_schema.py

(``conftest.py`` next to this file keeps it out of the repo's tier-1
collection; naming the file runs it.)
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from oracle import shuffle_load  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(
    (HERE / "reference" / "ledger_seed83.json").read_text(encoding="utf-8")
)


def test_manifest_shape():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert MANIFEST["command"][-1] == "benchmarks/ledger/run.py"
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up
    # (a run takes run_seconds + 2 to 7 s on the reference box).
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 8) <= 3420


def test_names_and_units():
    names = [w["name"] for w in MANIFEST["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in MANIFEST[group]:
            names.append(m["name"])
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]


def test_bounds():
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_manifest_matches_tables():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS if w.gated
    ]
    assert tuple(w.name for w in WORKLOADS) == WORKLOAD_NAMES
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]


def test_every_layer_metric_names_what_it_moves():
    gated = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        assert m.moves and set(m.moves) <= gated, m.name
        assert m.on and set(m.on) <= set(WORKLOAD_NAMES), m.name


def test_reference_result_matches_manifest():
    gated = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    seen = set()
    for run in REFERENCE["runs"]:
        expected = layers if run["trace"] else gated
        assert {k: m["unit"] for k, m in run["metrics"].items()} == expected
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        seen.add((run["workload"], run["trace"]))
    assert seen == {(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}
    for run in REFERENCE["runs"]:
        if not run["trace"]:
            assert all(m["value"] > 0 for m in run["metrics"].values())


def test_load_oracle():
    assert shuffle_load(6) == Fraction(5, 6)
    assert shuffle_load(6, 3) == Fraction(1, 6)
    assert shuffle_load(4, 2) == Fraction(1, 4)
    assert shuffle_load(16, 5) == Fraction(1, 5) * (1 - Fraction(5, 16))
