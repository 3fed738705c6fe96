"""The job-option matrix, generated: every cell validates or is rejected
by name, with the same text on every surface.

A cell is one combination of a spec's options at one cluster size.
The oracles below restate the rules from the spec docstrings (not from
``validate``): a valid cell must validate, compile and run on
``ThreadCluster(K)`` — a sort cell must give the in-memory staged
uncoded sort's bytes, a MapReduce cell the uncoded r = 1 outputs; a
rejected cell
must raise :class:`ValueError` whose text *names the cell* — and the
same text must come out of ``spec.validate``, ``spec.prepare``,
``Session.submit``, ``SortService.submit`` and, for the sorts,
``repro sort`` and ``repro submit``, because the spec is the only place
it is written.

Also here: the two CLI subcommands share one job-option list, so every
flag parses on both and equal flags build equal specs.
"""

from __future__ import annotations

import itertools

import pytest

import repro
from repro.cli import _job_spec, build_parser, main
from repro.core.jobs import WordCountJob
from repro.core.outofcore import MIN_MEMORY_BUDGET
from repro.kvpairs.datasource import FileSource
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.teragen import teragen, teragen_to_file
from repro.runtime.inproc import ThreadCluster
from repro.runtime.tcp import TcpCluster
from repro.service import SortService
from repro.session import (
    CodedTeraSortSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)

RECORDS = 240
SIZES = (4, 6)
BUDGET = 4 * MIN_MEMORY_BUDGET


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("matrix") / "in.bin")
    teragen_to_file(path, RECORDS, seed=0)
    return path


def _terasort_cells():
    for k, overlap, speculation, budget, on_disk in itertools.product(
        SIZES, (False, True), (False, True), (None, BUDGET), (False, True)
    ):
        violated = set()
        if speculation:  # staged, in memory, over a re-readable input
            if overlap:
                violated.add("overlap x speculation")
            if not on_disk:
                violated.add("speculation x inline data")
            if budget is not None:
                violated.add("speculation x memory_budget")
        flags = ["--algorithm", "terasort"]
        flags += ["--overlap"] * overlap + ["--speculation"] * speculation
        options = dict(
            overlap=overlap, speculation=speculation, memory_budget=budget
        )
        yield pytest.param(
            k, options, on_disk, flags, violated,
            id=f"K{k}-overlap{overlap:d}-spec{speculation:d}"
               f"-budget{budget is not None:d}-file{on_disk:d}",
        )


def _coded_cells():
    # K -> (a divisor, a non-divisor) for group_size.
    group_sizes = {4: (None, 2, 3), 6: (None, 3, 4)}
    for k in SIZES:
        for schedule, overlap, budget, g, r_in_range in itertools.product(
            ("serial", "parallel"), (False, True), (None, BUDGET),
            group_sizes[k], (True, False),
        ):
            r = 1 if r_in_range else k
            violated = set()
            if g is not None and k % g:
                violated.add(f"group_size: must be >= 2 and divide K = {k}")
            elif not r_in_range:
                bound = "K-1" if g is None else "g-1"
                violated.add(
                    f"redundancy must be in [1, {bound}] = [1, {(g or k) - 1}]"
                )
            flags = ["--algorithm", "coded", "-r", str(r)]
            flags += ["--schedule", schedule] + ["--overlap"] * overlap
            flags += ["--group-size", str(g)] if g is not None else []
            options = dict(
                redundancy=r, schedule=schedule, overlap=overlap,
                memory_budget=budget, group_size=g,
            )
            yield pytest.param(
                k, options, False, flags, violated,
                id=f"K{k}-{schedule}-overlap{overlap:d}"
                   f"-budget{budget is not None:d}-g{g}-r{r}",
            )


#: 12 files are a multiple of C(K, r) for every in-range cell; 13 are not.
CMR_TEXTS = [f"w{i % 5} x{i % 3} {'y' * (1 + i % 4)}" for i in range(13)]


def _cmr_cells():
    for k, scheme, r_in_range, schedule, budget, whole, real in (
        itertools.product(
            (3, 4), ("uncoded", "coded"), (True, False),
            ("serial", "parallel"), (None, BUDGET, MIN_MEMORY_BUDGET - 1),
            (True, False), (True, False),
        )
    ):
        # Out of range: r = K coded (groups of r + 1 <= K), K + 1 uncoded.
        r = 2 if r_in_range else k + (scheme == "uncoded")
        violated = set()
        if not real:
            violated.add("job must be a MapReduceJob, got NoneType")
        if budget is not None and budget < MIN_MEMORY_BUDGET:
            violated.add(f"memory_budget must be >= {MIN_MEMORY_BUDGET} bytes")
        if not r_in_range:
            violated.add(f"redundancy must be in [1, {r - 1}]")
        elif not whole:
            violated.add("number of files (13) must be a positive multiple")
        options = dict(
            redundancy=r, scheme=scheme, schedule=schedule,
            memory_budget=budget,
        )
        yield pytest.param(
            k, options, whole, real, violated,
            id=f"K{k}-{scheme}-r{r}-{schedule}-budget{budget}"
               f"-files{12 if whole else 13}-job{real:d}",
        )


def _rejected_everywhere(spec, k, violated):
    """``spec.validate``'s text names a violated rule, and ``prepare``,
    ``Session.submit`` and ``SortService.submit`` raise that same text."""
    with pytest.raises(ValueError) as exc_info:
        spec.validate(k)
    text = str(exc_info.value)
    assert any(text.startswith(name) for name in violated), (text, violated)
    with pytest.raises(ValueError) as exc_info:
        spec.prepare(k)
    assert str(exc_info.value) == text
    with Session(ThreadCluster(k)) as session:
        with pytest.raises(ValueError) as exc_info:
            session.submit(spec)
        assert str(exc_info.value) == text
        assert session._pool is None  # nothing reached a pool
    with TcpCluster(k, "tcp://127.0.0.1:0") as mesh:
        with SortService(mesh) as service:  # never started: no workers
            with pytest.raises(ValueError) as exc_info:
                service.submit(spec)
            assert str(exc_info.value) == text
    return text


def _cli_error(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    return str(exc_info.value)


def _sorted_bytes(k, spec):
    return [p.to_bytes() for p in repro.run(ThreadCluster(k), spec).partitions]


@pytest.fixture(scope="module")
def sort_reference():
    """Per K, the sorted partitions every valid sort cell gives: the
    in-memory staged uncoded sort's."""
    data = teragen(RECORDS, seed=0)
    return {k: _sorted_bytes(k, TeraSortSpec(data=data)) for k in SIZES}


def _check_cell(
    spec_type, k, options, on_disk, flags, violated, path, reference
):
    source = (
        dict(input=FileSource(path)) if on_disk
        else dict(data=teragen(RECORDS, seed=0))
    )
    spec = spec_type(**source, **options)
    if not violated:
        spec.validate(k)
        assert len(spec.prepare(k).payloads) == k
        assert _sorted_bytes(k, spec) == reference[k]
        return

    text = _rejected_everywhere(spec, k, violated)
    flags = flags + (["--input", path] if on_disk else ["-n", str(RECORDS)])
    if options["memory_budget"] is not None:
        flags += ["--memory-budget", str(options["memory_budget"])]
    assert _cli_error(["sort", "-K", str(k)] + flags) == text
    # --workers lets the client say it before dialing (port 1: nobody).
    assert _cli_error(
        ["submit", "--connect", "tcp://127.0.0.1:1", "--workers", str(k)]
        + flags
    ) == text


@pytest.mark.parametrize(
    "k,options,on_disk,flags,violated", list(_terasort_cells())
)
def test_terasort_cell(
    k, options, on_disk, flags, violated, input_file, sort_reference
):
    _check_cell(
        TeraSortSpec, k, options, on_disk, flags, violated, input_file,
        sort_reference,
    )


@pytest.mark.parametrize(
    "k,options,on_disk,flags,violated", list(_coded_cells())
)
def test_coded_cell(
    k, options, on_disk, flags, violated, input_file, sort_reference
):
    _check_cell(
        CodedTeraSortSpec, k, options, on_disk, flags, violated, input_file,
        sort_reference,
    )


@pytest.fixture(scope="module")
def cmr_reference():
    """Per K, the uncoded r = 1 outputs every valid MapReduce cell gives."""
    return {
        k: repro.run(
            ThreadCluster(k),
            MapReduceSpec(job=WordCountJob(), files=CMR_TEXTS[:12]),
        ).outputs
        for k in (3, 4)
    }


@pytest.mark.parametrize(
    "k,options,whole,real,violated", list(_cmr_cells())
)
def test_cmr_cell(k, options, whole, real, violated, cmr_reference):
    spec = MapReduceSpec(
        job=WordCountJob() if real else None,
        files=CMR_TEXTS[: 12 if whole else 13],
        **options,
    )
    if violated:
        _rejected_everywhere(spec, k, violated)
        return
    spec.validate(k)
    assert repro.run(ThreadCluster(k), spec).outputs == cmr_reference[k]


def test_matrix_has_both_kinds_of_cell():
    for cells in (
        list(_terasort_cells()), list(_coded_cells()), list(_cmr_cells())
    ):
        rejected = sum(bool(c.values[-1]) for c in cells)
        assert 0 < rejected < len(cells)


# -- CLI parity: one option list behind `sort` and `submit` ------------------

JOB_FLAGS = [
    ["--algorithm", "terasort"],
    ["--redundancy", "3"],
    ["--records", "500"],
    ["--seed", "9"],
    ["--input", "FILE"],
    ["--memory-budget", str(BUDGET)],
    ["--memory-budget", str(BUDGET), "--output", "DIR"],
    ["--schedule", "serial"],
    ["--group-size", "3"],
    ["--algorithm", "terasort", "--input", "FILE", "--speculation"],
    ["--overlap"],
]


@pytest.mark.parametrize(
    "flags", JOB_FLAGS, ids=lambda f: "_".join(a.lstrip("-") for a in f)
)
def test_sort_and_submit_build_equal_specs(flags, input_file, tmp_path):
    flags = [
        {"FILE": input_file, "DIR": str(tmp_path)}.get(f, f) for f in flags
    ]
    parser = build_parser()
    sort_spec = _job_spec(parser.parse_args(["sort"] + flags), 6)
    submit_spec = _job_spec(
        parser.parse_args(["submit", "--connect", "tcp://h:1"] + flags), None
    )
    assert type(sort_spec) is type(submit_spec)
    assert sort_spec.with_(data=None) == submit_spec.with_(data=None)
    assert sort_spec.source.load() == submit_spec.source.load()
    # ... and the flag reached a field: the spec differs from the default.
    default = _job_spec(parser.parse_args(["sort"]), 6)
    assert sort_spec.with_(data=None) != default.with_(data=None) or (
        sort_spec.data != default.data
    )


def test_speculation_is_an_uncoded_option_on_both_subcommands(input_file):
    for argv in (
        ["sort", "-K", "4", "--input", input_file, "--speculation"],
        ["submit", "--connect", "tcp://127.0.0.1:1", "--input", input_file,
         "--speculation"],
    ):
        # The default algorithm is coded: the uncoded matrix speaks first ...
        assert _cli_error(argv + ["--overlap"]).startswith(
            "overlap x speculation: mutually exclusive"
        )
        # ... all of it, in `TeraSortSpec.validate`'s order: the shared
        # field checks (budget floor, output_dir) before the matrix ...
        assert _cli_error(argv + ["--overlap", "--memory-budget", "5"]) == (
            f"memory_budget must be >= {MIN_MEMORY_BUDGET} bytes, got 5"
        )
        inline = [a for a in argv if a not in ("--input", input_file)]
        assert _cli_error(inline + ["-n", "100"]).endswith("got RecordBatch")
        # ... then the algorithm the flag does not apply to.
        assert "--algorithm terasort only" in _cli_error(argv)


def test_group_size_from_the_cli(capsys):
    """`repro sort --group-size`: §VI grouped coding is reachable from the
    command line and sorts byte-identically to the ungrouped run."""
    argv = ["sort", "--algorithm", "coded", "-K", "4", "-r", "1",
            "--group-size", "2", "-n", "4000"]
    assert main(argv) == 0
    assert "output valid" in capsys.readouterr().out
    grouped = _job_spec(build_parser().parse_args(argv), 4)
    assert grouped.group_size == 2
    runs = [
        repro.run(ThreadCluster(4), spec)
        for spec in (grouped, grouped.with_(group_size=None))
    ]
    assert (runs[0].meta["node_groups"], runs[1].meta["node_groups"]) == (2, 1)
    joined = [b"".join(p.to_bytes() for p in run.partitions) for run in runs]
    assert joined[0] == joined[1] == sort_batch(grouped.data).to_bytes()
