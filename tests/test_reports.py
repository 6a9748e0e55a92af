"""Report values, the report file format, and sweep configuration."""

import concurrent.futures
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import quiverdias.families as families
import quiverdias.sweeps as sweeps

from quiverdias import __version__
from quiverdias.cli import main
from quiverdias.families import n_support
from quiverdias.oracle import FieldConfig
from quiverdias.reports import (
    Report,
    Witness,
    compare_supports,
    read_report_file,
    render_report_file,
    write_report_file,
)
from quiverdias.sweeps import (
    SweepConfig,
    build_tasks,
    pair_domain,
    run_group,
    run_sweep,
    run_task,
    slot_domain,
    slot_pairs,
)


def test_report_requires_consistent_pass_flag():
    # passed is derived from the witnesses, so the two cannot disagree
    assert not Report("x", {}, 1, 1, [Witness("c", (1,))]).passed
    assert Report("x", {}, 1, 1, []).passed


def test_compare_supports_tags_sides():
    from quiverdias.supports import Axis, Shape, make_support

    shape = Shape((Axis(3),))
    a = make_support(shape, [(1,), (2,)])
    b = make_support(shape, [(2,), (3,)])
    ws = compare_supports("sides", a, b)
    assert [(w.where, w.detail) for w in ws] == [((1,), "left only"), ((3,), "right only")]
    assert all(w.check == "sides" for w in ws)


def test_compare_supports_shape_mismatch_is_single_witness():
    ws = compare_supports("sides", n_support(2), n_support(3))
    assert len(ws) == 1 and "shape mismatch" in ws[0].detail


def test_report_file_counts(tmp_path):
    config = SweepConfig(suite="anticyclic", max_m=2)
    reports = list(run_sweep(config))
    total, failed = write_report_file(config.echo(), reports, tmp_path / "r.jsonl")
    assert total == len(reports)
    assert failed == [r for r in reports if not r.passed]
    assert not failed  # all passed
    records = read_report_file(tmp_path / "r.jsonl")
    assert records[0]["record"] == "header"
    assert records[0]["version"] == __version__
    assert records[-1] == {
        "record": "summary",
        "total": total,
        "passed": total - len(failed),
        "failed": len(failed),
    }
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]  # no part file left


def test_render_report_file_has_no_timing_fields(tmp_path, capsys):
    config = SweepConfig(suite="anticyclic", max_m=2)
    text = render_report_file(config.echo(), run_sweep(config))
    assert "elapsed" not in text
    # the CLI writes the same bytes and prints the elapsed time to stderr only
    assert main(["verify", "--suite", "anticyclic", "--max", "2", "--out", str(tmp_path)]) == 0
    assert "elapsed: " in capsys.readouterr().err
    assert (tmp_path / "verify-anticyclic.jsonl").read_text() == text


def test_serial_sweep_is_lazy(monkeypatch):
    calls = []

    def counted(name, body):
        def run(params):
            calls.append(name)
            return body(params)

        return run

    for name, body in list(sweeps._VERIFIERS.items()):
        monkeypatch.setitem(sweeps._VERIFIERS, name, counted(name, body))
    reports = run_sweep(SweepConfig(suite="anticyclic", max_m=2))
    assert calls == []
    assert next(reports).verifier == "border"
    assert calls == ["border"]


@pytest.mark.parametrize("suite", sweeps.SUITES)
def test_sweep_runs_maximal_groups_of_one_verifier_and_parameters(monkeypatch, suite):
    # the groups the sweep hands out are the contiguous runs of tasks with one
    # (verifier, m, n, p), and together they are the tasks, in order
    config = SweepConfig(suite=suite, max_m=3)
    groups = []

    def recorded(group):
        groups.append(group)
        return run_group(group)

    monkeypatch.setattr(sweeps, "run_group", recorded)
    reports = list(run_sweep(config))
    tasks = build_tasks(config)
    assert [task for group in groups for task in group] == tasks
    keys = [{(name, *map(params.get, "mnp")) for name, params in group} for group in groups]
    assert all(len(k) == 1 for k in keys)
    assert all(a != b for a, b in zip(keys, keys[1:]))
    assert [(r.verifier, r.params) for r in reports if r.verifier in ("commutativity", "associativity")] == [
        t for t in tasks if t[0] in ("commutativity", "associativity")
    ]


ALL_M3 = SweepConfig(suite="all", max_m=3)


def test_every_verifier_runs_one_group_body_call_per_group(monkeypatch):
    # one dispatch path: each group is one call of its verifier's group body,
    # with the group's dicts in task order, and the bytes stay pinned
    calls = []

    def recorded(name, body):
        def run(params):
            calls.append((name, params))
            return body(params)

        return run

    for name, body in list(sweeps._VERIFIERS.items()):
        monkeypatch.setitem(sweeps._VERIFIERS, name, recorded(name, body))
    text = render_report_file(ALL_M3.echo(), run_sweep(ALL_M3))
    groups = sweeps.group_tasks(sweeps._tasks(ALL_M3))
    assert calls == [(group[0][0], [params for _, params in group]) for group in groups]
    assert {name for name, _ in calls} == set(sweeps._VERIFIERS)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "f3ddbb8e0a86ff37effb3a5da3544051b8fcc8af7cb770131f51a3d3861e875c"
    )


@pytest.mark.parametrize("name", list(sweeps._VERIFIERS))
def test_run_group_reports_its_tasks_one_by_one(name):
    # a verifier's first group of several tasks, or its first group if all
    # its groups hold one task
    groups = [g for g in sweeps.group_tasks(sweeps._tasks(ALL_M3)) if g[0][0] == name]
    group = next((g for g in groups if len(g) > 1), groups[0])
    reports = run_group(group)
    assert reports == [run_task(task) for task in group]

    def shown(params):
        # an oracle report shows its field config as the field and modulus
        config = params.pop("config", None)
        return params if config is None else {**params, "field": config.kind, "q": config.q}

    assert [r.params for r in reports] == [shown(dict(params)) for _, params in group]
    assert {r.verifier for r in reports} == {name}


def test_cooperad_sweep_leaves_no_slot_supports_behind():
    # each group builds the slot supports it reads, and nothing keeps them
    # across groups: under 1 MiB of what a sweep allocated stays alive
    list(run_sweep(SweepConfig(suite="cooperad", max_m=2)))
    tracemalloc.start()
    try:
        assert all(r.passed for r in run_sweep(SweepConfig(suite="cooperad", max_m=8)))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="suite"):
        SweepConfig(suite="everything")
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(max_m=0)
    with pytest.raises(ValueError, match="oracle max"):
        SweepConfig(suite="oracle", max_m=2, oracle_max=4)
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(workers=0)
    with pytest.raises(ValueError, match="prime"):
        SweepConfig(prime=9)


def test_sweep_bounds_defaults():
    cfg = SweepConfig(max_m=5, max_n=2)
    assert cfg.bounds == (5, 2, 5)
    assert cfg.effective_oracle_max == 2
    # execution details stay out of the persisted config echo
    assert "workers" not in cfg.echo()
    assert "out_dir" not in cfg.echo()


def test_tasks_cover_requested_suites():
    names = {t[0] for t in build_tasks(SweepConfig(suite="all", max_m=2))}
    assert {"commutativity", "associativity", "duality", "dias_axioms"} <= names
    assert {"border", "inner", "border_k0", "inner_k0", "tau_order"} <= names
    assert {"oracle_commutativity", "oracle_unit"} <= names


def test_run_task_dispatch():
    r = run_task(("border", {"m": 2, "n": 2}))
    assert r.verifier == "border" and r.passed
    r = run_task(("oracle_unit", {"m": 2, "n": 1, "i": 1, "config": FieldConfig("prime", 32003)}))
    assert r.verifier == "oracle_unit" and r.passed
    assert r.params == {"m": 2, "n": 1, "i": 1, "field": "prime", "q": 32003}
    with pytest.raises(ValueError, match="unknown verifier"):
        run_task(("frobnicate", {}))


def test_oracle_tasks_share_one_config_per_field(monkeypatch):
    # one config per field per sweep, built with the tasks: primality is
    # checked once, and the config's cached field object is built once
    from quiverdias import oracle

    monkeypatch.setattr(oracle, "oracle_unit_check", lambda config, **params: config)
    tasks = [t for t in build_tasks(SweepConfig(suite="oracle", max_m=2)) if t[0] == "oracle_unit"]
    configs = [run_task(t) for t in tasks]
    prime = [c for c in configs if c.kind == "prime"]
    rational = [c for c in configs if c.kind == "rational"]
    assert len(prime) == len(rational) == len(configs) // 2 > 1
    assert all(c is prime[0] for c in prime) and all(c is rational[0] for c in rational)


def test_oracle_tasks_run_both_fields():
    tasks = build_tasks(SweepConfig(suite="oracle", max_m=2))
    fields = {t[1]["config"].kind for t in tasks}
    assert fields == {"prime", "rational"}


def test_report_bytes_are_pinned():
    # fails when task order or the report format drifts
    config = SweepConfig(suite="all", max_m=2)
    text = render_report_file(config.echo(), run_sweep(config))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "e109685b60fbad802a20401911351fab454942d34c3370f65ec44fd1fb514efd"
    )


def test_domains_match_acceptance_ranges():
    # the loops of acceptance criteria 1 to 4, written out independently
    crit1 = [
        (m, n, p, i, j)
        for m in range(2, 6)
        for n in range(1, 6)
        for p in range(1, 6)
        for i in range(1, m)
        for j in range(i + 1, m + 1)
    ]
    crit2 = [
        (m, n, p, i, j)
        for m in range(1, 6)
        for n in range(1, 6)
        for p in range(1, 6)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]
    crit3 = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    crit4 = [(m, n, i) for m in range(2, 7) for n in range(1, 7) for i in range(2, m + 1)]

    def five(dom):
        return [(d["m"], d["n"], d["p"], d["i"], d["j"]) for d in dom]

    assert five(slot_pairs(5, 5, 5, families.parallel)) == crit1
    assert five(slot_pairs(5, 5, 5, families.nested)) == crit2
    assert [(d["m"], d["n"]) for d in pair_domain(6, 6)] == crit3
    assert [(d["m"], d["n"], d["i"]) for d in slot_domain(6, 6, families.inner_slot)] == crit4

    # the axiom check's pairs: every pair of either rule, once, sorted
    for bounds in ((5, 5, 5), (4, 2, 3), (2, 5, 1), (3, 6, 2)):
        union = set(five(slot_pairs(*bounds, families.parallel)))
        union |= set(five(slot_pairs(*bounds, families.nested)))
        assert five(slot_pairs(*bounds, families.parallel_or_nested)) == sorted(union)


# every verifier with slot parameters, and its parameter names in call order
SLOT_VERIFIERS = {
    "commutativity": "mnpij",
    "associativity": "mnpij",
    "dias_axioms": "mnpij",
    "duality": "mni",
    "inner": "mni",
    "inner_k0": "mni",
    "oracle_commutativity": "mnpij",
    "oracle_associativity": "mnpij",
    "oracle_nakayama_gamma": "mni",
    "oracle_nakayama_mu": "mni",
    "oracle_unit": "mni",
}


def test_verifiers_accept_exactly_their_sweep_domain():
    # in a box of sizes 0..3 and slots 0..max(m, n) + 2, each verifier passes
    # on exactly the parameters its sweep yields and refuses all others
    domains = {name: set() for name in SLOT_VERIFIERS}
    for name, d in build_tasks(SweepConfig(suite="all", max_m=3)):
        if name in domains:
            domains[name].add(tuple(d[key] for key in SLOT_VERIFIERS[name]))
    field = {"config": FieldConfig("prime", 32003)}
    for name, keys in SLOT_VERIFIERS.items():
        extra = field if name.startswith("oracle") else {}
        accepted = set()
        for sizes in itertools.product(range(4), repeat=keys.index("i")):
            slots = range(max(sizes[:2]) + 3)
            for point in itertools.product(slots, repeat=len(keys) - len(sizes)):
                params = dict(zip(keys, sizes + point), **extra)
                try:
                    report = run_task((name, params))
                except ValueError:
                    continue
                assert report.passed, (name, params)
                accepted.add(sizes + point)
        assert accepted == domains[name], name


@pytest.mark.parametrize(
    "task, message",
    [
        (("commutativity", (3, 1, 1, 2, 2)), "slots i=2, j=2 are not a parallel pair"),
        (("oracle_associativity", (2, 2, 1, 1, 3)), "slots i=1, j=3 are not a nested pair"),
        (("dias_axioms", (2, 1, 1, 2, 2)), "slots i=2, j=2 are neither a parallel pair"),
    ],
)
def test_refusals_name_the_slot_pair_as_ints(task, message):
    name, args = task
    with pytest.raises(ValueError, match=f"^{message} "):
        run_task((name, dict(zip("mnpij", args))))


@pytest.mark.parametrize(
    "bounds, checks, digest",
    [
        ((4, 2, 3), 428, "ed7e57a2489a8a9841ffaae49b8116eb2a6139a11765b0c26f148c9cdd258663"),
        ((3, 6, 2), 752, "376cbff47586331d21a2cfbfa6293fd6cda36b462cd3aad29d6ba6956462d482"),
    ],
)
def test_unequal_bounds_report_bytes_are_pinned(bounds, checks, digest):
    # n and p bounded apart from m: the axiom check's pairs then depend on
    # m and n separately
    m, n, p = bounds
    config = SweepConfig(suite="all", max_m=m, max_n=n, max_p=p)
    reports = list(run_sweep(config))
    assert len(reports) == checks and all(r.passed for r in reports)
    text = render_report_file(config.echo(), reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_serial_sweep_makes_tasks_as_it_asks_for_them():
    # the first report of a 208,728-check sweep costs one group's tasks,
    # not the whole task list (47 MiB when it was built up front)
    sweep = run_sweep(SweepConfig(suite="cooperad", max_m=12))
    tracemalloc.start()
    try:
        assert next(sweep).verifier == "commutativity"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sweep.close()
    assert peak < 2**20


@pytest.fixture
def fake_pool(monkeypatch):
    # a fake executor records each pool's size and the groups in flight, and
    # runs a group when its result is asked for, so no process is started
    # whatever the requested worker count
    record = SimpleNamespace(sizes=[], submitted=0, in_flight=0, most=0)

    class FakeFuture:
        def __init__(self, fn, arg):
            self.fn, self.arg = fn, arg

        def result(self):
            record.in_flight -= 1
            return self.fn(self.arg)

    class FakePool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            record.submitted += 1
            record.in_flight += 1
            record.most = max(record.most, record.in_flight)
            return FakeFuture(fn, arg)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return record


def test_worker_pool_is_bounded(monkeypatch, fake_pool):
    sizes = fake_pool.sizes
    many = SweepConfig(suite="anticyclic", max_m=2, workers=100_000)
    three_tasks = SweepConfig(suite="anticyclic", max_m=1, workers=100_000)
    assert len(build_tasks(three_tasks)) == 3

    # the sweep is a generator: the pool is built when it is consumed
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
    assert all(r.passed for r in run_sweep(many))
    assert sizes == [4]  # clamped to the cores
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    assert all(r.passed for r in run_sweep(three_tasks))
    assert sizes == [4, 3]  # clamped to the groups
    seven_groups = SweepConfig(suite="cooperad", max_m=2, max_n=1, max_p=1, workers=100_000)
    assert len(build_tasks(seven_groups)) == 11
    assert all(r.passed for r in run_sweep(seven_groups))
    assert sizes == [4, 3, 7]  # clamped to the groups, not the tasks
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: None)
    assert all(r.passed for r in run_sweep(many))
    assert sizes == [4, 3, 7]  # core count unknown: serial, no pool


def test_pool_keeps_two_groups_per_worker_in_flight(monkeypatch, fake_pool):
    # the pool takes groups as it returns reports, not the whole sweep at once
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    config = SweepConfig(suite="cooperad", max_m=3, workers=2)
    serial = list(run_sweep(SweepConfig(suite="cooperad", max_m=3)))
    sweep = run_sweep(config)
    first = next(sweep)
    assert fake_pool.submitted == 4  # the first report waited for no later group
    assert [first, *sweep] == serial
    assert fake_pool.sizes == [2] and fake_pool.most == 4
    assert fake_pool.submitted == len(list(sweeps.group_tasks(sweeps._tasks(config)))) > 4


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # a serial sweep, and every process that only builds tasks, skips the
    # import of concurrent.futures.process and multiprocessing
    code = "import sys, quiverdias.cli; print('multiprocessing' in sys.modules)"
    assert run_python(code) == ["False"]


def run_python(code: str, *args: str) -> list[str]:
    """The last line of a fresh interpreter's output, split, with src on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


LAZY_MODULES = ("quiverdias.oracle", "quiverdias.linalg", "fractions",
                "quiverdias.render", "quiverdias.serialize")


@pytest.mark.parametrize("suite, oracle_loaded", [
    ("cooperad", False), ("anticyclic", False), ("oracle", True),
])
def test_only_oracle_tasks_load_the_oracle(tmp_path, suite, oracle_loaded):
    # the support and class suites run without the oracle, its exact linear
    # algebra (and fractions with it), the renderer and the support codec
    code = (
        "import sys\n"
        "from quiverdias.cli import main\n"
        "code = main(['verify', '--suite', sys.argv[1], '--max', '2', '--out', sys.argv[2]])\n"
        "print(code, *(name in sys.modules for name in sys.argv[3:]))\n"
    )
    loaded = run_python(code, suite, str(tmp_path), *LAZY_MODULES)
    assert loaded == ["0"] + [str(oracle_loaded)] * 3 + ["False"] * 2


def test_sweep_calls_the_oracle_check_bound_on_the_module(monkeypatch):
    # the sweep looks the oracle's checks up when it runs them, so a check
    # rebound on the module (as the bench tracer does) is the one called
    from quiverdias import oracle

    calls = []

    def unit_check(**params):
        calls.append(params)
        return Report("oracle_unit", {"call": len(calls)}, 0, 0, [])

    monkeypatch.setattr(oracle, "oracle_unit_check", unit_check)
    reports = list(run_sweep(SweepConfig(suite="oracle", max_m=1)))
    assert [r.params for r in reports if r.verifier == "oracle_unit"] == [{"call": 1}, {"call": 2}]
    assert [c["config"].kind for c in calls] == ["prime", "rational"]
