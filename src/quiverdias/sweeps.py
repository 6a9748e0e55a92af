"""Parameter sweeps behind the verify command, with an optional worker pool.

Tasks are (verifier name, parameter dict) pairs built in a fixed canonical
order; the sweep yields their reports in that order whatever the worker
count, so files are reproducible.
"""

from __future__ import annotations

import importlib
import itertools
import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import families, k0
from .families import any_slot, inner_slot, nested, parallel, parallel_or_nested
from .fields import RATIONAL, FieldConfig
from .reports import Report

SUITES = ("cooperad", "anticyclic", "oracle", "all")

Task = tuple[str, dict]


@dataclass(frozen=True)
class SweepConfig:
    """What to run: suites, parameter bounds, oracle settings, workers."""

    suite: str = "all"
    max_m: int = 4
    max_n: int = 0  # 0 means: same as max_m
    max_p: int = 0
    oracle_max: int = 0  # 0 means: min(3, bounds)
    field_kind: str = FieldConfig.kind
    prime: int = FieldConfig.q
    workers: int = 1

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"suite must be one of {', '.join(SUITES)}, got {self.suite!r}")
        if self.max_m < 1:
            raise ValueError(f"max m must be positive, got {self.max_m}")
        for name, v in (("max n", self.max_n), ("max p", self.max_p), ("oracle max", self.oracle_max)):
            if v < 0:
                raise ValueError(f"{name} must be nonnegative (0: default), got {v}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self.field_config()  # validates the field kind and the modulus
        if self.effective_oracle_max > min(self.bounds):
            raise ValueError(
                f"oracle max {self.effective_oracle_max} exceeds sweep bounds {self.bounds}"
            )

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.max_m, self.max_n or self.max_m, self.max_p or self.max_m)

    @property
    def effective_oracle_max(self) -> int:
        return self.oracle_max or min(3, *self.bounds)

    def field_config(self) -> FieldConfig:
        return FieldConfig(self.field_kind, self.prime)

    def echo(self) -> dict:
        # the worker count is an execution detail: the file must not show it
        d = asdict(self)
        del d["workers"]
        d["effective_bounds"] = list(self.bounds)
        d["effective_oracle_max"] = self.effective_oracle_max
        return d


def _each(module: str, name: str):
    """The group body of a one-dict check: the check of that name, looked up
    on its module when a group runs, once per dict. So the oracle loads with
    its first task, and a check rebound on its module runs."""
    def body(params: list[dict]) -> list[Report]:
        check = getattr(importlib.import_module(f".{module}", __package__), name)
        return [check(**d) for d in params]

    return body


# verifier name -> group body: one group's parameter dicts in, their reports out
_VERIFIERS = {
    "commutativity": families.commutativity_group,
    "associativity": families.associativity_group,
    "border": _each("families", "verify_border"),
    "inner": families.inner_group,
    "duality": _each("k0", "duality_check"),
    "dias_axioms": k0.dias_axioms_group,
    "border_k0": _each("k0", "verify_border_k0"),
    "inner_k0": k0.inner_k0_group,
    "tau_order": _each("k0", "tau_order_check"),
    "oracle_commutativity": _each("oracle", "oracle_commutativity_check"),
    "oracle_associativity": _each("oracle", "oracle_associativity_check"),
    "oracle_nakayama_gamma": _each("oracle", "oracle_nakayama_gamma_check"),
    "oracle_nakayama_mu": _each("oracle", "oracle_nakayama_mu_check"),
    "oracle_unit": _each("oracle", "oracle_unit_check"),
}


def group_tasks(tasks: Iterable[Task]) -> Iterator[list[Task]]:
    """The contiguous runs of tasks that share a verifier and (m, n, p)."""
    runs = itertools.groupby(tasks, lambda t: (t[0], *map(t[1].get, ("m", "n", "p"))))
    return (list(run) for _, run in runs)


def run_group(group: list[Task]) -> list[Report]:
    """The reports of one group in task order, from its verifier's group body."""
    body = _VERIFIERS.get(group[0][0])
    if body is None:
        raise ValueError(f"unknown verifier {group[0][0]!r}")
    return body([params for _, params in group])


def run_task(task: Task) -> Report:
    return run_group([task])[0]


# Parameter domains, each yielded in canonical (lexicographic) order.


def slot_pairs(mm: int, mn: int, mp: int, rule) -> Iterator[dict]:
    """Slot pairs (i, j) that the rule admits, m, n, p within the bounds;
    each (m, n) evaluates the rule once on its grid of pairs."""
    for m, n in itertools.product(range(1, mm + 1), range(1, mn + 1)):
        grid = np.indices((m, max(m, n))) + 1
        pairs = grid[:, rule(m, n, *grid)].T.tolist()
        for p in range(1, mp + 1):
            yield from ({"m": m, "n": n, "p": p, "i": i, "j": j} for i, j in pairs)


def pair_domain(mm: int, mn: int) -> Iterator[dict]:
    """All (m, n) within the bounds."""
    return ({"m": m, "n": n} for m in range(1, mm + 1) for n in range(1, mn + 1))


def slot_domain(mm: int, mn: int, rule) -> Iterator[dict]:
    """(m, n) within the bounds and the slots i of m that the rule admits."""
    return (
        {"m": m, "n": n, "i": i}
        for m in range(1, mm + 1)
        for n in range(1, mn + 1)
        for i in range(1, m + 1)
        if rule(m, n, i)
    )


def _oracle_tasks(k: int, config: FieldConfig) -> Iterator[Task]:
    # every instance runs over the configured field and over the rationals
    configs = [config]
    if config.kind != RATIONAL:
        configs.append(FieldConfig(RATIONAL))
    for cfg in configs:
        # one config per field and sweep: it checked primality when built
        # and keeps its field object across the tasks that share it
        fc = {"config": cfg}
        yield from (("oracle_commutativity", {**d, **fc}) for d in slot_pairs(k, k, k, parallel))
        yield from (("oracle_associativity", {**d, **fc}) for d in slot_pairs(k, k, k, nested))
        for d in slot_domain(k, k, any_slot):
            yield "oracle_nakayama_gamma", {**d, **fc}
            yield "oracle_unit", {**d, **fc}
            if inner_slot(**d):
                yield "oracle_nakayama_mu", {**d, **fc}


def _tasks(config: SweepConfig) -> Iterator[Task]:
    """The sweep's tasks in report order, each made when it is asked for."""
    mm, mn, mp = config.bounds
    # (suite, verifier, domain) in report order; a domain starts when reached
    table = (
        ("cooperad", "commutativity", slot_pairs(mm, mn, mp, parallel)),
        ("cooperad", "associativity", slot_pairs(mm, mn, mp, nested)),
        ("cooperad", "duality", slot_domain(mm, mn, any_slot)),
        ("cooperad", "dias_axioms", slot_pairs(mm, mn, mp, parallel_or_nested)),
        ("anticyclic", "border", pair_domain(mm, mn)),
        ("anticyclic", "inner", slot_domain(mm, mn, inner_slot)),
        ("anticyclic", "border_k0", pair_domain(mm, mn)),
        ("anticyclic", "inner_k0", slot_domain(mm, mn, inner_slot)),
        ("anticyclic", "tau_order", ({"n": n} for n in range(1, mm + mn))),
    )
    for suite, name, domain in table:
        if config.suite in (suite, "all"):
            yield from ((name, d) for d in domain)
    if config.suite in ("oracle", "all"):
        # interleaved per slot, so not a row of the table
        yield from _oracle_tasks(config.effective_oracle_max, config.field_config())


def build_tasks(config: SweepConfig) -> list[Task]:
    return list(_tasks(config))


def run_sweep(config: SweepConfig) -> Iterator[Report]:
    """Yield the reports in task order; nothing runs until the first is asked
    for, and a serial sweep makes one group's tasks at a time."""
    groups = group_tasks(_tasks(config))
    # never start more workers than the machine or the sweep can use; the
    # sweep is sized from its first groups, not listed
    workers = min(config.workers, os.cpu_count() or 1)
    if workers > 1:
        head = list(itertools.islice(groups, workers))
        workers = min(workers, len(head))
        groups = itertools.chain(head, groups)
    if workers > 1:
        # imported here: the pool machinery costs every serial run its import
        from concurrent.futures import ProcessPoolExecutor

        # a group goes whole to one worker, which shares its maps across it;
        # at most two groups per worker are in flight, taken in order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for group in groups:
                if len(pending) == 2 * workers:
                    yield from pending.popleft().result()
                pending.append(pool.submit(run_group, group))
            while pending:
                yield from pending.popleft().result()
    else:
        yield from itertools.chain.from_iterable(map(run_group, groups))
