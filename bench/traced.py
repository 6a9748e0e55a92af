"""Traced pass of one benchmark workload.

Runs ``quiverdias verify`` in this process, through ``quiverdias.cli.main``,
after wrapping the public functions of each layer with span and counter
wrappers.  The wrappers are installed from here; nothing under ``src/``
changes.  Spans stay in memory until the pass ends, then go to one JSONL
file; the per-layer metrics go to a JSON result file that ``run.py`` reads.

    PYTHONPATH=src python3 bench/traced.py --result R.json --spans S.jsonl \\
        -- verify --suite oracle --max 3 --oracle-max 3 --workers 1 --out DIR

Layers are the modules: sweeps, families, supports, reports, k0, oracle and
linalg.  A span is named ``<layer>.<function>``, or ``<layer>.<group>`` for
functions measured together; its self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# the 14 verifier names of the sweep registry, in report order
VERIFIERS = (
    "commutativity",
    "associativity",
    "duality",
    "dias_axioms",
    "border",
    "inner",
    "border_k0",
    "inner_k0",
    "tau_order",
    "oracle_commutativity",
    "oracle_associativity",
    "oracle_nakayama_gamma",
    "oracle_nakayama_mu",
    "oracle_unit",
)
LAYERS = ("sweeps", "families", "supports", "reports", "k0", "oracle", "linalg")
FIELDS = ("prime", "rational")
# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        # one (name, start, end, parent index) tuple per span; -1 is no parent
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}

    def span(self, name, fn, observe=None):
        """Wrap fn in a span.  name is a string, or a function of the call's
        positional arguments.  observe(args, kwargs, result) runs after the
        span closes, so counting is charged to the caller, not to fn."""
        spans, stack = self.spans, self.stack
        label = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label(args), start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_call(self, name: str, args: tuple, kwargs: dict) -> None:
        """Count a call, and count it again as a repeat when the same
        arguments occurred earlier in the pass."""
        self.counts[name + "_calls"] += 1
        key = (args, tuple(sorted(kwargs.items())))
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.counts[name + "_repeats"] += 1
        else:
            seen.add(key)


def _rebind(modules, orig, new) -> None:
    """Point every module-level name bound to orig at new, including values
    of module-level dicts (the sweep verifier registries)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dk, dv in list(value.items()):
                    if dv is orig:
                        value[dk] = new


def install(tracer: Tracer):
    """Wrap every measured function; returns the quiverdias.cli module."""
    from quiverdias import cli, families, k0, linalg, oracle, reports, supports, sweeps

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "quiverdias"]
    t = tracer

    def wrap(mod, attr, name=None, observe=None):
        orig = getattr(mod, attr)
        layer = mod.__name__.rsplit(".", 1)[-1]
        _rebind(modules, orig, t.span(name or f"{layer}.{attr}", orig, observe))

    def field_of(field) -> str:
        return "rational" if isinstance(field, linalg.RationalField) else "prime"

    # sweeps: task building and dispatch, one span per check named by verifier
    wrap(sweeps, "build_tasks")

    def task_done(args, kwargs, report):
        t.counts["reports.witnesses"] += len(report.witnesses)

    wrap(sweeps, "run_task", lambda args: "sweeps.run_task." + args[0][0], task_done)

    # the verifiers themselves, so their own bodies count to their layer
    for mod, names in (
        (families, ("verify_commutativity", "verify_associativity", "verify_border", "verify_inner")),
        (k0, ("duality_check", "dias_operad_axiom_check", "verify_border_k0",
              "verify_inner_k0", "tau_order_check")),
        (oracle, ("oracle_commutativity_check", "oracle_associativity_check",
                  "oracle_nakayama_gamma_check", "oracle_nakayama_mu_check", "oracle_unit_check")),
    ):
        for attr in names:
            wrap(mod, attr)

    # families: family supports and reference clause sets
    wrap(families, "s_support", observe=lambda a, kw, r: t.note_call("families.s_support", a, kw))
    for attr in ("n_support", "regular_support", "interval_support"):
        wrap(families, attr)

    def reference_done(args, kwargs, support):
        t.counts["families.reference_box_points"] += math.prod(support.shape.lengths)
        t.counts["families.reference_members"] += support.size

    for attr in (
        "reference_commutativity_set",
        "reference_associativity_set",
        "border_reversal_reference",
        "border_intermediate_reference",
        "inner_reversal_reference",
        "inner_shift_reference",
    ):
        wrap(families, attr, "families.reference", reference_done)

    # supports: the support calculus
    def contract_done(args, kwargs, support):
        t.counts["supports.contract_calls"] += 1
        t.counts["supports.contract_points_in"] += (
            _arg(args, kwargs, 0, "s1").size + _arg(args, kwargs, 2, "s2").size
        )
        t.counts["supports.contract_points_out"] += support.size

    wrap(supports, "contract", observe=contract_done)
    for attr in ("fiber_reversal", "permute_axes", "validate_standard"):
        wrap(supports, attr)

    # reports: witness comparison and rendering
    wrap(reports, "compare_supports")

    def render_done(args, kwargs, text):
        t.counts["reports.report_bytes"] += len(text.encode())

    wrap(reports, "render_report_file", observe=render_done)

    # k0: class matrices
    wrap(k0, "nabla_k0", observe=lambda a, kw, r: t.note_call("k0.nabla_k0", a, kw))
    wrap(k0, "k0_class")
    for attr in ("nu_k0", "tau_k0", "flip_k0"):
        wrap(k0, attr, "k0.matrix")
    for attr in ("__matmul__", "kron"):
        setattr(k0.K0Map, attr, t.span("k0.matrix", getattr(k0.K0Map, attr)))
    _rebind(modules, k0.dias_compose, t.counter("k0.dias_compose_calls", k0.dias_compose))

    # oracle: modules, tensor products, relation and iso checks
    wrap(oracle, "standard_module")

    def tensor_done(args, kwargs, module):
        # summed pre-quotient dimension: sum over shared levels c of
        # (total left dimension at c) * (total right dimension at c)
        left, right = Counter(), Counter()
        m1, a1 = _arg(args, kwargs, 0, "m1"), _arg(args, kwargs, 1, "a1")
        m2, a2 = _arg(args, kwargs, 2, "m2"), _arg(args, kwargs, 3, "a2")
        for p, d in m1.dims.items():
            left[p[a1]] += d
        for p, d in m2.dims.items():
            right[p[a2]] += d
        t.counts["oracle.tensor_dim"] += sum(d * right[c] for c, d in left.items())

    wrap(oracle, "tensor_over", lambda args: "oracle.tensor_over." + args[0].config.kind, tensor_done)
    wrap(oracle, "check_relations")
    wrap(oracle, "iso_to_standard")

    # linalg: exact elimination
    def rref_done(args, kwargs, result):
        t.counts["linalg.rref_calls"] += 1
        t.counts["linalg.rref_rows"] += len(_arg(args, kwargs, 1, "rows"))
        t.counts["linalg.rref_pivots"] += len(result[1])

    wrap(linalg, "rref", lambda args: "linalg.rref." + field_of(args[0]), rref_done)
    wrap(linalg, "reduce_mod_rows")
    wrap(linalg, "mat_mul")
    return cli


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, as {name: (value, unit)}, and facts
    about the pass that are not metrics: the check count, the tail
    percentile used, and each layer's share of the traced time."""
    spans = tracer.spans
    counts = tracer.counts
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: Counter = Counter()  # outermost spans of each name only
    layer_self: Counter = Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        layer_self[name.split(".")[0]] += end - start - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start

    task_ms = sorted(
        (end - start) * 1e3 for name, start, end, _ in spans if name.startswith("sweeps.run_task.")
    )
    checks = len(task_ms)
    check_s = sum(task_ms) / 1e3
    tail = tail_percentile(checks)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "sweeps.check_s": (check_s, "s"),
        "sweeps.build_tasks_s": (total["sweeps.build_tasks"], "s"),
        "sweeps.run_task_p50_ms": (statistics.median(task_ms) if task_ms else 0.0, "ms"),
        "sweeps.run_task_tail_ms": (percentile(task_ms, tail) if task_ms else 0.0, "ms"),
    }
    for v in VERIFIERS:
        m[f"sweeps.{v}_s"] = (total[f"sweeps.run_task.{v}"], "s")
    m.update({
        "families.s_support_s": (total["families.s_support"], "s"),
        "families.s_support_calls": (counts["families.s_support_calls"], "count"),
        "families.s_support_repeat_frac": (
            frac(counts["families.s_support_repeats"], counts["families.s_support_calls"]), "ratio"),
        "families.reference_s": (total["families.reference"], "s"),
        "families.reference_box_points": (counts["families.reference_box_points"], "count"),
        "families.reference_fill": (
            frac(counts["families.reference_members"], counts["families.reference_box_points"]),
            "ratio"),
        "supports.contract_s": (total["supports.contract"], "s"),
        "supports.contract_calls": (counts["supports.contract_calls"], "count"),
        "supports.contract_points_in": (counts["supports.contract_points_in"], "count"),
        "supports.contract_points_out": (counts["supports.contract_points_out"], "count"),
        "supports.fiber_reversal_s": (total["supports.fiber_reversal"], "s"),
        "supports.permute_axes_s": (total["supports.permute_axes"], "s"),
        "supports.validate_standard_s": (total["supports.validate_standard"], "s"),
        "reports.compare_supports_s": (total["reports.compare_supports"], "s"),
        "reports.witnesses": (counts["reports.witnesses"], "count"),
        "reports.render_s": (total["reports.render_report_file"], "s"),
        "reports.report_bytes": (counts["reports.report_bytes"], "bytes"),
        "k0.nabla_k0_s": (total["k0.nabla_k0"], "s"),
        "k0.nabla_k0_calls": (counts["k0.nabla_k0_calls"], "count"),
        "k0.nabla_k0_repeat_frac": (
            frac(counts["k0.nabla_k0_repeats"], counts["k0.nabla_k0_calls"]), "ratio"),
        "k0.k0_class_s": (total["k0.k0_class"], "s"),
        "k0.matrix_s": (total["k0.matrix"], "s"),
        "k0.dias_compose_calls": (counts["k0.dias_compose_calls"], "count"),
        "oracle.standard_module_s": (total["oracle.standard_module"], "s"),
    })
    for f in FIELDS:
        m[f"oracle.tensor_over_s.{f}"] = (total[f"oracle.tensor_over.{f}"], "s")
    m.update({
        "oracle.tensor_dim": (counts["oracle.tensor_dim"], "count"),
        "oracle.check_relations_s": (total["oracle.check_relations"], "s"),
        "oracle.iso_to_standard_s": (total["oracle.iso_to_standard"], "s"),
    })
    for f in FIELDS:
        m[f"linalg.rref_s.{f}"] = (total[f"linalg.rref.{f}"], "s")
    m.update({
        "linalg.rref_calls": (counts["linalg.rref_calls"], "count"),
        "linalg.rref_rows": (counts["linalg.rref_rows"], "count"),
        "linalg.rref_rank_frac": (
            frac(counts["linalg.rref_pivots"], counts["linalg.rref_rows"]), "ratio"),
        "linalg.reduce_mod_rows_s": (total["linalg.reduce_mod_rows"], "s"),
        "linalg.mat_mul_s": (total["linalg.mat_mul"], "s"),
    })
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = (layer_self[layer], "s")
    # the whole traced time includes set-up and rendering outside the checks
    traced_s = sum(end - start for _, start, end, parent in spans if parent < 0)
    info = {
        "checks": checks,
        "tail_pct": tail,
        "layer_share": {layer: round(frac(layer_self[layer], traced_s), 4) for layer in LAYERS},
    }
    return m, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file for the pass's metrics")
    parser.add_argument("--spans", required=True, help="JSONL file for the pass's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then quiverdias arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(cli_args)
    # the parent measures wall time from spawn to here, on the shared
    # monotonic clock, so dumping spans is not counted as tracing cost
    main_return = time.monotonic()

    metrics, info = summarize(tracer)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(args.spans, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]))
            fh.write("\n")
    Path(args.result).write_text(json.dumps({
        "exit_code": code,
        "main_return": main_return,
        "spans": len(tracer.spans),
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
