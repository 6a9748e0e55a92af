"""Acceptance suite: every exit criterion at its stated range and tolerance.

All checks are exact (integer and set equality, zero tolerance).  Each test
prints one pass/fail line; run with `pytest tests/test_acceptance.py -s` to
see them as they complete.
"""

import time

import numpy as np

from quiverdias.families import (
    interval_support,
    s_support,
    verify_associativity,
    verify_border,
    verify_commutativity,
    verify_inner,
)
from quiverdias.k0 import (
    dias_tau,
    duality_check,
    k0_class,
    matrix_order,
    nabla_k0,
    tau_k0,
    verify_border_k0,
    verify_inner_k0,
)
from quiverdias.oracle import (
    FieldConfig,
    oracle_associativity_check,
    oracle_commutativity_check,
    oracle_nakayama_gamma_check,
    oracle_nakayama_mu_check,
    oracle_unit_check,
)
from quiverdias.render import render_ascii, render_svg
from quiverdias.supports import contract


def report(criterion: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} instances)"
    print(f"\nACCEPTANCE {criterion}: {status} [{time.perf_counter() - started:.1f}s]")
    assert not failures, failures[:5]


def test_criterion_1_cooperad_commutativity():
    started = time.perf_counter()
    failures = []
    for m in range(2, 6):
        for n in range(1, 6):
            for p in range(1, 6):
                for i in range(1, m):
                    for j in range(i + 1, m + 1):
                        if not verify_commutativity(m, n, p, i, j).passed:
                            failures.append((m, n, p, i, j))
    report("1 (cooperad commutativity, m,n,p <= 5)", failures, started)


def test_criterion_2_cooperad_associativity():
    started = time.perf_counter()
    failures = []
    for m in range(1, 6):
        for n in range(1, 6):
            for p in range(1, 6):
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        if not verify_associativity(m, n, p, i, j).passed:
                            failures.append((m, n, p, i, j))
    report("2 (cooperad associativity, m,n,p <= 5)", failures, started)


def test_criterion_3_anticyclic_border():
    started = time.perf_counter()
    failures = [
        (m, n)
        for m in range(1, 7)
        for n in range(1, 7)
        if not verify_border(m, n).passed
    ]
    report("3 (anticyclic border, m,n <= 6, intermediates included)", failures, started)


def test_criterion_4_anticyclic_inner():
    started = time.perf_counter()
    failures = [
        (m, n, i)
        for m in range(2, 7)
        for n in range(1, 7)
        for i in range(2, m + 1)
        if not verify_inner(m, n, i).passed
    ]
    report("4 (anticyclic inner, m <= 6, intermediates included)", failures, started)


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    for config in (FieldConfig(), FieldConfig("rational")):
        tag = config.kind
        for m in range(2, 4):
            for n in range(1, 4):
                for p in range(1, 4):
                    for i in range(1, m):
                        for j in range(i + 1, m + 1):
                            if not oracle_commutativity_check(m, n, p, i, j, config).passed:
                                failures.append(("comm", tag, m, n, p, i, j))
        for m in range(1, 4):
            for n in range(1, 4):
                for p in range(1, 4):
                    for i in range(1, m + 1):
                        for j in range(1, n + 1):
                            if not oracle_associativity_check(m, n, p, i, j, config).passed:
                                failures.append(("assoc", tag, m, n, p, i, j))
        for m in range(1, 4):
            for n in range(1, 4):
                for i in range(1, m + 1):
                    if not oracle_nakayama_gamma_check(m, n, i, config).passed:
                        failures.append(("nakayama_gamma", tag, m, n, i))
                    if not oracle_unit_check(m, n, i, config).passed:
                        failures.append(("unit", tag, m, n, i))
                    if i >= 2 and not oracle_nakayama_mu_check(m, n, i, config).passed:
                        failures.append(("nakayama_mu", tag, m, n, i))
    report("5 (oracle equivalence, m,n,p <= 3, both fields)", failures, started)


def test_criterion_6_duality():
    started = time.perf_counter()
    failures = [
        (m, i, n)
        for m in range(1, 7)
        for n in range(1, 7)
        for i in range(1, m + 1)
        if not duality_check(m, i, n).passed
    ]
    # the (2, 1, 2) instance reproduces the three displayed simple images
    nab = nabla_k0(2, 1, 2).matrix
    displayed = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
    if not np.array_equal(nab, displayed):
        failures.append(("(2,1,2) display", nab.tolist()))
    report("6 (composition duality, m,n <= 6)", failures, started)


def test_criterion_7_projective_display():
    started = time.perf_counter()

    def proj_class(m, n, a, b):
        v = np.zeros(m * n, dtype=np.int64)
        for x in range(a, m + 1):
            for y in range(b, n + 1):
                v[(x - 1) * n + (y - 1)] = 1
        return v

    failures = []
    for m in range(1, 7):
        for n in range(1, 7):
            for i in range(1, m + 1):
                s = s_support(m, i, n)
                for j in range(1, m + n):
                    got = k0_class(
                        contract(interval_support(m + n - 1, "projective", j), 0, s, 0)
                    )
                    if j <= i:
                        want = proj_class(m, n, j, 1)
                    elif j <= i + n - 1:
                        want = (
                            proj_class(m, n, i + 1, 1)
                            + proj_class(m, n, i, j - i + 1)
                            - proj_class(m, n, i + 1, j - i + 1)
                        )
                    else:
                        want = proj_class(m, n, j - n + 1, 1)
                    if not np.array_equal(got, want):
                        failures.append((m, i, n, j))
    report("7 (projective-image display, m,n <= 6)", failures, started)


def test_criterion_8_anticyclic_k0():
    started = time.perf_counter()
    failures = [
        ("border", m, n)
        for m in range(1, 6)
        for n in range(1, 6)
        if not verify_border_k0(m, n).passed
    ]
    failures += [
        ("inner", m, n, i)
        for m in range(2, 6)
        for n in range(1, 6)
        for i in range(2, m + 1)
        if not verify_inner_k0(m, n, i).passed
    ]
    report("8 (anticyclic class identities, nu and tau forms, m,n <= 5)", failures, started)


def test_criterion_9_translation_order():
    started = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for label, mp in (("tau", tau_k0(n)), ("dias_tau", dias_tau(n))):
            if not np.array_equal(np.linalg.matrix_power(mp.matrix, n + 1), np.eye(n)):
                failures.append((label, n, "power n+1 not identity"))
            if n >= 2 and matrix_order(mp, n + 1) != n + 1:
                failures.append((label, n, "smaller power is identity"))
    report("9 (translation order n+1, n <= 8)", failures, started)


def test_criterion_10_figure_reproduction():
    started = time.perf_counter()
    failures = []
    big = render_ascii(s_support(6, 3, 4))
    if big.count("#") != 126:
        failures.append(("cells", big.count("#")))
    if sum(line.startswith("slice ") for line in big.splitlines()) != 4:
        failures.append(("slices",))
    from quiverdias.families import n_support

    triangle = render_ascii(n_support(6))
    if triangle.count("#") != 21:
        failures.append(("triangle", triangle.count("#")))
    for m, i, n in [(4, 4, 6), (6, 1, 4), (8, 4, 7)]:
        try:
            render_ascii(s_support(m, i, n))
            render_svg(s_support(m, i, n))
        except Exception as exc:  # pragma: no cover - failure reporting only
            failures.append((m, i, n, repr(exc)))
    report("10 (figure reproduction)", failures, started)
