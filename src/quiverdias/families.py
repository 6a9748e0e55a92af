"""Concrete support families and the four identity verifiers.

s_support(m, i, n) is the support of the bimodule realizing insertion of an
n-slot at position i among m inputs; n_support(n) is the triangle computing
the Nakayama equivalence.  The verifiers below contract and reverse these
families and compare the outcomes against independently coded clause sets,
reporting witness points on any disagreement.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .reports import Report, compare_supports
from .supports import (
    OP,
    PREDECESSOR,
    SUCCESSOR,
    Axis,
    Shape,
    Support,
    contract,
    fiber_reversal,
    permute_axes,
)

# bytes of one stacked array of a chunk of a verifier group, from which
# each group body sizes its chunks: their scratch stays a few MiB at any (m, n, p)
STACK_BYTES = 1 << 18

# a predicate takes one coordinate per axis, as ints or as broadcasting integer
# arrays, so clauses are written with & | and np.where, not and / or / if
Predicate = Callable[..., bool]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _from_predicate(shape: Shape, *clauses: Predicate) -> Support:
    """The box points satisfying any of the clauses, each evaluated once on
    the 1-based coordinate grids of the box.  Clauses that broadcast arrays
    of shape (k, 1, ..., 1) against the grids give k sets, stacked along a
    new leading plain axis."""
    grids = [g + 1 for g in np.indices(shape.lengths, sparse=True)]
    mask = functools.reduce(np.logical_or, (member(*grids) for member in clauses))
    if mask.ndim > shape.arity:
        shape = Shape(tuple(map(Axis, mask.shape[: mask.ndim - shape.arity])) + shape.axes)
    return Support(shape, np.broadcast_to(mask, shape.lengths))


@functools.cache
def triple_shape(m: int, n: int) -> Shape:
    """The shape [(m+n-1)-op, m, n] carrying the slot-insertion families;
    one object per (m, n), shared by every support built on it."""
    return Shape((Axis(m + n - 1, OP), Axis(m), Axis(n)))


def _slot_stack(m: int, slots, n: int) -> Support:
    """s_support(m, i, n) for each slot i of slots, stacked along a new
    leading plain axis, from one evaluation: each op fiber is [1, top], with
    top mu below slot i, i+nu-1 on the slot and mu+n-1 above it."""
    require_slots(any_slot, m, n, slots)
    _require(n >= 1, f"need n >= 1, got n={n}")
    i = np.reshape(slots, (-1, 1, 1))
    mu, nu = np.arange(1, m + 1).reshape(-1, 1), np.arange(1, n + 1)
    top = np.where(mu < i, mu, np.where(mu == i, i + nu - 1, mu + n - 1))
    mask = np.arange(1, m + n).reshape(-1, 1, 1) <= top[:, np.newaxis]
    return Support(Shape((Axis(len(mask)),) + triple_shape(m, n).axes), mask)


def s_support(m: int, i: int, n: int) -> Support:
    """Slot-insertion support on [(m+n-1)-op, m, n]: _slot_stack at the one
    slot i, a new object on each call; the oracle keeps one per triple."""
    return _member(_slot_stack(m, [i], n), 0)


def s_support_alt_clauses(m: int, i: int, n: int) -> list[Predicate]:
    """The four clauses of the equivalent description, split by g-range."""
    return [
        lambda g, mu, nu: (g <= i) & (g <= mu),
        lambda g, mu, nu: (i + 1 <= g) & (g <= i + n - 1) & (g <= i + nu - 1) & (i <= mu),
        lambda g, mu, nu: (i + 1 <= g) & (g <= i + n - 1) & (i + nu <= g) & (i + 1 <= mu),
        lambda g, mu, nu: (i + n <= g) & (g - n + 1 <= mu),
    ]


def s_support_alt(m: int, i: int, n: int) -> Support:
    """Same set as s_support, built from the alternative clause system."""
    require_slots(any_slot, m, n, i)
    _require(n >= 1, f"need n >= 1, got n={n}")
    return _from_predicate(triple_shape(m, n), *s_support_alt_clauses(m, i, n))


def n_support(n: int) -> Support:
    """The Nakayama triangle {(a, b) : a >= b} on [n-op, n]."""
    _require(n >= 1, f"need n >= 1, got n={n}")
    shape = Shape((Axis(n, OP), Axis(n)))
    return _from_predicate(shape, lambda a, b: a >= b)


def regular_support(m: int) -> Support:
    """The regular bimodule support {(g, mu) : g <= mu} on [m-op, m]."""
    _require(m >= 1, f"need m >= 1, got m={m}")
    shape = Shape((Axis(m, OP), Axis(m)))
    return _from_predicate(shape, lambda g, mu: g <= mu)


def interval_support(n: int, kind: str, j: int) -> Support:
    """Projective [j, n], injective [1, j] or simple {j} support on a plain line."""
    _require(1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}")
    if kind == "projective":
        lo, hi = j, n
    elif kind == "injective":
        lo, hi = 1, j
    elif kind == "simple":
        lo, hi = j, j
    else:
        raise ValueError(f"kind must be projective, injective or simple, got {kind!r}")
    mask = np.zeros(n, dtype=bool)
    mask[lo - 1 : hi] = True
    return Support(Shape((Axis(n),)), mask)


def quad_shape(m: int, n: int, p: int) -> Shape:
    return Shape((Axis(m + n + p - 2, OP), Axis(m), Axis(n), Axis(p)))


# The two ways to compose twice, each stated once as the domain of its slot
# pairs (i, j), and the two single-slot domains, for ints or broadcasting
# integer arrays like the clauses.
def parallel(m, n, i, j):
    """Slots i < j of one m-operation."""
    return (1 <= i) & (i < j) & (j <= m)


def nested(m, n, i, j):
    """Slot j of the n-operation inserted at slot i of an m-operation."""
    return (1 <= i) & (i <= m) & (1 <= j) & (j <= n)


def parallel_or_nested(m, n, i, j):
    """The pairs of the Dias axioms: each selects the parallel, the nested or both."""
    return parallel(m, n, i, j) | nested(m, n, i, j)


def any_slot(m, n, i):
    """Slot i of an m-operation."""
    return (1 <= i) & (i <= m)


def inner_slot(m, n, i):
    """A slot with one before it: the inner identities relate slots i - 1 and i."""
    return (2 <= i) & (i <= m)


parallel.outside = "are not a parallel pair (1 <= i < j <= m)"
nested.outside = "are not a nested pair (1 <= i <= m, 1 <= j <= n)"
parallel_or_nested.outside = "are neither a parallel pair (i < j <= m) nor a nested pair (j <= n)"
any_slot.outside = "is not a slot (1 <= i <= m)"
inner_slot.outside = "is not an inner slot (2 <= i <= m)"


def require_slots(rule, m: int, n: int, *slots) -> None:
    """Refuse the first slot i, or slot pair i, j, of ints or arrays outside
    the rule, named as ints."""
    slots = np.broadcast_arrays(*slots)
    admitted = rule(m, n, *slots)
    if not admitted.all():
        k = int(np.argmin(admitted))
        named = ", ".join(f"{name}={a.flat[k]}" for name, a in zip("ij", slots))
        noun = "slots" if len(slots) > 1 else "slot"
        raise ValueError(f"{noun} {named} {rule.outside} for m={m}, n={n}")


def commutativity_clauses(m: int, n: int, p: int, i: int, j: int) -> list[Predicate]:
    """The five mu-disjoint clauses predicted for parallel composition."""
    return [
        lambda g, mu, nu, pi: (mu <= i - 1) & (g <= mu),
        lambda g, mu, nu, pi: (mu == i) & (g <= i + nu - 1),
        lambda g, mu, nu, pi: (i + 1 <= mu) & (mu <= j - 1) & (g <= mu + n - 1),
        lambda g, mu, nu, pi: (mu == j) & (g <= j + n + pi - 2),
        lambda g, mu, nu, pi: (j + 1 <= mu) & (g <= mu + n + p - 2),
    ]


def reference_commutativity_set(m: int, n: int, p: int, i, j) -> Support:
    """Expected support of both parallel compositions, on axes (g, mu, nu, pi);
    for index arrays i and j, one such set per pair along a leading axis."""
    require_slots(parallel, m, n, i, j)
    _require(n >= 1 and p >= 1, f"need n, p >= 1, got n={n}, p={p}")
    i, j = (np.reshape(x, np.shape(x) + (1,) * 4) for x in (i, j))
    return _from_predicate(quad_shape(m, n, p), *commutativity_clauses(m, n, p, i, j))


def associativity_clauses(m: int, n: int, p: int, i: int, j: int) -> list[Predicate]:
    return [
        lambda g, mu, nu, pi: (mu <= i - 1) & (g <= mu),
        lambda g, mu, nu, pi: (mu == i) & (nu <= j - 1) & (g <= i + nu - 1),
        lambda g, mu, nu, pi: (mu == i) & (nu == j) & (g <= i + j + pi - 2),
        lambda g, mu, nu, pi: (mu == i) & (j + 1 <= nu) & (g <= i + nu + p - 2),
        lambda g, mu, nu, pi: (i + 1 <= mu) & (g <= mu + n + p - 2),
    ]


def reference_associativity_set(m: int, n: int, p: int, i, j) -> Support:
    """Expected support of both nested compositions, on axes (g, mu, nu, pi);
    for index arrays i and j, one such set per pair along a leading axis."""
    require_slots(nested, m, n, i, j)
    _require(p >= 1, f"need p >= 1, got p={p}")
    i, j = (np.reshape(x, np.shape(x) + (1,) * 4) for x in (i, j))
    return _from_predicate(quad_shape(m, n, p), *associativity_clauses(m, n, p, i, j))


def _composite(top: tuple, a1: int, bottom: tuple, perm: Sequence[int]) -> Support:
    """For each k, contract(s_support(m1, i1[k], n1), a1, s_support(m2,
    i2[k], n2), 0) permuted by perm, stacked along a new leading plain axis,
    where top = (m1, i1, n1) and bottom = (m2, i2, n2) hold slot arrays.

    The distinct slots of each side are stacked along a leading plain axis,
    and one contract of the two stacks is the stack of all their
    contractions; each pair gathers its member from it.
    """
    stacks, members = [], []
    for m, slots, n in (top, bottom):
        distinct = sorted(set(slots.tolist()))
        stacks.append(_slot_stack(m, distinct, n))
        members.append(np.searchsorted(distinct, slots))
    both = contract(stacks[0], a1 + 1, stacks[1], 1)
    # three axes of the top stack remain, so the bottom's leading axis is axis 3
    axes = both.shape.axes
    pairs = Shape((Axis(len(members[0])),) + axes[1:3] + axes[4:])
    gathered = Support(pairs, both.mask[members[0], :, :, members[1]])
    return permute_axes(gathered, [0] + [q + 1 for q in perm])


def _member(stack: Support, k: int) -> Support:
    """Member k of a stack along a leading plain axis."""
    return Support(Shape(stack.shape.axes[1:]), stack.mask[k])


def _stack_reports(verifier: str, chunk: Sequence[dict], left, right, checks) -> list[Report]:
    """One report per parameter dict of chunk, from stacks along a leading
    axis over it: the sizes of the members of left and right, and the
    witnesses of each (check, a, b) of checks.  Only a member where some
    check differs builds witnesses."""
    def per_member(op, mask):
        return op(mask, axis=tuple(range(1, mask.ndim)))

    differ = np.ones(len(chunk), dtype=bool)
    if all(a.shape == b.shape for _, a, b in checks):
        differ = functools.reduce(
            np.logical_or, (per_member(np.any, a.mask != b.mask) for _, a, b in checks)
        )
    sizes = zip(*(per_member(np.count_nonzero, s.mask).tolist() for s in (left, right)))
    reports = []
    for x, (d, (left_size, right_size)) in enumerate(zip(chunk, sizes)):
        witnesses = []
        if differ[x]:
            witnesses = [
                w
                for check, a, b in checks
                for w in compare_supports(check, _member(a, x), _member(b, x))
            ]
        reports.append(Report(verifier, d, left_size, right_size, witnesses))
    return reports


def _pair_reports(verifier: str, reference, sides, params: Sequence[dict]) -> list[Report]:
    """One report per parameter dict of one (m, n, p), from stacks of
    sides(m, n, p, i, j) and reference(m, n, p, i, j).  Pairs run in chunks
    whose bool stacks hold at most STACK_BYTES, bounding the scratch of a
    large (m, n, p)."""
    if not params:
        return []
    m, n, p = params[0]["m"], params[0]["n"], params[0]["p"]
    step = max(1, STACK_BYTES // math.prod(quad_shape(m, n, p).lengths))
    reports = []
    for chunk in (params[k : k + step] for k in range(0, len(params), step)):
        i, j = np.array([(d["i"], d["j"]) for d in chunk]).T
        ref = reference(m, n, p, i, j)  # validates the pairs
        left, right = sides(m, n, p, i, j)
        checks = [
            ("left_vs_right", left, right),
            ("left_vs_reference", left, ref),
            ("right_vs_reference", right, ref),
        ]
        reports += _stack_reports(verifier, chunk, left, right, checks)
    return reports


def commutativity_group(params: Sequence[dict]) -> list[Report]:
    """Contract the two parallel-composition pairs and compare everything,
    for the slot pairs (i, j) of one (m, n, p), with one contract per side.

    Both contractions are permuted to the canonical axis order
    (g, mu, nu, pi) and compared to each other and to the reference clause
    set; the permutations are certified by that agreement.
    """
    def sides(m, n, p, i, j):
        return (
            _composite((m + p - 1, i, n), 1, (m, j, p), (0, 2, 1, 3)),
            _composite((m + n - 1, j + n - 1, p), 1, (m, i, n), (0, 2, 3, 1)),
        )

    return _pair_reports("commutativity", reference_commutativity_set, sides, params)


def verify_commutativity(m: int, n: int, p: int, i: int, j: int) -> Report:
    """commutativity_group on the one slot pair (i, j)."""
    return commutativity_group([{"m": m, "n": n, "p": p, "i": i, "j": j}])[0]


def associativity_group(params: Sequence[dict]) -> list[Report]:
    """Contract the two nested-composition pairs and compare everything,
    for the slot pairs (i, j) of one (m, n, p), with one contract per side.
    The right side's top factor sits at slot t = i + j - 1."""
    def sides(m, n, p, i, j):
        return (
            _composite((m, i, n + p - 1), 2, (n, j, p), (0, 1, 2, 3)),
            _composite((m + n - 1, i + j - 1, p), 1, (m, i, n), (0, 2, 3, 1)),
        )

    return _pair_reports("associativity", reference_associativity_set, sides, params)


def verify_associativity(m: int, n: int, p: int, i: int, j: int) -> Report:
    """associativity_group on the one slot pair (i, j)."""
    return associativity_group([{"m": m, "n": n, "p": p, "i": i, "j": j}])[0]


def border_reversal_reference(m: int, n: int) -> Support:
    """Displayed form of the op-axis reversal of s_support(m, 1, n)."""
    return _from_predicate(
        triple_shape(m, n),
        lambda g, mu, nu: ((mu == 1) & (g >= nu)) | (g >= mu + n - 1),
    )


def border_intermediate_reference(m: int, n: int) -> Support:
    """Displayed reversal of s_support(n, n, m) along its length-m axis.

    Coordinates are the template axes (g, a, b) with a in [1, n] and
    b in [1, m].
    """
    return _from_predicate(
        triple_shape(n, m),
        lambda g, a, b: ((b == 1) & (g <= a)) | ((a == n) & (g >= n + b - 1)),
    )


def verify_border(m: int, n: int) -> Report:
    """Check the boundary compatibility of reversal with contraction slots.

    Left: the op-axis successor reversal of s_support(m, 1, n).  Right: the
    length-m then length-n predecessor reversals of s_support(n, n, m),
    flipped back onto the left shape.  Both displayed intermediate clause
    sets are checked as well.  When m = n the two plain axes are told apart
    by template position: axis 2 carries length m, axis 1 length n.
    """
    _require(m >= 1 and n >= 1, f"need m, n >= 1, got m={m}, n={n}")
    left = fiber_reversal(s_support(m, 1, n), 0, SUCCESSOR)
    mid = fiber_reversal(s_support(n, n, m), 2, PREDECESSOR)
    right = permute_axes(fiber_reversal(mid, 1, PREDECESSOR), (0, 2, 1))
    witnesses = (
        compare_supports("left_vs_displayed", left, border_reversal_reference(m, n))
        + compare_supports(
            "intermediate_vs_displayed", mid, border_intermediate_reference(m, n)
        )
        + compare_supports("right_vs_left", right, left)
    )
    params = {"m": m, "n": n}
    return Report("border", params, left.size, right.size, witnesses)


def inner_reversal_reference(m: int, n: int, i) -> Support:
    """Displayed form of the op-axis reversal of s_support(m, i, n); for an
    index array i, one such set per slot along a leading axis."""
    i = np.reshape(i, np.shape(i) + (1,) * 3)

    def member(g, mu, nu):
        return np.where(mu <= i - 1, g >= mu, np.where(mu == i, g >= i + nu - 1, g >= mu + n - 1))

    return _from_predicate(triple_shape(m, n), member)


def inner_shift_reference(m: int, n: int, i) -> Support:
    """Displayed length-m reversal of s_support(m, i-1, n); for an index
    array i, one such set per slot along a leading axis."""
    i = np.reshape(i, np.shape(i) + (1,) * 3)

    def member(g, mu, nu):
        return (
            ((g <= i - 1) & (g >= mu))
            | ((i <= g) & (g <= i + n - 2) & (g <= i + nu - 2) & (mu <= i - 1))
            | ((i <= g) & (g <= i + n - 2) & (g >= i + nu - 1) & (mu <= i))
            | ((g >= i + n - 1) & (mu <= g - n + 1))
        )

    return _from_predicate(triple_shape(m, n), member)


def inner_group(params: Sequence[dict]) -> list[Report]:
    """Check the inner compatibility for the slots i of one (m, n): op-axis
    reversal at slot i equals the length-m reversal at slot i-1, with both
    displayed sets matched.  Slots run in chunks whose bool stacks hold at
    most STACK_BYTES; a chunk stacks its slot supports along a leading plain
    axis and reverses each stack once."""
    if not params:
        return []
    m, n = params[0]["m"], params[0]["n"]
    slots = [d["i"] for d in params]
    require_slots(inner_slot, m, n, slots)
    _require(n >= 1, f"need n >= 1, got n={n}")
    step = max(1, STACK_BYTES // math.prod(triple_shape(m, n).lengths))
    reports = []
    for k in range(0, len(params), step):
        i = slots[k : k + step]
        left = fiber_reversal(_slot_stack(m, i, n), 1, SUCCESSOR)
        right = fiber_reversal(_slot_stack(m, [s - 1 for s in i], n), 2, PREDECESSOR)
        checks = [
            ("left_vs_displayed", left, inner_reversal_reference(m, n, i)),
            ("right_vs_displayed", right, inner_shift_reference(m, n, i)),
            ("right_vs_left", right, left),
        ]
        reports += _stack_reports("inner", params[k : k + step], left, right, checks)
    return reports


def verify_inner(m: int, n: int, i: int) -> Report:
    """inner_group on the one slot i."""
    return inner_group([{"m": m, "n": n, "i": i}])[0]
