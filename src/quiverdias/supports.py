"""Supports of standard modules over products of oriented interval quivers.

A Shape is an ordered tuple of axes; each axis is the vertex line of the
linear quiver 1 -> 2 -> ... -> L, with ascending arrows ("plain" polarity)
or descending arrows ("op").  A Support is a finite set of lattice points in
the box of a Shape, kept in canonical (lexicographically sorted,
duplicate-free) order.  It stands for the multiplicity-free module whose
spaces are one-dimensional on the support, with identity maps between
adjacent support points, so every operation here is pure set combinatorics.

All values are immutable and all functions are pure; they can be shared and
evaluated in parallel without coordination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

PLAIN = "plain"
OP = "op"

UPWARD = "upward"
DOWNWARD = "downward"
PROJECTIVE = "projective"
INJECTIVE = "injective"

PREDECESSOR = "predecessor"
SUCCESSOR = "successor"

Point = tuple[int, ...]


class ClosureError(ValueError):
    """A fiber-closure precondition does not hold."""


@dataclass(frozen=True)
class Axis:
    """One interval factor: vertices 1..length, arrows ascending unless op."""

    length: int
    polarity: str = PLAIN

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"axis length must be >= 1, got {self.length}")
        if self.polarity not in (PLAIN, OP):
            raise ValueError(f"polarity must be {PLAIN!r} or {OP!r}, got {self.polarity!r}")

    @property
    def step(self) -> int:
        """Coordinate step of one arrow: +1 on plain axes, -1 on op axes."""
        return 1 if self.polarity == PLAIN else -1


@dataclass(frozen=True)
class Shape:
    """An ordered product of axes."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("a shape needs at least one axis")

    @property
    def arity(self) -> int:
        return len(self.axes)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(ax.length for ax in self.axes)

    def iter_points(self) -> Iterator[Point]:
        """All box points in lexicographic order."""
        return itertools.product(*(range(1, ax.length + 1) for ax in self.axes))


@dataclass(frozen=True)
class Support:
    """Canonical point set inside the box of a shape.

    The points tuple is sorted and duplicate-free; two supports are equal
    exactly when their shapes and point lists are equal.  Build through
    make_support unless the input is already canonical.
    """

    shape: Shape
    points: tuple[Point, ...]

    @cached_property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    @property
    def size(self) -> int:
        return len(self.points)

    def __contains__(self, point: Point) -> bool:
        return point in self.point_set


@dataclass(frozen=True)
class SquareViolation:
    """A commutation square that does not commute, along axes axis_a < axis_b.

    For a support (validate_standard), ``base`` is the source corner: it and
    the sink corner two arrow steps away are in the support while exactly
    one of the intermediate corners is.  For an explicit module
    (oracle.check_relations), ``base`` is the corner with the smaller
    coordinate on both axes, and the two matrix composites around the
    square differ.
    """

    base: Point
    axis_a: int
    axis_b: int


def make_support(shape: Shape, points: Iterable[Sequence[int]]) -> Support:
    """Canonicalize a point collection into a Support.

    Rejects points of the wrong arity and points outside the box, naming
    the offending coordinate.
    """
    seen: set[Point] = set()
    for raw in points:
        p = tuple(raw)
        if len(p) != shape.arity:
            raise ValueError(f"point {p} has arity {len(p)}, shape has {shape.arity} axes")
        for k, (c, ax) in enumerate(zip(p, shape.axes)):
            if not 1 <= c <= ax.length:
                raise ValueError(
                    f"point {p}: coordinate {k + 1} = {c} is outside [1, {ax.length}]"
                )
        seen.add(p)
    return Support(shape, tuple(sorted(seen)))


def validate_standard(support: Support) -> list[SquareViolation]:
    """List every commutation square the support breaks.

    Steps are taken in the arrow direction of each axis (+1 on plain axes,
    -1 on op axes).  A square with source corner x and sink corner
    x+e_a+e_b commutes on the indicator module iff, whenever x and the sink
    both carry a line, the two intermediate corners are both present or
    both absent.  An empty result means the indicator module satisfies all
    commutation relations.
    """
    pts = support.point_set
    steps = [ax.step for ax in support.shape.axes]
    k = support.shape.arity
    violations: list[SquareViolation] = []
    for x in support.points:
        for a in range(k):
            xa = _bump(x, a, steps[a])
            for b in range(a + 1, k):
                xab = _bump(xa, b, steps[b])
                if xab not in pts:
                    continue
                xb = _bump(x, b, steps[b])
                if (xa in pts) != (xb in pts):
                    violations.append(SquareViolation(x, a, b))
    return violations


def closure_check(support: Support, axis: int, sense: str) -> bool:
    """True iff every fiber along the axis is closed in the given sense.

    "upward" and "downward" are coordinate senses: a fiber is upward-closed
    when it is of the form [t, L], downward-closed when of the form [1, t]
    (empty fibers are both).  "projective" and "injective" resolve through
    the axis polarity: projective means upward on a plain axis and downward
    on an op axis, injective the other way around.
    """
    ax = _axis_at(support.shape, axis)
    sense = _resolve_sense(ax, sense)
    return _first_unclosed(_fibers_along(support, axis), ax.length, sense) is None


def fiber(support: Support, axis: int, rest: Sequence[int]) -> set[int]:
    """The coordinates j such that rest with j spliced in at axis is in the support."""
    _axis_at(support.shape, axis)
    others = support.shape.axes[:axis] + support.shape.axes[axis + 1 :]
    r = tuple(rest)
    if len(r) != len(others):
        raise ValueError(f"rest {r} has arity {len(r)}, expected {len(others)}")
    for k, (c, ax) in enumerate(zip(r, others)):
        if not 1 <= c <= ax.length:
            raise ValueError(f"rest {r}: coordinate {k + 1} = {c} is outside [1, {ax.length}]")
    return {p[axis] for p in support.points if _drop(p, axis) == r}


def contract(s1: Support, a1: int, s2: Support, a2: int) -> Support:
    """Fiber product of two supports along a shared interval factor.

    Computes the support of the tensor product of the corresponding
    standard modules over the shared factor.  The left support must be
    upward-closed along its plain axis a1 and the right support
    downward-closed along its op axis a2 (the projectivity that makes the
    plain tensor product exact).  The result lives on the concatenation of
    the remaining axes, left block first, and contains (r1, r2) exactly
    when some shared coordinate c has r1+c in s1 and c+r2 in s2.
    """
    ax1 = _axis_at(s1.shape, a1)
    ax2 = _axis_at(s2.shape, a2)
    if ax1.length != ax2.length:
        raise ValueError(
            f"contracted axes disagree in length: {ax1.length} (left axis {a1}) "
            f"vs {ax2.length} (right axis {a2})"
        )
    if ax1.polarity != PLAIN:
        raise ValueError(f"left contraction axis {a1} must be plain, got {ax1.polarity}")
    if ax2.polarity != OP:
        raise ValueError(f"right contraction axis {a2} must be op, got {ax2.polarity}")
    if s1.shape.arity + s2.shape.arity == 2:
        raise ValueError(f"contracting axis {a1} against axis {a2} leaves no axis")
    f1 = _fibers_along(s1, a1)
    f2 = _fibers_along(s2, a2)
    _require_closed(f1, ax1.length, UPWARD, f"left support, axis {a1}")
    _require_closed(f2, ax2.length, DOWNWARD, f"right support, axis {a2}")
    new_shape = Shape(_drop_axis(s1.shape, a1) + _drop_axis(s2.shape, a2))
    pts = [
        r1 + r2
        for r1, g1 in f1.items()
        for r2, g2 in f2.items()
        if g1 & g2
    ]
    return Support(new_shape, tuple(sorted(pts)))


def fiber_reversal(support: Support, axis: int, mode: str) -> Support:
    """Flip every fiber threshold along the axis.

    predecessor mode needs upward-closed fibers and sends a nonempty
    [t, L] to [1, t]; successor mode needs downward-closed fibers and sends
    a nonempty [1, t] to [t, L].  The image of a nonempty fiber always
    meets the original fiber (they share the threshold t).  Empty fibers
    stay empty: they carry no basis vectors, so the tensor fiber they
    compute is zero.
    """
    ax = _axis_at(support.shape, axis)
    if mode not in (PREDECESSOR, SUCCESSOR):
        raise ValueError(f"mode must be {PREDECESSOR!r} or {SUCCESSOR!r}, got {mode!r}")
    top = ax.length
    fibers = _fibers_along(support, axis)
    _require_closed(fibers, top, UPWARD if mode == PREDECESSOR else DOWNWARD, f"axis {axis}")
    out: list[Point] = []
    for rest, vals in fibers.items():
        rng = range(1, min(vals) + 1) if mode == PREDECESSOR else range(max(vals), top + 1)
        out.extend(rest[:axis] + (v,) + rest[axis:] for v in rng)
    return Support(support.shape, tuple(sorted(out)))


def permute_axes(support: Support, perm: Sequence[int]) -> Support:
    """Reorder axes; position k of the result takes source axis perm[k]."""
    p = tuple(perm)
    if sorted(p) != list(range(support.shape.arity)):
        raise ValueError(f"{p} is not a permutation of 0..{support.shape.arity - 1}")
    new_shape = Shape(tuple(support.shape.axes[q] for q in p))
    pts = sorted(tuple(pt[q] for q in p) for pt in support.points)
    return Support(new_shape, tuple(pts))


def _axis_at(shape: Shape, axis: int) -> Axis:
    if not 0 <= axis < shape.arity:
        raise ValueError(f"axis index {axis} out of range for {shape.arity} axes")
    return shape.axes[axis]


def _resolve_sense(ax: Axis, sense: str) -> str:
    if sense in (UPWARD, DOWNWARD):
        return sense
    if sense == PROJECTIVE:
        return UPWARD if ax.polarity == PLAIN else DOWNWARD
    if sense == INJECTIVE:
        return DOWNWARD if ax.polarity == PLAIN else UPWARD
    raise ValueError(
        f"sense must be one of {UPWARD!r}, {DOWNWARD!r}, {PROJECTIVE!r}, {INJECTIVE!r}, got {sense!r}"
    )


def _first_unclosed(fibers: dict[Point, set[int]], top: int, sense: str) -> Point | None:
    """The first fiber that is not [t, top] (upward) or [1, t] (downward), if any."""
    if sense == UPWARD:
        bad = (rest for rest, vals in fibers.items() if len(vals) != top - min(vals) + 1)
    else:
        bad = (rest for rest, vals in fibers.items() if len(vals) != max(vals))
    return next(bad, None)


def _require_closed(fibers: dict[Point, set[int]], top: int, sense: str, where: str) -> None:
    rest = _first_unclosed(fibers, top, sense)
    if rest is not None:
        raise ClosureError(
            f"{where}: fiber at {rest} is not {sense}-closed: {sorted(fibers[rest])}"
        )


def _fibers_along(support: Support, axis: int) -> dict[Point, set[int]]:
    fibers: dict[Point, set[int]] = {}
    for p in support.points:
        fibers.setdefault(_drop(p, axis), set()).add(p[axis])
    return fibers


def _drop(t: Point, i: int) -> Point:
    return t[:i] + t[i + 1 :]


def _bump(t: Point, i: int, d: int) -> Point:
    return t[:i] + (t[i] + d,) + t[i + 1 :]


def _drop_axis(shape: Shape, i: int) -> tuple[Axis, ...]:
    return shape.axes[:i] + shape.axes[i + 1 :]
