"""Supports of standard modules over products of oriented interval quivers.

A Shape is an ordered tuple of axes; each axis is the vertex line of the
linear quiver 1 -> 2 -> ... -> L, with ascending arrows ("plain" polarity)
or descending arrows ("op").  A Support is a set of lattice points in the
box of a Shape, held as a read-only boolean array over the box.  It stands
for the multiplicity-free module whose spaces are one-dimensional on the
support, with identity maps between adjacent support points, so every
operation here is whole-array boolean combinatorics.

All values are immutable and all functions are pure; they can be shared and
evaluated in parallel without coordination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Support:
    """Point set inside the box of a shape: the read-only bool mask, a copy of
    the one given, has mask[c1 - 1, ..., ck - 1] set when (c1, ..., ck) is in
    it.  The mask is all a support keeps: points (sorted) and point_set are
    read from it on each use, size and the hash once each.  Build from a
    point collection through make_support."""

    shape: Shape
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != self.shape.lengths:
            raise ValueError(f"mask of shape {mask.shape} does not fit the box {self.shape.lengths}")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(tuple, (np.argwhere(self.mask) + 1).tolist()))

    @property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    @cached_property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, point: Point) -> bool:
        box = self.mask.shape
        inside = len(point) == len(box) and all(0 < c <= n for c, n in zip(point, box))
        return inside and bool(self.mask[tuple(c - 1 for c in point)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Support):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.mask, other.mask)

    @cached_property
    def _hash(self) -> int:
        return hash((self.shape, self.mask.tobytes()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # shape and mask only: the hash depends on the process's hash seed
        return Support, (self.shape, self.mask)


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
    pts: list[Point] = []
    for raw in points:
        p = tuple(raw)
        if len(p) != shape.arity:
            raise ValueError(f"point {p} has arity {len(p)}, shape has {shape.arity} axes")
        for k, (c, ax) in enumerate(zip(p, shape.axes)):
            if not 1 <= c <= ax.length:
                raise ValueError(
                    f"point {p}: coordinate {k + 1} = {c} is outside [1, {ax.length}]"
                )
        pts.append(p)
    mask = np.zeros(shape.lengths, dtype=bool)
    if pts:
        mask[tuple(np.array(pts).T - 1)] = True
    return Support(shape, mask)


def validate_standard(support: Support) -> list[SquareViolation]:
    """List every commutation square the support breaks.

    Steps are taken in the arrow direction of each axis (+1 on plain axes,
    -1 on op axes).  A square with source corner x and sink corner
    x+e_a+e_b commutes on the indicator module iff, whenever x and the sink
    both carry a line, the two intermediate corners are both present or
    both absent.  An empty result means the indicator module satisfies all
    commutation relations; violations come sorted by (base, axis_a, axis_b).
    """
    axes = support.shape.axes
    # op axes read backwards, so that every arrow steps one index up
    mask = support.mask[tuple(slice(None, None, ax.step) for ax in axes)]
    violations: list[SquareViolation] = []
    for a, b in itertools.combinations(range(mask.ndim), 2):
        def corner(da: int, db: int) -> np.ndarray:
            idx = [slice(None)] * mask.ndim
            idx[a] = slice(da, mask.shape[a] - 1 + da)
            idx[b] = slice(db, mask.shape[b] - 1 + db)
            return mask[tuple(idx)]

        broken = corner(0, 0) & corner(1, 1) & (corner(1, 0) ^ corner(0, 1))
        if broken.any():
            hits = np.argwhere(broken)
            op = [ax.polarity == OP for ax in axes]
            bases = np.where(op, np.subtract(support.shape.lengths, hits), hits + 1)
            violations += [SquareViolation(tuple(base), a, b) for base in bases.tolist()]
    violations.sort(key=lambda v: (v.base, v.axis_a, v.axis_b))
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
    return _first_unclosed(_fiber_matrix(support.mask, axis), sense) is None


def fiber(support: Support, axis: int, rest: Sequence[int]) -> set[int]:
    """The coordinates j such that rest with j spliced in at axis is in the support."""
    _axis_at(support.shape, axis)
    others = _drop_axis(support.shape, axis)
    r = tuple(rest)
    if len(r) != len(others):
        raise ValueError(f"rest {r} has arity {len(r)}, expected {len(others)}")
    for k, (c, ax) in enumerate(zip(r, others)):
        if not 1 <= c <= ax.length:
            raise ValueError(f"rest {r}: coordinate {k + 1} = {c} is outside [1, {ax.length}]")
    line = np.moveaxis(support.mask, axis, -1)[tuple(c - 1 for c in r)]
    return set((np.flatnonzero(line) + 1).tolist())


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
    f1 = _fiber_matrix(s1.mask, a1)
    f2 = _fiber_matrix(s2.mask, a2)
    _require_closed(f1, s1.shape, a1, UPWARD, f"left support, axis {a1}")
    _require_closed(f2, s2.shape, a2, DOWNWARD, f"right support, axis {a2}")
    new_shape = Shape(_drop_axis(s1.shape, a1) + _drop_axis(s2.shape, a2))
    # closed fibers are [L - c1 + 1, L] and [1, c2]: they share a level
    # exactly when c1 + c2 > L (sizes counted in the least dtype that holds L)
    dtype = np.min_scalar_type(ax1.length)
    sizes1, sizes2 = (f.sum(axis=1, dtype=dtype) for f in (f1, f2))
    hits = np.greater.outer(sizes1, ax1.length - sizes2)
    return Support(new_shape, hits.reshape(new_shape.lengths))


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
    fibers = _fiber_matrix(support.mask, axis)
    sense = UPWARD if mode == PREDECESSOR else DOWNWARD
    _require_closed(fibers, support.shape, axis, sense, f"axis {axis}")
    # [t, L] -> [1, t]: c <= t exactly when c - 1 is outside the fiber, and a
    # nonempty fiber holds L; successor mode is the same read backwards
    step = 1 if mode == PREDECESSOR else -1
    fibers = fibers[:, ::step]
    out = np.ones_like(fibers)
    out[:, 1:] = ~fibers[:, :-1]
    out &= fibers[:, -1:]
    lengths = support.shape.lengths
    out = out[:, ::step].reshape(lengths[:axis] + lengths[axis + 1 :] + (ax.length,))
    return Support(support.shape, np.moveaxis(out, -1, axis))


def permute_axes(support: Support, perm: Sequence[int]) -> Support:
    """Reorder axes; position k of the result takes source axis perm[k]."""
    p = tuple(perm)
    if sorted(p) != list(range(support.shape.arity)):
        raise ValueError(f"{p} is not a permutation of 0..{support.shape.arity - 1}")
    new_shape = Shape(tuple(support.shape.axes[q] for q in p))
    return Support(new_shape, support.mask.transpose(p))


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


def _fiber_matrix(mask: np.ndarray, axis: int) -> np.ndarray:
    """The mask as an (R, L) matrix, a row per fiber along the axis, rows in lexicographic order."""
    order = tuple(k for k in range(mask.ndim) if k != axis) + (axis,)
    return mask.transpose(order).reshape(-1, mask.shape[axis])


def _first_unclosed(fibers: np.ndarray, sense: str) -> int | None:
    """Row of the first fiber that is not [t, L] (upward) or [1, t] (downward),
    if any: an upward-closed row never drops from set to unset."""
    lo, hi = fibers[:, :-1], fibers[:, 1:]
    broken = lo > hi if sense == UPWARD else lo < hi
    if not broken.any():
        return None
    return int(broken.any(axis=1).argmax())


def _require_closed(fibers: np.ndarray, shape: Shape, axis: int, sense: str, where: str) -> None:
    row = _first_unclosed(fibers, sense)
    if row is not None:
        rest = np.unravel_index(row, shape.lengths[:axis] + shape.lengths[axis + 1 :])
        at = tuple(int(c) + 1 for c in rest)
        vals = (np.flatnonzero(fibers[row]) + 1).tolist()
        raise ClosureError(f"{where}: fiber at {at} is not {sense}-closed: {vals}")


def _drop_axis(shape: Shape, i: int) -> tuple[Axis, ...]:
    return shape.axes[:i] + shape.axes[i + 1 :]
