"""Canonical text form of supports.

A support document is JSON with two fields: "axes", a list of
{"len": L, "polarity": "plain"|"op"}, and "points", a list of 1-based
integer tuples.  Emission is canonical (fixed key order, sorted points,
two-space indent, trailing newline), so parse -> emit is the identity on
canonical documents and canonicalizes everything else.
"""

from __future__ import annotations

import json

from .supports import OP, PLAIN, Axis, Shape, Support, make_support


def support_to_doc(support: Support) -> dict:
    return {
        "axes": [{"len": ax.length, "polarity": ax.polarity} for ax in support.shape.axes],
        "points": [list(p) for p in support.points],
    }


def support_from_doc(doc: object) -> Support:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for key in ("axes", "points"):
        if key not in doc:
            raise ValueError(f"missing field '{key}'")
    extra = set(doc) - {"axes", "points"}
    if extra:
        raise ValueError(f"unknown field(s): {', '.join(sorted(extra))}")
    axes_doc = doc["axes"]
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ValueError("field 'axes' must be a nonempty list")
    axes = []
    for k, ax in enumerate(axes_doc):
        if not isinstance(ax, dict) or set(ax) != {"len", "polarity"}:
            raise ValueError(f"field 'axes[{k}]' must be an object with 'len' and 'polarity'")
        length = ax["len"]
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise ValueError(f"field 'axes[{k}].len' must be a positive integer")
        if ax["polarity"] not in (PLAIN, OP):
            raise ValueError(f"field 'axes[{k}].polarity' must be '{PLAIN}' or '{OP}'")
        axes.append(Axis(length, ax["polarity"]))
    shape = Shape(tuple(axes))
    pts_doc = doc["points"]
    if not isinstance(pts_doc, list):
        raise ValueError("field 'points' must be a list")
    points = []
    for k, p in enumerate(pts_doc):
        if not isinstance(p, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in p
        ):
            raise ValueError(f"field 'points[{k}]' must be a list of integers")
        points.append(tuple(p))
    try:
        return make_support(shape, points)
    except ValueError as exc:
        raise ValueError(f"field 'points': {exc}") from exc


def dumps_support(support: Support) -> str:
    return json.dumps(support_to_doc(support), indent=2) + "\n"


def loads_support(text: str) -> Support:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return support_from_doc(doc)

