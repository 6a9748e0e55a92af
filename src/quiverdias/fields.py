"""The oracle's choice of exact scalar field, validated without loading the
oracle: a sweep checks --field and --prime up front, and its support and
class suites never build a field."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

RATIONAL = "rational"
PRIME = "prime"
# exclusive bound on the prime modulus: primality is decided by trial
# division, which is instant below it and would hang on a large prime
MAX_PRIME = 2**31


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Choice of exact scalar field for the oracle."""

    kind: str = PRIME
    q: int = 32003

    def __post_init__(self) -> None:
        if self.kind not in (PRIME, RATIONAL):
            raise ValueError(f"kind must be {PRIME!r} or {RATIONAL!r}, got {self.kind!r}")
        if self.kind == PRIME:
            if self.q >= MAX_PRIME:
                raise ValueError(f"modulus {self.q} is too large: it must be below 2**31")
            if not is_prime(self.q):
                raise ValueError(f"modulus {self.q} is not prime")

    @cached_property
    def field(self):
        """The field itself, built once per config; linalg loads with the first."""
        from .linalg import PrimeField, RationalField

        return PrimeField(self.q) if self.kind == PRIME else RationalField()
