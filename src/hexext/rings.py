"""Coefficient rings for exact module arithmetic: the integers and integers mod m."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from weakref import WeakValueDictionary


class RingSpec:
    """The base ring ``Z`` or ``Z/m`` (modulus m >= 2).

    Every module, matrix and morphism in this package carries one of these.
    Elements of ``Z/m`` are always stored as canonical representatives in
    ``range(m)``.

    The constructor interns: while a ring is alive, building it again returns
    the same object, and ``copy``, ``deepcopy`` and ``pickle`` go back through
    the constructor, so every ring is its interned object and equality is
    identity.  Only a few rings are ever built, so assignment is refused at
    run time.
    """

    __slots__ = ("kind", "modulus", "__weakref__")
    _interned: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, kind: str, modulus: int | None = None) -> "RingSpec":
        if kind == "Z":
            if modulus is not None:
                raise ValueError("ring Z carries no modulus")
        elif kind == "Zmod":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        key = (kind, modulus)
        ring = cls._interned.get(key)
        if ring is None:
            ring = object.__new__(cls)
            object.__setattr__(ring, "kind", kind)
            object.__setattr__(ring, "modulus", modulus)
            cls._interned[key] = ring
        return ring

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RingSpec, (self.kind, self.modulus)

    def __repr__(self) -> str:
        return f"RingSpec(kind={self.kind!r}, modulus={self.modulus!r})"

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zmod"

    def __str__(self) -> str:
        return "Z" if self.kind == "Z" else f"Z/{self.modulus}"


ZZ = RingSpec("Z")


def Zmod(m: int) -> RingSpec:
    return RingSpec("Zmod", m)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)`` and ``g >= 0``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; moduli here are tiny."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
