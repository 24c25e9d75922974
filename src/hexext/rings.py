"""Coefficient rings for exact module arithmetic: the integers and integers mod m."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RingSpec:
    """The base ring ``Z`` or ``Z/m`` (modulus m >= 2).

    Every module, matrix and morphism in this package carries one of these.
    Elements of ``Z/m`` are always stored as canonical representatives in
    ``range(m)``.
    """

    kind: str  # "Z" | "Zmod"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == "Z":
            if self.modulus is not None:
                raise ValueError("ring Z carries no modulus")
        elif self.kind == "Zmod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zmod"

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.kind == "Zmod" else x

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
