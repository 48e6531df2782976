"""Exact integer polynomials in one variable k.

Coefficients are Python ints, so arithmetic is exact at any size; the
"overflow" failure mode of fixed-width integers cannot occur.  The zero
polynomial is the empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .errors import InputError


@dataclass(frozen=True)
class IntPolynomial:
    """Coefficients in ascending powers of k, no trailing zeros."""

    coefficients: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = list(self.coefficients)
        if not all(map(isinstance, coeffs, repeat(int))):
            raise InputError("coefficients must be exact integers")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value: int) -> "IntPolynomial":
        return cls((value,))

    @classmethod
    def from_signless(cls, signless: Sequence[int], top_degree: int) -> "IntPolynomial":
        """Rebuild sum_i (-1)^i a_i k^(top_degree - i) from (a_0, ..., a_top)."""
        if len(signless) != top_degree + 1:
            raise InputError("need exactly top_degree + 1 signless coefficients")
        coeffs = [0] * (top_degree + 1)
        for i, a in enumerate(signless):
            coeffs[top_degree - i] = a if i % 2 == 0 else -a
        return cls(tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    def eval(self, k: int) -> int:
        """Exact value at a nonnegative integer point."""
        if not isinstance(k, int) or k < 0:
            raise InputError(f"evaluation point must be an integer >= 0, got {k!r}")
        value = 0
        for c in reversed(self.coefficients):
            value = value * k + c
        return value

    def signless_coefficients(self, top_degree: int) -> tuple[int, ...]:
        """(a_0, ..., a_top) with p = sum_i (-1)^i a_i k^(top_degree - i)."""
        if self.degree > top_degree:
            raise InputError(
                f"degree {self.degree} exceeds requested top degree {top_degree}"
            )
        return tuple(
            self.coefficient(top_degree - i) * (1 if i % 2 == 0 else -1)
            for i in range(top_degree + 1)
        )

    def format(self) -> str:
        """Canonical string in descending powers, e.g. "k^3 - 6k^2 + 11k - 6"."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = str(magnitude)
            else:
                variable = "k" if power == 1 else f"k^{power}"
                body = variable if magnitude == 1 else f"{magnitude}{variable}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()
