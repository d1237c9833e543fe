"""Literals, clauses, cubes, and a tiny formula AST.

Literals are nonzero ints in the DIMACS convention: variable v > 0 appears
as v (positive) or -v (negated). Clauses and cubes store their literals as
tuples sorted by variable id, so equality, hashing, and subsumption are
syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def var_of(lit: int) -> int:
    return lit if lit > 0 else -lit


def is_positive(lit: int) -> bool:
    return lit > 0


def _canonical(lits: Iterable[int], kind: str) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"bad literal {lit!r}")
        v = var_of(lit)
        if v in seen:
            if seen[v] != lit:
                raise ValueError(f"{kind} mentions variable {v} in both polarities")
            continue  # exact duplicate, drop
        seen[v] = lit
    return tuple(seen[v] for v in sorted(seen))


class Clause:
    """Disjunction of literals; no two literals share a variable."""

    __slots__ = ("lits",)

    def __init__(self, lits: Iterable[int]):
        object.__setattr__(self, "lits", _canonical(lits, "clause"))

    def __setattr__(self, name, value):
        raise AttributeError("Clause is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and self.lits == other.lits

    def __hash__(self) -> int:
        return hash(("clause", self.lits))

    def __repr__(self) -> str:
        return f"Clause({list(self.lits)})"

    def negate(self) -> "Cube":
        return Cube(-l for l in self.lits)


class Cube:
    """Conjunction of literals; no two literals share a variable."""

    __slots__ = ("lits",)

    def __init__(self, lits: Iterable[int]):
        object.__setattr__(self, "lits", _canonical(lits, "cube"))

    def __setattr__(self, name, value):
        raise AttributeError("Cube is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cube) and self.lits == other.lits

    def __hash__(self) -> int:
        return hash(("cube", self.lits))

    def __repr__(self) -> str:
        return f"Cube({list(self.lits)})"

    def negate(self) -> Clause:
        return Clause(-l for l in self.lits)

    def as_assignment(self) -> dict[int, bool]:
        return {var_of(l): is_positive(l) for l in self.lits}

    @classmethod
    def _canonical_tuple(cls, lits: tuple[int, ...]) -> "Cube":
        """The cube of a tuple that is already canonical: nonzero literals
        over distinct variables, sorted by variable, as a model read off in
        variable order or a subsequence of another cube's literals is. The
        tuple is not checked; anything else goes through `Cube(...)`."""
        cube = object.__new__(cls)
        object.__setattr__(cube, "lits", lits)
        return cube


# --- formula AST for Tseitin encoding ---------------------------------------


@dataclass(frozen=True)
class FVar:
    lit: int  # any literal, including negative

    def __post_init__(self):
        if self.lit == 0:
            raise ValueError("literal 0")


@dataclass(frozen=True)
class FNot:
    child: "Formula"


@dataclass(frozen=True)
class FAnd:
    children: tuple["Formula", ...]

    def __init__(self, *children: "Formula"):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class FOr:
    children: tuple["Formula", ...]

    def __init__(self, *children: "Formula"):
        object.__setattr__(self, "children", tuple(children))


Formula = FVar | FNot | FAnd | FOr
