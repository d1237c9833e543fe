"""Literals, clauses and cubes, and the encoders' auxiliary literals.

Literals are nonzero ints in the DIMACS convention: variable v > 0 appears
as v (positive) or -v (negated). Clauses and cubes store their literals as
tuples sorted by variable id, so equality, hashing, and subsumption are
syntactic.

An encoder defines an auxiliary literal in one way: `and_gate` and
`or_gate` name a conjunction or disjunction of literals, and `totalizer`
counts them, each appending its defining clauses to a list over fresh
variables from a `VarPool` (or a `Solver`, which has the same
`fresh_var`). Nesting the calls builds a formula bottom up, each gate's
variable allocated after its inputs'.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


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


class _Lits:
    """The body a clause and a cube share: an immutable tuple of literals,
    no two of them over one variable. `_tag` names the kind in errors and
    hashes, so a clause and a cube over the same literals differ."""

    __slots__ = ("lits",)
    _tag = ""

    def __init__(self, lits: Iterable[int]):
        object.__setattr__(self, "lits", _canonical(lits, self._tag))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.lits == other.lits

    def __hash__(self) -> int:
        return hash((self._tag, self.lits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.lits)})"

    @classmethod
    def _canonical_tuple(cls, lits: tuple[int, ...]):
        """The clause or cube of a tuple that is already canonical: nonzero
        literals over distinct variables, sorted by variable, as a model
        read off in variable order or a subsequence of another cube's
        literals is. The tuple is not checked; anything else goes through
        the constructor."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "lits", lits)
        return obj


class Clause(_Lits):
    """Disjunction of literals; no two literals share a variable."""

    __slots__ = ()
    _tag = "clause"

    def negate(self) -> "Cube":
        return Cube(-l for l in self.lits)


class Cube(_Lits):
    """Conjunction of literals; no two literals share a variable."""

    __slots__ = ()
    _tag = "cube"

    def negate(self) -> Clause:
        return Clause(-l for l in self.lits)

    def as_assignment(self) -> dict[int, bool]:
        return {var_of(l): is_positive(l) for l in self.lits}


# --- auxiliary variables -----------------------------------------------------


class VarPool:
    """Allocates variable ids for building systems away from any solver."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n

    def fresh_var(self) -> int:
        self.n += 1
        return self.n

    def fresh_vars(self, count: int) -> list[int]:
        return [self.fresh_var() for _ in range(count)]


def and_gate(alloc, lits: Sequence[int], out: list[Clause]) -> int:
    """A literal equivalent to the conjunction of `lits` (Tseitin, 1968),
    its defining clauses appended to `out` over a fresh variable from
    `alloc` (anything with `fresh_var`). One literal passes through; the
    empty conjunction is a fresh variable forced true. For every assignment
    of the literals exactly one extension satisfies the clauses."""
    return _gate(alloc, lits, out, 1)


def or_gate(alloc, lits: Sequence[int], out: list[Clause]) -> int:
    """A literal equivalent to the disjunction of `lits`; the dual of
    `and_gate`, so the empty disjunction is a fresh variable forced
    false."""
    return _gate(alloc, lits, out, -1)


def _gate(alloc, lits: Sequence[int], out: list[Clause], sign: int) -> int:
    """The AND gate (`sign` 1) or the OR gate (-1): a binary clause per
    literal, in order, then the long clause, which a complementary pair
    among the literals makes a tautology and so is left out."""
    if len(lits) == 1:
        return lits[0]
    z = alloc.fresh_var()
    if not lits:
        out.append(Clause([sign * z]))
        return z
    for l in lits:
        out.append(Clause([-sign * z, sign * l]))
    seen = set(lits)
    if not any(-l in seen for l in seen):
        out.append(Clause([sign * z, *(-sign * l for l in lits)]))
    return z


def totalizer(alloc, lits: Sequence[int], out: list[Clause]) -> tuple[int, ...]:
    """Unary counting outputs over `lits` (Bailleux & Boufkhad, CP 2003),
    their clauses appended to `out`: outputs[j-1] is forced true once j of
    the literals are true, and is otherwise free, so assuming the outputs
    from index p on false imposes "at most p". Upward direction only: a
    leaf is a literal; a node splits its literals at ceil(n/2) and sums its
    children's unary outputs a and b into r by the clauses a_i & b_j ->
    r_{i+j}, with a_0 = b_0 = true. Bounds are only ever imposed by
    assuming outputs false, and against a false output only the upward
    clauses prune, so the downward half (r_{i+j+1} -> a_{i+1} | b_{j+1}),
    which would make the outputs functionally determined, is left out (the
    one-polarity argument of Plaisted & Greenbaum, JSC 1986). The clauses
    are total: every assignment of the literals extends to the outputs (all
    true, say). O(n log n) auxiliary variables, where a sequential counter
    takes n(n+1)/2. The literals must be over distinct variables."""

    def node(part: Sequence[int]) -> list[int]:
        if len(part) == 1:
            return [part[0]]
        half = (len(part) + 1) // 2
        a = node(part[:half])
        b = node(part[half:])
        r = [alloc.fresh_var() for _ in range(len(part))]
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                if i + j >= 1:
                    up = [-a[i - 1]] if i else []
                    if j:
                        up.append(-b[j - 1])
                    up.append(r[i + j - 1])
                    out.append(Clause(up))
        return r

    return tuple(node(lits)) if lits else ()
