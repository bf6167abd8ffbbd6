"""Schemas: ordered, named, optionally qualified columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True, slots=True)
class Column:
    """A column: a name plus an optional relation qualifier.

    ``Column("ta", "requests")`` renders as ``requests.ta``.  Matching is
    by name, and by qualifier too when the reference carries one —
    the same resolution rule SQL uses.
    """

    name: str
    qualifier: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def matches(self, name: str, qualifier: Optional[str] = None) -> bool:
        """Does a reference ``qualifier.name`` resolve to this column?"""
        if self.name != name:
            return False
        if qualifier is None:
            return True
        return self.qualifier == qualifier

    def __str__(self) -> str:
        return self.qualified_name


class SchemaError(Exception):
    """Raised for unknown or ambiguous column references."""


class Schema:
    """An ordered list of :class:`Column` with fast reference resolution."""

    __slots__ = ("columns", "_index")

    def __init__(self, columns: Sequence[Column | str]) -> None:
        self.columns: tuple[Column, ...] = tuple(
            c if isinstance(c, Column) else Column(c) for c in columns
        )
        # Built at the first lookup: planning derives many schemas that
        # nothing ever resolves a column against.
        self._index: Optional[dict[str, list[int]]] = None

    def _lookup(self) -> dict[str, list[int]]:
        """name -> positions (for ambiguity detection), plus
        "qualifier.name" -> positions for qualified lookups."""
        index = self._index
        if index is None:
            index = self._index = {}
            for pos, column in enumerate(self.columns):
                index.setdefault(column.name, []).append(pos)
                if column.qualifier:
                    index.setdefault(column.qualified_name, []).append(pos)
        return index

    @classmethod
    def of(cls, *names: str, qualifier: Optional[str] = None) -> "Schema":
        return cls([Column(n, qualifier) for n in names])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def resolve(self, name: str, qualifier: Optional[str] = None) -> int:
        """Return the position of the referenced column.

        Raises :class:`SchemaError` when the reference is unknown or —
        for unqualified references — ambiguous.
        """
        key = f"{qualifier}.{name}" if qualifier else name
        positions = self._lookup().get(key)
        if not positions:
            raise SchemaError(
                f"unknown column {key!r}; available: "
                f"{[c.qualified_name for c in self.columns]}"
            )
        if len(positions) > 1:
            raise SchemaError(
                f"ambiguous column reference {key!r}: matches positions {positions}"
            )
        return positions[0]

    def has(self, name: str, qualifier: Optional[str] = None) -> bool:
        key = f"{qualifier}.{name}" if qualifier else name
        return len(self._lookup().get(key, ())) == 1

    def qualify(self, qualifier: str) -> "Schema":
        """Return a copy with every column re-qualified — the effect of
        ``FROM t AS alias``."""
        return Schema([Column(c.name, qualifier) for c in self.columns])

    def unqualified(self) -> "Schema":
        return Schema([Column(c.name) for c in self.columns])

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join product."""
        return Schema(list(self.columns) + list(other.columns))

    def project(self, positions: Iterable[int]) -> "Schema":
        return Schema([self.columns[p] for p in positions])

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"Schema({[c.qualified_name for c in self.columns]})"
