"""One name -> entry registry class behind every lookup by name.

Schemes, trace adapters and operators, replacement policies, simlint
rules, scenarios and workloads are each a :class:`Registry`; the owning
module keeps only its kind's own checks around :meth:`Registry.register`.

>>> colours = Registry("colour", "example.colours")
>>> colours.register("red", 1)
1
>>> colours.register("blue", 2)
2
>>> colours.names(), colours["red"], "green" in colours
(('red', 'blue'), 1, False)
>>> colours.lookup("green")
Traceback (most recent call last):
    ...
ValueError: unknown colour 'green'; registered colours (example.colours): red, blue
>>> colours.register("red", 3)
Traceback (most recent call last):
    ...
ValueError: colour 'red' is already registered; pass overwrite=True to replace
>>> colours.register("red", 3, overwrite=True)
3
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from importlib import import_module
from typing import Any, Generic, Optional, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Mapping[str, T], Generic[T]):
    """Named entries of one kind, queried as a read-only mapping.

    Args:
        kind: What an entry is, for messages (``"trace adapter"``).
        module: The owning module, named in the unknown-name error.
        builtins: Modules whose import registers the built-in entries,
            imported on the first query (not by registration), so they
            may import the registry's owner without a cycle.
        order: Listing sort key over ``(name, entry)`` pairs (stable);
            ``None`` lists in registration order.
        entries: Initial entries.
    """

    def __init__(
        self,
        kind: str,
        module: str,
        *,
        builtins: Sequence[str] = (),
        order: Optional[Callable[[tuple[str, T]], Any]] = None,
        entries: Optional[Mapping[str, T]] = None,
    ) -> None:
        self.kind = kind
        self.module = module
        self._builtins = tuple(builtins)
        self._order = order
        self._entries: dict[str, T] = dict(entries or {})
        self._builtins_state = "unloaded"  # -> "loading" -> "loaded"

    def _ensure_builtins(self) -> None:
        if self._builtins_state != "unloaded":
            # "loading" guards reentrancy (a builtin module querying the
            # registry mid-import); "loaded" is the steady state.
            return
        self._builtins_state = "loading"
        try:
            for module in self._builtins:
                import_module(module)
        except BaseException:
            # A failed builtin import must surface again on the next
            # query, not silently leave a partial registry behind.
            self._builtins_state = "unloaded"
            raise
        self._builtins_state = "loaded"

    def register(self, name: str, entry: T, *, overwrite: bool = False) -> T:
        """Add ``entry`` under ``name``; returns ``entry``.

        Raises:
            ValueError: If ``name`` is taken and ``overwrite`` is false.
        """
        if name in self._entries and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace"
            )
        self._entries[name] = entry
        return entry

    def unknown(self, name: object) -> ValueError:
        """The canonical unknown-name error, naming the owning module."""
        kinds = self.kind[:-1] + "ies" if self.kind.endswith("y") else self.kind + "s"
        return ValueError(
            f"unknown {self.kind} {name!r}; registered {kinds} "
            f"({self.module}): {', '.join(self.names()) or '(none)'}"
        )

    def lookup(self, name: str) -> T:
        """The entry for ``name``.

        Raises:
            ValueError: :meth:`unknown`'s error, also for an unhashable
                ``name`` (a wrong JSON type in a spec).
        """
        self._ensure_builtins()
        try:
            return self._entries[name]
        except (KeyError, TypeError):
            raise self.unknown(name) from None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in listing order."""
        return tuple(self)

    def __getitem__(self, name: str) -> T:
        self._ensure_builtins()
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        self._ensure_builtins()
        if self._order is None:
            return iter(list(self._entries))
        ordered = sorted(self._entries.items(), key=self._order)
        return iter([name for name, _ in ordered])

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._entries)
