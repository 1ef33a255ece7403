"""The simlint rule registry: invariant checks by code.

Rule classes live in a :class:`~repro.registry.Registry` keyed by code,
populated with the built-ins on the first query, with a
``register_rule`` decorator for third-party rules.  Adding a rule is one
class plus one call::

    from repro.devtools.simlint import Rule, Violation, register_rule

    @register_rule
    class NoTodoRule(Rule):
        code = "SL900"
        title = "no TODO comments in sim code"
        explanation = "Why the invariant matters, shown by --explain."

        def check(self, ctx):
            ...yield Violation(...)

after which ``repro lint`` runs it and ``--explain SL900`` documents it.
"""

from __future__ import annotations

from repro.devtools.simlint.engine import Rule
from repro.registry import Registry

__all__ = [
    "register_rule",
    "get_rule",
    "rule_codes",
    "rule_descriptions",
    "all_rules",
    "unknown_rule_error",
]

#: Registered rule classes, listed by code.  The built-ins load on the
#: first query so that merely importing :mod:`repro.devtools.simlint`
#: stays cheap and so external rule packages can register before or
#: after the built-ins load.
_RULES: Registry[type[Rule]] = Registry(
    "rule",
    __name__,
    builtins=("repro.devtools.simlint.rules",),
    order=lambda item: item[0],
)


def register_rule(cls: type[Rule], *, overwrite: bool = False) -> type[Rule]:
    """Register a :class:`Rule` subclass under its declared ``code``.

    Usable as a decorator.  Duplicate codes are rejected (pass
    ``overwrite=True`` to deliberately replace an entry).

    Returns:
        ``cls``, unchanged.
    """
    if not isinstance(cls, type) or not issubclass(cls, Rule):
        raise TypeError(f"register_rule expects a Rule subclass, got {cls!r}")
    code = cls.code
    if not code or not isinstance(code, str):
        raise ValueError(f"{cls.__name__}: rule code must be a non-empty string")
    if not cls.title or not isinstance(cls.title, str):
        raise ValueError(f"{cls.__name__}: rule title must be a non-empty string")
    return _RULES.register(code, cls, overwrite=overwrite)


def unknown_rule_error(code: object) -> ValueError:
    """The canonical unknown-rule error, naming the registry source."""
    return _RULES.unknown(code)


def get_rule(code: str) -> type[Rule]:
    """The registered rule class for ``code``.

    Raises:
        ValueError: Naming the registry and listing every registered
            rule — the error an unknown ``--explain`` argument surfaces.
    """
    return _RULES.lookup(code)


def rule_codes() -> tuple[str, ...]:
    """Every registered rule code, sorted."""
    return _RULES.names()


def rule_descriptions() -> dict[str, str]:
    """Every registered rule with its one-line title."""
    return {code: cls.title for code, cls in _RULES.items()}


def all_rules() -> tuple[Rule, ...]:
    """One instance of every registered rule, in code order."""
    return tuple(cls() for cls in _RULES.values())
