"""The scheme registry: allocation schemes by name.

This is the single source of truth for which schemes exist.  Everything
that used to hardcode the paper's three names — scenario validation,
``ExperimentSystem`` construction, the CLI — resolves through here, and
:data:`repro.experiments.system.SCHEMES` (the paper's comparison trio
the default figure grids iterate) is *derived* from the registry's
``paper_baseline`` flags rather than spelled out.

Adding a competitor scheme is therefore one class plus one call::

    from repro.schemes import Scheme, register_scheme

    @register_scheme
    class NoopScheme(Scheme):
        name = "noop"
        description = "Does nothing (an example)."

        def start(self):
            pass

after which ``ScenarioSpec(scheme="noop")``, ``--list-schemes``, and
campaign sweeps over ``scheme`` all pick it up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.registry import Registry
from repro.schemes.base import Scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import ExperimentSystem

__all__ = [
    "register_scheme",
    "get_scheme",
    "scheme_names",
    "paper_schemes",
    "scheme_descriptions",
    "build_scheme",
]

#: Registered scheme classes, listed by ``registry_order`` so the paper
#: trio lists first.  The builtins self-register when imported on the
#: first query: they import :mod:`repro.schemes.base` and
#: ``repro.config`` imports them, so a load-time import would be circular.
_SCHEMES: Registry[type[Scheme]] = Registry(
    "scheme",
    __name__,
    builtins=(
        "repro.baselines.wb",
        "repro.baselines.sib",
        "repro.core.lbica",
        "repro.schemes.partition",
        "repro.schemes.dynshare",
        "repro.schemes.slosteal",
    ),
    order=lambda item: item[1].registry_order,
)


def register_scheme(
    cls: type[Scheme], *, overwrite: bool = False
) -> type[Scheme]:
    """Register a :class:`Scheme` subclass under its declared ``name``.

    Usable as a decorator.  Duplicate names are rejected (pass
    ``overwrite=True`` to deliberately replace an entry); a scheme that
    declares a ``config_field`` must name a real
    :class:`~repro.config.SystemConfig` attribute — checked lazily at
    build time, because the config module itself imports scheme configs.

    Returns:
        ``cls``, unchanged.
    """
    if not isinstance(cls, type) or not issubclass(cls, Scheme):
        raise TypeError(f"register_scheme expects a Scheme subclass, got {cls!r}")
    name = cls.name
    if not name or not isinstance(name, str):
        raise ValueError(f"{cls.__name__}: scheme name must be a non-empty string")
    return _SCHEMES.register(name, cls, overwrite=overwrite)


def unknown_scheme_error(name: object) -> ValueError:
    """The canonical unknown-scheme error, naming the registry source."""
    return _SCHEMES.unknown(name)


def get_scheme(name: str) -> type[Scheme]:
    """The registered scheme class for ``name``.

    Raises:
        ValueError: Naming the registry and listing every registered
            scheme — the error an unknown ``ScenarioSpec.scheme`` or CLI
            argument surfaces.
    """
    return _SCHEMES.lookup(name)


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name (``registry_order``, then arrival)."""
    return _SCHEMES.names()


def paper_schemes() -> tuple[str, ...]:
    """The paper's comparison baselines (``paper_baseline=True``)."""
    return tuple(name for name, cls in _SCHEMES.items() if cls.paper_baseline)


def scheme_descriptions() -> dict[str, str]:
    """Every registered scheme with its one-line description."""
    return {name: cls.describe() for name, cls in _SCHEMES.items()}


def build_scheme(name: str, system: "ExperimentSystem") -> Scheme:
    """Construct (and attach) the named scheme against a wired system."""
    return get_scheme(name).from_system(system)
