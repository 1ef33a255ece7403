"""Tests for the generic name registry (:mod:`repro.registry`).

The scheme, trace-adapter, rule, scenario, workload, trace-operator and
replacement-policy registries are all instances of this one class, so
the lifecycle is tested here once: duplicate rejection, the canonical
unknown-name error, listing order, and the lazy builtin import with its
reentrancy guard and retry after failure.
"""

import pytest

from repro import registry as registry_mod
from repro.registry import Registry


@pytest.fixture
def fake_import(monkeypatch):
    """Route the registry's builtin imports through a scripted callback.

    Returns a dict: set ``"hook"`` to a ``module -> None`` callable; every
    imported module name is appended to ``"calls"``.
    """
    state = {"calls": [], "hook": lambda module: None}

    def import_module(module):
        state["calls"].append(module)
        state["hook"](module)

    monkeypatch.setattr(registry_mod, "import_module", import_module)
    return state


class TestRegistration:
    def test_register_returns_entry_and_looks_up(self):
        reg = Registry("thing", "tests.things")
        assert reg.register("a", 1) == 1
        assert reg.lookup("a") == 1
        assert reg["a"] == 1
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1

    def test_duplicate_rejected(self):
        reg = Registry("thing", "tests.things")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="thing 'a' is already registered"):
            reg.register("a", 2)
        assert reg.lookup("a") == 1

    def test_overwrite_replaces(self):
        reg = Registry("thing", "tests.things")
        reg.register("a", 1)
        reg.register("a", 2, overwrite=True)
        assert reg.lookup("a") == 2
        assert reg.names() == ("a",)


class TestUnknownName:
    def test_canonical_error_text(self):
        reg = Registry("thing", "tests.things")
        reg.register("a", 1)
        reg.register("b", 2)
        with pytest.raises(ValueError) as err:
            reg.lookup("zz")
        assert str(err.value) == (
            "unknown thing 'zz'; registered things (tests.things): a, b"
        )

    def test_plural_of_y_kind(self):
        reg = Registry("policy", "tests.policies")
        assert "registered policies (tests.policies): (none)" in str(
            reg.unknown("x")
        )

    def test_unhashable_name_gets_the_canonical_error(self):
        reg = Registry("thing", "tests.things")
        with pytest.raises(ValueError, match="unknown thing \\[\\]"):
            reg.lookup([])

    def test_mapping_access_keeps_dict_semantics(self):
        reg = Registry("thing", "tests.things")
        with pytest.raises(KeyError):
            reg["zz"]
        assert reg.get("zz") is None


class TestOrdering:
    def test_registration_order_by_default(self):
        reg = Registry("thing", "tests.things")
        for name in ("c", "a", "b"):
            reg.register(name, name)
        assert reg.names() == ("c", "a", "b")
        assert list(reg.items()) == [("c", "c"), ("a", "a"), ("b", "b")]

    def test_sort_key_is_stable(self):
        reg = Registry("thing", "tests.things", order=lambda item: item[1])
        reg.register("late", 2)
        reg.register("first", 1)
        reg.register("tie", 2)
        assert reg.names() == ("first", "late", "tie")
        assert list(reg) == ["first", "late", "tie"]


class TestBuiltins:
    def test_not_imported_until_queried(self, fake_import):
        reg = Registry("thing", "tests.things", builtins=("pkg.a",))
        reg.register("user", 0)
        assert fake_import["calls"] == []

    def test_imported_once(self, fake_import):
        reg = Registry("thing", "tests.things", builtins=("pkg.a", "pkg.b"))
        fake_import["hook"] = lambda module: reg.register(module, module)
        assert reg.names() == ("pkg.a", "pkg.b")
        reg.lookup("pkg.a")
        assert "pkg.b" in reg
        assert len(reg) == 2
        assert fake_import["calls"] == ["pkg.a", "pkg.b"]

    def test_query_during_builtin_import_does_not_recurse(self, fake_import):
        reg = Registry("thing", "tests.things", builtins=("pkg.a", "pkg.b"))
        seen = []

        def hook(module):
            # A builtin module querying its own registry mid-import sees
            # the partial registry instead of re-entering the import.
            seen.append(reg.names())
            reg.register(module, module)

        fake_import["hook"] = hook
        assert reg.names() == ("pkg.a", "pkg.b")
        assert seen == [(), ("pkg.a",)]
        assert fake_import["calls"] == ["pkg.a", "pkg.b"]

    def test_failed_import_is_retried_on_next_query(self, fake_import):
        reg = Registry("thing", "tests.things", builtins=("pkg.a",))
        failures = [ImportError("broken builtin")]

        def hook(module):
            if failures:
                raise failures.pop()
            reg.register(module, module)

        fake_import["hook"] = hook
        with pytest.raises(ImportError, match="broken builtin"):
            reg.names()
        assert reg.names() == ("pkg.a",)
        assert fake_import["calls"] == ["pkg.a", "pkg.a"]
