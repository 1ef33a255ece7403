"""The scenario registry: named, ready-to-run :class:`ScenarioSpec` library.

Registered scenarios are what ``--list-scenarios`` prints, what
``--dump-scenario NAME`` serializes (the template for a new JSON file),
and what the benchmark suite's canonical scenarios are defined as.  New
scenarios normally need **zero code** — drop a JSON file next to
``examples/scenarios/`` instead — but anything reusable enough to name
can be registered here (or by downstream code via
:func:`register_scenario`).
"""

from __future__ import annotations

import copy

from repro.registry import Registry
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_descriptions",
]

#: Registered scenarios by name, listed by name.  Read-only; use
#: :func:`register_scenario` to add entries.
SCENARIOS: Registry[ScenarioSpec] = Registry(
    "scenario", __name__, order=lambda item: item[0]
)


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> str:
    """Register a validated spec under its own name.

    Args:
        spec: The scenario to register (validated first).
        overwrite: Allow replacing an existing entry.

    Returns:
        The registered name.
    """
    spec.validate()
    SCENARIOS.register(spec.name, copy.deepcopy(spec), overwrite=overwrite)
    return spec.name


def get_scenario(name: str) -> ScenarioSpec:
    """A private copy of a registered scenario (mutate freely)."""
    return copy.deepcopy(SCENARIOS.lookup(name))


def scenario_descriptions() -> dict[str, str]:
    """Every registered scenario with its one-line description, sorted."""
    return {
        name: (spec.description or "(no description)")
        for name, spec in SCENARIOS.items()
    }


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
def _register_builtins() -> None:
    builtins = [
        ScenarioSpec(
            name="fig4_single_vm",
            workload="tpcc",
            scheme="lbica",
            description=(
                "The canonical single-VM run: TPC-C under LBICA (the Fig. 4 "
                "configuration speedups are quoted against)."
            ),
        ),
        ScenarioSpec(
            name="consolidated3",
            workload="consolidated3",
            scheme="lbica",
            description=(
                "Three VMs (TPC-C + mail + web) contending for one shared "
                "cache under LBICA."
            ),
        ),
        ScenarioSpec(
            name="bootstorm_neighbors",
            workload="bootstorm_neighbors",
            scheme="lbica",
            description=(
                "A VM boot storm landing beside a steady web server, under "
                "LBICA."
            ),
        ),
        ScenarioSpec(
            name="paper_grid",
            workload="tpcc",
            scheme="lbica",
            description=(
                "The paper's full 3x3 evaluation grid (workload x scheme) "
                "as one sweep spec."
            ),
            sweep_axes={
                "workload": ["tpcc", "mail", "web"],
                "scheme": ["wb", "sib", "lbica"],
            },
        ),
        ScenarioSpec(
            name="consolidated3_partition",
            workload="consolidated3",
            scheme="partition",
            description=(
                "Three VMs with statically partitioned fair shares of the "
                "cache (the noisy-neighbour-proof baseline)."
            ),
        ),
        ScenarioSpec(
            name="consolidated3_dynshare",
            workload="consolidated3",
            scheme="dynshare",
            description=(
                "Three VMs under the efficiency-aware dynamic share "
                "allocator (shares follow observed hit-ratio curves)."
            ),
        ),
        ScenarioSpec(
            name="scheme_matrix",
            workload="consolidated3",
            scheme="lbica",
            description=(
                "Every registered scheme on the consolidated3 scenario "
                "(the scheme-comparison table as one sweep spec)."
            ),
            sweep_axes={
                "scheme": ["wb", "sib", "lbica", "partition", "dynshare"],
            },
        ),
        ScenarioSpec(
            name="churn_consolidated",
            workload={
                "name": "churn_consolidated",
                "tenants": [
                    {
                        "workload": "tpcc",
                        "rate_scale": 0.55,
                        "slo": {
                            "p99_latency_us": 450000.0,
                            "min_hit_ratio": 0.85,
                        },
                    },
                    {
                        "workload": "mail",
                        "rate_scale": 0.75,
                        "arrive_at_us": 150000.0,
                        "slo": {"p99_latency_us": 500000.0},
                    },
                    {
                        "workload": "web",
                        "rate_scale": 0.6,
                        "depart_at_us": 600000.0,
                        "slo": {"min_hit_ratio": 0.5},
                    },
                ],
            },
            scheme="slosteal",
            base="quick",
            horizon_intervals=60,
            description=(
                "Tenant churn under SLOs: a mail VM arrives mid-run, a web "
                "VM departs (cache share reclaimed), and the slosteal "
                "scheme moves quota toward SLO violators."
            ),
        ),
        ScenarioSpec(
            name="mail_fixed_ro",
            workload="mail",
            scheme="wb",
            fixed_policy="RO",
            description=(
                "Mail server with the cache pinned read-only for the whole "
                "run (the ablation study's fixed-policy shape)."
            ),
        ),
    ]
    for spec in builtins:
        register_scenario(spec)


_register_builtins()
