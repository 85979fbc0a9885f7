"""Declarative scenario layer: the paper's experiments as data.

Three pieces:

* :class:`ScenarioSpec` -- a frozen, JSON-round-trippable description
  of one experiment scenario (a multi-axis
  :class:`~repro.runtime.SweepGrid` plus analysis selection and the
  paper claim it reproduces);
* the named **registry** (``figure3``, ``figure4``, ``churn``,
  ``drop_analysis``, ``catastrophe``, ``massive_join``, ``join_burst``,
  ``newscast``, ``engines_shootout``, ``scalability``,
  ``paper_scale``) -- what each historical hand-rolled benchmark loop
  encoded imperatively;
* :func:`run_scenario` -- the shared executor: expand, shard across
  the parallel runner, fold each outcome as it arrives.

Typical use::

    from repro.scenarios import get_scenario, run_scenario

    result = run_scenario("figure3", workers=4)
    for cell in result.aggregate.cells:
        print(cell.label, cell.cycles.mean)

    # rescaled variants keep the declarative shape:
    spec = get_scenario("figure3").with_grid(engine="vector")
    result = run_scenario(spec.smoke())

The live-stack sibling lives in :mod:`repro.scenarios.chaos`: a
registry of :class:`ChaosScenarioSpec` fault experiments
(``chaos_partition_heal``, ``chaos_flash_crowd``,
``chaos_targeted_kill``) executed deterministically on the virtual
clock by :func:`run_chaos_scenario`.
"""

from .._lazy import lazy_exports

__all__ = [
    "ANALYSIS_KINDS",
    "ChaosRunReport",
    "ChaosScenarioSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "all_chaos_scenarios",
    "all_scenarios",
    "chaos_scenario_names",
    "convergence_rows",
    "get_chaos_scenario",
    "get_scenario",
    "register",
    "register_chaos",
    "render_scenario_report",
    "run_chaos_scenario",
    "run_scenario",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chaos": (
            "ChaosRunReport",
            "ChaosScenarioSpec",
            "all_chaos_scenarios",
            "chaos_scenario_names",
            "get_chaos_scenario",
            "register_chaos",
            "run_chaos_scenario",
        ),
        ".registry": ("all_scenarios", "get_scenario", "register", "scenario_names"),
        ".run": ("ScenarioResult", "convergence_rows", "render_scenario_report", "run_scenario"),
        ".spec": ("ANALYSIS_KINDS", "ScenarioSpec"),
    },
)
