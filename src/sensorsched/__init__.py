"""Observation scheduling for independent linear targets sharing one sensor.

Workflow: describe targets (`LtiTarget`, or `DelayChainSpec` +
`expand_delay_chain`), solve for the probability distribution that
minimizes the worst steady-state estimation cost (`solve_distribution`,
or `solve_distributed` for the per-node protocol), turn it into a
concrete schedule (`schedule` module), and evaluate schedules under
Kalman filtering (`simulate` module). The `sensorsched` command exposes
the same pipeline from the shell.
"""

from .model import (
    DelayChainSpec,
    LtiTarget,
    ScheduleDistribution,
    ValidationReport,
    expand_delay_chain,
    validate_target,
)
from .mare import (
    ConditioningWarning,
    MareResult,
    MareStatus,
    check_covariance,
    closed_form_delay_chain,
    critical_probability,
    g_q,
    solve_mare,
)
from .optimizer import (
    Constraints,
    InfeasibilityWarning,
    PerTargetReport,
    SolveReport,
    solve_distribution,
)
from .distributed import (
    DistributedReport,
    NodeState,
    complete_graph,
    graph_diameter,
    line_graph,
    metropolis_weights,
    ring_graph,
    solve_distributed,
)
from .schedule import (
    BackoffConfig,
    ScheduleSequence,
    build_min_consecutive_schedule,
    max_run_length,
    read_sequence,
    sample_stochastic_schedule,
    simulate_csma_schedule,
    write_sequence,
)
from .simulate import (
    CostReport,
    FilterState,
    MonteCarloReport,
    covariance_step,
    evaluate_schedule,
    kalman_step,
    monte_carlo_expected_cost,
    sliding_window_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "DelayChainSpec",
    "LtiTarget",
    "ScheduleDistribution",
    "ValidationReport",
    "expand_delay_chain",
    "validate_target",
    "ConditioningWarning",
    "MareResult",
    "MareStatus",
    "check_covariance",
    "closed_form_delay_chain",
    "critical_probability",
    "g_q",
    "solve_mare",
    "Constraints",
    "InfeasibilityWarning",
    "PerTargetReport",
    "SolveReport",
    "solve_distribution",
    "DistributedReport",
    "NodeState",
    "complete_graph",
    "graph_diameter",
    "line_graph",
    "metropolis_weights",
    "ring_graph",
    "solve_distributed",
    "BackoffConfig",
    "ScheduleSequence",
    "build_min_consecutive_schedule",
    "max_run_length",
    "read_sequence",
    "sample_stochastic_schedule",
    "simulate_csma_schedule",
    "write_sequence",
    "CostReport",
    "FilterState",
    "MonteCarloReport",
    "covariance_step",
    "evaluate_schedule",
    "kalman_step",
    "monte_carlo_expected_cost",
    "sliding_window_schedule",
    "__version__",
]
