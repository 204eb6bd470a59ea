"""Large-deviation machinery for finite-state continuous-time Markov chains.

The package computes the nonlinear semigroup V(t)f = log E[e^f(X(t))], its
generator (the Hamiltonian), the dual Lagrangian cost of measure-valued
trajectories, conditional and path-space rate functions, Doob-transform
optimal trajectories and bridges, and verifies the identities tying them
together by independent computation and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryBridgeWarning,
    DegenerateModel,
    InfeasibleBridge,
    InfeasibleSpeed,
    InsufficientSampling,
    InvalidParameter,
    InvalidRate,
    InvalidTime,
    MalformedModel,
    NumericalFailure,
    ToolkitError,
)
from .markov import (
    Generator,
    Measure,
    Potential,
    StateSpace,
    StochasticMatrix,
    evolve_law,
    relative_entropy,
    resolvent_matrix,
    transition_matrix,
    validate_generator,
)
from .hamiltonian import (
    apply_hamiltonian,
    barrel_radius,
    nonlinear_resolvent,
    pre_lagrangian,
    resolvent_iterate,
    tilted_generator,
    v_apply,
)
from .lagrangian import (
    LagrangianResult,
    SolverOptions,
    Speed,
    dual_check,
    lagrangian_value,
    speed,
)
from .rates import (
    ActionResult,
    ConditionalRateResult,
    JointRateResult,
    Partition,
    PathGrid,
    conditional_rate,
    joint_rate,
    partition_rate,
    path_action,
)
from .trajectory import (
    BridgeResult,
    DoobFlow,
    doob_flow,
    doob_forward,
    entropy_identity_check,
    optimal_bridge,
    zero_cost_path,
)
from .montecarlo import (
    BallEvent,
    DecayEstimate,
    ball_infimum_rate,
    empirical_trajectory,
    estimate_event_decay,
)

# the classes and functions, not the submodules the imports bind
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and callable(obj))
