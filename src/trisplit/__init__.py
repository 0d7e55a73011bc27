"""Relaxed three-operator splitting for f1 + f2 + f3 with an envelope merit
function, a theoretical stepsize planner, an adaptive stepsize variant, a
Davis-Yin baseline, and a matrix-completion benchmark."""

from .core import (
    CallableSmoothTerm,
    CompositeProblem,
    DivergenceError,
    InputError,
    NumericalError,
    ProxTerm,
    RealVector,
    SmoothTerm,
    evaluate_objective,
    gradient_check,
    lipschitz_probe,
)
from .proxlib import (
    MaskedQuadraticTerm,
    NonnegDistanceTerm,
    QuadraticTerm,
    ScaledL1Term,
    SeparableMCPTerm,
    SpectralMCPTerm,
    ZeroProxTerm,
    brute_force_prox_1d,
    default_prox_bracket,
    mcp_value,
    soft_threshold,
    prox_scalar_mcp,
)
from .splitting import (
    DescentConstants,
    EnvelopeUndefinedError,
    IterRecord,
    RelaxationParams,
    SplitState,
    StoppingRule,
    composite_residual,
    descent_constants,
    identity_check,
    lagrangian_value,
    make_state,
    run_ryu,
    ryu_envelope_moreau,
    ryu_step,
    state_envelope,
    write_trace_csv,
    write_trace_json,
)
from .stepsize import (
    AdaptiveController,
    PlanInfeasibleError,
    StepsizePlan,
    alpha_lower_bound,
    gamma_bounds,
    optimize_epsilons,
    plan,
)
from .baselines import DysParams, DysState, run_dys
from .bench import (
    CompletionInstance,
    RunReport,
    SummaryRow,
    build_problem,
    default_gamma_dys,
    generate_instance,
    run_benchmark,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
