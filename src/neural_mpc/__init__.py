"""Compile constrained linear MPC problems into firing-rate neural networks.

The toolkit condenses a finite-horizon constrained LQ problem into a dense QP,
turns the dual projected-gradient flow into a rectified firing-rate network,
simulates that network in closed loop with the plant, and generates provably or
approximately equivalent alternatives: multilayer factorizations, pruned
networks with contraction-based deviation bounds, and slack-augmented networks
that stay feasible.  An exact least-distance QP solver (Lawson-Hanson NNLS)
anchors every equivalence claim.
"""

from .analytics import (
    NetworkGraph,
    degree_distributions,
    export_graph,
    extract_graph,
    import_graph,
)
from .condenser import (
    CondensedQp,
    InputConstraint,
    MpcProblem,
    NetworkData,
    SlackMeta,
    StateConstraint,
    augment_slack,
    build_network,
    build_prediction_matrices,
    condense,
)
from .factorizer import (
    FactorizationProblem,
    factorization_residual,
    hard_threshold,
    identity_layer_init,
    palm_factorize,
    split_factors,
    stack_target,
)
from .harness import (
    ClosedLoopDiverged,
    ClosedLoopTrace,
    ExperimentConfig,
    ExperimentResult,
    build_problem,
    cli_main,
    run_experiment,
    write_trace_csv,
)
from .network import (
    FiringRateNetwork,
    MultilayerNetwork,
    extract_control,
    extract_control_multilayer,
    relu,
    settle,
    settle_multilayer,
    step_limits,
    step_multilayer,
    step_single_layer,
)
from .perturber import (
    Perturbation,
    check_contraction,
    control_deviation_bound,
    envelope_violation,
    forcing_term,
    prune_edges,
    redesign_sparse,
)
from .plant import (
    CartPoleParams,
    DiscretePlant,
    PlantModel,
    cart_pole_model,
    cart_pole_rhs,
    dare_residual,
    discretize_zoh,
    lqr_gain,
    propagate_linear,
    propagate_nonlinear_cartpole,
    solve_dare,
)
from .qp_oracle import (
    InfeasibleProblem,
    KktCheckError,
    QpSolution,
    dual_objective,
    primal_from_dual,
    solve_active_set_enumeration,
    solve_projected_gradient,
    solve_qp,
)

__version__ = "0.1.0"
