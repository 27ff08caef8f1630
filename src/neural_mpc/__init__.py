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
    condense,
)
from .factorizer import (
    FactorizationProblem,
    factorization_residual,
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
    settle,
    settle_multilayer,
    step_limits,
)
from .perturber import (
    Perturbation,
    control_deviation_bound,
    prune_edges,
)
from .plant import (
    CartPoleParams,
    DiscretePlant,
    PlantModel,
    cart_pole_model,
    discretize_zoh,
    propagate_linear,
    propagate_nonlinear_cartpole,
    solve_dare,
)
from .qp_oracle import (
    InfeasibleProblem,
    KktCheckError,
    QpSolution,
    solve_qp,
)

__version__ = "0.1.0"
