"""The package exports what the pipeline runs, and the demos use only that.

Internals that only tests call are imported from their submodules (or from
``conftest``); a name added to ``neural_mpc/__init__.py`` must be added here.
"""

import re
import types
from pathlib import Path

import neural_mpc as nm

PUBLIC = (
    "CartPoleParams",
    "ClosedLoopDiverged",
    "ClosedLoopTrace",
    "CondensedQp",
    "DiscretePlant",
    "ExperimentConfig",
    "ExperimentResult",
    "FactorizationProblem",
    "FiringRateNetwork",
    "InfeasibleProblem",
    "InputConstraint",
    "KktCheckError",
    "MpcProblem",
    "MultilayerNetwork",
    "NetworkData",
    "NetworkGraph",
    "Perturbation",
    "PlantModel",
    "QpSolution",
    "SlackMeta",
    "StateConstraint",
    "augment_slack",
    "build_network",
    "build_problem",
    "cart_pole_model",
    "cli_main",
    "condense",
    "control_deviation_bound",
    "degree_distributions",
    "discretize_zoh",
    "export_graph",
    "extract_control",
    "extract_control_multilayer",
    "extract_graph",
    "factorization_residual",
    "identity_layer_init",
    "import_graph",
    "palm_factorize",
    "propagate_linear",
    "propagate_nonlinear_cartpole",
    "prune_edges",
    "run_experiment",
    "settle",
    "settle_multilayer",
    "solve_dare",
    "solve_qp",
    "split_factors",
    "stack_target",
    "step_limits",
    "write_trace_csv",
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_public_names():
    exported = {
        name
        for name, value in vars(nm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 50
    assert exported == set(PUBLIC)


def test_demos_use_only_public_names():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    used = {name for demo in demos for name in re.findall(r"\bnm\.(\w+)", demo.read_text())}
    assert used
    assert used <= set(PUBLIC)
