"""Horizon sweep: per-stage compile time and per-call costs for N in {2, 4, 10, 20, 40}.

    python3 perfbench/sweep.py            # prints a markdown table

Per horizon N (m = 6N constraint rows) it traces one compile (build_problem,
then identity-layer init and PALM with budgets equal to the identity-layer
nonzeros, i.e. an exact factorization), a 50-sample closed loop of the
single-layer network from the default x0, and, where the enumeration oracle
runs (m <= 24), a few oracle solves at x0.  Times are from one pass, so they
carry the machine's run-to-run noise (see README).
"""

from __future__ import annotations

import sys

import run  # pins the BLAS threads before numpy loads

HORIZONS = (2, 4, 10, 20, 40)
ORACLE_SOLVES = {2: 20, 4: 2}


def main() -> int:
    if not run.use_source_tree():
        return 2
    import numpy as np

    import neural_mpc.factorizer as factorizer
    import neural_mpc.harness as harness
    import neural_mpc.qp_oracle as qp_oracle
    from tracer import Tracer
    from workloads import compile_networks, paper_config

    compile_networks(paper_config())  # warm-up: first calls load and initialise scipy/numpy paths
    print("| N | m | zoh ms | dare ms | condense ms | build_network ms | PALM ms | PALM sweeps "
          "| settle us/call | us/Euler step | oracle ms/solve |")
    print("|" + "---|" * 11)
    for horizon in HORIZONS:
        config = paper_config(horizon=horizon, variants=("single_layer",), duration=1.0)
        _, _, data = harness.build_problem(config)  # only to size the budgets
        omega0, psi0 = factorizer.identity_layer_init(data.gamma, data.u_dual_map)
        budgets = ((int(np.count_nonzero(omega0)), int(np.count_nonzero(psi0))),)

        compile_trace = Tracer()
        with compile_trace.installed():
            compiled = compile_networks(config, budgets=budgets)
        loop_trace = Tracer()
        with loop_trace.installed():
            harness.run_experiment(config)
        oracle_ms = "–"
        if compiled["qp"].m <= 24:
            oracle_trace = Tracer()
            with oracle_trace.installed():
                for _ in range(ORACLE_SOLVES[horizon]):
                    qp_oracle.solve_active_set_enumeration(compiled["qp"], config.x0)
            oracle_ms = f"{1e3 * oracle_trace.durations('qp_oracle.solve').mean():.3g}"

        stage = compile_trace.self_times()
        settle = loop_trace.durations("network.settle")
        steps = loop_trace.counts["network.euler_steps"]
        cells = [
            horizon, compiled["qp"].m,
            *(f"{1e3 * stage.get(n, 0.0):.3g}" for n in (
                "plant.zoh", "plant.dare", "condenser.condense", "condenser.build_network",
                "factorizer.palm")),
            compile_trace.palm_sweeps,
            f"{1e6 * settle.mean():.3g}",
            f"{1e6 * settle.sum() / steps:.3g}",
            oracle_ms,
        ]
        print("| " + " | ".join(str(c) for c in cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
