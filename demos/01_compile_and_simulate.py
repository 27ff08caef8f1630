#!/usr/bin/env python3
"""Compile the cart-pole MPC problem into a firing-rate network and close the loop.

The walk-through below builds the benchmark problem (pendulum on a cart,
horizon 2, box constraints on force, cart position, and pole angle), condenses
it into a dense QP, derives the network weights, and then runs the sampled
closed loop twice: once with the exact QP solver and once with the
firing-rate network settling between samples.  The two controllers should be
numerically indistinguishable.
"""

import numpy as np

import neural_mpc as nm

# ---------------------------------------------------------------- the problem
config = nm.ExperimentConfig.cart_pole_default()
problem, qp, data = nm.build_problem(config)

print("condensed QP:")
print(f"  decision variables : {qp.h.shape[0]} (horizon {config.horizon}, 1 input)")
print(f"  constraint rows    : {qp.m} ({qp.input_row_count} input, "
      f"{qp.m - qp.input_row_count} state)")
print(f"  H condition number : {np.linalg.cond(qp.h):.2f}")

print("\nfiring-rate network:")
print(f"  neurons            : {data.size} (one per constraint row)")
f_mat = np.eye(data.size) - data.gamma
print(f"  dual Hessian eigs  : [{np.min(np.linalg.eigvalsh(f_mat)):.2e}, "
      f"{np.max(np.linalg.eigvalsh(f_mat)):.2e}]")
print(f"  first labels       : {data.node_labels[:2]} ...")

# --------------------------------------------------- one sample, two solvers
x0 = config.x0
sol = nm.solve_qp(qp, x0)
net = nm.FiringRateNetwork(data=data, eta=config.eta)
lam, settled = nm.settle(net, x0, tol=1e-10, max_time=0.2)
u_net = nm.extract_control(net, lam, x0)
print(f"\nat x0 = {x0}:")
print(f"  oracle control     : {sol.u[0]: .6f} (active rows {sol.active})")
print(f"  network control    : {u_net[0]: .6f} (settled={settled})")
print(f"  dual mismatch      : {np.max(np.abs(lam - sol.lam)):.2e}")

# ------------------------------------------------------------ the closed loop
result = nm.run_experiment(
    nm.ExperimentConfig.cart_pole_default(variants=("oracle", "single_layer"))
)
pair = result.report["pairwise"]["oracle|single_layer"]
tr = result.traces["single_layer"]
print(f"\nclosed loop over {result.report['samples']} samples:")
print(f"  max |u_oracle - u_network| : {pair['max_control_deviation']:.2e}")
print(f"  max state deviation        : {pair['max_state_deviation']:.2e}")
print(f"  samples settled            : {int(np.sum(tr.settled))}/{len(tr.settled)}")
print(f"  force range                : [{tr.u.min():.2f}, {tr.u.max():.2f}] "
      f"(bounds [-10, 12])")
print(f"  cart position range        : [{tr.x[:, 0].min():.3f}, {tr.x[:, 0].max():.3f}] "
      f"(bounds [-0.62, 0.62])")
