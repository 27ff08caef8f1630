#!/usr/bin/env python3
"""Prune weak synapses and bound the resulting control deviation.

Removing all off-diagonal weights below 0.01 in magnitude and subtracting
1e-4 from the diagonal produces a much sparser network that is certified
contracting by the symmetric-part test.  For a contracting perturbed network
the control deviation obeys an explicit bound built from the perturbation,
the recorded unperturbed trajectory, and the contraction rate; the bound is
loose but must never be undershot by reality.
"""

import numpy as np

import neural_mpc as nm

config = nm.ExperimentConfig.cart_pole_default()
problem, qp, data = nm.build_problem(config)

pert = nm.prune_edges(data.gamma, threshold=0.01, diag_shift=1e-4)
print("pruning (threshold 0.01, diagonal shift 1e-4):")
print(f"  nonzeros           : {np.count_nonzero(data.gamma)} -> "
      f"{np.count_nonzero(data.gamma + pert.delta)}")
print(f"  contraction test   : contracting={pert.contracting}, mu={pert.mu:.6f}")
print(f"  perturbation norm  : {np.linalg.norm(pert.delta, 2):.4f}")

# closed loop: nominal network vs pruned network, each driving its own plant
result = nm.run_experiment(
    nm.ExperimentConfig.cart_pole_default(variants=("single_layer", "perturbed"))
)
entry = result.report["perturbation"]
checks = entry["bound_checks"]
measured = np.array([c["measured"] for c in checks])
bounds = np.array([c["bound"] for c in checks])
print(f"\nper-sample deviation-bound check over {len(checks)} samples:")
print(f"  max measured |du|  : {measured.max():.3e}")
print(f"  min bound          : {bounds.min():.3e}")
print(f"  min margin         : {entry['min_margin']:.3e} (sound iff >= 0)")

pair = result.report["pairwise"]["single_layer|perturbed"]
print(f"  trajectory deviation: control {pair['max_control_deviation']:.2e}, "
      f"state {pair['max_state_deviation']:.2e}")
