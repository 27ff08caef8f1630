#!/usr/bin/env python3
"""Slack-augmented networks keep the controller defined when constraints bite.

State constraints can render the finite-horizon problem infeasible (an
unexpected disturbance, a mismodeled environment).  Adding one nonnegative
slack per state-constraint row, penalized quadratically with weight rho,
guarantees feasibility; the network gains one neuron per slack.  For large rho
the augmented network reproduces the original controller.
"""

import numpy as np

import neural_mpc as nm

config = nm.ExperimentConfig.cart_pole_default()
problem, qp, data = nm.build_problem(config)

sdata, meta = nm.augment_slack(qp, rho=1e4)
print("slack augmentation of the benchmark network:")
print(f"  neurons            : {meta.m} -> {meta.m + meta.m_s} "
      f"({meta.m_s} slack nodes on the state rows)")
print(f"  synaptic matrix    : {sdata.gamma.shape[0]}x{sdata.gamma.shape[1]}, "
      f"block structure [gamma - E E'/rho, -E/rho; -E'/rho, (1 - 1/rho) I]")
print(f"  slack labels       : {meta.slack_labels[:2]} ...")

result = nm.run_experiment(
    nm.ExperimentConfig.cart_pole_default(variants=("oracle", "slack"))
)
dev = result.report["pairwise"]["oracle|slack"]["max_control_deviation"]
print(f"  closed-loop max |du| vs QP solver at rho=1e4: {dev:.2e}")

# ------------------------------------------------------- an infeasible problem
# min 1/2 u^2  s.t.  u <= -1  and  u >= 2: no feasible u exists.
infeasible = nm.CondensedQp(
    h=[[1.0]],
    s=[[0.0]],
    g_mat=[[1.0], [-1.0]],
    t_mat=[[0.0], [0.0]],
    g_vec=[-1.0, -2.0],
    m=2,
    upsilon_rows=1,
    input_row_count=0,  # both rows are relaxable
)
print("\ninfeasible toy problem (u <= -1 and u >= 2):")
try:
    nm.solve_qp(infeasible, np.zeros(1))
except nm.InfeasibleProblem as exc:
    print(f"  QP solver          : {exc}")

for rho in (1.0, 10.0, 100.0):
    slack_net, _ = nm.augment_slack(infeasible, rho=rho)
    net = nm.FiringRateNetwork(data=slack_net, eta=1e-3)
    lam, settled = nm.settle(net, np.zeros(1), tol=1e-10, max_time=2.0)
    u = nm.extract_control(net, lam, np.zeros(1))
    print(f"  slack network rho={rho:5.0f}: u = {u[0]: .4f} "
          f"(settled={settled}, compromise between the two bounds)")
