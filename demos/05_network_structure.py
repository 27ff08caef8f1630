#!/usr/bin/env python3
"""Extract and compare the wiring of the controller networks.

An edge is present when the corresponding weight exceeds 1e-5 in magnitude
(self-loops excluded; column feeds row).  The single-layer network is densely
wired; the factorized hidden layer concentrates incoming connections; pruning
removes the weak state-row couplings entirely.  Degree distributions summarize
these differences, and graphs export deterministically to JSON or DOT.
"""

import neural_mpc as nm


def describe(name, graph):
    in_hist, out_hist = nm.degree_distributions(graph)
    print(f"  {name:14s}: {len(graph.src):3d} edges, "
          f"{in_hist[0]:2d} nodes with no incoming edge, "
          f"in-degree histogram {list(in_hist)}")


config = nm.ExperimentConfig.cart_pole_default()
problem, qp, data = nm.build_problem(config)

theta = nm.stack_target(data.gamma, data.u_dual_map)
omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
prob = nm.FactorizationProblem(theta=theta, s_omega=144, s_psi=144)
omega, psi, _ = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
omega1, _ = nm.split_factors(omega, qp.upsilon_rows)
pert = nm.prune_edges(data.gamma, 0.01, 1e-4)

print("network structures (presence threshold 1e-5):")
describe("gamma", nm.extract_graph(data.gamma, labels=data.node_labels))
describe("omega1", nm.extract_graph(omega1))
describe("psi", nm.extract_graph(psi))
describe("gamma pruned", nm.extract_graph(data.gamma + pert.delta, labels=data.node_labels))

graph = nm.extract_graph(data.gamma, labels=data.node_labels)
dot = nm.export_graph(graph, "dot").decode()
print("\nDOT export preview:")
print("\n".join(dot.splitlines()[:6]) + "\n  ...")

payload = nm.export_graph(graph, "json")
back = nm.import_graph(payload)
print(f"\nJSON round trip: {len(payload)} bytes, "
      f"{'exact' if back == graph else 'MISMATCH'}")

in_hist, out_hist = nm.degree_distributions(graph)
edges = len(graph.src)
print(f"handshake identity: sum(k * in[k]) = {sum(k * c for k, c in enumerate(in_hist))} "
      f"= sum(k * out[k]) = {sum(k * c for k, c in enumerate(out_hist))} = {edges} edges")
