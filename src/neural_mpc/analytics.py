"""Network structure extraction: edge presence, degree distributions, export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class NetworkGraph:
    """Directed graph extracted from a synaptic matrix.

    Edges are (from, to, weight) with self-loops excluded; every listed edge
    has |weight| above the presence threshold used at extraction.
    """

    node_count: int
    edges: list[tuple[int, int, float]]
    node_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.node_labels:
            self.node_labels = [f"n{i}" for i in range(self.node_count)]
        if len(self.node_labels) != self.node_count:
            raise ValueError("node_labels length must equal node_count")


def extract_graph(
    w: np.ndarray, threshold: float = 1e-5, labels: list[str] | None = None
) -> NetworkGraph:
    """Edges of the network encoded by a square weight matrix.

    Edge (j -> i) is present iff i != j and |w[i, j]| > threshold: column j
    feeds row i, since w @ lam reads column entries as inputs to row units.
    Comparison is strict, on the absolute value.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    n = w.shape[0]
    mask = (np.abs(w) > threshold) & ~np.eye(n, dtype=bool)
    # nonzero on the transpose lists (from, to) pairs already sorted.
    src, dst = np.nonzero(mask.T)
    edges = list(zip(src.tolist(), dst.tolist(), w[dst, src].tolist()))
    return NetworkGraph(node_count=n, edges=edges, node_labels=list(labels or []))


def degree_distributions(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of in-degree and out-degree over all nodes.

    Entry k of each histogram counts nodes of degree k (degree-0 nodes
    included), so sum(k * in_hist[k]) = sum(k * out_hist[k]) = edge count.
    """
    in_deg = np.zeros(graph.node_count, dtype=int)
    out_deg = np.zeros(graph.node_count, dtype=int)
    for src, dst, _ in graph.edges:
        out_deg[src] += 1
        in_deg[dst] += 1
    width = int(max(in_deg.max(initial=0), out_deg.max(initial=0))) + 1
    return (
        np.bincount(in_deg, minlength=width),
        np.bincount(out_deg, minlength=width),
    )


def export_graph(graph: NetworkGraph, format: str = "json") -> bytes:
    """Serialize a graph deterministically (edges sorted by (from, to)).

    JSON schema: {"nodes": [{"id", "label"}], "edges": [{"from", "to",
    "weight"}]}.  DOT output is a plain digraph loadable by standard viewers.
    """
    edges = sorted(graph.edges)
    if format == "json":
        doc = {
            "nodes": [
                {"id": i, "label": graph.node_labels[i]}
                for i in range(graph.node_count)
            ],
            "edges": [
                {"from": src, "to": dst, "weight": w} for src, dst, w in edges
            ],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    if format == "dot":
        lines = ["digraph network {"]
        for i in range(graph.node_count):
            lines.append(f'  {i} [label="{graph.node_labels[i]}"];')
        for src, dst, w in edges:
            lines.append(f'  {src} -> {dst} [label="{w!r}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown export format: {format!r}")


def import_graph(data: bytes) -> NetworkGraph:
    """Inverse of export_graph for the JSON format."""
    doc = json.loads(data.decode())
    nodes = sorted(doc["nodes"], key=lambda n: n["id"])
    return NetworkGraph(
        node_count=len(nodes),
        edges=[(e["from"], e["to"], e["weight"]) for e in doc["edges"]],
        node_labels=[n["label"] for n in nodes],
    )
