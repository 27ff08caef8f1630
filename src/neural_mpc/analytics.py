"""Network structure extraction: edge presence, degree distributions, export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class NetworkGraph:
    """Directed graph extracted from a synaptic matrix.

    Edge k runs from node ``src[k]`` to node ``dst[k]`` with weight
    ``weight[k]``; the three are 1-D arrays of one length, and every endpoint
    lies in [0, node_count).  Extracted graphs exclude self-loops, list their
    edges sorted by (from, to), and keep only weights whose absolute value is
    above the presence threshold used at extraction.  Graphs compare equal
    when their node counts, labels and edge arrays (in order) are equal.
    """

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    node_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.src = _endpoints(self.src, "src", self.node_count)
        self.dst = _endpoints(self.dst, "dst", self.node_count)
        self.weight = np.asarray(self.weight, dtype=float)
        if self.weight.ndim != 1 or not len(self.src) == len(self.dst) == len(self.weight):
            raise ValueError("src, dst and weight must be 1-D arrays of equal length")
        if not self.node_labels:
            self.node_labels = [f"n{i}" for i in range(self.node_count)]
        if len(self.node_labels) != self.node_count:
            raise ValueError("node_labels length must equal node_count")

    def __eq__(self, other):
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.node_labels == other.node_labels
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )


def _endpoints(values, name: str, node_count: int) -> np.ndarray:
    """``values`` as a 1-D index array; ValueError unless each lies in [0, node_count)."""
    idx = np.asarray(values)
    if idx.size == 0:
        idx = idx.astype(np.intp)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= node_count):
        raise ValueError(f"{name} has an endpoint outside [0, {node_count})")
    return idx.astype(np.intp, copy=False)


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
    mask = np.abs(w) > threshold
    np.fill_diagonal(mask, False)
    # nonzero on the transpose lists (from, to) pairs already sorted.
    src, dst = np.nonzero(mask.T)
    return NetworkGraph(n, src, dst, w[dst, src], node_labels=list(labels or []))


def degree_distributions(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of in-degree and out-degree over all nodes.

    Entry k of each histogram counts nodes of degree k (degree-0 nodes
    included), so sum(k * in_hist[k]) = sum(k * out_hist[k]) = edge count.
    """
    in_deg = np.bincount(graph.dst, minlength=graph.node_count)
    out_deg = np.bincount(graph.src, minlength=graph.node_count)
    width = int(max(in_deg.max(initial=0), out_deg.max(initial=0))) + 1
    return (
        np.bincount(in_deg, minlength=width),
        np.bincount(out_deg, minlength=width),
    )


def export_graph(graph: NetworkGraph, format: str = "json") -> bytes:
    """Serialize a graph deterministically (edges sorted by (from, to, weight)).

    JSON schema: {"nodes": [{"id", "label"}], "edges": [{"from", "to",
    "weight"}]}.  DOT output is a plain digraph loadable by standard viewers.
    """
    order = np.lexsort((graph.weight, graph.dst, graph.src))
    edges = zip(
        graph.src[order].tolist(), graph.dst[order].tolist(), graph.weight[order].tolist()
    )
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
    edges = doc["edges"]
    return NetworkGraph(
        node_count=len(nodes),
        src=[e["from"] for e in edges],
        dst=[e["to"] for e in edges],
        weight=[e["weight"] for e in edges],
        node_labels=[n["label"] for n in nodes],
    )
