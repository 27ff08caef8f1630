import numpy as np
import pytest

import neural_mpc as nm


class TestExtractGraph:
    def test_identity_has_no_edges(self):
        g = nm.extract_graph(np.eye(5))
        assert g.edges == []
        assert g.node_count == 5

    def test_single_edge_direction(self):
        # w[0, 1] = 2: column 1 feeds row 0
        g = nm.extract_graph(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert g.edges == [(1, 0, 2.0)]

    def test_benchmark_count_matches_brute_force(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        g = nm.extract_graph(data.gamma)
        count = sum(
            1
            for i in range(12)
            for j in range(12)
            if i != j and abs(data.gamma[i, j]) > 1e-5
        )
        assert len(g.edges) == count

    def test_threshold_monotonicity(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        sizes = [
            len(nm.extract_graph(data.gamma, threshold=t).edges)
            for t in (0.0, 1e-5, 1e-3, 1e-1, 10.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_strict_inequality_at_threshold(self):
        w = np.array([[0.0, 1e-5], [0.0, 0.0]])
        assert nm.extract_graph(w, threshold=1e-5).edges == []

    def test_absolute_value_comparison(self):
        w = np.array([[0.0, -3.0], [0.0, 0.0]])
        assert nm.extract_graph(w).edges == [(1, 0, -3.0)]

    def test_matches_former_implementation(self):
        def former(w, threshold, labels):
            n = w.shape[0]
            mask = (np.abs(w) > threshold) & ~np.eye(n, dtype=bool)
            rows, cols = np.nonzero(mask)
            edges = sorted((int(j), int(i), float(w[i, j])) for i, j in zip(rows, cols))
            return nm.NetworkGraph(node_count=n, edges=edges, node_labels=list(labels or []))

        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 30):
            for threshold in (0.0, 0.25, 1.0):
                w = rng.normal(size=(n, n))
                w[rng.random((n, n)) < 0.3] = 0.0
                # entries exactly at the threshold (excluded: the test is strict)
                at = rng.random((n, n)) < 0.2
                w[at] = threshold * rng.choice([-1.0, 1.0], size=int(at.sum()))
                np.fill_diagonal(w, 5.0)
                labels = [f"u{i}" for i in range(n)] if n % 2 else None
                got = nm.extract_graph(w, threshold=threshold, labels=labels)
                want = former(w, threshold, labels)
                assert got == want
                assert all(type(v) is t for e in got.edges for v, t in zip(e, (int, int, float)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nm.extract_graph(np.zeros((2, 3)))


class TestDegreeDistributions:
    def test_empty_graph_mass_at_zero(self):
        g = nm.extract_graph(np.zeros((4, 4)))
        in_hist, out_hist = nm.degree_distributions(g)
        assert in_hist[0] == 4 and out_hist[0] == 4

    def test_complete_digraph(self):
        w = np.ones((3, 3))
        g = nm.extract_graph(w)
        in_hist, out_hist = nm.degree_distributions(g)
        assert in_hist[2] == 3 and out_hist[2] == 3

    def test_handshake_identity(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        for w in (data.gamma, data.gamma + 0.5 * np.eye(12), np.triu(data.gamma)):
            g = nm.extract_graph(w)
            in_hist, out_hist = nm.degree_distributions(g)
            edges = len(g.edges)
            assert sum(k * c for k, c in enumerate(in_hist)) == edges
            assert sum(k * c for k, c in enumerate(out_hist)) == edges


class TestExport:
    def test_empty_graph_json(self):
        g = nm.extract_graph(np.zeros((2, 2)))
        doc = nm.export_graph(g, "json").decode()
        assert '"edges": []' in doc

    def test_dot_contains_arrow(self):
        g = nm.extract_graph(np.array([[0.0, 2.0], [0.0, 0.0]]))
        dot = nm.export_graph(g, "dot").decode()
        assert "1 -> 0" in dot
        assert dot.startswith("digraph")

    def test_round_trip(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        g = nm.extract_graph(data.gamma, labels=data.node_labels)
        back = nm.import_graph(nm.export_graph(g, "json"))
        assert back.node_count == g.node_count
        assert back.node_labels == g.node_labels
        assert back.edges == sorted(g.edges)

    def test_deterministic_bytes(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        g1 = nm.extract_graph(data.gamma)
        g2 = nm.extract_graph(data.gamma.copy())
        for fmt in ("json", "dot"):
            assert nm.export_graph(g1, fmt) == nm.export_graph(g2, fmt)

    def test_unknown_format_rejected(self):
        g = nm.extract_graph(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            nm.export_graph(g, "xml")
