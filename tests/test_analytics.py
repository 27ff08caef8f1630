import numpy as np
import pytest

import neural_mpc as nm


# The tuple-list implementations that edge arrays replaced, kept as oracles.
def former_extract_graph(w, threshold=1e-5):
    """Edges as a sorted list of (from, to, weight) tuples, one per entry."""
    n = w.shape[0]
    mask = (np.abs(w) > threshold) & ~np.eye(n, dtype=bool)
    rows, cols = np.nonzero(mask)
    return sorted((int(j), int(i), float(w[i, j])) for i, j in zip(rows, cols))


def former_degree_distributions(node_count, edges):
    in_deg = np.zeros(node_count, dtype=int)
    out_deg = np.zeros(node_count, dtype=int)
    for src, dst, _ in edges:
        out_deg[src] += 1
        in_deg[dst] += 1
    width = int(max(in_deg.max(initial=0), out_deg.max(initial=0))) + 1
    return np.bincount(in_deg, minlength=width), np.bincount(out_deg, minlength=width)


def graph_from_edges(node_count, edges, labels=None):
    src, dst, weight = (list(column) for column in zip(*edges)) if edges else ([], [], [])
    return nm.NetworkGraph(node_count, src, dst, weight, node_labels=list(labels or []))


def random_matrix(rng, n, threshold):
    w = rng.normal(size=(n, n))
    w[rng.random((n, n)) < 0.3] = 0.0
    # entries exactly at the threshold (excluded: the test is strict)
    at = rng.random((n, n)) < 0.2
    w[at] = threshold * rng.choice([-1.0, 1.0], size=int(at.sum()))
    np.fill_diagonal(w, 5.0)
    return w


def assert_matches_former(w, threshold=1e-5, labels=None):
    got = nm.extract_graph(w, threshold=threshold, labels=labels)
    edges = former_extract_graph(w, threshold)
    assert got == graph_from_edges(w.shape[0], edges, labels)
    assert got.src.dtype == got.dst.dtype == np.intp and got.weight.dtype == np.float64
    for hist, want in zip(
        nm.degree_distributions(got), former_degree_distributions(w.shape[0], edges)
    ):
        assert hist.dtype == want.dtype
        assert np.array_equal(hist, want)


@pytest.fixture(scope="module")
def long_horizon_matrices():
    """gamma, psi and gamma_slack at N = 40 (m = 240), built as run_experiment does."""
    config = nm.ExperimentConfig.cart_pole_default(horizon=40)
    _, qp, data = nm.build_problem(config)
    omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
    theta = nm.stack_target(data.gamma, data.u_dual_map)
    prob = nm.FactorizationProblem(theta=theta, s_omega=480, s_psi=57_600, k_bar=100_000)
    _, psi, _ = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
    sdata, _ = nm.augment_slack(qp, config.rho)
    return {
        "gamma": (data.gamma, data.node_labels),
        "psi": (psi, None),
        "gamma_slack": (sdata.gamma, sdata.node_labels),
    }


class TestExtractGraph:
    def test_identity_has_no_edges(self):
        g = nm.extract_graph(np.eye(5))
        assert len(g.src) == 0
        assert g.node_count == 5

    def test_single_edge_direction(self):
        # w[0, 1] = 2: column 1 feeds row 0
        g = nm.extract_graph(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert g == nm.NetworkGraph(2, [1], [0], [2.0])

    def test_benchmark_count_matches_brute_force(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        g = nm.extract_graph(data.gamma)
        count = sum(
            1
            for i in range(12)
            for j in range(12)
            if i != j and abs(data.gamma[i, j]) > 1e-5
        )
        assert len(g.src) == count

    def test_threshold_monotonicity(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        sizes = [
            len(nm.extract_graph(data.gamma, threshold=t).src)
            for t in (0.0, 1e-5, 1e-3, 1e-1, 10.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_strict_inequality_at_threshold(self):
        w = np.array([[0.0, 1e-5], [0.0, 0.0]])
        assert len(nm.extract_graph(w, threshold=1e-5).src) == 0

    def test_absolute_value_comparison(self):
        w = np.array([[0.0, -3.0], [0.0, 0.0]])
        assert nm.extract_graph(w) == nm.NetworkGraph(2, [1], [0], [-3.0])

    def test_matches_former_implementation(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 30, 240):
            for threshold in (0.0, 0.25, 1.0):
                w = random_matrix(rng, n, threshold)
                labels = [f"u{i}" for i in range(n)] if n % 2 else None
                assert_matches_former(w, threshold, labels)

    @pytest.mark.parametrize("name", ["gamma", "psi", "gamma_slack"])
    def test_matches_former_at_long_horizon(self, long_horizon_matrices, name):
        w, labels = long_horizon_matrices[name]
        assert w.shape[0] >= 240
        assert_matches_former(w, labels=labels)

    def test_no_edge_list_attribute(self, benchmark_result):
        _, result = benchmark_result
        assert set(result.graphs) == {"gamma", "omega1", "psi", "gamma_pruned", "gamma_slack"}
        for graph in result.graphs.values():
            for name, value in vars(graph).items():
                if isinstance(value, list):
                    assert name == "node_labels"
                    assert all(type(label) is str for label in value)
                else:
                    assert not isinstance(value, tuple), name

    def test_equality_compares_edges_and_labels(self):
        g = nm.extract_graph(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert g == graph_from_edges(2, [(0, 1, 3.0), (1, 0, 2.0)])
        assert g != graph_from_edges(2, [(0, 1, 3.0), (1, 0, 2.5)])
        assert g != graph_from_edges(2, [(1, 0, 2.0), (0, 1, 3.0)])
        assert g != graph_from_edges(2, [(0, 1, 3.0), (1, 0, 2.0)], labels=["a", "b"])
        assert g != graph_from_edges(3, [(0, 1, 3.0), (1, 0, 2.0)])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nm.extract_graph(np.zeros((2, 3)))

    @pytest.mark.parametrize("threshold", [-1.0, np.nan])
    def test_refused_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            nm.extract_graph(np.eye(3), threshold=threshold)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, value):
        # |NaN| > threshold is false, so a NaN edge would silently vanish.
        w = np.zeros((2, 2))
        w[0, 1] = value
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            nm.extract_graph(w)


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

    def test_matches_former_loop(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 30, 240):
            for density in (0.0, 0.05, 0.5, 1.0):
                w = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
                edges = former_extract_graph(w)
                for hist, want in zip(
                    nm.degree_distributions(nm.extract_graph(w)),
                    former_degree_distributions(n, edges),
                ):
                    assert hist.dtype == want.dtype
                    assert np.array_equal(hist, want)

    def test_handshake_identity(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        for w in (data.gamma, data.gamma + 0.5 * np.eye(12), np.triu(data.gamma)):
            g = nm.extract_graph(w)
            in_hist, out_hist = nm.degree_distributions(g)
            edges = len(g.src)
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
        assert back == g

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


class TestValidation:
    @pytest.mark.parametrize(
        "src, dst, weight",
        [
            ([0, 1], [1], [1.0, 2.0]),  # lengths differ
            ([0], [1], [1.0, 2.0]),
            ([[0]], [[1]], [[1.0]]),  # not 1-D
            ([0, 2], [1, 0], [1.0, 1.0]),  # endpoint == node_count
            ([0], [-1], [1.0]),  # negative endpoint
            ([0.0], [1.0], [1.0]),  # not integers
        ],
        ids=["src_dst_length", "weight_length", "two_d", "past_end", "negative", "float_index"],
    )
    def test_malformed_edges_rejected(self, src, dst, weight):
        with pytest.raises(ValueError):
            nm.NetworkGraph(2, src, dst, weight)

    def test_empty_graph_accepted(self):
        g = nm.NetworkGraph(3, [], [], [])
        assert len(g.src) == 0
        assert [h.tolist() for h in nm.degree_distributions(g)] == [[3], [3]]

    def test_import_rejects_edge_outside_graph(self):
        doc = nm.export_graph(nm.extract_graph(np.zeros((2, 2))), "json").decode()
        doc = doc.replace('"edges": []', '"edges": [{"from": 0, "to": 5, "weight": 1.0}]')
        with pytest.raises(ValueError, match="outside"):
            nm.import_graph(doc.encode())
