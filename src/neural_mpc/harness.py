"""Closed-loop experiment runner and command-line interface.

Wires plants, controller variants (reference QP solver, firing-rate networks,
multilayer factorizations, pruned and slack-augmented networks) into
reproducible closed-loop experiments; emits per-variant CSV traces, a JSON
comparison report, and network graphs.  The sampled loop applies each variant's
control under a zero-order hold and propagates the plant between samples.

The environment variable NEURAL_MPC_LOG in {error, warning, info, debug}
controls diagnostic verbosity; the default, warning, shows a
``multilayer_exact`` factorization that is not exact.
"""

from __future__ import annotations

import argparse
import json
import logging
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .analytics import NetworkGraph, degree_distributions, export_graph, extract_graph
from .condenser import (
    CondensedQp,
    InputConstraint,
    MpcProblem,
    NetworkData,
    StateConstraint,
    augment_slack,
    condense,
)
from .factorizer import (
    FactorizationProblem,
    identity_layer_init,
    palm_factorize,
    split_factors,
    stack_target,
)
from .network import (
    FiringRateNetwork,
    MultilayerNetwork,
    extract_control,
    extract_control_multilayer,
    settle,
    settle_multilayer,
    step_limits,
)
from .perturber import control_deviation_bound, prune_edges
from .plant import (
    CartPoleParams,
    PlantModel,
    cart_pole_model,
    discretize_zoh,
    propagate_linear,
    propagate_nonlinear_cartpole,
    solve_dare,
)
from .qp_oracle import InfeasibleProblem, solve_qp

log = logging.getLogger("neural_mpc")

VARIANTS = (
    "oracle",
    "single_layer",
    "single_layer_eps",
    "multilayer_exact",
    "multilayer_approx",
    "perturbed",
    "slack",
)


@dataclass
class ExperimentConfig:
    """Resolved experiment description; defaults are the cart-pole benchmark."""

    plant_model: PlantModel
    ts: float = 0.02
    horizon: int = 2
    q: np.ndarray = field(default_factory=lambda: np.diag([10.0, 1.0, 500.0, 1.0]))
    r: np.ndarray = field(default_factory=lambda: np.array([[0.1]]))
    p_term: np.ndarray | str = "dare"
    state_con: StateConstraint = field(
        default_factory=lambda: StateConstraint(
            c_rows=np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]),
            lower=np.array([-0.62, -0.1]),
            upper=np.array([0.62, 1.0]),
        )
    )
    input_con: InputConstraint = field(
        default_factory=lambda: InputConstraint(lower=np.array([-10.0]), upper=np.array([12.0]))
    )
    x0: np.ndarray = field(default_factory=lambda: np.array([0.3, 0.0, 0.15, 0.0]))
    duration: float = 6.0
    variants: tuple[str, ...] = ("oracle", "single_layer", "multilayer_exact")
    eta: float = 1e-3
    eps0: float = 0.1
    rho: float = 1e4
    prune_threshold: float = 0.01
    prune_shift: float = 1e-4
    s_omega: int = 144
    s_psi: int = 144
    s_omega_approx: int = 40
    s_psi_approx: int = 40
    settle_tol: float = 1e-8
    warm_start: bool = True
    nonlinear_plant: bool = False

    def __post_init__(self):
        if not 0 < self.ts < np.inf:
            raise ValueError(f"ts must be positive and finite, got {self.ts}")
        if not 0.5 < self.duration / self.ts < np.inf:  # round(duration / ts) >= 1
            raise ValueError(f"duration must span one sample (ts = {self.ts}), got {self.duration}")
        if not self.variants:
            raise ValueError("at least one controller variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}; valid: {VARIANTS}")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"each variant may be listed once, got {list(self.variants)}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0 <= self.eps0 < np.inf:
            raise ValueError(f"eps0 must be nonnegative and finite, got {self.eps0}")
        if not (0 < self.rho < np.inf and 1.0 / self.rho < np.inf):
            raise ValueError(f"rho must be positive and finite, with 1/rho finite, got {self.rho}")
        if not 0 <= self.prune_threshold < np.inf:
            raise ValueError(
                f"prune_threshold must be nonnegative and finite, got {self.prune_threshold}"
            )
        if not -np.inf < self.prune_shift < np.inf:
            raise ValueError(f"prune_shift must be finite, got {self.prune_shift}")
        if not 0 < self.settle_tol < np.inf:
            raise ValueError(f"settle_tol must be positive and finite, got {self.settle_tol}")
        for name in ("horizon", "s_omega", "s_psi", "s_omega_approx", "s_psi_approx"):
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        self.x0 = np.asarray(self.x0, dtype=float)
        self._check_dimensions()

    def _check_dimensions(self):
        """ValueError naming the first array field that misfits the plant or is not finite."""
        n, p = self.plant_model.state_dim, self.plant_model.input_dim
        sc, ic = self.state_con, self.input_con
        rows = sc.c_rows.shape[0]
        expected = [
            ("x0", self.x0, (n,)),
            ("q", self.q, (n, n)),
            ("r", self.r, (p, p)),
            ("state_con.c_rows", sc.c_rows, (rows, n)),
            ("state_con.lower", sc.lower, (rows,)),
            ("state_con.upper", sc.upper, (rows,)),
            ("input_con.lower", ic.lower, (p,)),
            ("input_con.upper", ic.upper, (p,)),
        ]
        if not isinstance(self.p_term, str):
            expected.append(("p_term", self.p_term, (n, n)))
        for name, value, shape in expected:
            if np.shape(value) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")

    @classmethod
    def cart_pole_default(cls, **overrides) -> "ExperimentConfig":
        return cls(plant_model=cart_pole_model(), **overrides)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from its JSON document; ValueError on an unknown key or a wrong type."""
        kwargs = _read_fields(cls, doc, "config")
        kwargs.setdefault("plant_model", cart_pole_model())
        for name in ("q", "r"):  # a scalar or a list is shorthand for a diagonal weight
            if name in kwargs and kwargs[name].ndim < 2:
                kwargs[name] = np.diag(np.atleast_1d(kwargs[name]))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return _encode(self)


# JSON keys of the config fields whose key is not the field name.
_KEYS = {"plant_model": "plant", "state_con": "state_constraints", "input_con": "input_constraints"}


def _encode(value):
    """JSON form of a value: arrays as nested lists, dataclasses field by field."""
    if isinstance(value, PlantModel):
        params = value.cart_pole_params
        if params is None:
            return {"type": "linear", "a_c": value.a_c.tolist(), "b_c": value.b_c.tolist()}
        return {"type": "cart_pole", **_encode(params)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {_KEYS.get(f.name, f.name): _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _read_fields(cls, doc, where: str) -> dict:
    """Decoded keyword arguments of dataclass ``cls`` from the JSON object ``doc``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    hints = get_type_hints(cls)
    names = {_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {unknown}")
    return {names[k]: _decode(hints[names[k]], v, f"{where}.{k}") for k, v in doc.items()}


def _decode(tp, value, where: str):
    """``value`` of a JSON document read as type ``tp``; ValueError if it does not fit.

    A dataclass is read field by field from an object, and every field
    without a default must be given.  The plant is the one hand-written
    codec: ``{"type": "cart_pole", <CartPoleParams>}`` or
    ``{"type": "linear", "a_c": ..., "b_c": ...}``.
    """
    if tp is PlantModel and isinstance(value, dict):
        value = dict(value)
        kind = value.pop("type", "cart_pole")
        if kind in ("cart_pole", "cartpole"):
            return cart_pole_model(_decode(CartPoleParams, value, where))
        if kind != "linear":
            raise ValueError(f"unknown plant type {kind!r}")
    if is_dataclass(tp):
        kwargs = _read_fields(tp, value, where)
        try:
            return tp(**kwargs)
        except TypeError as exc:  # a required key is missing
            raise ValueError(f"{where}: {exc}") from None
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(value)
    args = get_args(tp)
    if isinstance(value, str) and str in args:  # p_term: "dare"
        return value
    if np.ndarray in (tp, *args):
        try:
            return np.array(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{where} must be a number or nested lists of numbers") from None
    if type(value) is tp or (tp is float and type(value) is int):
        return value
    raise ValueError(f"{where} must be of type {getattr(tp, '__name__', tp)}, got {value!r}")


@dataclass
class ClosedLoopTrace:
    """Per-sample closed-loop records for one controller variant."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    settled: np.ndarray
    violation: np.ndarray


@dataclass
class ExperimentResult:
    traces: dict[str, ClosedLoopTrace]
    report: dict
    graphs: dict[str, NetworkGraph]


class ClosedLoopDiverged(FloatingPointError):
    """A variant's closed loop turned non-finite.  ``result`` is the run as far
    as it got: every trace up to its divergence and the report, whose
    ``diverged`` maps each such variant to the time of that sample."""

    def __init__(self, result: ExperimentResult):
        self.result = result
        where = ", ".join(f"{v} at t = {t:g} s" for v, t in result.report["diverged"].items())
        super().__init__(f"closed loop diverged: {where}")


def build_problem(config: ExperimentConfig) -> tuple[MpcProblem, CondensedQp, NetworkData]:
    """Discretize the plant, resolve the terminal weight, condense, build weights."""
    dplant = discretize_zoh(config.plant_model, config.ts)
    if isinstance(config.p_term, str):
        if config.p_term != "dare":
            raise ValueError(f"unknown p_term value {config.p_term!r}")
        p_term = solve_dare(dplant.a, dplant.b, config.q, config.r)
    else:
        p_term = config.p_term
    problem = MpcProblem(
        plant=dplant,
        horizon=config.horizon,
        q=config.q,
        r=config.r,
        p_term=p_term,
        state_con=config.state_con,
        input_con=config.input_con,
    )
    qp = condense(problem)
    return problem, qp, qp.network


def _controller(variant, config, qp, net, nominal):
    """Control law ``x -> (u, settled)`` of one variant, run by ``net`` (None
    for the oracle, which solves ``qp``), and its network's Euler step dt/eta
    (None for the oracle); ``single_layer`` appends each sample's settle
    trajectory to ``nominal`` unless it is None.  The laws call the networks
    through this module's names, which the benchmark patches.
    """
    if net is None:
        held = np.zeros(qp.upsilon_rows)

        def oracle(x):
            nonlocal held
            try:
                sol = solve_qp(qp, x)
            except InfeasibleProblem:
                log.info("oracle: infeasible sample, holding previous input")
                return held, False
            held = sol.u[: qp.upsilon_rows]
            return held, True

        return oracle, None

    tol, budget, warm = config.settle_tol, config.ts, config.warm_start
    if isinstance(net, MultilayerNetwork):
        data = qp.network

        def multilayer(x):
            if not warm:
                net.reset()
            _, settled = settle_multilayer(net, data, x, tol=tol, max_time=budget)
            return extract_control_multilayer(net, data, x), settled

        return multilayer, step_limits(net, data)[1]

    record = nominal is not None and variant == "single_layer"

    def single_layer(x):
        if not warm:
            net.reset()
        if record:
            lam, settled, _, traj = settle(net, x, tol=tol, max_time=budget, record=True)
            nominal.append(traj)
        else:
            lam, settled = settle(net, x, tol=tol, max_time=budget)
        return extract_control(net, lam, x), settled

    return single_layer, step_limits(net)[1]


def _factorize(data: NetworkData, s_omega: int | None = None, s_psi: int | None = None):
    theta = stack_target(data.gamma, data.u_dual_map)
    # Start from the zero-residual factorization with an identity hidden layer
    # (when the synaptic matrix is invertible) so the sparsified factors keep
    # the recurrence in the second layer rather than mirroring it.
    try:
        omega0, psi0 = identity_layer_init(data.gamma, data.u_dual_map)
    except np.linalg.LinAlgError:
        omega0, psi0 = theta, np.eye(theta.shape[1])
    if s_omega is None:  # the start's own nonzeros: PALM returns an exact start as it is
        s_omega, s_psi = np.count_nonzero(omega0), np.count_nonzero(psi0)
    prob = FactorizationProblem(theta=theta, s_omega=s_omega, s_psi=s_psi)
    omega, psi, history = palm_factorize(prob, omega0=omega0, psi0=psi0)
    omega1, omega2 = split_factors(omega, data.u_dual_map.shape[0])
    return {
        "omega1": omega1,
        "omega2": omega2,
        "psi": psi,
        "residual": float(history[-1]),
        "iterations": int(len(history)),
        "at_floor": bool(history[-1] <= prob.floor),
    }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every requested controller variant in closed loop and compare them.

    Each variant reads the sampled state of its own loop, computes its control,
    holds it for one sample period, and the plant propagates (linear model by
    default, nonlinear cart-pole when configured).  The report collects max
    pairwise control/state deviations, constraint-violation counts, settle
    statistics, factorization residuals, deviation-bound checks for the
    pruned variant, and each network variant's Euler step dt/eta
    (``euler_step``).  Each factorization entry records ``at_floor``, whether
    its residual is at PALM's rounding floor.  ``multilayer_exact`` takes its
    budgets from the nonzeros of its exact start, so it is exact unless that
    start is above the floor (an ill-conditioned gamma); then it runs and logs
    a warning.  A pruned network whose contraction check fails still
    runs; its report entry then has ``bound_checks`` and ``min_margin`` null.
    A variant whose control or state turns non-finite stops there and the
    others still run; then ``ClosedLoopDiverged`` is raised, carrying the
    result: that variant's trace keeps the samples before, the report's
    ``diverged`` maps it to that sample's time, and pairwise deviations cover
    the samples both traces hold.
    """
    _, qp, data = build_problem(config)
    n_samples = int(round(config.duration / config.ts))
    if config.nonlinear_plant and config.plant_model.cart_pole_params is None:
        raise ValueError("nonlinear plant requested but no cart-pole parameters present")

    report: dict = {
        "config": config.to_dict(),
        "samples": n_samples,
        "runtime_seconds": {},
        "pairwise": {},
        "constraint_violations": {},
        "settled_fraction": {},
    }
    # Each transform runs once, in VARIANTS order whatever order the config
    # lists, and adds its report entry and its graph's matrix where it runs:
    # the order of both is the output format.  The graphs are extracted after
    # the closed loops so that their edges do not add to the loops' peak memory.
    graphs = {"gamma": (data.gamma, data.node_labels)}
    nets = dict.fromkeys(config.variants)  # the oracle's entry stays None
    pert = None
    for variant in (v for v in VARIANTS if v in nets and v != "oracle"):
        net_data = data
        if variant == "multilayer_exact":
            fac = _factorize(data)
            if not fac["at_floor"]:
                log.warning(
                    "multilayer_exact is not exact: its factorization residual %.3g is above the "
                    "rounding floor", fac["residual"],
                )
            graphs["omega1"] = (fac["omega1"], None)
            graphs["psi"] = (fac["psi"], None)
        elif variant == "multilayer_approx":
            fac = _factorize(data, config.s_omega_approx, config.s_psi_approx)
        elif variant == "perturbed":
            pert = prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
            report["perturbation"] = _perturbation_entry(config, data, pert)
            net_data = replace(data, gamma=data.gamma + pert.delta)
            graphs["gamma_pruned"] = (net_data.gamma, net_data.node_labels)
        elif variant == "slack":
            net_data, meta = augment_slack(qp, config.rho)
            report["slack"] = {"rho": meta.rho, "m": meta.m, "m_s": meta.m_s}
            graphs["gamma_slack"] = (net_data.gamma, net_data.node_labels)
        if variant in ("multilayer_exact", "multilayer_approx"):
            report.setdefault("factorization", {})[variant.removeprefix("multilayer_")] = {
                **_factorization_entry(fac),
                "nnz_omega": int(np.count_nonzero(np.vstack([fac["omega1"], fac["omega2"]]))),
                "nnz_psi": int(np.count_nonzero(fac["psi"])),
            }
            nets[variant] = MultilayerNetwork(
                omega1=fac["omega1"], omega2=fac["omega2"], psi=fac["psi"], eta=config.eta
            )
        else:
            eps0 = config.eps0 if variant == "single_layer_eps" else 0.0
            nets[variant] = FiringRateNetwork(data=net_data, eta=config.eta, eps0=eps0)
    report["euler_step"] = {}
    # The nominal trajectories only feed the deviation bound, which needs mu < 1.
    bound_due = pert is not None and pert.contracting and "single_layer" in nets
    nominal = [] if bound_due else None

    traces: dict[str, ClosedLoopTrace] = {}
    diverged: dict[str, float] = {}
    for variant in config.variants:
        law, step = _controller(variant, config, qp, nets[variant], nominal)
        if step is not None:
            report["euler_step"][variant] = step
        tic = time.perf_counter()
        trace, t_diverged = _run_loop(law, config, n_samples)
        runtime = time.perf_counter() - tic
        traces[variant] = trace
        report["runtime_seconds"][variant] = round(runtime, 4)
        report["constraint_violations"][variant] = {
            "count": int(np.sum(trace.violation > 1e-6)),
            "max_margin": float(np.max(trace.violation, initial=0.0)),
        }
        report["settled_fraction"][variant] = float(np.mean(trace.settled)) if len(trace.t) else 0.0
        if t_diverged is not None:
            diverged[variant] = t_diverged
            log.info("variant %s diverged at t = %.4g s", variant, t_diverged)
        log.info("variant %s finished in %.2f s", variant, runtime)

    for i, a in enumerate(config.variants):
        for b in config.variants[i + 1 :]:
            report["pairwise"][f"{a}|{b}"] = {
                "max_control_deviation": _max_deviation(traces[a].u, traces[b].u),
                "max_state_deviation": _max_deviation(traces[a].x, traces[b].x),
            }
    if pert is not None and "single_layer" in nets:
        entry = report["perturbation"]
        if not pert.contracting:
            # Uncertified (mu >= 1): the variant is recorded, but no bound holds.
            entry["bound_checks"] = entry["min_margin"] = None
        elif nominal:
            checks = []
            tr1, tr2 = traces["single_layer"], traces["perturbed"]
            for j, traj in enumerate(nominal[: min(len(tr1.t), len(tr2.t))]):
                bound = control_deviation_bound(
                    data, pert.delta, tr1.x[j], tr2.x[j], traj, pert.mu
                )
                measured = float(np.linalg.norm(tr1.u[j] - tr2.u[j]))
                checks.append(
                    {
                        "t": float(tr1.t[j]),
                        "bound": bound,
                        "measured": measured,
                        "margin": bound - measured,
                    }
                )
            entry["bound_checks"] = checks
            entry["min_margin"] = min((c["margin"] for c in checks), default=None)
    graphs = {name: extract_graph(w, labels=labels) for name, (w, labels) in graphs.items()}
    result = ExperimentResult(traces=traces, report=report, graphs=graphs)
    if diverged:
        report["diverged"] = diverged
        raise ClosedLoopDiverged(result)
    return result


@np.errstate(all="ignore")
def _run_loop(law, config, n_samples) -> tuple[ClosedLoopTrace, float | None]:
    """The closed loop of one law, and the time of its first sample whose state
    or control is not finite (None if there is none); the trace stops before
    that sample.  Overflow on the way there is expected, so numpy is silenced.
    """
    model = config.plant_model
    x = config.x0.copy()
    ts = config.ts
    x_arr = np.zeros((n_samples, model.state_dim))
    u_arr = np.zeros((n_samples, model.input_dim))
    settled_arr = np.zeros(n_samples, dtype=bool)
    n_run, t_diverged = n_samples, None
    for j in range(n_samples):
        finite = np.isfinite(x).all()
        if finite:
            u, settled = law(x)
            finite = np.isfinite(u).all()
        if not finite:
            n_run, t_diverged = j, j * ts
            break
        x_arr[j], u_arr[j], settled_arr[j] = x, u, settled
        if config.nonlinear_plant:
            x = propagate_nonlinear_cartpole(model.cart_pole_params, x, u_arr[j], ts)
        else:
            x = propagate_linear(model, x, u_arr[j], ts)
    sc = config.state_con
    out = x_arr[:n_run] @ sc.c_rows.T
    trace = ClosedLoopTrace(
        t=np.arange(n_run) * ts,
        x=x_arr[:n_run],
        u=u_arr[:n_run],
        settled=settled_arr[:n_run],
        violation=np.maximum(out - sc.upper, sc.lower - out).max(axis=1, initial=0.0),
    )
    return trace, t_diverged


def _max_deviation(p: np.ndarray, q: np.ndarray) -> float | None:
    """max |p - q| over the leading rows both hold; None if either has none."""
    k = min(len(p), len(q))
    return float(np.max(np.abs(p[:k] - q[:k]))) if k else None


def _factorization_entry(fac: dict) -> dict:
    """What a factorization reached: its final residual, its PALM steps, and
    whether the residual is at the rounding floor (the factors are exact)."""
    return {key: fac[key] for key in ("residual", "iterations", "at_floor")}


def _perturbation_entry(config: ExperimentConfig, data: NetworkData, pert) -> dict:
    """The pruning settings, its contraction check and the edge counts it left."""
    return {
        "threshold": config.prune_threshold,
        "diag_shift": config.prune_shift,
        "contracting": bool(pert.contracting),
        "mu": float(pert.mu),
        "nnz_before": int(np.count_nonzero(data.gamma)),
        "nnz_after": int(np.count_nonzero(data.gamma + pert.delta)),
    }


def write_trace_csv(trace: ClosedLoopTrace, path: str | Path) -> None:
    """Write a trace with fixed column order t,x1..xn,u1..up,settled."""
    n = trace.x.shape[1]
    p = trace.u.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(p)]
    header.append("settled")
    lines = [",".join(header)]
    rows = np.column_stack([trace.t, trace.x, trace.u]).tolist()
    for row, settled in zip(rows, trace.settled.tolist()):
        lines.append(",".join(map(repr, row)) + f",{int(settled)}")
    Path(path).write_text("\n".join(lines) + "\n")


def qp_to_json(qp: CondensedQp, data: NetworkData) -> dict:
    """JSON document with the condensed QP and the derived network weights."""
    network = _encode(data)
    del network["node_labels"]  # the QP's row_labels already name the nodes
    return {**_encode(qp), "network": network}


def _load_config(path: str | None, **flags) -> ExperimentConfig:
    config = (
        ExperimentConfig.cart_pole_default() if path is None else ExperimentConfig.from_json(path)
    )
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def _load_matrix(path: str) -> tuple[np.ndarray, list[str] | None]:
    """The matrix of a file holding nested lists, ``{"gamma" or "matrix": ...,
    "labels": [...]}`` or a ``condense`` document, and its node labels."""
    with open(path) as fh:
        doc = json.load(fh)
    labels = None
    if isinstance(doc, dict):
        if "gamma" not in doc and "matrix" not in doc and isinstance(doc.get("network"), dict):
            # a ``condense`` document: the QP's rows name the nodes
            doc = {"gamma": doc["network"].get("gamma"), "labels": doc.get("row_labels")}
        labels = doc.get("labels")
        doc = doc.get("gamma", doc.get("matrix"))
        if doc is None:
            raise ValueError(f"no matrix found in {path}")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise ValueError(f"labels in {path} must be a list of strings, got {labels!r}")
    return np.array(doc, dtype=float), labels


def _cmd_condense(args) -> str:
    config = _load_config(args.config)
    _, qp, data = build_problem(config)
    return json.dumps(qp_to_json(qp, data), indent=2) + "\n"


def _write_result(result: ExperimentResult, out: Path, trace_dir: Path) -> None:
    """One CSV per trace in ``trace_dir``, and the report in ``out``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in result.traces.items():
        write_trace_csv(trace, trace_dir / f"{name}.csv")
    (out / "report.json").write_text(json.dumps(result.report, indent=2) + "\n")


def _cmd_simulate(args) -> None:
    config = _load_config(args.config)
    try:
        result = run_experiment(config)
    except ClosedLoopDiverged as exc:  # recorded in the report, not a failure here
        result = exc.result
    _write_result(result, Path(args.out), Path(args.out))
    log.info("wrote %d traces to %s", len(result.traces), args.out)


def _cmd_factorize(args) -> str:
    config = _load_config(args.config, s_omega=args.s_omega, s_psi=args.s_psi)
    _, _, data = build_problem(config)
    fac = _factorize(data, config.s_omega, config.s_psi)
    doc = {"s_omega": config.s_omega, "s_psi": config.s_psi, **_factorization_entry(fac)}
    doc.update((key, fac[key].tolist()) for key in ("omega1", "omega2", "psi"))
    return json.dumps(doc, indent=2) + "\n"


def _cmd_perturb(args) -> str:
    config = _load_config(args.config, prune_threshold=args.threshold, prune_shift=args.shift)
    _, _, data = build_problem(config)
    pert = prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
    doc = {**_perturbation_entry(config, data, pert), "delta": pert.delta.tolist()}
    return json.dumps(doc, indent=2) + "\n"


def _cmd_analyze(args) -> str:
    matrix, labels = _load_matrix(args.matrix)
    graph = extract_graph(matrix, threshold=args.threshold, labels=labels)
    return export_graph(graph, format=args.format).decode()


def _cmd_reproduce(args) -> None:
    result = run_experiment(ExperimentConfig.cart_pole_default(variants=VARIANTS))
    out = Path(args.out)
    _write_result(result, out, out / "traces")
    (out / "graphs").mkdir(exist_ok=True)
    lines = ["matrix,degree,in_count,out_count"]
    for name, graph in result.graphs.items():
        for fmt in ("json", "dot"):
            (out / "graphs" / f"{name}.{fmt}").write_bytes(export_graph(graph, fmt))
        in_hist, out_hist = degree_distributions(graph)
        for k, (n_in, n_out) in enumerate(zip(in_hist, out_hist)):
            lines.append(f"{name},{k},{n_in},{n_out}")
    (out / "degree_distributions.csv").write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"benchmark suite written to {out}\n")


_CONFIG = ("--config", {"help": "experiment config JSON (default: built-in benchmark)"})
_OUT = ("--out", {"default": "-", "help": "output path (default stdout)"})

# One row per subcommand: its name, handler and help, then its flags, each a
# name and its ``add_argument`` keywords.  A handler returns the document to
# write to ``--out``, or None when it wrote its own files.
_COMMANDS = (
    ("condense", _cmd_condense, "emit the condensed QP and network weights as JSON", _CONFIG, _OUT),
    ("simulate", _cmd_simulate, "run a closed-loop experiment from a config file", _CONFIG,
     ("--out", {"required": True, "help": "output directory for CSV traces + report"})),
    ("factorize", _cmd_factorize, "factorize the network with nonzero budgets", _CONFIG,
     ("--s-omega", {"type": int, "help": "omega budget (default: the config's s_omega)"}),
     ("--s-psi", {"type": int, "help": "psi budget (default: the config's s_psi)"}),
     _OUT),
    ("perturb", _cmd_perturb, "prune edges and report the contraction check", _CONFIG,
     ("--threshold", {"type": float}), ("--shift", {"type": float}), _OUT),
    ("analyze", _cmd_analyze, "extract a graph from a matrix JSON and export it",
     ("--matrix", {"required": True, "help": "JSON file with a square matrix"}),
     ("--format", {"choices": ("json", "dot"), "default": "json"}),
     ("--threshold", {"type": float, "default": 1e-5}),
     _OUT),
    ("reproduce-paper", _cmd_reproduce,
     "run the full cart-pole benchmark suite and write traces, graphs, and the report",
     ("--out", {"required": True, "help": "output directory"})),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neural-mpc",
        description="Compile constrained linear MPC into firing-rate networks and study them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, *flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _configure_logging():
    level = os.environ.get("NEURAL_MPC_LOG", "warning").upper()
    if level not in ("ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (0 ok, 1 failure, 2 usage)."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
        if text is not None:
            if args.out == "-":
                sys.stdout.write(text)
            else:
                Path(args.out).write_text(text)
        return 0
    except (
        ValueError,
        OSError,
        KeyError,
        np.linalg.LinAlgError,
        InfeasibleProblem,
        ClosedLoopDiverged,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        log.debug("traceback", exc_info=True)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
