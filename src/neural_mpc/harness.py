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
from dataclasses import dataclass, fields, is_dataclass, replace
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
    q: np.ndarray = None  # type: ignore[assignment]
    r: np.ndarray = None  # type: ignore[assignment]
    p_term: np.ndarray | str = "dare"
    state_con: StateConstraint = None  # type: ignore[assignment]
    input_con: InputConstraint = None  # type: ignore[assignment]
    x0: np.ndarray = None  # type: ignore[assignment]
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
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0 <= self.eps0 < np.inf:
            raise ValueError(f"eps0 must be nonnegative and finite, got {self.eps0}")
        if not 0 < self.settle_tol < np.inf:
            raise ValueError(f"settle_tol must be positive and finite, got {self.settle_tol}")
        for name in ("s_omega", "s_psi", "s_omega_approx", "s_psi_approx"):
            budget = getattr(self, name)
            if not isinstance(budget, numbers.Integral) or budget < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {budget!r}")
        if self.q is None:
            self.q = np.diag([10.0, 1.0, 500.0, 1.0])
        if self.r is None:
            self.r = np.array([[0.1]])
        if self.state_con is None:
            self.state_con = StateConstraint(
                c_rows=np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]),
                lower=np.array([-0.62, -0.1]),
                upper=np.array([0.62, 1.0]),
            )
        if self.input_con is None:
            self.input_con = InputConstraint(lower=np.array([-10.0]), upper=np.array([12.0]))
        if self.x0 is None:
            self.x0 = np.array([0.3, 0.0, 0.15, 0.0])
        self.x0 = np.asarray(self.x0, dtype=float)
        self._check_dimensions()

    def _check_dimensions(self):
        """ValueError naming the first field whose shape does not fit the plant."""
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
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 must be finite, got {self.x0.tolist()}")

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


def _controller(variant, config, qp, data, factors, gamma_pruned, slack, nominal):
    """Control law ``x -> (u, settled)`` of one variant and its network's Euler
    step dt/eta (None for the oracle); ``single_layer`` appends each sample's
    settle trajectory to ``nominal`` unless it is None.  The laws call the
    networks through this module's names, which the benchmark patches.
    """
    if variant == "oracle":
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
    if variant in ("multilayer_exact", "multilayer_approx"):
        fac = factors[variant.removeprefix("multilayer_")]
        net = MultilayerNetwork(
            omega1=fac["omega1"],
            omega2=fac["omega2"],
            psi=fac["psi"],
            eta=config.eta,
            residual=fac["residual"],
        )

        def multilayer(x):
            if not warm:
                net.reset()
            _, settled = settle_multilayer(net, data, x, tol=tol, max_time=budget)
            return extract_control_multilayer(net, data, x), settled

        return multilayer, step_limits(net, data)[1]

    if variant == "perturbed":
        data = replace(data, gamma=gamma_pruned)
    elif variant == "slack":
        data = slack[0]
    net = FiringRateNetwork(
        data=data, eta=config.eta, eps0=config.eps0 if variant == "single_layer_eps" else 0.0
    )
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


def _factorize(data: NetworkData, s_omega: int, s_psi: int):
    theta = stack_target(data.gamma, data.u_dual_map)
    prob = FactorizationProblem(theta=theta, s_omega=s_omega, s_psi=s_psi)
    # Start from the zero-residual factorization with an identity hidden layer
    # (when the synaptic matrix is invertible) so the sparsified factors keep
    # the recurrence in the second layer rather than mirroring it.
    try:
        omega0, psi0 = identity_layer_init(data.gamma, data.u_dual_map)
    except np.linalg.LinAlgError:
        omega0 = psi0 = None
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
    its residual is at PALM's rounding floor; a ``multilayer_exact`` whose
    factors are not exact (budgets below their nonzeros) runs and logs a
    warning.  A pruned network whose contraction check fails still
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

    factors = {
        key: _factorize(data, s_omega, s_psi)
        for key, s_omega, s_psi in (
            ("exact", config.s_omega, config.s_psi),
            ("approx", config.s_omega_approx, config.s_psi_approx),
        )
        if f"multilayer_{key}" in config.variants
    }
    if "exact" in factors and not factors["exact"]["at_floor"]:
        log.warning(
            "multilayer_exact is not exact: its factorization residual %.3g is above the "
            "rounding floor at budgets s_omega = %d, s_psi = %d",
            factors["exact"]["residual"], config.s_omega, config.s_psi,
        )
    pert = gamma_pruned = slack = None
    if "perturbed" in config.variants:
        pert = prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
        gamma_pruned = data.gamma + pert.delta
    if "slack" in config.variants:
        slack = augment_slack(qp, config.rho)
    # The nominal trajectories only feed the deviation bound, which needs mu < 1.
    bound_due = pert is not None and pert.contracting and "single_layer" in config.variants
    nominal = [] if bound_due else None

    traces: dict[str, ClosedLoopTrace] = {}
    runtimes: dict[str, float] = {}
    diverged: dict[str, float] = {}
    euler_step: dict[str, float] = {}
    for variant in config.variants:
        law, step = _controller(variant, config, qp, data, factors, gamma_pruned, slack, nominal)
        if step is not None:
            euler_step[variant] = step
        tic = time.perf_counter()
        traces[variant], t_diverged = _run_loop(law, config, n_samples)
        runtimes[variant] = time.perf_counter() - tic
        if t_diverged is not None:
            diverged[variant] = t_diverged
            log.info("variant %s diverged at t = %.4g s", variant, t_diverged)
        log.info("variant %s finished in %.2f s", variant, runtimes[variant])

    report = _build_report(config, traces, runtimes, data, factors, pert, slack, nominal)
    report["euler_step"] = euler_step
    if diverged:
        report["diverged"] = diverged
    graphs = {"gamma": extract_graph(data.gamma, labels=data.node_labels)}
    if "exact" in factors:
        graphs["omega1"] = extract_graph(factors["exact"]["omega1"])
        graphs["psi"] = extract_graph(factors["exact"]["psi"])
    if pert is not None:
        graphs["gamma_pruned"] = extract_graph(gamma_pruned, labels=data.node_labels)
    if slack is not None:
        graphs["gamma_slack"] = extract_graph(slack[0].gamma, labels=slack[0].node_labels)
    result = ExperimentResult(traces=traces, report=report, graphs=graphs)
    if diverged:
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
    viol_arr = np.zeros(n_samples)
    sc = config.state_con
    n_run, t_diverged = n_samples, None
    for j in range(n_samples):
        finite = np.isfinite(x).all()
        if finite:
            u, settled = law(x)
            finite = np.isfinite(u).all()
        if not finite:
            n_run, t_diverged = j, j * ts
            break
        u_arr[j], settled_arr[j] = u, settled
        x_arr[j] = x
        out = sc.c_rows @ x
        viol_arr[j] = max(
            0.0, float(np.max(np.maximum(out - sc.upper, sc.lower - out)))
        )
        if config.nonlinear_plant:
            x = propagate_nonlinear_cartpole(model.cart_pole_params, x, u_arr[j], ts)
        else:
            x = propagate_linear(model, x, u_arr[j], ts)
    t_arr = np.arange(n_run) * ts
    trace = ClosedLoopTrace(
        t=t_arr,
        x=x_arr[:n_run],
        u=u_arr[:n_run],
        settled=settled_arr[:n_run],
        violation=viol_arr[:n_run],
    )
    return trace, t_diverged


def _build_report(config, traces, runtimes, data, factors, pert, slack, nominal):
    report: dict = {
        "config": config.to_dict(),
        "samples": int(round(config.duration / config.ts)),
        "runtime_seconds": {k: round(v, 4) for k, v in runtimes.items()},
        "pairwise": {},
        "constraint_violations": {},
        "settled_fraction": {},
    }
    names = list(traces)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            report["pairwise"][f"{a}|{b}"] = {
                "max_control_deviation": _max_deviation(traces[a].u, traces[b].u),
                "max_state_deviation": _max_deviation(traces[a].x, traces[b].x),
            }
    for name, tr in traces.items():
        report["constraint_violations"][name] = {
            "count": int(np.sum(tr.violation > 1e-6)),
            "max_margin": float(np.max(tr.violation, initial=0.0)),
        }
        report["settled_fraction"][name] = float(np.mean(tr.settled)) if len(tr.t) else 0.0

    if factors:
        report["factorization"] = {
            key: {
                **_factorization_entry(fac),
                "nnz_omega": int(np.count_nonzero(np.vstack([fac["omega1"], fac["omega2"]]))),
                "nnz_psi": int(np.count_nonzero(fac["psi"])),
            }
            for key, fac in factors.items()
        }

    if pert is not None:
        entry = _perturbation_entry(config, data, pert)
        if not pert.contracting and "single_layer" in traces:
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
        report["perturbation"] = entry

    if slack is not None:
        _, meta = slack
        report["slack"] = {"rho": meta.rho, "m": meta.m, "m_s": meta.m_s}
    return report


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
    for j in range(len(trace.t)):
        cells = [repr(float(trace.t[j]))]
        cells += [repr(float(v)) for v in trace.x[j]]
        cells += [repr(float(v)) for v in trace.u[j]]
        cells.append(str(int(trace.settled[j])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def qp_to_json(qp: CondensedQp, data: NetworkData) -> dict:
    """JSON document with the condensed QP and the derived network weights."""
    network = _encode(data)
    del network["node_labels"]  # the QP's row_labels already name the nodes
    return {**_encode(qp), "network": network}


def _write_or_print(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_config(path: str | None, **flags) -> ExperimentConfig:
    config = (
        ExperimentConfig.cart_pole_default() if path is None else ExperimentConfig.from_json(path)
    )
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def _load_matrix(path: str) -> tuple[np.ndarray, list[str] | None]:
    with open(path) as fh:
        doc = json.load(fh)
    labels = None
    if isinstance(doc, dict):
        labels = doc.get("labels")
        for key in ("gamma", "matrix"):
            if key in doc:
                doc = doc[key]
                break
        else:
            if "network" in doc:  # a ``condense`` document: the QP's rows name the nodes
                labels = doc.get("row_labels")
                doc = doc["network"]["gamma"]
            else:
                raise ValueError(f"no matrix found in {path}")
    return np.array(doc, dtype=float), labels


def _cmd_condense(args) -> int:
    config = _load_config(args.config)
    _, qp, data = build_problem(config)
    _write_or_print(json.dumps(qp_to_json(qp, data), indent=2) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    try:
        result = run_experiment(config)
    except ClosedLoopDiverged as exc:  # recorded in the report, not a failure here
        result = exc.result
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, trace in result.traces.items():
        write_trace_csv(trace, out / f"{name}.csv")
    (out / "report.json").write_text(json.dumps(result.report, indent=2) + "\n")
    log.info("wrote %d traces to %s", len(result.traces), out)
    return 0


def _cmd_factorize(args) -> int:
    config = _load_config(args.config, s_omega=args.s_omega, s_psi=args.s_psi)
    _, _, data = build_problem(config)
    fac = _factorize(data, config.s_omega, config.s_psi)
    doc = {"s_omega": config.s_omega, "s_psi": config.s_psi, **_factorization_entry(fac)}
    doc.update((key, fac[key].tolist()) for key in ("omega1", "omega2", "psi"))
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_perturb(args) -> int:
    config = _load_config(args.config, prune_threshold=args.threshold, prune_shift=args.shift)
    _, _, data = build_problem(config)
    pert = prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
    doc = {**_perturbation_entry(config, data, pert), "delta": pert.delta.tolist()}
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_analyze(args) -> int:
    matrix, labels = _load_matrix(args.matrix)
    graph = extract_graph(matrix, threshold=args.threshold, labels=labels)
    payload = export_graph(graph, format=args.format).decode()
    _write_or_print(payload, args.out)
    return 0


def _cmd_reproduce(args) -> int:
    config = ExperimentConfig.cart_pole_default(variants=VARIANTS)
    result = run_experiment(config)
    out = Path(args.out)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    (out / "graphs").mkdir(parents=True, exist_ok=True)
    for name, trace in result.traces.items():
        write_trace_csv(trace, out / "traces" / f"{name}.csv")
    for name, graph in result.graphs.items():
        (out / "graphs" / f"{name}.json").write_bytes(export_graph(graph, "json"))
        (out / "graphs" / f"{name}.dot").write_bytes(export_graph(graph, "dot"))
    lines = ["matrix,degree,in_count,out_count"]
    for name, graph in result.graphs.items():
        in_hist, out_hist = degree_distributions(graph)
        for k in range(len(in_hist)):
            lines.append(f"{name},{k},{in_hist[k]},{out_hist[k]}")
    (out / "degree_distributions.csv").write_text("\n".join(lines) + "\n")
    (out / "report.json").write_text(json.dumps(result.report, indent=2) + "\n")
    sys.stdout.write(f"benchmark suite written to {out}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neural-mpc",
        description="Compile constrained linear MPC into firing-rate networks and study them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("condense", help="emit the condensed QP and network weights as JSON")
    p.add_argument("--config", help="experiment config JSON (default: built-in benchmark)")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=_cmd_condense)

    p = sub.add_parser("simulate", help="run a closed-loop experiment from a config file")
    p.add_argument("--config", help="experiment config JSON (default: built-in benchmark)")
    p.add_argument("--out", required=True, help="output directory for CSV traces + report")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("factorize", help="factorize the network with nonzero budgets")
    p.add_argument("--config", help="experiment config JSON (default: built-in benchmark)")
    p.add_argument("--s-omega", type=int, help="omega budget (default: the config's s_omega)")
    p.add_argument("--s-psi", type=int, help="psi budget (default: the config's s_psi)")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("perturb", help="prune edges and report the contraction check")
    p.add_argument("--config", help="experiment config JSON (default: built-in benchmark)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("analyze", help="extract a graph from a matrix JSON and export it")
    p.add_argument("--matrix", required=True, help="JSON file with a square matrix")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--threshold", type=float, default=1e-5)
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "reproduce-paper",
        help="run the full cart-pole benchmark suite and write traces, graphs, and the report",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_reproduce)
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
        return args.func(args)
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
