"""The package runs its dense linear algebra on numpy's LAPACK only.

numpy and scipy each load their own OpenBLAS with its own thread pool.  A
scipy.linalg call wakes scipy's worker, which then spins on a core and slows
numpy's next products; so no neural_mpc module may hold a scipy.linalg
function or module.  ``scipy.optimize.nnls`` (the oracle) is allowed.
"""

import importlib
import inspect
import pkgutil

import scipy.linalg

import neural_mpc


def scipy_linalg_names() -> list[str]:
    modules = [neural_mpc] + [
        importlib.import_module(f"neural_mpc.{info.name}")
        for info in pkgutil.iter_modules(neural_mpc.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    found = []
    for module in modules:
        for name, obj in vars(module).items():
            origin = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
            if isinstance(origin, str) and origin.startswith("scipy.linalg"):
                found.append(f"{module.__name__}.{name}")
    return sorted(found)


def test_no_scipy_linalg_in_package():
    assert scipy_linalg_names() == []


def test_guard_catches_scipy_linalg_imports(monkeypatch):
    monkeypatch.setattr(neural_mpc.plant, "expm", scipy.linalg.expm, raising=False)
    monkeypatch.setattr(neural_mpc.condenser, "sla", scipy.linalg, raising=False)
    assert scipy_linalg_names() == ["neural_mpc.condenser.sla", "neural_mpc.plant.expm"]
