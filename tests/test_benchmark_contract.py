"""What the benchmark in ``perfbench/`` needs of the package.

The tracer looks each traced function up by name in its module and would fail
only when a benchmark run starts; these checks fail in the test suite instead.
``perfbench/tracer.py`` is loaded from its file, as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import neural_mpc as nm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_traced_functions_resolve(tracer, table):
    entries = getattr(tracer, table)
    assert entries
    missing = [
        f"neural_mpc.{mod}.{func}"
        for mod, func in entries
        if not callable(getattr(importlib.import_module(f"neural_mpc.{mod}"), func, None))
    ]
    assert not missing


def test_multilayer_network_takes_residual(cart_pole_setup):
    # the long-horizon workload records the PALM residual on the network
    _, _, _, data = cart_pole_setup
    multi = nm.MultilayerNetwork(
        omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), residual=0.25
    )
    assert multi.residual == 0.25
