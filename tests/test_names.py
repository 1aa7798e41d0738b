"""One spelling rule for every name the package looks up."""

from __future__ import annotations

import pytest

from pipekrylov.names import canonical_name
from pipekrylov.perfmodel import CostModelParams, MachineSpec, iteration_cost
from pipekrylov.preconditioners import make_preconditioner
from pipekrylov.problems import make_poisson
from pipekrylov.solvers import SolverConfig


@pytest.mark.parametrize("raw,name", [
    ("jacobi", "jacobi"), (" Jacobi ", "jacobi"), ("Block-Jacobi", "block_jacobi"),
    ("\tnested-KRYLOV\n", "nested_krylov"), ("pipefcg_naive", "pipefcg_naive"),
])
def test_canonical_name(raw, name):
    assert canonical_name(raw) == name


@pytest.mark.parametrize("raw", [" jacobi", "Block-Jacobi ", " NESTED-krylov"])
def test_preconditioner_kinds_take_the_rule_of_methods(raw):
    B = make_preconditioner(raw, make_poisson(2, 4).A)
    assert B.kind == canonical_name(raw)


def test_methods_take_the_same_rule_everywhere():
    assert SolverConfig(method=" PipeFCG-Naive ").method == "pipefcg_naive"
    spec, params = MachineSpec(nodes=4), CostModelParams()
    assert iteration_cost(" PIPEGCR-W ", spec, params) == iteration_cost("pipegcr_w", spec, params)
