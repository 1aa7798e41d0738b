"""Analytic cost model.

Oracles: hand evaluations of the primitive formulas at the default
machine point (node count 2^20, radix-8 tree, 32-byte words at
100 GB/s, 1 microsecond latency, 2^30/10^18 seconds per flop).
"""

from __future__ import annotations

import dataclasses

import pytest

from pipekrylov.perfmodel import (
    DEFAULT_NODE_GRID,
    MODEL_METHODS,
    CostModelParams,
    IterationCost,
    MachineSpec,
    ceil_log,
    find_crossover,
    iteration_cost,
    local_unknowns,
    sweep,
    t_axpy,
    t_maxpy,
    t_pc,
    t_pc_comm,
    t_pc_compute,
    t_red_calc,
    t_red_comm,
    t_spmv,
)

SPEC = MachineSpec()
PARAMS = CostModelParams()


def test_ceil_log_hand_values():
    # 8^6 = 2^18 < 2^20 <= 8^7 = 2^21.
    assert ceil_log(2 ** 20, 8) == 7
    assert ceil_log(1, 8) == 0
    assert ceil_log(8, 8) == 1
    assert ceil_log(9, 8) == 2


def test_ceil_log_validation():
    with pytest.raises(ValueError, match=">= 1"):
        ceil_log(0, 8)
    with pytest.raises(ValueError, match="radix"):
        ceil_log(4, 1)


def test_local_unknowns_at_the_default_point():
    # 2000^3 / (2^20 * 2^10) = 8e9 / 2^30, exactly representable.
    assert local_unknowns(SPEC, PARAMS) == 7.450580596923828


def test_reduction_tree_time_hand_value():
    # 2 * 7 hops * (1e-6 + 32/100e9) for one word.
    assert t_red_comm(SPEC, 1.0) == pytest.approx(1.400448e-5, rel=1e-12)
    with pytest.raises(ValueError, match=">= 0"):
        t_red_comm(SPEC, -1.0)


def test_local_flop_terms_hand_formulas():
    n_loc = local_unknowns(SPEC, PARAMS)
    tc = SPEC.flop_time
    assert t_axpy(SPEC, n_loc) == 2.0 * n_loc * tc
    assert t_maxpy(SPEC, 24.0, n_loc) == 2.0 * 24.0 * n_loc * tc
    assert t_red_calc(SPEC, n_loc) == (2.0 * n_loc + 7) * tc


def test_overlapped_primitives_take_the_slower_side():
    calc = 2.0 * PARAMS.nonzeros_per_row * local_unknowns(SPEC, PARAMS) * SPEC.flop_time
    face = (PARAMS.unknowns / SPEC.nodes) ** (2.0 / 3.0)
    exchange = 6.0 * (SPEC.latency + face * SPEC.word_bytes / SPEC.bandwidth)
    assert t_spmv(SPEC, PARAMS) == max(calc, exchange)
    assert t_pc(SPEC, PARAMS) == max(t_pc_compute(SPEC, PARAMS), t_pc_comm(SPEC, PARAMS))


def test_iteration_cost_components_are_consistent():
    for method in MODEL_METHODS:
        cost = iteration_cost(method, SPEC, PARAMS)
        assert cost.method == method
        assert cost.nodes == SPEC.nodes
        assert cost.t_calc > 0.0
        assert cost.t_red >= 0.0
        assert cost.t_total == cost.t_calc + cost.t_red


def test_iteration_cost_normalizes_names_and_rejects_unknown():
    assert iteration_cost("PipeFCG", SPEC, PARAMS).method == "pipefcg"
    with pytest.raises(ValueError, match="unknown cost-model method"):
        iteration_cost("pcg", SPEC, PARAMS)


def test_standard_methods_expose_every_reduction():
    nu = PARAMS.nu_avg
    fcg = iteration_cost("fcg", SPEC, PARAMS)
    assert fcg.t_red == t_red_comm(SPEC, nu + 1.0) + t_red_comm(SPEC, 1.0)
    gcr = iteration_cost("gcr", SPEC, PARAMS)
    assert gcr.t_red == t_red_comm(SPEC, nu) + t_red_comm(SPEC, 2.0)


def test_pipelined_exposure_is_clamped_at_zero():
    small = dataclasses.replace(SPEC, nodes=1024)
    assert iteration_cost("pipefcg", small, PARAMS).t_red == 0.0


def test_sweep_covers_the_grid_nodes_major():
    grid = (1024, 2048, 4096)
    costs = sweep(("fcg", "pipefcg"), SPEC, PARAMS, grid)
    assert len(costs) == 6
    assert [c.nodes for c in costs] == [1024, 1024, 2048, 2048, 4096, 4096]
    assert [c.method for c in costs] == ["fcg", "pipefcg"] * 3
    assert len(sweep(("fcg",), SPEC, PARAMS)) == len(DEFAULT_NODE_GRID)


def test_crossover_at_the_default_operating_point():
    assert find_crossover("fcg", "pipefcg", SPEC, PARAMS) == 65536


def test_crossover_without_latency_never_happens():
    # With zero message latency the single extra local work of the
    # pipelined variant is never repaid.
    free = dataclasses.replace(SPEC, latency=0.0)
    assert find_crossover("fcg", "pipefcg", free, PARAMS) is None


def test_exposed_reduction_time_reappears_at_scale():
    at2e5 = dataclasses.replace(SPEC, nodes=200000)
    at1e6 = dataclasses.replace(SPEC, nodes=1000000)
    assert iteration_cost("pipefcg", at2e5, PARAMS).t_red == 0.0
    assert iteration_cost("pipefcg", at1e6, PARAMS).t_red > 0.0


def test_machine_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        MachineSpec(nodes=0)
    with pytest.raises(ValueError, match="bandwidth"):
        MachineSpec(bandwidth=0.0)
    with pytest.raises(ValueError, match="radix"):
        MachineSpec(tree_radix=1)
    with pytest.raises(ValueError, match="latency"):
        MachineSpec(latency=-1.0)


def test_cost_params_validation_and_window_average():
    with pytest.raises(ValueError, match="unknowns"):
        CostModelParams(unknowns=0.0)
    with pytest.raises(ValueError, match="kavg"):
        CostModelParams(kavg=0.0)
    with pytest.raises(ValueError, match="kavg"):
        CostModelParams(kavg=1.5)
    with pytest.raises(ValueError, match="numax"):
        CostModelParams(numax=0)
    assert CostModelParams(numax=30, kavg=0.8).nu_avg == 24.0


def test_iteration_cost_rejects_negative_components():
    with pytest.raises(ValueError, match="nonnegative"):
        IterationCost(method="fcg", nodes=1, t_calc=-1.0, t_red=0.0)


def test_crossover_does_not_depend_on_the_grid_order():
    assert find_crossover("fcg", "pipefcg", SPEC, PARAMS, (65536, 1024)) == 65536
    assert find_crossover("fcg", "pipefcg", SPEC, PARAMS, (65536, 1024, 65536)) == 65536


@pytest.mark.parametrize("cls", [MachineSpec, CostModelParams])
def test_every_float_field_must_be_finite(cls):
    for field in dataclasses.fields(cls):
        if isinstance(field.default, float):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{field.name} must be finite"):
                    cls(**{field.name: value})
