"""Analytic per-iteration cost model for the solver families.

Costs are built from a small set of machine primitives: local flop terms
(AXPY, MAXPY, the local part of a reduction), a latency/bandwidth model
of a radix-r reduction tree, and max-of-compute-and-communication models
for the sparse operator application and the preconditioner sweep.  Each
method's per-iteration cost splits into ``t_calc`` (work that cannot be
hidden) and ``t_red`` (exposed reduction communication); pipelined
methods subtract the work their single reduction phase overlaps, clamped
at zero.

The model is a per-iteration cost only; Hessenberg manipulation in the
minimal-residual methods is excluded, and the average orthogonalization
window enters as nu_avg = kavg * numax.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .names import canonical_name

__all__ = [
    "MODEL_METHODS",
    "DEFAULT_NODE_GRID",
    "MachineSpec",
    "CostModelParams",
    "IterationCost",
    "ceil_log",
    "local_unknowns",
    "t_axpy",
    "t_maxpy",
    "t_red_calc",
    "t_red_comm",
    "t_spmv",
    "t_pc",
    "t_pc_compute",
    "t_pc_comm",
    "iteration_cost",
    "sweep",
    "find_crossover",
]

# Methods the cost table models (the fused single-reduction variants cost
# the same local work as their standard counterparts and are not tabled).
MODEL_METHODS = (
    "fcg", "pipefcg", "gcr", "pipegcr", "pipegcr_w", "fgmres", "pipefgmres",
)

# Geometric node grid for sweeps; extends past 2**20 so the latency
# plateau at high node counts is visible.
DEFAULT_NODE_GRID: tuple[int, ...] = tuple(2 ** k for k in range(10, 23))


def _check_finite(settings) -> None:
    """NaN fails no ordering check below, so every float field is first
    required to be finite."""
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite")


@dataclass(frozen=True)
class MachineSpec:
    """Machine parameters; defaults model a hypothesized exascale system."""

    nodes: int = 2 ** 20
    cores_per_node: int = 2 ** 10
    word_bytes: float = 32.0
    bandwidth: float = 100.0e9
    tree_radix: int = 8
    latency: float = 1.0e-6
    flop_time: float = 2 ** 30 / 1.0e18

    def __post_init__(self):
        _check_finite(self)
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("node and core counts must be positive")
        if self.word_bytes <= 0.0 or self.bandwidth <= 0.0:
            raise ValueError("word size and bandwidth must be positive")
        if self.tree_radix < 2:
            raise ValueError("tree radix must be >= 2")
        if self.latency < 0.0 or self.flop_time <= 0.0:
            raise ValueError("latency must be >= 0 and flop time positive")

    @property
    def cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def word_time(self) -> float:
        """Seconds per word through the network."""
        return self.word_bytes / self.bandwidth


@dataclass(frozen=True)
class CostModelParams:
    """Problem and algorithm parameters entering the cost table."""

    unknowns: float = 2000.0 ** 3
    nonzeros_per_row: float = 7.0
    numax: int = 30
    kavg: float = 0.8
    restart_len: int = 30
    pc_inner_iters: int = 5

    def __post_init__(self):
        _check_finite(self)
        if self.unknowns <= 0.0:
            raise ValueError("unknowns must be positive")
        if self.nonzeros_per_row <= 0.0:
            raise ValueError("nonzeros per row must be positive")
        if self.numax < 1:
            raise ValueError("numax must be >= 1")
        if not (0.0 < self.kavg <= 1.0):
            raise ValueError("kavg must lie in (0, 1]")
        if self.restart_len < 1:
            raise ValueError("restart_len must be >= 1")
        if self.pc_inner_iters < 0:
            raise ValueError("pc_inner_iters must be >= 0")

    @property
    def nu_avg(self) -> float:
        """Average orthogonalization window length."""
        return self.kavg * self.numax


@dataclass(frozen=True)
class IterationCost:
    method: str
    nodes: int
    t_calc: float
    t_red: float

    def __post_init__(self):
        if self.t_calc < 0.0 or self.t_red < 0.0:
            raise ValueError("cost components must be nonnegative")

    @property
    def t_total(self) -> float:
        return self.t_calc + self.t_red


def ceil_log(n: int, radix: int) -> int:
    """Smallest L with radix**L >= n, computed with integer arithmetic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if radix < 2:
        raise ValueError("radix must be >= 2")
    level = 0
    reach = 1
    while reach < n:
        reach *= radix
        level += 1
    return level


def local_unknowns(spec: MachineSpec, params: CostModelParams) -> float:
    """Unknowns per core, the n entering every local flop term."""
    return params.unknowns / spec.cores


def t_axpy(spec: MachineSpec, n_loc: float) -> float:
    return 2.0 * n_loc * spec.flop_time


def t_maxpy(spec: MachineSpec, m: float, n_loc: float) -> float:
    return 2.0 * m * n_loc * spec.flop_time


def t_red_calc(spec: MachineSpec, n_loc: float) -> float:
    """Local compute share of one reduction phase."""
    return (2.0 * n_loc + ceil_log(spec.nodes, spec.tree_radix)) * spec.flop_time


def t_red_comm(spec: MachineSpec, n_words: float) -> float:
    """Reduce-and-broadcast of n_words through the radix-r tree."""
    if n_words < 0.0:
        raise ValueError("word count must be >= 0")
    hops = ceil_log(spec.nodes, spec.tree_radix)
    return 2.0 * hops * (spec.latency + n_words * spec.word_time)


def _neighbor_exchange(spec: MachineSpec, params: CostModelParams) -> float:
    """Face exchange of a cubic subdomain: six neighbor messages."""
    face = (params.unknowns / spec.nodes) ** (2.0 / 3.0)
    return 6.0 * (spec.latency + face * spec.word_time)


def t_spmv(spec: MachineSpec, params: CostModelParams) -> float:
    """Operator application: compute and neighbor exchange overlap."""
    calc = 2.0 * params.nonzeros_per_row * local_unknowns(spec, params) * spec.flop_time
    return max(calc, _neighbor_exchange(spec, params))


def t_pc_compute(spec: MachineSpec, params: CostModelParams) -> float:
    """Local preconditioner sweep: per inner iteration one local operator
    application (2 nz n), two AXPY (4 n), two subdomain dots (4 n), and a
    diagonal scaling (n)."""
    flops_per_iter = (2.0 * params.nonzeros_per_row + 9.0) * local_unknowns(spec, params)
    return params.pc_inner_iters * flops_per_iter * spec.flop_time


def t_pc_comm(spec: MachineSpec, params: CostModelParams) -> float:
    """Preconditioner neighbor exchange, same pattern as the operator's."""
    return _neighbor_exchange(spec, params)


def t_pc(spec: MachineSpec, params: CostModelParams) -> float:
    """Preconditioner application: compute and exchange overlap, like the
    operator application it mirrors."""
    return max(t_pc_compute(spec, params), t_pc_comm(spec, params))


def iteration_cost(method: str, spec: MachineSpec,
                   params: CostModelParams) -> IterationCost:
    """Per-iteration cost split into unhidden work and exposed reductions.

    Pipelined rows subtract the overlapped work (their bracket) from the
    reduction communication, clamped at zero; standard rows expose every
    reduction phase in full.
    """
    name = canonical_name(method)
    n = local_unknowns(spec, params)
    nu = params.nu_avg
    tc = spec.flop_time
    ax = t_axpy(spec, n)
    rc = t_red_calc(spec, n)
    spmv = t_spmv(spec, params)
    pc = t_pc(spec, params)

    def mx(m: float) -> float:
        return t_maxpy(spec, m, n)

    def rcomm(words: float) -> float:
        return t_red_comm(spec, words)

    if name == "fcg":
        calc = 2.0 * ax + mx(nu) + (nu + 2.0) * rc + spmv + pc
        red = rcomm(nu + 1.0) + rcomm(1.0)
    elif name == "pipefcg":
        calc = 4.0 * ax + 4.0 * mx(nu) + (nu + 2.0) * rc + spmv + pc + 2.0 * n * tc
        red = max(0.0, rcomm(nu + 2.0) - (spmv + pc + 2.0 * n * tc))
    elif name == "gcr":
        calc = 2.0 * ax + mx(nu) + (nu + 2.0) * rc + spmv + pc
        red = rcomm(nu) + rcomm(2.0)
    elif name == "pipegcr":
        calc = 3.0 * ax + 3.0 * mx(nu) + (nu + 2.0) * rc + spmv + pc + 2.0 * n * tc
        red = max(0.0, rcomm(nu + 2.0) - (pc + 2.0 * n * tc))
    elif name == "pipegcr_w":
        calc = 4.0 * ax + 4.0 * mx(nu) + (nu + 2.0) * rc + spmv + pc + 2.0 * n * tc
        red = max(0.0, rcomm(nu + 2.0) - (spmv + pc + 2.0 * n * tc))
    elif name == "fgmres":
        calc = mx(nu) + n * tc + (nu + 1.0) * rc + spmv + pc
        red = rcomm(nu) + rcomm(1.0)
    elif name == "pipefgmres":
        calc = (nu * ax + 3.0 * mx(nu) + (nu + 5.0) * n * tc
                + (nu + 2.0) * rc + spmv + pc)
        red = max(0.0, rcomm(nu + 2.0) - (spmv + pc))
    else:
        raise ValueError(
            f"unknown cost-model method {method!r}; expected one of {MODEL_METHODS}")
    return IterationCost(method=name, nodes=spec.nodes, t_calc=calc, t_red=red)


def sweep(methods: Sequence[str], spec_base: MachineSpec,
          params: CostModelParams,
          node_counts: Optional[Iterable[int]] = None) -> list[IterationCost]:
    """Evaluate the cost table over a node grid, cores per node fixed."""
    grid = DEFAULT_NODE_GRID if node_counts is None else tuple(node_counts)
    out: list[IterationCost] = []
    for nodes in grid:
        spec = dataclasses.replace(spec_base, nodes=int(nodes))
        for method in methods:
            out.append(iteration_cost(method, spec, params))
    return out


def find_crossover(method_std: str, method_pipe: str, spec: MachineSpec,
                   params: CostModelParams,
                   node_counts: Optional[Iterable[int]] = None) -> Optional[int]:
    """Smallest grid node count from which the pipelined variant stays
    cheaper (total time) than the standard one; None when it never does.
    The grid is taken in ascending order, duplicates dropped.
    """
    grid = sorted(set(DEFAULT_NODE_GRID if node_counts is None else node_counts))
    wins: list[bool] = []
    for nodes in grid:
        at = dataclasses.replace(spec, nodes=int(nodes))
        pipe = iteration_cost(method_pipe, at, params).t_total
        std = iteration_cost(method_std, at, params).t_total
        wins.append(pipe < std)
    for idx, won in enumerate(wins):
        if won and all(wins[idx:]):
            return int(grid[idx])
    return None
