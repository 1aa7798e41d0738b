"""Print three sha256 digests per (case, method) of everything a solve emits.

The ``trace`` digest covers the trace CSV bytes, ``x_final.tobytes()`` and
the stop reason; the ``events`` digest covers the observer event stream.
Both come from a solve that reads the iterate on every row: it is given
``x_true`` and an observer, and monitors the true residual.  The ``bare``
digest covers the same three items for the case solved with no
``x_true``, no observer and monitoring off, the path in which a solver
need not form its iterate on every row.  Two checkouts that print the
same lines produce byte-identical solver output on these cases, and a
line whose ``trace`` digest matches while its ``events`` digest differs
changed only what the observer sees.  Run it from the repository root on
both sides of a change and diff the output:

    PYTHONPATH=src python3 -W error::RuntimeWarning tools/trace_digests.py > digests.txt

Each line reads
``case method iterations stop_reason trace=... events=... bare=...``.
The last line, ``cli compare=... perfmodel=... probe=... help=...``,
digests the command line's exit codes and output through
``pipekrylov.cli.main``: a 14-method noisy ``compare`` (its CSV bytes and
standard output), the ``perfmodel --crossover fcg,pipefcg`` CSV, a
``probe`` report and the four subcommands' ``--help`` texts at 80
columns.

The BLAS thread count changes the rounding of ``linalg.mdot``, the
window projection of the FCG, CR-window and GMRES methods, on long
vectors; ``dot`` and ``norm2`` take one thread (see ``pipekrylov.linalg``),
and the ``poisson128-scalar`` case runs the methods that use no other
reduction on vectors long enough for a threaded sum, so its lines must
not depend on the thread count.  Compare runs made with the same
``OPENBLAS_NUM_THREADS``.  Lines whose
solves draw Gaussian noise also depend on numpy's single-precision sine
and cosine (see ``pipekrylov.rng``), so compare them on one machine and
numpy build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from pipekrylov import cli
from pipekrylov.linalg import SparseOperator
from pipekrylov.preconditioners import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    NoisyPreconditioner,
    Preconditioner,
)
from pipekrylov.problems import make_identity, make_poisson, make_sinker, make_toy_diagonal
from pipekrylov.rng import SplitMix64
from pipekrylov.solvers import METHODS, SolverConfig, solve
from pipekrylov.traceio import write_trace_csv

INDEFINITE = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.5])


def _indefinite(b):
    A = SparseOperator.from_dense(np.diag(INDEFINITE), symmetric=True)
    return A, IdentityPreconditioner, np.asarray(b, dtype=float), None


def _poisson(pc, n=32):
    prob = make_poisson(2, n, seed=0)
    return prob.A, lambda: pc(prob.A), prob.b, prob.x_true


def _noisy_toy():
    prob = make_toy_diagonal(100, 5.0)
    return prob.A, lambda: NoisyPreconditioner(1e-2, seed=7), prob.b, prob.x_true


def _identity():
    prob = make_identity(7)
    return prob.A, lambda: JacobiPreconditioner(prob.A), prob.b, prob.x_true


def _sinker():
    prob = make_sinker(32, 1e3)
    return prob.A, lambda: JacobiPreconditioner(prob.A), prob.b, prob.x_true


def _sinker_prescaled():
    prob = make_sinker(32, 1e3)
    return prob.A, lambda: JacobiPreconditioner(prob.A.scaled), prob.b, prob.x_true


def _permuted_poisson():
    prob = make_poisson(2, 32, seed=0)
    perm = np.argsort(SplitMix64(11).uniform01(prob.b.shape[0]), kind="stable")
    A = SparseOperator.from_scipy(prob.A.csr[perm][:, perm], symmetric=True)
    return A, lambda: JacobiPreconditioner(A), prob.b[perm], prob.x_true[perm]


def _noisy_poisson(A):
    return NoisyPreconditioner(1e-4, seed=3)


class _ZeroOnCalls(Preconditioner):
    """Jacobi that returns the zero vector on the chosen (0-based) calls;
    in the minimal-residual methods a zero image vanishes the column."""

    def __init__(self, A, calls):
        self._inner = JacobiPreconditioner(A)
        self._calls = frozenset(calls)
        self._count = 0

    def apply(self, r):
        self._count += 1
        if self._count - 1 in self._calls:
            return np.zeros_like(r)
        return self._inner.apply(r)


# name -> (system builder, SolverConfig overrides)
CASES = {
    "poisson2d-jacobi": (lambda: _poisson(JacobiPreconditioner), {}),
    "noisy-toy": (_noisy_toy, dict(rtol=1e-16, max_it=500, numax=100,
                                   restart_len=10, stagnation_window=50)),
    "indefinite-ones": (lambda: _indefinite(np.ones(8)), dict(max_it=50)),
    "indefinite-3131": (lambda: _indefinite([3.0, 1.0] * 4), dict(max_it=50)),
    "theta-zero": (lambda: _poisson(_noisy_poisson), dict(theta_mode="zero")),
    "theta-one": (lambda: _poisson(_noisy_poisson), dict(theta_mode="one")),
    "theta-exact": (lambda: _poisson(_noisy_poisson), dict(theta_mode="exact")),
    "truncation-standard": (lambda: _poisson(JacobiPreconditioner),
                            dict(truncation="standard", numax=5)),
    "restart-10": (lambda: _poisson(JacobiPreconditioner), dict(restart_len=10)),
    # the GMRES methods reach max_it on the row that fills their second cycle
    "max-it-cycle-end": (lambda: _poisson(JacobiPreconditioner),
                         dict(restart_len=10, max_it=20)),
    "sigma-auto-5": (lambda: _poisson(JacobiPreconditioner),
                     dict(sigma_auto_power=5)),
    # the identity preconditioner does not depend on the scaled operator
    "prescale": (lambda: _poisson(lambda A: IdentityPreconditioner()),
                 dict(prescale=True)),
    "atol": (lambda: _poisson(JacobiPreconditioner), dict(atol=1e-3, rtol=1e-12)),
    "stagnation": (lambda: _poisson(JacobiPreconditioner),
                   dict(rtol=1e-30, stagnation_window=30, max_it=600)),
    "sigma-0.5": (lambda: _poisson(JacobiPreconditioner), dict(sigma=0.5)),
    # a zero image on call 0 vanishes the first GMRES column; in fgmres
    # and cgfgmres call 11 opens the cycle after a full one, in pipefgmres
    # it is a recurred image that fails the Pythagorean identity
    "vanished-column": (lambda: _poisson(lambda A: _ZeroOnCalls(A, (0, 11))),
                        dict(restart_len=10)),
    # a diagonal from 4 to 4000, so Jacobi is not a multiple of I and the
    # window coefficients carry weight; with the window off the case does
    # not depend on the stagnation policy
    "sinker-jacobi": (_sinker, dict(numax=5, stagnation_window=0)),
    # Jacobi-scaled sinker: its diagonal runs from 4 to 4000, so the
    # two-sided scaling rounds, unlike Poisson's exact scaling by 0.5
    "sinker-prescale": (_sinker_prescaled, dict(prescale=True)),
    # the same Poisson system under a seeded symmetric permutation, its
    # entries scattered over hundreds of diagonals and given as
    # compressed-row arrays, in which form the operator is applied
    "poisson-permuted": (_permuted_poisson, {}),
    # five inner CG iterations on each of four diagonal blocks, each block
    # an operator of its own cut from the Poisson operator
    "block-jacobi-4": (lambda: _poisson(lambda A: BlockJacobiPreconditioner(A, n_blocks=4)),
                       {}),
    # b spans a one-dimensional Krylov space: every method stops on row 1,
    # the fused GMRES methods on a first column whose Pythagorean
    # remainder rounds below zero
    "identity-7": (_identity, {}),
    # 32 KiB vectors in windows and cycles of 4-8 MiB, above the line
    # from which ``linalg.blocks`` advises huge pages
    "poisson64-wide": (lambda: _poisson(JacobiPreconditioner, 64),
                       dict(numax=64, restart_len=64, max_it=200)),
    # 128 KiB vectors, long enough for OpenBLAS to thread a dot product;
    # run only for the methods whose one reduction is ``dot``/``norm2``
    "poisson128-scalar": (lambda: _poisson(JacobiPreconditioner, 128), {}),
}

# the methods run on a case, where not every one
CASE_METHODS = {"poisson128-scalar": ("pcg", "cgcg", "pipecg", "pcr")}


def _update_with_event(h, event, i, payload) -> None:
    h.update(f"{event}:{i}".encode())
    for key in sorted(payload):
        value = payload[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray)
                 else repr(value).encode())


def _result_digest(res) -> str:
    buf = io.StringIO()
    write_trace_csv(buf, res.trace)
    h = hashlib.sha256(buf.getvalue().encode())
    h.update(res.x_final.tobytes())
    h.update(res.stop_reason.encode())
    return h.hexdigest()


def digest(case: str, method: str) -> tuple[str, str, str, int, str]:
    """(trace digest, events digest, bare digest, iterations, stop reason)."""
    build, overrides = CASES[case]
    A, make_pc, b, x_true = build()
    kwargs = dict(max_it=400)
    kwargs.update(overrides)
    events = hashlib.sha256()
    res = solve(SolverConfig(method=method, **kwargs), A, make_pc(), b,
                x_true=x_true, seed=0,
                observer=lambda e, i, p: _update_with_event(events, e, i, p))
    bare = solve(SolverConfig(method=method, monitor_true_residual=False, **kwargs),
                 A, make_pc(), b, seed=0)
    return (_result_digest(res), events.hexdigest(), _result_digest(bare),
            res.iterations, res.stop_reason)


def _cli_output(argv: list[str], csv_path: str | None = None) -> bytes:
    """Exit code and standard output of one command, then the CSV it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ([] if csv_path is None else ["--out", csv_path]))
    data = f"{code}\n{out.getvalue()}".encode()
    if csv_path is not None:
        with open(csv_path, "rb") as handle:
            data += handle.read()
    return data


def cli_digests() -> dict[str, str]:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {
            "compare": _cli_output(
                ["compare", "--problem", "poisson2d", "--n", "32", "--pc", "noisy",
                 "--methods", ",".join(METHODS)], os.path.join(tmp, "compare.csv")),
            "perfmodel": _cli_output(["perfmodel", "--crossover", "fcg,pipefcg"],
                                     os.path.join(tmp, "perfmodel.csv")),
            "probe": _cli_output(["probe", "--problem", "poisson2d", "--n", "8",
                                  "--pc", "noisy", "--samples", "20"]),
            "help": b"".join(_cli_output([command, "--help"])
                             for command in ("solve", "compare", "perfmodel", "probe")),
        }
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def main() -> None:
    for case in CASES:
        for method in CASE_METHODS.get(case, METHODS):
            trace, events, bare, iters, reason = digest(case, method)
            print(f"{case} {method} {iters} {reason} trace={trace} events={events} "
                  f"bare={bare}")
    print("cli " + " ".join(f"{name}={value}" for name, value in cli_digests().items()))


if __name__ == "__main__":
    main()
