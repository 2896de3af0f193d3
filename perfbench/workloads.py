"""The four workloads: one caller, closed loop, inputs from traffic.py.

Each workload yields an endless, seeded sequence of ops with a nominal cost
in seconds.  The costs were measured once on a 2-core Xeon with one BLAS
thread and are constants: they fix the order of the traffic, so the
sequence does not depend on how fast the code under test runs.
"""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from . import oracle, traffic
from .oracle import FAILED, Verdict


@dataclass
class Op:
    case: object
    cost: float


def stride(classes):
    """Interleave ``(cost, cases)`` classes so each gets an equal share of
    nominal time: always serve the class that has received least so far."""
    served = [0.0] * len(classes)
    cycles = [itertools.cycle(cases) for _, cases in classes]
    while True:
        i = min(range(len(classes)), key=served.__getitem__)
        served[i] += classes[i][0]
        yield Op(next(cycles[i]), classes[i][0])


def _failed(case, exc) -> Verdict:
    return Verdict(FAILED, f"{getattr(case, 'label', case)}: {type(exc).__name__}: {exc}")


class Classify:
    """classify_pair on realizations, Ginibre, commuting and Pauli-tensor
    pairs at n in {4, 16, 64, 128}; Hermitian pairs that satisfy the norm
    condition also build and verify the unitary intertwiner."""

    # Nominal seconds per op and distinct draws of the 21-case family set.
    COSTS = {4: 0.0006, 16: 0.0016, 64: 0.027, 128: 0.25}
    DRAWS = {4: 8, 16: 4, 64: 2, 128: 1}

    def __init__(self, seed, workdir):
        import factorcomm

        self.fc = factorcomm
        self.cases = {
            n: [c for d in range(self.DRAWS[n]) for c in traffic.classify_cases(seed, n, d)]
            for n in traffic.CLASSIFY_SIZES
        }
        self.inputs = [c for n in traffic.CLASSIFY_SIZES for c in self.cases[n]]

    def sequence(self, traced=False):
        return stride([(self.COSTS[n], self.cases[n]) for n in traffic.CLASSIFY_SIZES])

    def warm_up(self):
        for case in self.cases[4][:21] + self.cases[16][:21]:
            self.execute(case)

    def execute(self, case, traced=False):
        fc = self.fc
        start = time.perf_counter()
        try:
            pair = fc.OperatorPair(A=case.A, B=case.B)
            report = fc.classify_pair(pair)
            if case.intertwine:
                U = fc.construct_intertwiner(pair).U
                verified = fc.verify_intertwiner(pair, U)
        except Exception as exc:  # any escape is a failed op, not a crash
            return time.perf_counter() - start, _failed(case, exc)
        latency = time.perf_counter() - start
        f = report.factor
        verdict = oracle.classify_verdict(case, f.status, f.lambda_hat, report.consistent, report.violations)
        if case.intertwine:
            intertwined = oracle.intertwiner_verdict(case, U, verified)
            if intertwined.status == FAILED:
                verdict = intertwined
        return latency, verdict


class Stone:
    """stone_projection at n in {16, 64}, epsilon 1e-3, 2000 nodes.

    An n=64 op takes 2 s, a tenth of a run, and a Gauss-Legendre op spends
    0.8 s building its nodes.  Interleaved, ops that coarse make the op
    count jump with the phase at which the deadline falls.  So a run opens
    with one op of each and then repeats n=16 trapezoid ops; the head is
    kept short because its time is taken from the fill.
    """

    HEAD = [(64, "trapezoid", 2.0), (16, "gauss-legendre", 0.9)]
    FILL_COST = 0.09
    FILL_DRAWS = 8

    def __init__(self, seed, workdir):
        import factorcomm

        self.fc = factorcomm
        self.head = [Op(traffic.stone_case(seed, n, i, rule), c) for i, (n, rule, c) in enumerate(self.HEAD)]
        self.fill = [traffic.stone_case(seed, 16, 100 + d, "trapezoid") for d in range(self.FILL_DRAWS)]
        self.inputs = [op.case for op in self.head] + self.fill

    def sequence(self, traced=False):
        return itertools.chain(self.head, (Op(c, self.FILL_COST) for c in itertools.cycle(self.fill)))

    def warm_up(self):
        self.execute(self.fill[0])

    def execute(self, case, traced=False):
        fc = self.fc
        spec = fc.StoneQuadratureSpec(
            interval=traffic.STONE_INTERVAL,
            epsilon=traffic.STONE_EPSILON,
            nodes=traffic.STONE_NODES,
            rule=case.rule,
        )
        start = time.perf_counter()
        try:
            result = fc.stone_projection(case.A, spec)
        except Exception as exc:
            return time.perf_counter() - start, _failed(case, exc)
        return time.perf_counter() - start, oracle.stone_verdict(case, result.projection)


class CliCold:
    """One fresh ``python -m factorcomm.cli`` process per op, spawn to exit.

    The traced run cannot see inside child processes, so it runs the same
    commands through ``factorcomm.cli.main`` in-process instead.
    """

    COST = 0.7
    IN_PROCESS_COSTS = {"suite": 0.15, "stone": 0.05}
    IN_PROCESS_COST = 0.005

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.cases = traffic.cli_cases(seed)
        self.inputs = [(c.argv, sorted(c.files.items())) for c in self.cases]
        for case in self.cases:
            for name, text in case.files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def sequence(self, traced=False):
        if not traced:
            return (Op(c, self.COST) for c in itertools.cycle(self.cases))
        costs = self.IN_PROCESS_COSTS
        return (Op(c, costs.get(c.kind, self.IN_PROCESS_COST)) for c in itertools.cycle(self.cases))

    def warm_up(self):
        self.execute(self.cases[0])

    def execute(self, case, traced=False):
        run = self._in_process if traced else self._spawn
        start = time.perf_counter()
        rc, out, err = run(case.argv)
        latency = time.perf_counter() - start
        try:
            return latency, oracle.cli_verdict(case, rc, out, err)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return latency, _failed(case, exc)

    def _spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "factorcomm.cli", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv):
        from factorcomm import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # what the interpreter would print and exit 1 on
                    traceback.print_exc()
                    rc = 1
        finally:
            os.chdir(cwd)
        return rc, out.getvalue(), err.getvalue()


class Suite:
    """run_suite(SuiteConfig(seed=s_i, trials=40, max_dim=8)) per op."""

    COST = 0.33
    SEEDS = 256

    def __init__(self, seed, workdir):
        import factorcomm

        self.fc = factorcomm
        self.seeds = traffic.suite_seeds(seed, self.SEEDS)
        self.inputs = self.seeds

    def sequence(self, traced=False):
        return (Op(s, self.COST) for s in itertools.cycle(self.seeds))

    def warm_up(self):
        self.fc.run_suite(self.fc.SuiteConfig(seed=0, trials=1, max_dim=traffic.SUITE_MAX_DIM))

    def execute(self, seed, traced=False):
        fc = self.fc
        start = time.perf_counter()
        try:
            config = fc.SuiteConfig(seed=seed, trials=traffic.SUITE_TRIALS, max_dim=traffic.SUITE_MAX_DIM)
            outcome = fc.run_suite(config)
        except Exception as exc:
            return time.perf_counter() - start, _failed(f"suite seed {seed}", exc)
        return time.perf_counter() - start, oracle.suite_verdict(seed, outcome)


WORKLOADS = {"classify": Classify, "stone": Stone, "cli-cold": CliCold, "suite": Suite}
