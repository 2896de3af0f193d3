"""Timed and traced runs of one workload, the environment block and the report."""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

from . import stats, tracing, traffic
from .oracle import BASELINE, FAILED, KNOWN_DEFECTS

IMPORTS = {
    "cli.import_factorcomm_ms": "factorcomm",
    "cli.import.numpy_ms": "numpy",
    "cli.import.scipy_linalg_ms": "scipy.linalg",
    "cli.import.scipy_optimize_ms": "scipy.optimize",
}
STARTUP_SAMPLES = 3
TRACE_CHUNKS = 10
END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _read(path, key):
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root, blas_threads, seed) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "factorcomm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                src.update(name.encode() + handle.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "cpu": _read("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _read("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "seed": seed,
    }


def _startup_metrics(root) -> dict:
    """Interpreter start and import times of fresh processes, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    interpreter, imports = [], {name: [] for name in IMPORTS}
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interpreter.append(1e3 * (time.perf_counter() - start))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import factorcomm"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for name, module in IMPORTS.items():
            imports[name].append(cumulative.get(module, 0) / 1e3)
    out = {"cli.interpreter_ms": stats.median(interpreter)}
    out.update({name: stats.median(v) for name, v in imports.items()})
    return out


class Run:
    def __init__(self, args, workload, setup_s, root, out_dir, blas_threads):
        self.args = args
        self.workload = workload
        self.setup = [setup_s]
        self.root = root
        self.out_dir = out_dir
        self.env = environment(root, blas_threads, args.seed)
        self.digest = traffic.digest(workload.inputs)

    def _loop(self, ops, traced, deadline=None):
        latencies, verdicts = [], []
        execute = self.workload.execute
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            latency, verdict = execute(op.case, traced)
            latencies.append(latency)
            verdicts.append(verdict)
        return latencies, verdicts

    def timed(self) -> dict:
        start = time.perf_counter()
        latencies, verdicts = self._loop(self.workload.sequence(), False, start + self.args.seconds)
        wall = time.perf_counter() - start
        who = resource.RUSAGE_CHILDREN if self.args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
        p50 = stats.median(latencies)
        tail, pct, samples = stats.tail(latencies)
        values = {
            "ops_per_s": len(latencies) / wall,
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * tail,
            "wall_s": wall,
            "peak_rss_mb": peak_mb,
        }
        notes = {"op_tail_ms": f"p{pct:.2f} of {samples} samples"}
        return {"values": values, "notes": notes, "verdicts": verdicts}

    def add_setup_samples(self, count, script):
        """Set up again in fresh processes; setup_s is the median of all."""
        a = self.args
        for _ in range(count):
            proc = subprocess.run(
                [sys.executable, script, "--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--setup-only"],
                capture_output=True,
                text=True,
                timeout=170,
            )
            if proc.returncode != 0:
                sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
            self.setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def traced(self, share) -> dict:
        """Run a fixed prefix of the traffic untraced and traced, alternating
        by chunk so that drift in machine speed cancels out of the overhead."""
        prefix, total = [], 0.0
        for op in self.workload.sequence(traced=True):
            if prefix and total + op.cost > share * self.args.seconds:
                break
            prefix.append(op)
            total += op.cost
        tracer = tracing.Tracer()
        verdicts, untraced, traced = [], 0.0, 0.0
        size = -(-len(prefix) // TRACE_CHUNKS)
        for lo in range(0, len(prefix), size):
            chunk = prefix[lo : lo + size]
            start = time.perf_counter()
            self._loop(chunk, True)
            untraced += time.perf_counter() - start
            restore = tracing.install(tracer)
            try:
                start = time.perf_counter()
                for i, op in enumerate(chunk, lo):
                    tracer.op = i
                    verdicts.append(self.workload.execute(op.case, True)[1])
                traced += time.perf_counter() - start
            finally:
                restore()
        wrong = sum(v.status in (FAILED, BASELINE) for v in verdicts)
        extra = _startup_metrics(self.root)
        extra.update(
            {
                "trace.overhead_s": traced - untraced,
                "trace.ops": len(prefix),
                "oracle.failed_frac": wrong / len(prefix),
            }
        )
        metrics = tracing.layer_metrics(tracer, len(prefix), extra)
        spans_path = os.path.join(self.out_dir, f"spans-{self.args.workload}-seed{self.args.seed}.jsonl")
        tracer.write(spans_path)
        notes = {"trace.overhead_s": f"traced {traced:.3f} s - untraced {untraced:.3f} s; spans in {spans_path}"}
        return {"metrics": metrics, "notes": notes, "verdicts": verdicts}

    def finish(self, result) -> int:
        a = self.args
        verdicts = result["verdicts"]
        tally = Counter(v.status for v in verdicts)
        defects = Counter(v.defect for v in verdicts if v.status == BASELINE)
        attempted = len(verdicts)
        if a.trace:
            metrics = result["metrics"]
        else:
            values = dict(result["values"], setup_s=stats.median(self.setup))
            metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
        print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds:g} trace={a.trace}")
        print("env " + json.dumps(self.env, sort_keys=True))
        print(f"inputs sha256={self.digest}")
        for name, m in metrics.items():
            note = result["notes"].get(name, "")
            print(f"metric {name} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
        if not a.trace:
            print(f"setup samples s: {', '.join(f'{s:.4f}' for s in self.setup)}")
        wrong = tally[FAILED] + tally[BASELINE]
        counts = f"{tally[FAILED]} failed + {tally[BASELINE]} baseline of {attempted}"
        print(f"metric failed_frac {wrong / attempted:.6g} ratio ({counts})")
        for defect, count in sorted(defects.items()):
            print(f"baseline {defect}: {count} ops")
        for name in sorted({d for key in defects for d in key.split("+")}):
            print(f"known defect {name}: {KNOWN_DEFECTS[name]}")
        for v in [v for v in verdicts if v.status == FAILED][:10]:
            print(f"FAILED {v.reason}", file=sys.stderr)
        line = {"correct": tally[FAILED] == 0, "attempted": attempted, "failed": tally[FAILED], "metrics": metrics}
        record = dict(line, env=self.env, inputs_sha256=self.digest, baseline=dict(defects), notes=result["notes"])
        path = os.path.join(self.out_dir, f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        print(json.dumps(line))
        return 0
