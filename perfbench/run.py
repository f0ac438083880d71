#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cechstrat on both kernel backends.

    python3 perfbench/run.py --workload growth_zigzag --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  The harness builds the compiled
kernels from ``src/cechstrat/_kernels/_ckernels.c`` into ``.bench_build/``
(cached by content hash), generates the workload's inputs from ``--seed``
once, and runs each backend in its own fresh interpreter, one at a time,
closed loop: an op starts when the previous one has ended.  Every op's
output is checked by an oracle and compared byte for byte across backends.
Times are scaled to a reference speed of the machine (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
round of inputs untraced and then traced and prints the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BACKENDS = ("compiled", "pure")
#: mean seconds of one op at reference speed (see ``speed.py``), per
#: workload and backend; they size the work of a run, and enter no metric
NOMINAL_OP_S = {
    "growth_zigzag": {"compiled": 0.16, "pure": 1.0},
    "enumerate_poset": {"compiled": 1.8, "pure": 20.7},
}
#: share of ``--seconds`` the pure backend measures; compiled gets the rest
PURE_SHARE = 0.75
#: interpreter starts per backend timed for ``setup_s``
SETUP_PROBES = 3
#: a run ends within this many seconds, whatever the children do
RUN_LIMIT_S = 170.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def build_extension(root: Path, build_dir: Path) -> tuple[Path | None, str]:
    """Compile the tracked Cython output with the C compiler Python was built with."""
    source = root / "src" / "cechstrat" / "_kernels" / "_ckernels.c"
    if not source.is_file():
        return None, f"{source.relative_to(root)} is missing"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-shared", "-fPIC", "-O3", "-fwrapv", "-DNDEBUG",
        "-I", sysconfig.get_paths()["include"],
    ]
    key = hashlib.sha256(source.read_bytes() + repr((cmd, suffix)).encode()).hexdigest()[:16]
    target = build_dir / f"ckernels-{key}" / f"_ckernels{suffix}"
    if target.is_file():
        return target, f"cached build {target.relative_to(root)}"
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    partial = target.with_name(target.name + ".part")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [str(source), "-o", str(partial)], capture_output=True,
                              text=True, timeout=600, env={**os.environ, "TMPDIR": str(tmp_dir)})
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"build failed: {exc}"
    if proc.returncode != 0:
        return None, f"build failed: {proc.stderr.strip()[-500:]}"
    os.replace(partial, target)
    return target, f"built {target.relative_to(root)} in {time.monotonic() - t0:.1f} s"


class Harness:
    """Starts one worker at a time and collects what each prints."""

    def __init__(self, root: Path, workload: str, raw: bytes, extension: Path | None):
        self.root = root
        self.workload = workload
        self.raw = raw
        self.digest = hashlib.sha256(raw).hexdigest()
        self.extension = extension
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # bytecode is cached under the build directory, whatever the caller's setting
        self.env = {**os.environ, "PYTHONHASHSEED": "0",
                    "PYTHONPYCACHEPREFIX": str(root / ".bench_build" / "pycache")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, backend: str, mode: str, passes: int = 1) -> tuple[dict | None, str]:
        """Runs one worker to completion; returns its result or why there is none."""
        if backend == "compiled" and self.extension is None:
            return None, "no compiled kernels"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--backend", backend, "--workload", self.workload, "--mode", mode,
               "--passes", str(passes), "--digest", self.digest]
        if backend == "compiled":
            cmd += ["--extension", str(self.extension)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                cwd=self.root, env=self.env)
        try:
            out, _ = proc.communicate(self.raw, timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return None, "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            return None, f"exited with code {proc.returncode}"
        result = json.loads(out.decode().splitlines()[-1])
        # at reference speed, without the worker's speed sampling
        result["setup_s"] = ((result["ready_at"] - spawned - result["setup_spent"])
                             * result["setup_scale"])
        return result, ""


def unit_of(name: str) -> str:
    if name.startswith("ops_per_s"):
        return "1/s"
    if name.startswith("peak_rss_mb"):
        return "MB"
    if name == "setup_s" or name.startswith(("op_p50_s", "trace.overhead_s")) or ".self_s." in name:
        return "s"
    if name.endswith(("_ratio", "_per_label", "_per_transition")):
        return "ratio"
    return "count"


def _tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten ops beyond it, for information."""
    ranked = sorted(times)
    for p in PERCENTILES:
        if len(ranked) * (1 - p / 100) >= 10:
            value = ranked[min(len(ranked) - 1, int(len(ranked) * p / 100))]
            return f"p{p:g} {value:.4f} s"
    return f"no percentile has ten ops beyond it ({len(ranked)} ops)"


class Tally:
    """Ops attempted and failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        if len(self.notes) < 8 and text not in self.notes:
            self.notes.append(text)

    def ops(self, backend: str, ops: list, n_inputs: int) -> None:
        self.attempted += len(ops)
        for i, op in enumerate(ops):
            status = op[1]
            if status != "ok":
                self.failed += 1
                self.correct &= not status.startswith("wrong")
                self.note(f"{backend} input {i % n_inputs}: {status[:300]}")

    def missing(self, backend: str, why: str, n_ops: int) -> None:
        self.attempted += n_ops
        self.failed += n_ops
        self.note(f"{backend}: no result ({why}); its {n_ops} ops count as failed")

    def compare(self, what: str, a: dict, b: dict, wrong: bool) -> None:
        """Outputs of the same input must be byte-identical.

        ``a`` and ``b`` map an input to the ops run on it.  Every op whose
        output differs from an output of the other side counts as failed.
        Across backends each output has passed its own oracle, so only
        ``wrong`` differences, such as a traced output differing from its
        untraced one, clear ``correct``.
        """
        for i in sorted(a.keys() & b.keys()):
            a_ok, b_ok = ([op[2] for op in side[i] if op[1] == "ok"] for side in (a, b))
            differing = (sum(bool(set(b_ok) - {d}) for d in a_ok)
                         + sum(bool(set(a_ok) - {d}) for d in b_ok))
            if differing:
                self.failed += differing
                self.correct &= not wrong
                self.note(f"input {i}: {what} outputs differ")


def plan(workload: str, n_inputs: int, seconds: float) -> dict[str, int]:
    """Passes over the inputs per backend, so that a run measures about
    ``seconds`` on the reference machine.

    The work follows from the arguments alone, never from the clock, so
    every run of a seed attempts the same ops and fails the same ones.
    """
    share = {"compiled": 1 - PURE_SHARE, "pure": PURE_SHARE}
    return {b: max(1, round(seconds * share[b] / (NOMINAL_OP_S[workload][b] * n_inputs)))
            for b in BACKENDS}


def run_measure(h: Harness, seconds: float, tally: Tally) -> dict[str, float]:
    """Starts interpreters for ``setup_s``, then one measuring worker per backend."""
    setups = []
    for backend in BACKENDS:  # the first start fills the bytecode and file caches
        h.spawn(backend, "setup")
    for _ in range(SETUP_PROBES):
        for backend in BACKENDS:
            result, _ = h.spawn(backend, "setup")
            if result:
                setups.append(result["setup_s"])
    n_inputs = sum(len(r) for r in json.loads(h.raw)["rounds"])
    times = {b: [] for b in BACKENDS}
    raw_s = {b: 0.0 for b in BACKENDS}
    ok = {b: 0 for b in BACKENDS}
    outputs = {b: {} for b in BACKENDS}
    rss = {b: 0.0 for b in BACKENDS}
    passes = plan(h.workload, n_inputs, seconds)
    print(f"passes over the {n_inputs} inputs: {passes['compiled']} compiled, {passes['pure']} pure")
    for backend in BACKENDS:
        result, why = h.spawn(backend, "measure", passes[backend])
        if result is None:
            tally.missing(backend, why, passes[backend] * n_inputs)
            continue
        setups.append(result["setup_s"])
        rss[backend] = result["peak_rss_mb"]
        tally.ops(backend, result["ops"], n_inputs)
        for i, op in enumerate(result["ops"]):
            times[backend].append(op[0])
            raw_s[backend] += op[3]
            ok[backend] += op[1] == "ok"
            outputs[backend].setdefault(i % n_inputs, []).append(op)
    tally.compare("compiled and pure", outputs["compiled"], outputs["pure"], wrong=False)
    metrics = {"setup_s": statistics.median(setups) if setups else 0.0}
    print(f"setup_s is the median of {len(setups)} interpreter starts")
    for backend in BACKENDS:
        t = times[backend]
        metrics[f"ops_per_s.{backend}"] = ok[backend] / sum(t) if t else 0.0
        metrics[f"op_p50_s.{backend}"] = statistics.median(t) if t else 0.0
        metrics[f"peak_rss_mb.{backend}"] = rss[backend]
        print(f"{backend}: {len(t)} ops in {sum(t):.2f} s at reference speed ({raw_s[backend]:.2f} s"
              f" as measured); p50 {metrics[f'op_p50_s.{backend}']:.4f} s over {len(t)} ops;"
              f" {_tail_percentile(t)} (information only)")
    return metrics


def _by_input(ops: list) -> dict[int, list]:
    return {i: [op] for i, op in enumerate(ops)}


def run_trace(h: Harness, tally: Tally) -> dict[str, float]:
    import tracer

    results, counts, metrics = {}, {}, {}
    for backend in BACKENDS:
        result, why = h.spawn(backend, "trace")
        results[backend] = result
        if result is None:
            tally.missing(backend, why, 2 * len(json.loads(h.raw)["rounds"][0]))
            for name in tracer.time_names():
                metrics[f"{name}.{backend}"] = 0.0
            metrics[f"trace.overhead_s.{backend}"] = 0.0
            continue
        tally.ops(backend, result["untraced"], len(result["untraced"]))
        tally.ops(backend, result["ops"], len(result["ops"]))
        tally.compare(f"{backend} traced and untraced", _by_input(result["untraced"]),
                      _by_input(result["ops"]), wrong=True)
        counts[backend] = result["counts"]
        for name in tracer.time_names():
            metrics[f"{name}.{backend}"] = result["times"][name]
        metrics[f"trace.overhead_s.{backend}"] = (
            sum(op[0] for op in result["ops"]) - sum(op[0] for op in result["untraced"]))
    if all(results.values()):
        tally.compare("compiled and pure", _by_input(results["compiled"]["untraced"]),
                      _by_input(results["pure"]["untraced"]), wrong=False)
        if counts["compiled"] != counts["pure"]:
            tally.correct = False
            for name, value in counts["compiled"].items():
                if counts["pure"][name] != value:
                    tally.note(f"{name}: compiled {value} but pure {counts['pure'][name]}")
    reference = counts.get("compiled") or counts.get("pure") or {}
    for name in tracer.EXERCISED[h.workload]:
        if reference and not reference[name]:
            tally.correct = False
            tally.note(f"{name} reads zero on a workload that runs that layer")
    for name in tracer.count_names():
        metrics[name] = reference.get(name, 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "cechstrat" / "__init__.py").is_file():
        print("error: run from the root of a cechstrat checkout (src/cechstrat is missing)",
              file=sys.stderr)
        return 2
    build_dir = root / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    sys.pycache_prefix = str(build_dir / "pycache")
    sys.path.insert(0, str(root / "src"))
    os.environ["CECHSTRAT_KERNELS"] = "pure"
    import workloads

    extension, how = build_extension(root, build_dir)
    print(f"backends: compiled ({how}), pure")
    raw = workloads.make_inputs(args.workload, args.seed)
    h = Harness(root, args.workload, raw, extension)
    print(f"inputs: {args.workload} seed {args.seed}, sha256 {h.digest}")

    tally = Tally()
    if args.trace:
        metrics = run_trace(h, tally)
    else:
        metrics = run_measure(h, args.seconds, tally)
        failed_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"failed_ratio {failed_ratio:.6f} ({tally.failed} of {tally.attempted} ops)")
    for text in tally.notes:
        print(f"note: {text}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
