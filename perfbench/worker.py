"""One backend's side of a benchmark run, in a fresh interpreter.

Started by ``run.py`` with the workload's inputs on stdin.  It imports the
package with the requested kernel backend, decodes and checks the inputs,
then, by ``--mode``:

- ``setup``: exits as soon as the first op is ready;
- ``measure``: runs ``--passes`` passes over all inputs, in order, while
  a probe samples the machine's speed (see ``speed.py``);
- ``trace``: runs the first round untraced, then again traced.

It prints one JSON object: when it was ready, one entry per op (its
seconds, status and output sha256 first), its peak RSS and, when tracing,
the per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.abc
import importlib.util
import json
import os
import sys
import time

import speed

EXT_MODULE = "cechstrat._kernels._ckernels"

class _ExtensionFinder(importlib.abc.MetaPathFinder):
    """Loads the compiled kernels from the benchmark's build directory."""

    def __init__(self, path: str):
        self.path = path

    def find_spec(self, fullname, path, target=None):
        if fullname == EXT_MODULE:
            return importlib.util.spec_from_file_location(fullname, self.path)
        return None


def _clear_caches() -> None:
    """Empty every ``functools`` cache in the package, as a new process would."""
    for name, module in list(sys.modules.items()):
        if name == "cechstrat" or name.startswith("cechstrat."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _peak_rss_mb() -> float:
    """High-water resident set of this program image.

    ``ru_maxrss`` would not do: across ``exec`` it keeps the peak of the
    harness process this worker was forked from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_op(op, render, check, inp, tracer=None, probe=None):
    """Times one op; returns ``[seconds, status, output sha256, start, end]``.
    Seconds the ``probe`` spent sampling inside the op are not counted."""
    _clear_caches()
    if tracer is not None:
        tracer.enabled = True
    spent = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    status = "ok"
    try:
        result = op(inp)
    except Exception as exc:  # the op failed; record why and go on
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
    seconds = t1 - t0 - ((probe.spent - spent) if probe else 0.0)
    entry = [seconds, status, None, t0, t1]
    if status != "ok":
        return entry
    try:
        text = render(result)
        if check is not None:
            check(inp, result)
    except Exception as exc:  # a wrong or unreadable output
        entry[1] = f"wrong: {type(exc).__name__}: {exc}"
        return entry
    entry[2] = hashlib.sha256(text.encode()).hexdigest()
    return entry


def main() -> int:
    # the probe runs from the start, so that set-up time is scaled too
    probe = speed.Probe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--backend", choices=("compiled", "pure"), required=True)
    parser.add_argument("--extension", help="path of the compiled kernels")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--digest", required=True)
    args = parser.parse_args()

    if args.backend == "compiled":
        sys.meta_path.insert(0, _ExtensionFinder(args.extension))
    os.environ["CECHSTRAT_KERNELS"] = args.backend
    sys.path.insert(0, os.path.join(args.root, "src"))
    import cechstrat
    import workloads

    if cechstrat.KERNEL_BACKEND != args.backend:
        raise SystemExit(f"loaded the {cechstrat.KERNEL_BACKEND} backend, not {args.backend}")
    raw = sys.stdin.buffer.read()
    if hashlib.sha256(raw).hexdigest() != args.digest:
        raise SystemExit("inputs differ from the ones the harness generated")
    rounds = workloads.decode_inputs(args.workload, raw)
    ready = time.perf_counter()
    out = {"ready_at": time.monotonic(), "setup_spent": probe.spent,
           "setup_scale": probe.scale(probe.samples[0][0], ready), "ops": []}
    op, render, check = workloads.OPS[args.workload]

    if args.mode == "measure":
        for _ in range(args.passes):
            out["ops"] += [_run_op(op, render, check, inp, probe=probe)
                           for rnd in rounds for inp in rnd]
        probe.stop()
        # [seconds at reference speed, status, output sha256, seconds as measured]
        out["ops"] = [[s * probe.scale(t0, t1), status, digest, s]
                      for s, status, digest, t0, t1 in out["ops"]]
    elif args.mode == "trace":
        probe.stop()  # its samples would land in the traced spans
        import tracer as tracing

        out["untraced"] = [_run_op(op, render, check, inp) for inp in rounds[0]]
        tracer = tracing.Tracer()
        tracer.install(extra_namespaces=[workloads])
        out["ops"] = [_run_op(op, render, None, inp, tracer) for inp in rounds[0]]
        out["counts"] = tracer.counts()
        out["times"] = tracer.times()
    probe.stop()
    out["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
