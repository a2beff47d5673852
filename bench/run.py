"""Run one fspair benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload in turn

One process runs one workload.  It repeats the workload's timed operations
(passes) until their summed wall time reaches --seconds, checks every
output against its oracle after each pass, and reports medians over the
passes, with times scaled to a reference host speed (see REF_SLICE_S).  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Details (environment, every pass,
every failed check) go to bench/.work/, spans of traced passes included.

The program is imported from the checkout's src/; without it the run
fails with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", ".work")

# One BLAS thread (never more than nproc), so cpu_s does not depend on the
# size of OpenBLAS's default pool, whose idle threads can spin.
BLAS_THREADS = 1
SETUP_PROBES = 5

# Host speed on a shared VM drifts by up to 1.5x, both between two states
# that switch within a second and in phases that last minutes.  A fixed
# calibration slice, independent of fspair, runs before and after every
# timed operation; each operation's time is multiplied by the mean of
# REF_SLICE_S / slice time over the slices before and after it, i.e.
# reported at the speed at which one slice takes REF_SLICE_S.  Raw times
# are kept in the run record.
REF_SLICE_S = 0.007


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["TMPDIR"] = WORK


def _import_fspair():
    sys.path.insert(0, SRC)
    try:
        import fspair
    except ImportError as exc:
        sys.exit(f"error: cannot import fspair from {SRC}: {exc}")
    if not os.path.abspath(fspair.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: fspair was imported from {fspair.__file__}, not {SRC}")
    return fspair


def _blas_threads_in_use():
    """The thread count OpenBLAS reports, where numpy's bundled copy says."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD from .git in the checkout, without running git; None outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _environment(fspair) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_in_use(),
        "fspair": fspair.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


class Calibration:
    """A fixed slice of interpreter loop, small numpy calls and one 8 MB
    array sweep: the mix fspair's operations are made of.  The sweep writes
    into a preallocated buffer, so the slice's time does not depend on the
    allocator's state (page faults) that the workload leaves behind."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.arange(4096, dtype=float)
        self._big = np.arange(1_000_000, dtype=float)
        self._out = np.empty_like(self._big)

    def slice_seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        s = 0.0
        for j in range(20_000):
            s += (j * 0.5) % 7.0
        for j in range(200):
            s += float(np.sum(self._small[j:j + 64] * 1.5))
        np.multiply(self._big, -1e-7, out=self._out)
        np.exp(self._out, out=self._out)
        return time.perf_counter() - t0


def _speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two slices into
    reference-speed time."""
    return 0.5 * (REF_SLICE_S / before + REF_SLICE_S / after)


def _setup_seconds(workload: str, seed: int, cal: Calibration):
    """Seconds from launching a fresh interpreter until it has imported
    fspair and generated the seeded inputs, i.e. until the first timed
    operation could start: (raw, at reference speed)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    before = cal.slice_seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"error: setup probe exited {code} without reporting ready")
    return elapsed, elapsed * _speed_scale(before, cal.slice_seconds())


def _run_pass(ops, cal: Calibration, tracer=None):
    """Time every operation in order, with a calibration slice before each
    and after the last; exceptions are outputs, checked later."""
    outputs, walls, cpus = [], [], []
    slices = [cal.slice_seconds()]
    for op in ops:
        if tracer is not None:
            tracer.install()
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception as exc:  # a failed operation; the pass goes on
                outputs.append(exc)
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        slices.append(cal.slice_seconds())
    scale = [_speed_scale(a, b) for a, b in zip(slices, slices[1:])]
    return {
        "wall_s": sum(w * k for w, k in zip(walls, scale)),
        "cpu_s": sum(c * k for c, k in zip(cpus, scale)),
        "raw_wall_s": sum(walls),
        "raw_cpu_s": sum(cpus),
        "op_wall_s": walls,
        "slice_s": slices,
    }, outputs


def _check_pass(ops, outputs, floor: float):
    """Per operation: (digits or None, failure message or None)."""
    results = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            msg = "".join(traceback.format_exception(out)).strip()
            results.append((None, msg))
            continue
        try:
            checks = op.check(out)
        except Exception:  # a malformed or missing output fails the operation
            results.append((None, traceback.format_exc().strip()))
            continue
        worst = max(err for err, _ in checks)
        bad = [(err, tol) for err, tol in checks if not err <= tol]
        digits = -math.log10(max(worst, floor)) if math.isfinite(worst) else None
        results.append((digits, f"error {bad[0][0]:.3e} above tolerance {bad[0][1]:.1e}"
                        if bad else None))
    return results


def _layer_metrics(summary: dict, counts: dict) -> dict:
    out = {}
    for name, entry in summary.items():
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.s"] = entry["s"]
        out[f"{name}.calls"] = entry["calls"]
    out.update(counts)
    return out


def run_workload(args, spec: dict) -> dict:
    fspair = _import_fspair()
    from workloads import EXACT, WORKLOADS

    env = _environment(fspair)
    cal = Calibration()
    setup = [_setup_seconds(args.workload, args.seed, cal) for _ in range(SETUP_PROBES)]
    ops = WORKLOADS[args.workload](args.seed, WORK)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    passes, failures, digits = [], [], {}
    layer_passes, spans = [], []
    peak_rss_mb = None
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            if traced:
                tracer.reset()
            timing, outputs = _run_pass(ops, cal, tracer if traced else None)
            if peak_rss_mb is None:  # high-water mark of the timed work alone
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes.append({"traced": traced, **timing})
            if traced:
                layer_passes.append(_layer_metrics(tracer.summary(), tracer.counts))
                spans.append(list(tracer.spans))
            for op, (d, msg) in zip(ops, _check_pass(ops, outputs, EXACT)):
                if d is not None:
                    digits[op.name] = min(d, digits.get(op.name, math.inf))
                if msg is not None:
                    failures.append({"pass": len(passes) - 1, "op": op.name, "error": msg})
            del outputs
        if sum(p["raw_wall_s"] for p in passes) >= args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    attempted = len(ops) * len(passes)
    by_kind: dict = {}
    for op in ops:
        if op.name in digits:
            by_kind[op.kind] = min(digits[op.name], by_kind.get(op.kind, math.inf))

    if args.trace:
        # each traced pass against the untraced pass just before it, so both
        # see nearly the same host speed
        values = {"trace_overhead_s": statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(passes[::2], passes[1::2]))}
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("digits."):
                values[name] = by_kind.get(name[len("digits."):], 0.0)
            elif name != "trace_overhead_s":
                values[name] = statistics.median(lp.get(name, 0) for lp in layer_passes)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": peak_rss_mb,
            "min_digits": min(digits.values()) if digits else 0.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_probes_s": setup,
              "passes": passes, "digits_by_op": digits, "digits_by_kind": by_kind,
              "failures": failures, "metrics": metrics}
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "passes": spans}, fh)

    print("environment: " + json.dumps(env, sort_keys=True))
    for f in failures:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['error']}", file=sys.stderr)
    n_passes = len(passes) - len(untraced) if args.trace else len(untraced)
    for name, m in metrics.items():
        n = SETUP_PROBES if name == "setup_s" else n_passes
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (n={n})")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric line."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        *lines, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(line for line in lines if line.startswith(name + " ")))
        ok = ok and proc.returncode == 0 and json.loads(last)["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_threads()
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.setup_probe:
        _import_fspair()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, WORK)
        print("ready", flush=True)
        return 0

    from workloads import DEFAULT_SEED, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
