#!/usr/bin/env python3
"""End-to-end benchmark of hrnr: three closed-loop workloads.

One workload per process:

    python3 hrnrbench/run.py --workload member_matrix --seed 1 --seconds 20 --trace 0

runs a closed loop with one caller (the next library call starts only after
the previous one returned) for ``--seconds`` seconds and at least
``MIN_OPS`` operations, checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run first times half the budget
untraced, then replays the same operations with per-layer spans
(``spans.py``) and reports the per-layer metrics.  All workloads at once,
with ``fail_frac`` and ``uncertain_frac`` in the table:

    python3 hrnrbench/run.py --all --seed 1 [--out results.json]

``--smoke`` shrinks every input so the whole run takes about a second.
The program is imported from ``src/`` of the checkout this file sits in;
BLAS runs single-threaded so eigensolve timings do not depend on the
scheduler.  The bounded end-to-end times are rescaled to a reference
machine speed by :func:`calibrate` samples taken between operations; the
raw wall-clock figures are printed beside them.  The process exits 1 when
an operation raised or an output failed its check, and 2 when the library
cannot be imported.
"""

from __future__ import annotations

import os

# fixed before numpy loads its BLAS
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import LINALG, SpanRecorder, layer_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
HARD_CAP_S = 150.0  # a run never exceeds this, even below MIN_OPS
SETUP_REPS = 3
# fail_frac and uncertain_frac are 0 at the reference commit, so a share of
# the parent's median cannot bound them: they are printed, and failures are
# carried by "failed" and "correct" in the result line instead
E2E_BOUNDED = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
# about the median of calibrate() on the shared 2-core Xeon sandbox the
# benchmark was built on (Python 3.11, numpy 2.4); it only sets the scale of
# the rescaled times
CAL_REF_S = 0.008


def load_hrnr():
    """Import hrnr from this checkout's src/, afresh (for set-up timing)."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hrnr" or m.startswith("hrnr.")]:
        del sys.modules[name]
    hrnr = importlib.import_module("hrnr")
    if Path(hrnr.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hrnr resolved to {hrnr.__file__}, not to {SRC}")
    return hrnr


def calibrate() -> float:
    """Seconds taken by a fixed piece of reference work that mixes
    interpreter-bound Python with memory-bound numpy, as hrnr does."""
    t0 = perf_counter()
    acc = 0.0
    for j in range(2500):
        acc += math.atan2(j % 7 - 3.0, 5.0) + round(j * 0.37, 3)
    a = np.linspace(0.0, 1.0, 500)
    b = np.linspace(1.0, 2.0, 400)
    for _ in range(2):
        acc += float((np.multiply.outer(a, b) - np.multiply.outer(b, a).T > 0.1).sum())
    return perf_counter() - t0


def setup(wl, reps: int):
    """Import, build the library inputs and warm up ``reps`` times; the last
    round's module and inputs are used by the timed loop.  Returns the raw
    times and the calibration samples around each round."""
    # a set-up round is one long sample, so each side gets the median of
    # several calibration samples
    times, cal = [], [calibrate_median()]
    for _ in range(reps):
        t0 = perf_counter()
        hrnr = load_hrnr()
        state = wl.build(hrnr)
        wl.warmup(hrnr, state)
        times.append(perf_counter() - t0)
        cal.append(calibrate_median())
    return hrnr, state, times, cal


def calibrate_median(n: int = 7) -> float:
    return statistics.median(calibrate() for _ in range(n))


def normalize(times, cal) -> np.ndarray:
    """Rescale each time to the reference speed, by the calibration samples
    taken just before and just after it."""
    cal = np.asarray(cal)
    return np.asarray(times) * CAL_REF_S / (0.5 * (cal[:-1] + cal[1:]))


class Tally:
    """Latencies and check outcomes of one closed loop."""

    def __init__(self):
        self.lat: list[float] = []
        self.failed = 0
        self.verdicts = 0
        self.uncertain = 0
        self.notes: list[str] = []
        self.last_dt = 0.0
        self.cal: list[float] = []

    def record(self, wl, hrnr, state, i, call):
        """Run operation i through ``call`` (which returns (output, seconds)
        and re-raises), then check its output outside the timed region."""
        try:
            out, dt = call(i)
        except Exception as exc:  # the loop must go on; the failure is counted
            self.failed += 1
            self.lat.append(self.last_dt)
            self.notes.append(f"op {i} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        self.lat.append(dt)
        ok, verdicts, uncertain, note = wl.check(hrnr, state, i, out)
        self.verdicts += verdicts
        self.uncertain += uncertain
        if not ok:
            self.failed += 1
            self.notes.append(f"op {i}: {note}")


def closed_loop(wl, hrnr, state, seconds, min_ops, n_ops=None, recorder=None):
    """Run operations 0, 1, ... until ``seconds`` and ``min_ops`` are both
    reached at a multiple of the workload's period (or exactly ``n_ops``
    operations when given)."""
    tally = Tally()

    def untraced(i):
        t0 = perf_counter()
        try:
            out = wl.op(hrnr, state, i)
        finally:
            tally.last_dt = perf_counter() - t0
        return out, tally.last_dt

    def traced(i):
        try:
            out = recorder.run_op(lambda: wl.op(hrnr, state, i))
        finally:
            tally.last_dt = recorder.last_op_s
        return out, tally.last_dt

    call = untraced if recorder is None else traced
    start = perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        else:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and i >= min_ops and i % wl.period == 0) or elapsed >= HARD_CAP_S:
                break
        tally.cal.append(calibrate())
        tally.record(wl, hrnr, state, i, call)
        i += 1
    tally.cal.append(calibrate())
    return tally


def e2e_metrics(tally: Tally, setup_times, setup_cal, raw=False) -> dict:
    lat = np.asarray(tally.lat) if raw else normalize(tally.lat, tally.cal)
    setup_s = setup_times if raw else normalize(setup_times, setup_cal)
    return {
        "ops_per_s": (len(lat) / float(lat.sum()), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (tally.failed / len(lat), "ratio"),
        "uncertain_frac": (tally.uncertain / tally.verdicts if tally.verdicts else 0.0, "ratio"),
    }


# per-layer metrics: (name, source, unit); source is ("calls"|"self"|"total", span)
# for span totals per op, or a callable of the recorder
def _per_op(key):
    return lambda rec: rec.counts[key] / rec.ops


def _ratio(num, den):
    return lambda rec: rec.counts[num] / rec.counts[den] if rec.counts[den] else 0.0


def _ns_per_pair(rec):
    pairs = rec.counts["kernels.atom_side_sweep.pairs"]
    return 1e9 * rec.self_s["kernels.atom_side_sweep"] / pairs if pairs else 0.0


PER_LAYER = [
    ("kernels.atom_side_sweep.calls", ("calls", "kernels.atom_side_sweep"), "count"),
    ("kernels.atom_side_sweep.self_ms", ("self", "kernels.atom_side_sweep"), "ms"),
    ("kernels.atom_side_sweep.pairs", _per_op("kernels.atom_side_sweep.pairs"), "count"),
    ("kernels.atom_side_sweep.ns_per_pair", _ns_per_pair, "ns"),
    ("core.critical_directions.calls", ("calls", "core.critical_directions"), "count"),
    ("core.critical_directions.self_ms", ("self", "core.critical_directions"), "ms"),
    ("core.critical_directions.directions", _per_op("core.critical_directions.directions"), "count"),
    ("spectral.direction_sweep.calls", ("calls", "spectral.direction_sweep"), "count"),
    ("spectral.direction_sweep.self_ms", ("self", "spectral.direction_sweep"), "ms"),
    ("core.member.calls", ("calls", "core.member"), "count"),
    ("core.member.self_ms", ("self", "core.member"), "ms"),
    ("core.region.self_ms", ("self", "core.region"), "ms"),
    ("spectral.pushforward.self_ms", ("self", "spectral.pushforward"), "ms"),
    ("spectral.lambda_k_sup.self_ms", ("self", "spectral.lambda_k_sup"), "ms"),
    ("geometry.halfplane_intersection.calls", ("calls", "geometry.halfplane_intersection"), "count"),
    ("geometry.halfplane_intersection.self_ms", ("self", "geometry.halfplane_intersection"), "ms"),
    ("dilation.wu_check.self_ms", ("self", "dilation.wu_check"), "ms"),
    ("dilation.wu_check.samples", _per_op("dilation.wu_check.samples"), "count"),
    ("dilation.wu_check.evidence_ratio", _ratio("dilation.wu_check.evidence", "dilation.wu_check.samples"), "ratio"),
    ("dilation.excluding_dilation_matrix.self_ms", ("self", "dilation.excluding_dilation_matrix"), "ms"),
    ("dilation.excluding_dilation_matrix.candidates", _per_op("dilation.excluding_dilation_matrix.candidates"), "count"),
    ("dilation.dilation_intersection.self_ms", ("self", "dilation.dilation_intersection"), "ms"),
    ("dilation.halmos.calls", ("calls", "dilation.halmos"), "count"),
    ("dilation.halmos.self_ms", ("self", "dilation.halmos"), "ms"),
    ("spectral.from_normal_matrix.calls", ("calls", "spectral.from_normal_matrix"), "count"),
    ("spectral.from_normal_matrix.self_ms", ("self", "spectral.from_normal_matrix"), "ms"),
] + [
    entry
    for name in LINALG
    for entry in (
        (f"linalg.{name}.calls", ("calls", f"linalg.{name}"), "count"),
        (f"linalg.{name}.ms", ("total", f"linalg.{name}"), "ms"),
    )
] + [
    ("trace.op_ms", lambda rec: 1e3 * rec.op_s / rec.ops, "ms"),
    ("trace.untraced_ms", lambda rec: 1e3 * rec.untraced_s / rec.ops, "ms"),
]


def layer_metrics(rec: SpanRecorder, overhead_frac: float) -> dict:
    out = {}
    for name, source, unit in PER_LAYER:
        if callable(source):
            value = source(rec)
        else:
            kind, span = source
            table = {"calls": rec.calls, "self": rec.self_s, "total": rec.total_s}[kind]
            value = table[span] / rec.ops * (1.0 if kind == "calls" else 1e3)
        out[name] = (float(value), unit)
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def layer_sum_error(rec: SpanRecorder) -> float:
    """|sum of self times + untraced - traced op time|, relative."""
    total = sum(rec.self_s.values()) + rec.untraced_s
    return abs(total - rec.op_s) / rec.op_s


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(hrnr, wl, args) -> dict:
    backend = getattr(hrnr.kernels, "backend", None)
    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_digest": wl.inputs_digest,
        "kernel_backend": backend() if callable(backend) else None,
    }


def run_one(args) -> int:
    if not (SRC / "hrnr" / "__init__.py").is_file():
        print(f"error: no hrnr package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        hrnr, state, setup_times, setup_cal = setup(wl, 1 if args.smoke else SETUP_REPS)
    except ImportError as exc:
        print(f"error: cannot import hrnr: {exc}", file=sys.stderr)
        return 2
    min_ops = 4 if args.smoke else MIN_OPS

    if not args.trace:
        tally = closed_loop(wl, hrnr, state, args.seconds, min_ops)
        metrics = e2e_metrics(tally, setup_times, setup_cal)
        raw = e2e_metrics(tally, setup_times, setup_cal, raw=True)
        tallies = [tally]
    else:
        # untraced first half, then the same operations with spans
        plain = closed_loop(wl, hrnr, state, args.seconds / 2, min_ops // 2)
        rec = SpanRecorder()
        rec.install(layer_table(hrnr, np.linalg))
        try:
            traced = closed_loop(wl, hrnr, state, None, None, n_ops=len(plain.lat), recorder=rec)
        finally:
            rec.uninstall()
        overhead = np.sum(normalize(traced.lat, traced.cal)) / np.sum(normalize(plain.lat, plain.cal)) - 1.0
        metrics = layer_metrics(rec, float(overhead))
        err = layer_sum_error(rec)
        if err > 1e-6:
            print(f"error: layer self times miss the traced op time by {err:.2e}", file=sys.stderr)
            return 1
        tallies = [plain, traced]
        e2e = e2e_metrics(plain, setup_times, setup_cal)

    attempted = sum(len(t.lat) for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for note in t.notes[:20]:
            print(f"FAIL {note}", file=sys.stderr)
    detail = {"provenance": provenance(hrnr, wl, args), "ops": attempted, "failed": failed}
    if args.trace:
        detail["e2e_untraced_half"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        detail["e2e"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        detail["e2e_raw"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    print(f"workload {wl.name}: N = {attempted} timed ops, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    if args.trace:
        reported = {k for k, _, _ in PER_LAYER} | {"trace.overhead_frac"}
    else:
        reported = set(E2E_BOUNDED)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in reported},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def op_time_shares(metrics: dict) -> list[tuple[str, float]]:
    """Each layer's self time (eigensolves: total time) as a share of the
    traced op time, largest first; the shares add up to 1."""
    op_ms = metrics["trace.op_ms"]["value"]
    parts = [
        (name, entry["value"] / op_ms)
        for name, entry in metrics.items()
        if name.endswith((".self_ms", ".ms")) or name == "trace.untraced_ms"
    ]
    return sorted(parts, key=lambda p: -p[1])


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=HARD_CAP_S * 3)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        detail = next(json.loads(ln[len("detail: "):]) for ln in lines if ln.startswith("detail: "))
        results[name] = {"result": json.loads(lines[-1]), **detail}
        print(f"workload {name}: N = {detail['ops']} timed ops, {detail['failed']} failed (exit {proc.returncode})")
        shown = detail["e2e"] if not args.trace else results[name]["result"]["metrics"]
        for metric, entry in shown.items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
        if args.trace:
            print("  share of traced op time:")
            for metric, share in op_time_shares(shown):
                print(f"    {metric:<46} {share:>8.1%}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, a handful of operations")
    p.add_argument("--out", help="with --all: write every result and its provenance here")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
