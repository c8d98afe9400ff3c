"""Benchmark launcher for heatnet.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Runs one workload (``train-small``, ``explain-large``, ``slide-build``) in
this process, or ``all`` of them, each in its own process. It imports the
package from ``src/`` of the checkout it sits in, builds the inputs from
the seed, repeats the workload's step for ``--seconds`` seconds, checks
every step's outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``step_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
metrics of ``layer_map.json``, from steps that alternate between untraced
and traced, and the spans are written to ``perfbench/out/``.
"""

import os

# Fixed before numpy is imported, so every commit runs with the same value.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-small", "explain-large", "slide-build")
SETUP_REPS = 3
MIN_STEPS = 3          # per kind of step: untraced, and traced under --trace 1
CHILD_TIMEOUT_S = 170
HARD_CAP_S = 120      # the timed loop stops here even if steps keep failing

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import heatnet; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of ``import heatnet`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "heatnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": BLAS_THREADS, "threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        try:
            fn = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            return info
        fn.restype = ctypes.c_int
        info["threads"] = fn()
    return info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, variant: int, load_start: tuple) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "input_variant": variant,
    }


def load_layer_map() -> dict:
    return json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))


def per_layer_metrics(tracer, layer_map: dict, units: int, top_span: str,
                      overhead: float, time_scale: float) -> dict:
    """Per-layer values per step unit (epoch, explain call, build+load round).

    Self times are multiplied by ``time_scale``, the traced steps' factor to
    the reference host speed.
    """
    calls, self_s = tracer.calls, tracer.self_s
    forwards = calls["model.Model.forward"]
    derived = {
        "autodiff.ops_per_forward": calls["autodiff.ops"] / forwards if forwards else 0.0,
        "builder.knn_edges.peak_mb": tracer.knn["peak_bytes"] / 2**20,
        "builder.knn_edges.kept_frac": (tracer.knn["kept"] / tracer.knn["pairs"]
                                        if tracer.knn["pairs"] else 0.0),
        "explain.forwards_per_node": (tracer.explain["forward_evals"] / tracer.explain["nodes"]
                                      if tracer.explain["nodes"] else 0.0),
        "trace.overhead": overhead,
        "trace.top_coverage": tracer.coverage(top_span),
    }
    metrics = {}
    for layer in layer_map["layers"]:
        name, span = layer["name"], layer.get("span", layer["name"])
        for kind in layer["metrics"]:
            if kind == "calls":
                metrics[f"{name}.calls"] = {"value": calls[span] / units, "unit": "count"}
            elif kind == "self_s":
                metrics[f"{name}.self_s"] = {"value": self_s[span] * time_scale / units,
                                                 "unit": "s"}
            else:
                metrics[name] = {"value": derived[name], "unit": layer["unit"]}
    return metrics


def _step(wl, tracer):
    if tracer is None:
        return wl.step()
    tracer.install()
    try:
        with tracer.region("bench.step"):
            return wl.step()
    finally:
        tracer.uninstall()


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up, run and check one workload in this process; returns the result.

    Times are scaled to the reference host speed by the calibration kernel
    run before and after each setup and each step; raw wall times are kept
    under ``raw``.
    """
    import calibrate
    import workloads
    from spans import Tracer

    variant = seed % workloads.N_VARIANTS
    golden = None
    if not small:
        recorded = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        golden = recorded["workloads"][name][str(variant)]
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setup_s, raw_setup_s = [], []
        for _ in range(SETUP_REPS):
            cal_before = calibrate.kernel_seconds()
            imp = import_seconds()
            wl = workloads.WORKLOADS[name](variant, scratch, small=small)
            t0 = time.perf_counter()
            wl.setup()
            raw = imp + time.perf_counter() - t0
            cal = (cal_before + calibrate.kernel_seconds()) / 2
            raw_setup_s.append(raw)
            setup_s.append(raw * calibrate.REFERENCE_S / cal)

        tracer = Tracer() if trace else None
        kinds = (False, True) if trace else (False,)
        step_s = {False: [], True: []}          # keyed by "traced"
        cals = {False: [], True: []}
        parts: dict[str, list[float]] = {}
        raw_parts: dict[str, list[float]] = {}
        traced_units = attempted = failed = 0
        cal_prev = calibrate.kernel_seconds()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if all(len(step_s[k]) >= MIN_STEPS for k in kinds):
                if elapsed + statistics.median(step_s[False] + step_s[True]) > seconds:
                    break
            elif elapsed > HARD_CAP_S:
                break
            traced = trace and attempted % 2 == 1
            attempted += 1
            gc.collect()
            try:
                units, timing, out = _step(wl, tracer if traced else None)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                cal_next = calibrate.kernel_seconds()
                cal, cal_prev = (cal_prev + cal_next) / 2, cal_next
            try:
                problems = wl.check(out, golden)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"check failed: {name} step {attempted}: " + "; ".join(problems),
                      file=sys.stderr)
            if traced:
                traced_units += units
            scale = calibrate.REFERENCE_S / cal
            step_s[traced].append(sum(timing.values()) * scale)
            cals[traced].append(cal)
            if not traced:
                for key, value in timing.items():
                    parts.setdefault(key, []).append(value * scale)
                    raw_parts.setdefault(key, []).append(value)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not all(len(step_s[k]) >= MIN_STEPS for k in kinds):
        raise RuntimeError(f"{name}: fewer than {MIN_STEPS} steps completed")
    med = statistics.median
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "setup_s": med(setup_s),
        "step_s": med(step_s[False]),
        "parts": {k: med(v) for k, v in parts.items()},
        "raw": {"setup_s": med(raw_setup_s),
                **{k: med(v) for k, v in raw_parts.items()},
                "calibration_s": med(cals[False] + cals[True])},
        "steps": len(step_s[False]) + len(step_s[True]),
        "reference_s": calibrate.REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["per_layer"] = per_layer_metrics(
            tracer, load_layer_map(), traced_units, wl.top_span,
            overhead=med(step_s[True]) / med(step_s[False]),
            time_scale=calibrate.REFERENCE_S / med(cals[True]))
        result["tracer"] = tracer
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line."""
    rate = result["failed"] / result["attempted"]
    print(f"{name}: {result['steps']} steps, error_rate {rate:.4g} "
          f"({result['failed']}/{result['attempted']} failed)")
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "step_s": {"value": result["step_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
        raw = result["raw"]
        for key, value in result["parts"].items():
            print(f"  {key:<16} {value:.6g} s (median; {raw[key]:.6g} s wall)")
        print(f"  {'error_rate':<16} {rate:.6g} 1")
        print(f"  raw setup {raw['setup_s']:.6g} s wall, calibration kernel "
              f"{raw['calibration_s']:.6g} s (reference {result['reference_s']} s)")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    return metrics


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()

    if not (SRC / "heatnet" / "__init__.py").is_file():
        print(f"error: no heatnet package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import heatnet
    if Path(heatnet.__file__).resolve().parent != SRC / "heatnet":
        print(f"error: imported heatnet from {heatnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        result["tracer"].dump_spans(OUT / f"spans-{args.workload}.jsonl")
    from workloads import N_VARIANTS
    print("env " + json.dumps(environment(args.seed, args.seed % N_VARIANTS, load_start)))
    metrics = report(args.workload, result, bool(args.trace))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
