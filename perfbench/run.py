"""Benchmark of the varconn command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is wide_mir, dense_measure, model_fit, model_verify, or ``all`` to run each
in turn. One closed-loop client runs one pass at a time: the commands of a
pass go in order through ``varconn.cli.main``, each pass in a fresh child
process, until S seconds have passed. Every output is checked outside the
timed region. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

#: BLAS threads are capped at the CPUs this process may use.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up-only children started before the timed passes, so that set-up
#: has enough samples even on workloads with few passes per run.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150

#: Seconds of :func:`host_probe` at the reference host speed: a round
#: figure near its mean on the 2-vCPU Xeon machine described in README.md
#: while that machine ran at full speed. Times are reported at this speed;
#: see :func:`end_to_end_metrics`.
REFERENCE_PROBE_S = 0.05

#: Before each child the host is probed for at least this share of the
#: previous child's wall time, and at least once.
PROBE_SHARE = 0.1

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}

SELF_S = (
    "cli.main",
    "var_model.validate",
    "var_model.simulate",
    "var_model.estimate",
    "var_model.select_order",
    "spectral.evaluate_spectra",
    "spectral.partialize",
    "measures.coherence",
    "measures.pdc_family",
    "measures.ipdc",
    "measures.dtf_family",
    "measures.idtf",
    "infotheory.mir_ipdc",
    "infotheory.mir_idtf",
    "infotheory.mir_coherence",
    "oracles.run_verification",
    "oracles.partialized_process_coherence",
    "oracles.partialized_innovation_coherence",
    "oracles.transfer_function_deviation",
    "oracles.orthogonality_residual",
    "fileio.canonical_json",
    "fileio.build_result_document",
    "fileio.save_result",
    "fileio.save_timeseries",
    "fileio.load_timeseries",
    "fileio.load_model",
    "fileio.save_model",
)
CALLS = (
    "cli.main",
    "var_model.validate",
    "var_model.estimate",
    "spectral.evaluate_spectra",
    "spectral.partialize",
    "oracles.partialized_process_coherence",
    "oracles.partialized_innovation_coherence",
    "oracles.transfer_function_deviation",
    "oracles.orthogonality_residual",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_S},
    **{f"{name}.calls": "count" for name in CALLS},
    "spectral.evals_per_request": "ratio",
    "spectral.array_mib": "MiB",
    "fileio.bytes_written": "byte",
    "trace.overhead_s": "s",
}


_PROBE_RNG = np.random.default_rng(0)
_PROBE_DOCUMENT = {"values": _PROBE_RNG.standard_normal((300, 100)).tolist()}
_PROBE_MATRICES = _PROBE_RNG.standard_normal((512, 16, 16)) + 1j * _PROBE_RNG.standard_normal((512, 16, 16))


def host_probe() -> float:
    """Wall seconds of a fixed task that uses no varconn code.

    It renders a JSON document of floats with indentation, pure Python
    like the program's rendering, and inverts a stack of small complex
    matrices, LAPACK like its spectral core. A shared virtual machine can
    change speed for minutes at a time (by up to 60% on the machine in
    README.md), and both kinds of code slow about alike, so passes
    measured next to this probe can be scaled back to one host speed.
    """
    start = time.perf_counter()
    json.dumps(_PROBE_DOCUMENT, indent=2, sort_keys=True)
    np.linalg.inv(_PROBE_MATRICES)
    np.linalg.inv(_PROBE_MATRICES)
    return time.perf_counter() - start


def probe_host(probes: list, previous_s: float) -> None:
    """Append host probes lasting PROBE_SHARE of ``previous_s``, at least one."""
    spent = 0.0
    while not spent or spent < PROBE_SHARE * previous_s:
        probes.append(host_probe())
        spent += probes[-1]


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONPATH", "VARCONN_OUT_DIR")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload, index: int, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one child and return its result, or {"error": ...}."""
    spec_path = workload.work / f"spec-{index}.json"
    result_path = workload.work / f"result-{index}.json"
    spec = {
        "inputs": [str(path) for path in workload.inputs],
        "commands": workload.commands,
        "trace": trace,
        "setup_only": setup_only,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"error": f"child exited with {proc.returncode}: {' '.join(tail)}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    spec_path.unlink()
    result["setup_s"] = result["first_call"] - start
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: list, unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, n={len(values)})"


def environment() -> list:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return [
        f"python {platform.python_version()}, numpy {numpy.__version__}, blas {blas['name']} {blas['version']}",
        f"nproc {os.cpu_count()}, usable CPUs {BLAS_THREADS}, BLAS thread cap {BLAS_THREADS}",
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work)
        return measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(workload, seconds: float, trace: bool) -> dict:
    """Probes, passes and checks, all within ``seconds`` of wall time.

    A new pass starts only while the median pass so far still fits, and a
    traced run always ends on a complete untraced/traced pair.
    """
    deadline = time.perf_counter() + seconds
    setups, probes, last = [], [], 0.0
    for index in range(SETUP_PROBES):
        probe_host(probes, last)
        started = time.perf_counter()
        child = spawn(workload, index, setup_only=True)
        last = time.perf_counter() - started
        if "error" in child:
            return failed_run(workload, child["error"])
        setups.append(child["setup_s"])
    plain, traced, problems, durations = [], [], [], []
    attempted = failed = tries = traced_tries = 0
    while not tries or (trace and 2 * traced_tries < tries) or time.perf_counter() + statistics.median(durations) < deadline:
        traced_turn = trace and 2 * traced_tries < tries
        probe_host(probes, last)
        started = time.perf_counter()
        result = spawn(workload, tries, trace=traced_turn)
        last = time.perf_counter() - started
        durations.append(last)
        tries += 1
        traced_tries += traced_turn
        per_command = judge(workload, result)
        attempted += len(per_command)
        failed += sum(1 for found in per_command if found)
        problems += [p for found in per_command for p in found]
        if not any(per_command):
            (traced if traced_turn else plain).append(result)
    for line in problems[:10]:
        print(f"problem: {line}")
    if not plain or (trace and not traced):
        return failed_run(workload, "no untraced and traced pass succeeded" if trace else "no pass succeeded", attempted, failed)
    setups += [result["setup_s"] for result in plain]
    metrics = layer_metrics(workload, plain, traced) if trace else end_to_end_metrics(workload, setups, plain, probes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def judge(workload, result: dict) -> list:
    """One list of problems per command; empty lists mean success."""
    if "error" in result:
        return [[result["error"]] for _ in workload.commands]
    faults = list(result["faults"])
    if not Path(result["varconn_file"]).resolve().is_relative_to(SRC):
        faults.append(f"varconn was imported from {result['varconn_file']}")
    if faults:
        return [faults for _ in workload.commands]
    return workload.check(result)


def failed_run(workload, reason: str, attempted: int = 0, failed: int = 0) -> dict:
    print(f"problem: {reason}")
    attempted = max(attempted, len(workload.commands))
    return {"correct": False, "attempted": attempted, "failed": max(failed, 1), "metrics": {}}


def pass_seconds(result: dict) -> float:
    return sum(command["seconds"] for command in result["commands"])


def end_to_end_metrics(workload, setups: list, passes: list, probes: list) -> dict:
    """Medians of the run, with times scaled to the reference host speed.

    A scaled time is its wall-clock median times REFERENCE_PROBE_S over the
    mean :func:`host_probe` of the same run, taken between the children; a
    pass averages the host's speed over its length, and so does the mean.
    The program's own work is never in the probe, so a change to it moves
    these times in the same proportion as wall time; only the host's speed
    drops out. The wall-clock figures are printed as well.
    """
    series = {
        "setup_s": setups,
        "pass_s": [pass_seconds(result) for result in passes],
        "peak_rss_mib": [result["peak_rss_kib"] / 1024.0 for result in passes],
    }
    for index, argv in enumerate(workload.commands):
        print(describe(f"{argv[0]}_s (wall)", [result["commands"][index]["seconds"] for result in passes], "s"))
    print(describe("host_probe_s", probes, "s"))
    scale = REFERENCE_PROBE_S / statistics.fmean(probes)
    print(f"host speed: {scale:.4g} of the reference, times below are scaled by it")
    metrics = {}
    for name, values in series.items():
        unit = END_TO_END[name]
        if unit == "s":
            print(describe(f"{name} (wall)", values, unit))
            values = [value * scale for value in values]
        print(describe(name, values, unit))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def layer_metrics(workload, plain: list, traced: list) -> dict:
    from tracer import summarize

    summaries = [summarize(result["spans"]) for result in traced]
    series = {}
    for name in SELF_S:
        series[f"{name}.self_s"] = [summary[name]["self_s"] for summary in summaries]
    for name in CALLS:
        series[f"{name}.calls"] = [summary[name]["calls"] for summary in summaries]
    requests = sum(1 for argv in workload.commands if argv[0] in ("mir", "measure"))
    series["spectral.evals_per_request"] = [
        summary["spectral.evaluate_spectra"]["calls"] / requests if requests else 0.0 for summary in summaries
    ]
    series["spectral.array_mib"] = [result["counters"]["spectral.array_bytes"] / 2**20 for result in traced]
    series["fileio.bytes_written"] = [result["counters"]["fileio.bytes_written"] for result in traced]
    traced_s = statistics.median(pass_seconds(result) for result in traced)
    plain_s = statistics.median(pass_seconds(result) for result in plain)
    series["trace.overhead_s"] = [traced_s - plain_s]
    print(f"traced pass_s {traced_s:.6g} s, untraced pass_s {plain_s:.6g} s, {len(traced)} + {len(plain)} passes")
    metrics = {name: {"value": statistics.median(values), "unit": PER_LAYER[name]} for name, values in series.items()}
    for name in sorted(SELF_S, key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        share = metrics[f"{name}.self_s"]["value"] / traced_s
        if share >= 0.001:
            print(f"{name}.self_s: {metrics[f'{name}.self_s']['value']:.6g} s, {share:.1%} of the traced pass")
    for name in PER_LAYER:
        if PER_LAYER[name] != "s":
            print(f"{name}: {metrics[name]['value']:.6g} {PER_LAYER[name]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "varconn" / "__init__.py").is_file():
        print(f"error: no varconn sources under {SRC}", file=sys.stderr)
        return 2
    # Importing varconn here also writes its bytecode cache before the first timed child starts.
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}, expected one of {', '.join(WORKLOADS)} or all")
    for line in environment():
        print(line)
    results = {}
    for name in names:
        print(f"workload {name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = results[name]
        print(f"error_rate: {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
