"""Compare the benchmark on a parent tree and on this one, in alternating pairs.

Run from the repository root, with a checkout of the parent commit made by
``git archive REV | tar -x -C PARENT_TREE``:

    python tools/bench_pairs.py PARENT_TREE [--pairs N] [--seconds S] [--workload W]
                                [--seed N] [--out BENCH_<change>.json] [--scratch DIR]

Both trees' ``src`` and ``perfbench`` are copied into a scratch directory
and byte-compiled (``python -m compileall``) before the first timed child,
so no child compiles sources while it is measured. Each pair then runs each
tree's unchanged ``perfbench/run.py --trace 0`` once, with the same seed,
the tree that goes first alternating from pair to pair. The last line of
each run (one JSON object) is kept. The output file holds the machine,
the command lines, every run of both trees, and for each metric both
trees' medians and quartiles and in how many pairs the change read lower.
The printed table is the one a change log quotes: a change median inside
the parent's quartiles is reported as noise.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What a benchmark run reads of a tree.
COPIED = ("src", "perfbench")
#: Metrics where the change is better when lower, by their last name part.
LOWER_IS_BETTER = ("setup_s", "pass_s", "peak_rss_mib")


def copy_tree(source: Path, target: Path) -> str:
    """Copy what the benchmark reads, compile it, and return the sha256 of the copied perfbench."""
    for name in COPIED:
        shutil.copytree(source / name, target / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", *COPIED], cwd=target, check=True, stdout=subprocess.DEVNULL)
    digest = hashlib.sha256()
    for path in sorted((target / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")), platform.processor())
    return {
        "cpu": model,
        "cores": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration") if key in blas},
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run(tree: Path, command: list) -> dict:
    """One benchmark run in `tree`: its last JSON line, or the failure."""
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}, "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result["wall_s"] = round(wall, 3)
    result["returncode"] = proc.returncode
    return result


def metric_values(result: dict, workload: str) -> dict:
    """A run's metric values, each named workload.metric also when one workload ran."""
    prefix = "" if workload == "all" else f"{workload}."
    return {prefix + name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list, workload: str) -> dict:
    """Per metric: both trees' quartiles, the change in the medians, lower in x of n, and the verdict."""
    values = [(metric_values(p["parent"], workload), metric_values(p["change"], workload)) for p in pairs]
    names = sorted({name for parent, change in values for name in parent if name in change})
    summary = {}
    for name in names:
        both = [(parent[name], change[name]) for parent, change in values if name in parent and name in change]
        (p1, p2, p3), (c1, c2, c3) = (quartiles([pair[side] for pair in both]) for side in (0, 1))
        lower = sum(change < parent for parent, change in both)
        if p1 <= c2 <= p3:
            verdict = "noise"
        elif name.rsplit(".", 1)[-1] in LOWER_IS_BETTER:
            verdict = "better" if c2 < p2 else "worse"
        else:
            verdict = "lower" if c2 < p2 else "higher"
        summary[name] = {
            "parent": {"median": p2, "q1": p1, "q3": p3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "relative_change": (c2 - p2) / p2 if p2 else None,
            "change_lower_in": lower,
            "pairs": len(both),
            "verdict": verdict,
        }
    return summary


def table(summary: dict) -> str:
    rows = ["| metric | parent median (q1-q3) | change median (q1-q3) | change | lower in | verdict |", "|---|---|---|---|---|---|"]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        relative = "" if s["relative_change"] is None else f"{100 * s['relative_change']:+.1f}%"
        rows.append(
            f"| `{name}` | {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) | {c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g}) "
            f"| {relative} | {s['change_lower_in']} of {s['pairs']} | {s['verdict']} |"
        )
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0, help="perfbench --seconds, per workload")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair; pair i runs seed + i on both trees")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--scratch", type=Path, help="where the trees are copied (a new temporary directory if omitted)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not (args.parent_tree / "perfbench" / "run.py").is_file():
        parser.error("need --pairs of at least 1 and a PARENT_TREE holding perfbench/run.py")
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.scratch))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        perfbench = {side: copy_tree(source, trees[side]) for side, source in (("parent", args.parent_tree.resolve()), ("change", ROOT))}
        commands, pairs = [], []
        for index in range(args.pairs):
            command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed + index), "--seconds", f"{args.seconds:g}", "--trace", "0"]
            commands.append(command)
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"seed": args.seed + index, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], command)
                print(f"pair {index + 1} of {args.pairs}, {side}: correct {pair[side]['correct']}, failed {pair[side]['failed']}, {pair[side]['wall_s']} s", flush=True)
            pairs.append(pair)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(pairs, args.workload)
    record = {
        "machine": machine(),
        "parent_tree": str(args.parent_tree),
        "perfbench_sha256": perfbench,
        "commands": [" ".join(["python3", *command[1:]]) for command in commands],
        "pairs": pairs,
        "summary": summary,
        "correct": all(pair[side]["correct"] and not pair[side]["failed"] for pair in pairs for side in ("parent", "change")),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(table(summary))
    if perfbench["parent"] != perfbench["change"]:
        print("note: the two trees run different perfbench code")
    print(f"wrote {args.out}: {args.pairs} pairs, every run correct with 0 failed: {record['correct']}")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
