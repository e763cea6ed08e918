"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names the input documents, the CLI commands, whether to trace,
and where to write the result. Set-up ends at the first timed call; its
length is measured by the parent from the moment it started this process
(``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
the two processes' stamps compare).
A spec with ``setup_only`` stops there. Every pass ends with a check that
no span wrapper is bound in any varconn namespace and that each defining
module still holds its original function: an untraced pass must never have
run through a span wrapper, and a traced pass must have removed all of them.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import varconn.cli

    for path in spec["inputs"]:
        json.loads(Path(path).read_text(encoding="utf-8"))
    first_call = time.perf_counter()
    result = {"first_call": first_call}
    if not spec["setup_only"]:
        result.update(run_pass(spec))
        result["varconn_file"] = varconn.__file__
    result["peak_rss_kib"] = peak_rss_kib()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def peak_rss_kib() -> int:
    """High-water resident set of this process's own address space.

    Not ``ru_maxrss``: after vfork and exec, Linux charges the parent's
    high-water mark to the child, so that figure can be the parent's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(spec: dict) -> dict:
    import tracer

    targets = tracer.originals()
    recorder = None
    if spec["trace"]:
        recorder = tracer.Recorder()
        recorder.install(targets)
    commands = []
    for index, argv in enumerate(spec["commands"]):
        if recorder is not None:
            recorder.request = index
        start = time.perf_counter()
        try:
            status = sys.modules["varconn.cli"].main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # counted as a failed command, never fatal to the pass
            status = f"{type(exc).__name__}: {exc}"
        commands.append({"argv": argv, "status": status, "seconds": time.perf_counter() - start})
    result = {"commands": commands}
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = recorder.spans
        result["counters"] = recorder.counters
    result["faults"] = tracer.namespace_faults(targets)
    if not targets:
        result["faults"].append("no traced function found in varconn")
    return result


if __name__ == "__main__":
    sys.exit(main())
