import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varconn


@pytest.fixture()
def faulty_inverse(monkeypatch):
    """Install a broken np.linalg.inv for a walk in blocks of ``size`` over a grid.

    ``faults`` maps a grid index to "pivot", which zeroes A_bar there so that
    inv meets a zero pivot and det reads 0, or to a value written into H_bar
    there, which sets kappa_1 (a large value, inf or nan). The walk inverts
    one stack of A_bar per block, in grid order.
    """

    def install(size, faults):
        inv, calls = np.linalg.inv, itertools.count()

        def broken(a):
            if a.ndim != 3:  # sigma, inverted once by the walk
                return inv(a)
            start = next(calls) * size
            here = {index - start: fault for index, fault in faults.items() if start <= index < start + a.shape[0]}
            for index, fault in here.items():
                if fault == "pivot":
                    a[index] = 0.0
            out = inv(a)
            for index, fault in here.items():
                out[index, 0, 1] = fault
            return out

        monkeypatch.setattr(np.linalg, "inv", broken)

    return install


@pytest.fixture()
def run_with_file_limit():
    """Run ``code`` in a child Python whose files may grow to ``limit`` bytes; returns its CompletedProcess.

    numpy and varconn (with ``varconn.cli``) are imported before the limit is
    set, and SIGXFSZ is ignored, so a write beyond the limit fails with EFBIG,
    an OSError, as on a full disk. ``args`` are ``sys.argv[1:]``. stdout and
    stderr go to pipes: the limit would truncate them too in a file.
    """
    pytest.importorskip("resource")
    src = str(Path(varconn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(limit: int, code: str, *args: str) -> subprocess.CompletedProcess:
        script = (
            "import resource, signal, sys\n"
            "import numpy as np\n"
            "import varconn, varconn.cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
        )
        return subprocess.run([sys.executable, "-c", script + code, *args], env=env, capture_output=True, text=True, timeout=120)

    return run
