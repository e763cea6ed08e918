import contextlib
import io
import math
import re
import types
from pathlib import Path

import varconn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_exports_exactly_the_public_names():
    namespace = {}
    exec("from varconn import *", namespace)
    public = {
        name
        for name, value in vars(varconn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(varconn.__all__) == len(set(varconn.__all__))
    assert set(varconn.__all__) == public
    assert public <= namespace.keys()


def test_readme_quick_start_runs_and_prints_its_comments():
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(printed) == 3
    assert math.isclose(printed[0], 0.2, abs_tol=1e-12)
    assert math.isclose(printed[1], 0.5 * math.log(1.25), abs_tol=1e-10)
    assert printed[2] == 0.0
