import itertools

import numpy as np
import pytest


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
