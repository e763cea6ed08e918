"""Small internal helpers shared across modules."""

import numpy as np


def as_readonly(values, dtype=float) -> np.ndarray:
    """Copy to a contiguous array of the given dtype and lock it.

    For arrays that come from a caller, who may still write to them.
    """
    return lock(np.array(values, dtype=dtype, copy=True))


def lock(values, dtype=float) -> np.ndarray:
    """Lock an array its producer has just built, without copying it.

    Only a value that is not already an array of the given dtype is
    converted (and so copied).
    """
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out
