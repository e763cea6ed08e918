"""Per-channel gains on a VAR model, with which the tests check that measures do not depend on channel scale."""

import numpy as np

from varconn import DimensionError, DomainError, VarModel


def rescale(model: VarModel, gains) -> VarModel:
    """Apply per-channel gains g, mapping x to diag(g) x.

    Coefficients become g_i a_ij / g_j and sigma becomes
    diag(g) sigma diag(g). Stability is unaffected (the companion matrix is
    similarity-transformed).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (model.K,):
        raise DimensionError(f"expected {model.K} gains, got shape {gains.shape}")
    if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
        raise DomainError("gains must be finite and positive")
    ratio = gains[:, None] / gains[None, :]
    return VarModel(model.coeffs * ratio[None, :, :], model.sigma * np.outer(gains, gains))
