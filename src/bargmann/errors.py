"""Shared exception types."""


class DimensionTooLarge(ValueError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class DimensionMismatch(ValueError):
    """Two spectra of different dimensions were compared."""


class NotHermitian(ValueError):
    """Matrix failed the entry-wise Hermiticity check."""


class NotNormalized(ValueError):
    """State norm is not 1 within tolerance."""


class AmplitudeOverflow(ValueError):
    """An amplitude or matrix element is beyond the float range."""
