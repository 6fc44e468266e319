"""Shared exception types."""


class QuadratureAccuracyError(ArithmeticError):
    """Raised when no route of a distribution value passes its own error
    check: the Bessel-K sum, the series, the Gauss-Laguerre and both
    Gauss-Hermite rules.  ``best_estimate`` holds the Gauss-Hermite
    estimate and ``error_estimate`` its distance to the 20-point rule.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
