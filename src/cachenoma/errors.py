"""Shared exception types."""


class QuadratureAccuracyError(ArithmeticError):
    """Raised when no route of a distribution value passes the kernels'
    keep-rule: the Bessel-K sum, the series, the far-tail bound, the
    trapezoidal rule and the Gauss-Hermite rules.  The message names the
    last route that gave an estimate.  ``best_estimate`` holds that
    estimate of the value on c's side of the mean, and ``error_estimate``
    its error bound (the trapezoidal rule's P(V > c) above the mean) or its
    distance to the rule that checked it (Gauss-Hermite's P(V <= c) at or
    below the mean).
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
