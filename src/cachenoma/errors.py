"""Shared exception types."""


class QuadratureAccuracyError(ArithmeticError):
    """Raised when no route of a distribution value passes the kernels'
    keep-rule: the Bessel-K sum, the series, the far-tail bound and the
    Gauss-Hermite rules on both averages.  ``best_estimate`` holds the
    Gauss-Hermite estimate on the average of c's side of the mean and
    ``error_estimate`` its distance to the rule that checked it last.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
