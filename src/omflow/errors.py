"""Exception types shared across the package."""


class OmflowError(Exception):
    """Base class for all package-specific errors."""


class DegreeExceedsHomogenizer(OmflowError):
    """A polynomial's (y,z)-degree exceeds the homogenization bound n."""


class NotTotallyUnimodular(OmflowError):
    """A matrix does not represent a regular oriented matroid: some circuit's
    kernel vector does not rescale to {-1, 0, 1}."""


class GroundTooLarge(OmflowError):
    """Circuit enumeration was requested beyond the supported ground size."""


class NotABasis(OmflowError):
    """A column set claimed to be a basis is not one."""


class BudgetExceeded(OmflowError):
    """An enumeration would exceed the configured assignment budget.

    Carries the estimated number of assignments in ``estimate``.
    """

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"enumeration needs about {estimate} assignments, budget is {budget}"
        )


class DegreeSafetyCheckFailed(OmflowError):
    """An interpolated polynomial disagreed with a fresh evaluation at a spare node."""


class NonPolynomialResult(OmflowError):
    """An exact division expected to be remainder-free left a remainder."""


class InvalidPartition(OmflowError):
    """A claimed element partition does not satisfy the pairing constraints."""


class InvariantViolated(OmflowError):
    """A mathematical invariant that must hold on every input did not hold."""
