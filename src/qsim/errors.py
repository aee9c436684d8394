"""Exception types shared across the package."""


class AssumptionError(ValueError):
    """Input violates a modelling assumption; a ValueError, as every refusal is."""


class ZeroBranchError(Exception):
    """Post-selection on a branch whose probability is numerically zero."""
