"""Exceptions of the package; a refusal of bad input is a plain ValueError."""


class ZeroBranchError(Exception):
    """Post-selection on a branch whose probability is numerically zero."""
