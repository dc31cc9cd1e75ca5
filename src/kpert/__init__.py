"""kpert: perturbation series of integral kernels with certified bounds.

The package computes iterated-kernel (Neumann) series, constructs
absorbing-set slicings, estimates local-smallness / global-boundedness
constants, and certifies the resulting exponential bounds against
independently computed series and closed-form oracles.
"""

from kpert.errors import DomainError, PreconditionError

__all__ = ["DomainError", "PreconditionError"]

__version__ = "0.1.0"
