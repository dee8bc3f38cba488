"""Exception types shared across the package.

The split mirrors how callers react: bad data from the outside world
(InputError), an internal contract broken by the caller (ContractError and
its refinements), and a configured resource cap being hit (ResourceLimitError).
The command line maps these to distinct exit codes.  A failed re-check, which
no input can cause, raises ConsistencyError, which the command line does not
catch.
"""


class InputError(ValueError):
    """Malformed or mathematically inadmissible input."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class DimensionError(ContractError):
    """Operands have incompatible shapes or coefficient rings."""


class ContainmentError(ContractError):
    """A submodule that must contain another does not."""


class ResourceLimitError(RuntimeError):
    """A configured size cap was exceeded; the message names the cap."""


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed."""
