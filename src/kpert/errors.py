"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its stated hypothesis."""


class DomainError(ValueError):
    """A parameter left the mathematical domain of a formula (e.g. eta >= 1)."""


class SmallnessError(PreconditionError):
    """Local smallness fails: a slice constant eta is not below one, so no
    slice bound exists.  Carries eta."""

    def __init__(self, eta):
        super().__init__(f"local smallness fails: eta={eta!r} >= 1")
        self.eta = eta
