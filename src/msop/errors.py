"""Exception types shared across the package."""


class MsopError(Exception):
    """Base class for every library-raised error."""


class ValidationError(MsopError):
    pass


class InvalidChain(MsopError):
    pass


class NonMonotone(MsopError):
    """A sampled pair of nested sets showed a decreasing cost or weight."""


class NotASuperset(MsopError):
    pass


class NotInFamily(MsopError):
    pass


class SolverStall(MsopError):
    """A density solver returned its own base set instead of a strict superset."""


class NotWellFounded(MsopError):
    pass


class TooLarge(MsopError):
    def __init__(self, what: str, n: int, cap: int):
        super().__init__(f"{what}: instance has {n} elements, exhaustive cap is {cap}")


class NoFeasiblePermutation(MsopError):
    pass


class NoFeasibleSuperset(MsopError):
    pass


class MissingCertificate(MsopError):
    pass


class CyclicInput(MsopError):
    pass


class NotInitial(MsopError):
    pass


class NotInforest(MsopError):
    pass


class NotMultitree(MsopError):
    pass


class DisconnectedInput(MsopError):
    pass


class BadParams(MsopError):
    pass


class ParseError(MsopError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + ("" if column is None else f", column {column}") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
