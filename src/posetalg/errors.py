"""Exception types shared across the package.

Everything raised on bad input or blown limits derives from PosetAlgebraError,
so callers (the command line driver in particular) can distinguish usage
errors from genuine bugs.
"""


class PosetAlgebraError(Exception):
    pass


class DuplicateLabel(PosetAlgebraError):
    pass


class UnknownLabel(PosetAlgebraError):
    pass


class CycleDetected(PosetAlgebraError):
    pass


class ParseError(PosetAlgebraError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class SizeLimitExceeded(PosetAlgebraError):
    pass


class CapExceeded(PosetAlgebraError):
    pass


class AlgebraMismatch(PosetAlgebraError):
    pass


class ConventionError(PosetAlgebraError):
    pass


class NoUnit(PosetAlgebraError):
    pass


class NotAssociative(PosetAlgebraError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMonomial(PosetAlgebraError):
    pass


class ClosureViolation(PosetAlgebraError):
    pass


class NoPosetBehindTable(PosetAlgebraError):
    pass


class RecoveredRelationNotTransitive(PosetAlgebraError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
