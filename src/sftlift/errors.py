"""Exception hierarchy.

``PreconditionError`` subclasses signal a refused input (CLI exit code 2);
everything else that escapes is an internal error (exit code 1).
"""


class PreconditionError(Exception):
    """An operation refused its input because a stated precondition fails."""


class InputError(PreconditionError, ValueError):
    """A parameter or input file is malformed or out of range."""


class EmptyAfterTrim(PreconditionError):
    """No bi-infinite path survives trimming the graph to its essential part."""


class NotIrreducible(PreconditionError):
    """The operation requires an irreducible (strongly connected) graph."""


class InfiniteToOne(PreconditionError):
    """The code admits a graph diamond, hence is not finite-to-one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotInImage(PreconditionError):
    """The given word or orbit is not realized by the image shift."""


class FiberInfinite(PreconditionError):
    """A periodic fiber is not a finite union of orbits (branching recurrent part)."""


class NotErgodic(PreconditionError):
    """The Markov measure's support graph is not strongly connected."""


class NotFullySupported(PreconditionError):
    """The measure is not fully supported where full support is required."""


class HypothesisNotMet(PreconditionError):
    """An exact analyzer's theorem hypothesis fails for this input."""


class DegenerateMeasure(PreconditionError):
    """A deterministic (point-mass) input; use the periodic-orbit analyzer instead."""


class NoPath(PreconditionError):
    """No viable path over the requested window exists."""


class UnsupportedFiber(PreconditionError):
    """Orbit fiber size differs from the degree and the code is not known
    constant-to-one; CO joinings over such orbits are outside the
    classifier's guarantees, so the toolkit refuses rather than guesses."""


class ProjectionNotOnto(RuntimeError):
    """Internal consistency failure: a joining-graph projection missed part
    of the domain, which contradicts the construction's guarantees."""


class MismatchReport(RuntimeError):
    """Cross-validation disagreement between exact and generic pipelines."""

    def __init__(self, mismatches):
        super().__init__("; ".join(mismatches))
        self.mismatches = list(mismatches)
