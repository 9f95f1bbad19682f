"""Exception hierarchy shared by all solver modules."""


class TypeschedError(Exception):
    """Base class for all library errors."""


class InvalidSchedule(TypeschedError):
    """Schedule is not total or references machines out of range."""


class DimensionMismatch(TypeschedError):
    """Operation requires one-dimensional jobs."""


class BadExponent(TypeschedError):
    """Norm exponent must be > 1."""


class BadSpec(TypeschedError):
    """Instance generator specification is malformed."""


class Infeasible(TypeschedError):
    """LP has no feasible point.

    In the approximation pipelines this signals that an enumerated guess
    (pattern profile, huge-machine structure, ...) was wrong, not that the
    instance is unsolvable.
    """


class Unbounded(TypeschedError):
    """LP objective is unbounded below; never expected from pipeline LPs."""


class InfeasibleRegion(TypeschedError):
    """Convex solve was handed an empty polytope."""


class ToleranceNotReached(TypeschedError):
    """Convex solve hit its iteration cap, or stopped moving, before
    certifying the gap."""

    def __init__(self, gap: float, tolerance: float, iterations: int):
        super().__init__(
            f"duality gap {gap!r} above tolerance {tolerance!r} "
            f"after {iterations} iterations"
        )
        self.gap = gap
        self.tolerance = tolerance
        self.iterations = iterations


class BudgetExhausted(TypeschedError):
    """Enumeration budget ran out.

    Distinct from Infeasible: an exhausted budget is not a certificate
    that no solution exists.
    """


class PatternOverflow(TypeschedError):
    """A machine in a certificate schedule carries more large jobs than a
    pattern admits; the decision target is below the schedule makespan."""


class CountingViolation(TypeschedError):
    """The extreme-point counting argument failed to produce a reducible
    machine, slot, or type.  Must never fire; indicates a solver bug."""


class ForestInconsistent(TypeschedError):
    """Subsumption-forest bookkeeping broke an invariant; internal error."""


class GuessInconsistent(TypeschedError):
    """A schedule handed to guess extraction violates the structural
    properties of optimal solutions (only possible for non-optimal input)."""


class TooLarge(TypeschedError):
    """Instance exceeds the exact oracle's size caps."""


class PivotLimitExceeded(TypeschedError):
    """The simplex took more pivots than its guard allows.  Bland's rule
    terminates, so this must never fire; indicates a solver bug."""


class InvariantViolation(TypeschedError):
    """A checked invariant of the paper's arguments failed at run time.
    Must never fire; indicates a solver bug."""
