"""Exception types shared across the package, and the run-scoped budget."""

import contextvars
import time


class LogdivError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LogdivError):
    """Polynomial or input-document text that does not match the grammar."""


class ZeroOrConstantInput(LogdivError):
    """An operation that needs a nonconstant polynomial got 0 or a constant."""


class NotHomogeneous(LogdivError):
    """Polynomial is not homogeneous for the given weights.

    Carries the set of weighted degrees that actually occur.
    """

    def __init__(self, degrees):
        self.degrees = frozenset(degrees)
        super().__init__(f"not weighted homogeneous, degrees {sorted(self.degrees)}")


class NonReduced(LogdivError):
    """The divisor equation has a repeated factor."""


class NotFree(LogdivError):
    """No free basis of the logarithmic derivation module was found."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class NotLinear(LogdivError):
    """Operation defined only for linear free divisors."""


class NotWeightedHomogeneous(LogdivError):
    """Operation defined only for weighted homogeneous divisors."""


class BudgetExceeded(LogdivError):
    """A step budget or a deadline ran out before the computation finished."""


class InternalInconsistency(LogdivError):
    """A mathematically guaranteed condition failed; indicates a bug upstream."""


DEFAULT_STEPS = 2_000_000

_ACTIVE = contextvars.ContextVar("logdiv_budget", default=None)


class Budget:
    """Steps left plus an optional time.monotonic() deadline.

    A step is one Groebner reduction or S-pair, one node of the dimension
    test's independent-set search, one row eliminated in linear algebra,
    one term of a slice relation matrix (a term of a generator times a
    multiplier), one exponent entry checked per candidate of the weight
    search, one pair of terms multiplied in a polynomial power, a parsed
    product, a Lie bracket or the packed algebra of a polynomial matrix
    (determinant, adjugate, structure constants, deformed equations); an
    exact division is a Groebner reduction by the divisor, one step per
    quotient term. Inside ``with budget:`` every charge made in this thread
    or task goes to ``budget``; see current_budget. The ``with`` may nest,
    also on the same budget.
    """

    __slots__ = ("steps", "left", "seconds", "deadline", "_tokens")

    def __init__(self, steps=DEFAULT_STEPS, seconds=None):
        self.steps = steps
        self.left = steps
        self.seconds = seconds
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self._tokens = []

    def spend(self, n=1):
        """Charge n steps; spend(0) only checks the deadline."""
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(f"step budget of {self.steps} exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(f"timed out after {self.seconds} seconds")

    def __enter__(self):
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._tokens.pop())


def current_budget():
    """The budget of the enclosing ``with`` block. Outside one, each call
    returns a fresh default Budget, so a bare library call is not bounded
    as a whole: every place it charges gets DEFAULT_STEPS of its own and
    no deadline. Wrap the call in ``with Budget(steps, seconds):`` to
    bound it."""
    return _ACTIVE.get() or Budget()
