"""Exception types shared across the package, and the parameter checks
every constructor and sampler runs: ``finite``, ``count`` and
``probability_vector``."""

import numbers

import numpy as np


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_RANGE_WORDS = {"(0, inf)": "positive and finite", "[0, inf)": "nonnegative and finite",
                "(-inf, inf)": "finite"}


def finite(value, name, interval="(-inf, inf)", *, vector=False):
    """``value`` of parameter ``name`` as a float, or with ``vector`` as a
    1-d float array, checked finite and inside ``interval``, written as in
    "(0, 1]" or "[0, inf)" with any infinite end open.

    A bool, a string, None or any other non-number, a NaN, +-inf or a value
    out of range raises PreconditionError naming the parameter; for (0, inf)
    the message says it "must be positive and finite".
    """
    if vector and isinstance(value, np.ndarray):
        bad = [] if value.ndim == 1 and value.dtype.kind in "iuf" else [value]
    elif vector and isinstance(value, (list, tuple)):
        bad = [v for v in value if not _is_number(v)][:1]
    else:
        bad = [] if not vector and _is_number(value) else [value]
    if bad:
        expected = "a list of numbers" if vector else "a number"
        raise PreconditionError(f"{name}: expected {expected}, got {bad[0]!r}")
    x = np.asarray(value, dtype=float) if vector else float(value)
    low, high = (float(end) for end in interval[1:-1].split(","))
    # NaN fails every comparison, and +-inf fails at the open infinite ends
    ok = ((x > low if interval[0] == "(" else x >= low)
          & (x < high if interval[-1] == ")" else x <= high))
    if not (ok.all() if vector else ok):
        words = _RANGE_WORDS.get(interval, f"finite and in {interval}")
        first = x[~ok][0] if vector else x
        raise PreconditionError(f"{name} must be {words}, got {float(first)!r}")
    return x


def count(value, name, least=0):
    """``value`` of parameter ``name`` as an int of at least ``least``.  A
    Python or numpy integer, or a float that is a whole number, passes; a
    bool, 2.5, a string or any other value raises PreconditionError naming
    the parameter."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise PreconditionError(f"{name}: expected an integer >= {least}, got {value!r}")
    return int(value)


def probability_vector(values, weights, name, *, positive=False):
    """``weights`` as a 1-d float array matching ``values`` in length: each
    entry finite and >= 0 (> 0 with ``positive``), summing to 1 within 1e-12."""
    w = finite(weights, name, "(0, inf)" if positive else "[0, inf)", vector=True)
    if w.shape != (len(values),):
        raise PreconditionError(f"values and {name} must be matching 1-d arrays")
    if abs(w.sum() - 1.0) > 1e-12:
        raise PreconditionError(f"{name} must sum to 1, got {float(w.sum())!r}")
    return w


class ConcavityError(ValueError):
    """A rectangle weight came out genuinely negative.

    Names the offending (i, j) entry; raised when the correlation function
    handed to the weight builder is not concave enough to act as one.
    """

    def __init__(self, i, j, value):
        super().__init__(
            f"weight a[{i},{j}] = {value:.3e} is below -1e-9; "
            "the correlation function is not concave on this grid"
        )
        self.index = (i, j)
        self.i, self.j = i, j
        self.value = value


class UnsupportedMomentError(ValueError):
    """A requested moment does not exist for this law."""


class BoundViolationError(AssertionError):
    """A checked analytic bound failed.

    Carries a dict of the offending values for reporting.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}
