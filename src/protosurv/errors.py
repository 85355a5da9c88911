"""Exception types raised across the package, one for each thing a caller can
do about a failure.

Every error the library raises is one of the eight kinds here: the base
:class:`ProtosurvError` and the seven concrete kinds derived from it, of which
:class:`BadInput` covers every rejected file or argument. ``cli.main`` turns
each into one ``error:`` line and exit code 1, as it does an ``OSError``, which
comes only from the filesystem. Any other exception that reaches ``cli.main``
is a bug and prints its traceback.
"""


class ProtosurvError(Exception):
    """Base class for all errors raised by this package."""


class BadInput(ProtosurvError):
    """A file or argument was rejected; the message names it (and the patient,
    line or key when there is one). Fix the input and run again."""


class ShapeMismatch(ProtosurvError):
    """Operands have incompatible shapes."""


class AllMasked(ProtosurvError):
    """A softmax row has no unmasked key to normalise over."""


class NonFiniteLoss(ProtosurvError):
    """A loss, gradient or trained parameter is NaN or infinite: the run diverged."""


class DegenerateInput(ProtosurvError):
    """Mixture fitting could not be rescued from degenerate components."""


class NoEvents(ProtosurvError):
    """An operation that needs observed events received none."""


class NoComparablePairs(ProtosurvError):
    """Concordance is undefined: no pair of patients is comparable."""
