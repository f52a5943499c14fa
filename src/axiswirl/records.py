"""Base of the package's immutable records.

The records are plain classes whose __slots__ list their fields in
constructor order; defining one costs no code generation at import.
"""

from __future__ import annotations


class Frozen:
    """A record whose fields are set once, in __init__, by _freeze;
    assigning or deleting a field afterwards raises AttributeError.  A
    record can be weakly referenced."""

    __slots__ = ("__weakref__",)

    def _freeze(self, *values):
        """Set the fields, in __slots__ order, to values."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
