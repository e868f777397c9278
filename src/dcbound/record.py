"""The bases of dcbound's record classes.

A record class writes its own `__init__` and `__repr__`, and `_key`: the
tuple of the fields that `==` and `hash` compare. The bases add `==`, true
only for a record of the same class with an equal key, and for a `Frozen`
record the hash of its key and the refusal to assign or delete an attribute.
For an object of another class `==` returns NotImplemented, so a record
never equals a tuple of its fields. A frozen record's `__init__` stores each
field with `object.__setattr__`, which keeps the values inline in the
instance (reading `self.__dict__` would build a dict per instance and slow
every read of a field); `functools.cached_property` writes its values to
the instance dict itself.

A class built this way costs microseconds at import, where the same class
generated by `dataclasses` costs most of a millisecond. An expression leaf,
hashed tens of thousands of times in one analysis, stores its hash instead.
"""

__all__ = ["Record", "Frozen"]


class Record:
    """A mutable record: compared by `_key`, and unhashable, as Python makes
    a class that defines `__eq__` but not `__hash__`."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The fields that == and hash compare; each record class says."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented


class Frozen(Record):
    """An immutable record, hashed by `_key`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
