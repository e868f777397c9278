"""The bases of dcbound's record classes.

A record class lists its fields once: the parameters of its `__init__`.
From them the base derives the property `_key`, the tuple of field values
that `==` and `hash` compare, and the repr `Name(field=value, ...)` in
constructor order. `==` is true only for a record of the same class with an
equal key; for an object of another class it returns NotImplemented, so a
record never equals a tuple of its fields. A `Frozen` record is hashed by
its key, refuses to assign or delete an attribute, and pickles as a call of
its class on its fields, so a stored hash is never carried into a process
with another hash seed. A class overrides `_key` only to leave a field out
of equality (a transition's `line`).

A frozen record's `__init__` stores each field with `object.__setattr__`,
which keeps the values inline in the instance (reading `self.__dict__`
would build a dict per instance and slow every read of a field);
`functools.cached_property` writes its values to the instance dict itself.
An expression leaf, hashed tens of thousands of times in one analysis,
stores its hash instead.

The field names are read from `__init__.__code__`: about 0.1 ms for all the
classes. Generating the methods by one `exec` per class cost 4.4-5.1 ms
(`python -S`), more than a third of the start-up then, and
`inspect.signature` would import `inspect`, about 10 ms more. The key is an
`operator.attrgetter`; `operator` is loaded at start-up anyway.
"""

from operator import attrgetter

__all__ = ["Record", "Frozen"]


class Record:
    """A mutable record: compared by `_key`, and unhashable, as Python makes
    a class that defines `__eq__` but not `__hash__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = getattr(cls.__init__, "__code__", None)  # None: object's
        fields = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount] if code else ()
        cls._fields = fields
        if "_key" not in cls.__dict__:
            if len(fields) > 1:
                key = attrgetter(*fields)
            elif fields:  # still a tuple, so the hash is that of (value,)
                key = lambda self, get=attrgetter(*fields): (get(self),)
            else:
                key = lambda self: ()
            cls._key = property(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"


class Frozen(Record):
    """An immutable record, hashed by `_key`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self) -> tuple:
        # pickled as a call of the class on its fields: what __init__ or a
        # cached_property stores beside them (a hash, an index, a generated
        # function) is computed anew in the process that loads it
        return self.__class__, tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
