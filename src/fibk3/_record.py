"""Immutable value records, the base of every fibk3 result type.

A record class declares its fields once, as class annotations, in order; a
class attribute of the same name is that field's default. Construction takes
the fields by position or by keyword and then runs __post_init__ when the
class defines one, which may validate, or normalise a field with
object.__setattr__. A record refuses assignment and deletion, compares equal
only to a record of exactly its class with equal fields, hashes the fields not
named in _unhashed, and prints as Name(field=value, ...).

No source code is generated or compiled: each class's __init__ is a closure
over its field names, and the other methods are shared. Defining a record
class is therefore cheap, which keeps `import fibk3` cheap.
"""

from __future__ import annotations

_setattr = object.__setattr__


def _initializer(fields: tuple[str, ...], post_init):
    """The __init__ of a record class with these fields and __post_init__."""
    count = len(fields)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != count:
            args = self._bind(args, kwargs)
        # attribute by attribute, so that reading a field stays as fast as
        # on a plain object
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    return __init__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _unhashed: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        defaults = {f: cls.__dict__[f] for f in own if f in cls.__dict__}
        cls._defaults = {**cls._defaults, **defaults}
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls._fields, getattr(cls, "__post_init__", None))

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
                if key not in cls._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = cls._defaults[key]
        return tuple(values[key] for key in cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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
