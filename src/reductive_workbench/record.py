"""Frozen records: the value types of the package share one base class.

A record's fields are its own class annotations, in order; a class attribute
with a field's name is that field's default. Every module of the package uses
`from __future__ import annotations`, so the annotations stay strings and
nothing is evaluated.

    class Point(Record):
        x: int
        y: int = 0

`__init__` (positional or keyword arguments), equality, hashing, repr and
`replace` are defined once, here. Two class keywords cover what differs:
`eq=False` keeps identity equality and hashing, and `uncompared=(...)` leaves
the named fields out of equality, hashing and repr. A record is frozen:
assigning or deleting an attribute raises AttributeError. It has no
`__slots__`, so `functools.cached_property`, which writes the instance
`__dict__`, works on it.

The package does not use the standard library's dataclass decorator: its
module loads `inspect`, and each frozen dataclass compiles its methods with
`exec` when its module is imported, which together made up most of the import
time of a cold command.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        unknown = set(uncompared) - set(cls._fields)
        if unknown:
            raise TypeError(f"{cls.__name__}: uncompared names no field: {sorted(unknown)}")
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            if key in values:
                raise TypeError(f"{name} got field {key!r} twice")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name} is missing field {key!r}")
                values[key] = self._defaults[key]
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is frozen")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**({f: self.__dict__[f] for f in self._fields} | changes))
