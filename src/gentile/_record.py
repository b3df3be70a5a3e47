"""Value classes written out by hand, with no code generated at import.

A subclass names its fields, in constructor order, in ``_fields`` and
gives any trailing optional ones their values in ``_defaults``.  It
declares the same names in ``__slots__`` unless it needs an instance
``__dict__`` (for ``functools.cached_property``).  Hot classes may define
their own ``__init__``; it must set every field with ``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Construction by position or keyword, ``==`` by exact type and
    field values, and a ``Name(field=value, ...)`` repr.  Unhashable."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values in field order; attrgetter of one name returns
        # the bare value
        fields = cls._fields
        if len(fields) == 1:
            one = attrgetter(fields[0])
            cls._values = property(lambda self: (one(self),))
        else:
            cls._values = property(attrgetter(*fields) if fields
                                   else lambda self: ())

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._arguments(args, kwargs)
        for name, value in zip(cls._fields, args):
            _setattr(self, name, value)

    @classmethod
    def _arguments(cls, args, kwargs) -> list:
        """The field values that ``cls(*args, **kwargs)`` gives, in field
        order; the TypeError of a call that does not fit the fields."""
        fields, name = cls._fields, cls.__name__
        if not args and len(kwargs) == len(fields) \
                and kwargs.keys() == set(fields):
            return list(map(kwargs.__getitem__, fields))
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        values = {**cls._defaults, **dict(zip(fields, args))}
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword "
                                f"argument {field!r}")
            if field in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {field!r}")
            values[field] = value
        missing = [repr(field) for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: "
                            + ", ".join(missing))
        return list(map(values.__getitem__, fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), self._values

    def __repr__(self):
        return (type(self).__qualname__ + "("
                + ", ".join([f"{name}={value!r}" for name, value
                             in zip(self._fields, self._values)])
                + ")")


class FrozenRecord(Record):
    """A :class:`Record` whose fields cannot be assigned or deleted; its
    hash is the hash of the field-value tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to {type(self).__name__}.{name}: frozen")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {type(self).__name__}.{name}: frozen")
