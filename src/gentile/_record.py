"""Value classes written out by hand, with no code generated at import.

A subclass names its fields, in constructor order, in ``_fields`` and
declares them in ``__slots__`` (its own or a base's), so no instance has
a ``__dict__``.  A record is built from every one of its fields, all by
position or all by keyword; no field has a default.  Every record is
built by :meth:`Record.__init__`: no subclass defines its own.

The algebra values (``LaurentScalar``, ``FreePoly``, ``QuotientPoly``)
are records too.  ``LaurentScalar._raw``, which writes the slots of an
arithmetic result, is the one other constructor: with no ``_raw``, the
catalog's symbolic expansion took 41 ms rather than 34 ms.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Construction from every field, ``==`` by exact type and field
    values, the hash of the field-value tuple and a
    ``Name(field=value, ...)`` repr.  Fields cannot be assigned or
    deleted."""

    __slots__ = ()
    _fields: tuple = ()

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
        fields = self._fields
        if kwargs and not args and kwargs.keys() == set(fields):
            args = map(kwargs.__getitem__, fields)
        elif kwargs or len(args) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes its fields "
                f"({', '.join(fields)}), all by position or all by keyword")
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to {type(self).__name__}.{name}: frozen")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {type(self).__name__}.{name}: frozen")

    def __repr__(self):
        return (type(self).__qualname__ + "("
                + ", ".join([f"{name}={value!r}" for name, value
                             in zip(self._fields, self._values)])
                + ")")
