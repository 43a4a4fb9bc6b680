"""Immutable records: the base of hurstlab's result, policy and report types.

A record is a tuple subclass. Its fields are the parameters of its
``__new__``, in order, with their defaults; ``__new__`` checks them and
returns ``tuple.__new__(cls, (field, ...))``. :class:`Record` reads the
field names from that signature when the class is made and gives each one
a read-only property, so nothing is generated or compiled at import
(compiling five or six generated methods costs about 0.9 ms a class). A
record compares equal only to a record of the same type with equal fields,
hashes as the tuple of its fields, and has no attribute other than its
fields. Each subclass sets ``__slots__ = ()``, else its instances would
take new attributes.
"""

from __future__ import annotations

from operator import index, itemgetter

__all__ = ["Record", "integer"]


def integer(value, error: type[Exception], what: str) -> int:
    """*value* as a Python int, through ``operator.index``, else *error*:
    an integer field takes no float, not even an integral one."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


class Record(tuple):
    """Base of an immutable record whose fields are its ``__new__`` parameters."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i), doc=f"Field {i} of the record."))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a plain tuple, or another record type, is never equal
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild a record through __new__, field by field
        return tuple(self)

    def _replace(self, **changes):
        """A copy with *changes* to some fields, checked as a new record is."""
        return type(self)(**dict(zip(self._fields, self), **changes))
