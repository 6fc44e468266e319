"""Base of the package's immutable value types.

A subclass lists its fields in ``__slots__``.  The base's ``__init__`` binds
them in that order, by position or by name, and raises TypeError for a field
that is missing, given twice or unknown; a subclass that checks its fields
keeps its own signature, checks, then passes them on to it.  The base
supplies what a frozen dataclass would: no assignment or deletion after
construction, value equality within one class, a hash of the field values,
``Name(field=value, ...)`` as repr, and ``replace``, which builds the new
instance through ``__init__`` so that its checks run again.  Nothing is
generated at import: the one per-class step is a getter of the field values.
"""
from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # every record has two or more fields, so this returns a tuple
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) > len(fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(f"missing field {name!r}")
            object.__setattr__(self, name, named.pop(name))
        if named:
            name = next(iter(named))
            raise TypeError(f"field {name!r} given twice" if name in fields
                            else f"unknown field {name!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked again by ``__init__``;
        an unknown field name raises TypeError."""
        fields = dict(zip(self.__slots__, self._values(self)))
        fields.update(changes)
        return self.__class__(**fields)
