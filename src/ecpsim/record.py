"""Value records: plain classes with the value semantics the package relies on.

A record's fields are its instance dict, in the order its ``__init__`` stores
them, or, for a slotted record, those of its ``__slots__`` not starting with
``_``.  A record equals only a record of its own class with equal fields, is
printed as ``Name(field=value, ...)`` and copies itself with some fields
changed (``replace``, through ``__init__``); it is unhashable, as a mutable
value should be.  A ``Frozen`` record refuses assignment and hashes as the
tuple of its field values; its ``__init__`` stores slotted fields with
``_set``, or writes its instance dict itself.  Defining a record generates no
code, so a module of records imports at the cost of its plain classes.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> dict:
        """Each field's value by name, in declared order (an instance dict as it is: read only)."""
        if hasattr(self, "__dict__"):
            return vars(self)
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in self._fields().items())})"

    def replace(self, **changes):
        """A copy with the fields named in ``changes`` set to their values."""
        return type(self)(**{**self._fields(), **changes})


class Frozen(Record):
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
