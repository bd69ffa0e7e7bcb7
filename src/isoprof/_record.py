"""Frozen records: the part of frozen dataclasses that the result types use.

Importing `dataclasses` also imports inspect, ast, dis and tokenize, over a
megabyte of resident memory that a result type never needs.  A subclass of
Record names its fields as class annotations, in order; a field with a value
in the class body takes it as its default.  Instances take their fields by
position or by keyword, compare equal to instances of the same class with
equal fields, hash their fields, print like a dataclass, and raise
AttributeError on assignment and deletion.
"""


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                raise TypeError(f"{name} got an unexpected or repeated field {key!r}")
            values[key] = value
        for field in self._fields:
            if field in values:
                value = values[field]
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name} is missing the field {field!r}")
            object.__setattr__(self, field, value)

    def _values(self):
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
