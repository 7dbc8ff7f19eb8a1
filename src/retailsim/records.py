"""Frozen records that share one set of methods instead of generating their own.

`@dataclass(frozen=True)` compiles six methods a class, about 0.4 ms each
time the CLI starts. A `Record` stays a dataclass, since README's library
example, perfbench's self-test and the scripts call `dataclasses.replace`,
but the methods below, with the generated ones' behaviour and strings, serve
every record. A record's fields, each compared, hashed and shown, are its
constructor's arguments; a value derived from them is a plain attribute.
Each record has a docstring, or `dataclass` writes one through `inspect.signature`.
"""

import dataclasses


class Record:
    """Base of every frozen record; a subclass declares its fields as for `dataclass`."""

    def __init_subclass__(cls):
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        # Set now, not on first use, so that the class gains no attribute later.
        cls._names = tuple(f.name for f in fields)
        cls._defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError(f"{self.__class__.__qualname__}({', '.join(names)}) got "
                                f"{len(args)} positional arguments and keywords {sorted(kwargs)}")
            args = [values[name] for name in names]
        # In field order, as the generated __init__ sets them, so that every
        # instance of a class has the same attribute layout.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the bounds and set the derived values; a subclass overrides it."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickled as a call to its constructor: pickle's default restore writes
        # `__dict__` directly, which on CPython 3.11 loses the inline attribute
        # layout that the event loop's specialised loads rely on (a parallel
        # sweep's workers ran 10% slower), and skips the bounds checks.
        return self.__class__, self._values()
