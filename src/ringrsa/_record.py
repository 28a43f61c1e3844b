"""Frozen value records: the frozen-dataclass behaviour the package needs.

The methods are closures over the field names, with no exec, so defining a
record compiles nothing, and importing this pulls in neither dataclasses
nor inspect.
"""

from __future__ import annotations

import operator

__all__ = ["record"]


def record(cls):
    """Make cls a frozen record of its annotated fields, in order.

    A class attribute of a field's name is its default.  __init__ takes the
    fields by position or keyword and checks no values; parsing does.  Instances
    keep a __dict__, so functools.cached_property works on them; __eq__ (same
    class only), __hash__ and __repr__ see the fields.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    setfield = object.__setattr__
    fields = operator.attrgetter(*names)  # one field's value, or a tuple of several

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            rest, values = names[len(args):], {**defaults, **kwargs}
            if len(args) > len(names) or kwargs.keys() - set(rest) or set(rest) - values.keys():
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args += tuple(values[name] for name in rest)
        for name, value in zip(names, args):
            setfield(self, name, value)  # not __dict__.update, which slows attribute reads

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in names)
        return f"{cls.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {cls.__name__} is frozen")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__delattr__ = __setattr__
    return cls
