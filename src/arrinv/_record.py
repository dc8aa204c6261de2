"""Frozen value classes built from plain functions.

``@record`` makes a class whose body annotates its fields an immutable
value type with the behavior of ``dataclass(frozen=True)`` that this
package relies on:

- ``__init__`` takes every field, positionally or by keyword, in
  annotation order; fields have no defaults.  It then calls
  ``__post_init__`` if the class has one.
- ``__eq__`` and ``__hash__`` work over the tuple of field values.
  Instances of different classes are never equal.
- ``__repr__`` prints ``Name(field=value, ...)``.
- ``__setattr__`` and ``__delattr__`` raise ``AttributeError``.

Instances keep a ``__dict__``, so ``functools.cached_property`` works.
No source is generated and executed, and neither ``dataclasses`` nor
``inspect`` is imported, so defining a record costs next to nothing at
import time.
"""

from __future__ import annotations


def record(cls):
    """Turn ``cls`` into a frozen record over its annotated fields."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    post_init = cls.__dict__.get("__post_init__")
    name = cls.__qualname__

    def values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in fields])

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError("%s() takes %d positional arguments but %d were given"
                            % (name, len(fields), len(args)))
        d = self.__dict__
        d.update(zip(fields, args))
        if kwargs or len(args) < len(fields):
            for f in fields[len(args):]:
                if f not in kwargs:
                    raise TypeError("%s() missing required argument %r" % (name, f))
                d[f] = kwargs.pop(f)
            if kwargs:
                f = next(iter(kwargs))
                raise TypeError("%s() got %s argument %r" % (
                    name, "multiple values for" if f in fields else "an unexpected", f))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, self.__dict__[f]) for f in fields))

    def __setattr__(self, attr, value):
        raise AttributeError("cannot assign to field %r" % (attr,))

    def __delattr__(self, attr):
        raise AttributeError("cannot delete field %r" % (attr,))

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = "%s.%s" % (name, method.__name__)
        setattr(cls, method.__name__, method)
    return cls
