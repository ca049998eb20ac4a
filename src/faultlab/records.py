"""The package's value records.

A record is a `typing.NamedTuple`: read-only, compared by value, and made
without generating code per class at import. Being a tuple, it also
compares equal to any tuple with the same items, and iterates over them.
A record that checks its fields is wrapped by `validated`.
"""

from __future__ import annotations

__all__ = ["validated"]


def validated(cls: type) -> type:
    """Run `record._check()` on every new record of the NamedTuple `cls`.

    `_make`, and `_replace` through it, build the tuple without `__new__`,
    so they are routed through the check too.
    """
    new, make = cls.__new__, cls._make.__func__

    def checked(record):
        record._check()
        return record

    cls.__new__ = staticmethod(lambda c, *args, **kwargs: checked(new(c, *args, **kwargs)))
    cls._make = classmethod(lambda c, iterable: checked(make(c, iterable)))
    return cls
