"""The package's value records.

A record is a `collections.namedtuple` class, written as a class body that
derives from `Record`: its annotated names are the fields, in order, and a
value assigned to one is that field's default. The body's methods,
properties and docstring are copied onto the namedtuple, and its
annotations are kept as the strings they are written as. So a record is
read-only, compared by value, has empty `__slots__`, and costs no more to
make or read than a tuple; defining one imports nothing beyond
`collections`. Being a tuple, it also compares equal to any tuple with the
same items, and iterates over them. A class body that defines `_check`
makes a checked record: every new record of it, from the constructor,
`_make` or `_replace`, runs `record._check()`, which raises on bad fields.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["Record"]


class _RecordType(type):
    """Makes each class derived from `Record` a namedtuple of its annotated fields."""

    def __new__(meta, name: str, bases: tuple[type, ...], body: dict[str, object]) -> type:
        if not bases:  # Record itself
            return super().__new__(meta, name, bases, body)
        fields = tuple(body.get("__annotations__", {}))
        first = next((i for i, field in enumerate(fields) if field in body), len(fields))
        if any(field not in body for field in fields[first:]):
            raise TypeError(f"{name}: a field without a default follows one with a default")
        cls = namedtuple(
            name, fields, defaults=[body[f] for f in fields[first:]], module=body["__module__"]
        )
        for key, value in body.items():
            if key not in fields and key != "__module__":
                setattr(cls, key, value)
        if "_check" in body:
            # `_make`, and `_replace` through it, build the tuple without
            # `__new__`, so they are routed through the check too
            new, make = cls.__new__, cls._make.__func__

            def checked(record):
                record._check()
                return record

            cls.__new__ = staticmethod(lambda c, *args, **kwargs: checked(new(c, *args, **kwargs)))
            cls._make = classmethod(lambda c, iterable: checked(make(c, iterable)))
        return cls


class Record(metaclass=_RecordType):
    """Derive a class from this to make it a record (see the module docstring)."""

