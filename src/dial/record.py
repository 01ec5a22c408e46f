"""Immutable records: a subclass of :class:`Record` declares its fields as
annotations, defaults last, and is built on a namedtuple of them. A record
equals only a record of its own type with equal fields, hashes as the tuple
of its fields and refuses attribute assignment; a class that checks its
fields does so in ``__new__``."""

from __future__ import annotations

from collections import namedtuple


class _RecordType(type):
    def __new__(mcs, name, bases, ns):
        if any(isinstance(base, _RecordType) for base in bases):
            fields = tuple(ns.get("__annotations__", ()))
            defaults = {f: ns.pop(f) for f in fields if f in ns}
            if tuple(defaults) != fields[len(fields) - len(defaults):] or any(
                    isinstance(d, (list, dict, set)) for d in defaults.values()):
                raise TypeError(f"{name}: defaults must come last and be immutable")
            bases += (namedtuple(name, fields, defaults=defaults.values(), module=ns["__module__"]),)
            ns["__slots__"] = ()
        return super().__new__(mcs, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` applied, built (and checked) by its class."""
    copy = type(record)(*map(changes.pop, record._fields, record))
    if changes:
        raise TypeError(f"{type(record).__name__} has no field {next(iter(changes))!r}")
    return copy
