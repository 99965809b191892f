"""The frozen value-record base shared by the package's small types.

It stands in for ``@dataclass(frozen=True)`` on the import path of
:mod:`entroseal.cli`: ``dataclasses`` loads ``inspect`` and builds each
class's methods with ``exec`` in every process, several milliseconds of
the CLI's start-up. Subclasses declare ``_fields`` (the stored fields, in
order) and ``__slots__`` (those plus any derived slots), and set their
slots in a hand-written ``__init__`` past the frozen ``__setattr__``, with
``object.__setattr__`` or a slot descriptor's own ``__set__``.
"""

from __future__ import annotations


class Record:
    """Immutable record compared, hashed and shown by its ``_fields``.

    Equality needs the same class and equal fields, the hash is that of
    the field tuple, and the repr is ``Name(field=value, ...)``: the
    semantics of a frozen dataclass. Slots outside ``_fields`` hold values
    derived at construction and take no part in any of them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()
