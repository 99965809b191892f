"""The frozen value-record base shared by the package's small types.

It stands in for ``@dataclass(frozen=True)`` on the import path of
:mod:`entroseal.cli`: ``dataclasses`` loads ``inspect`` and builds each
class's methods with ``exec`` in every process, several milliseconds of
the CLI's start-up. Subclasses declare ``_fields`` (the stored fields, in
order) and ``__slots__`` (those a base class lacks), and set their
slots in a hand-written ``__init__`` past the frozen ``__setattr__``, with
``object.__setattr__`` or a slot descriptor's own ``__set__``.

:class:`Check` is the one result type of every ``verify`` check, here
because the core modules already load this module.
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


def _plain(x):
    """A JSON value for x: exact rationals become ``"p/q"`` strings."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)


class Check(Record):
    """One ``verify`` result: a named, passed-or-failed check.

    ``context`` holds the instance as ``(key, value)`` pairs (a mapping is
    accepted and stored as its pairs, so the record hashes). A check that
    compares two numbers carries them as ``value`` and ``bound``, exact
    ``Fraction`` or float, which ``line()`` shows and ``to_dict()`` emits
    as ``"p/q"`` strings or numbers; the verdict is the check's own.
    """

    __slots__ = _fields = ("name", "context", "passed", "value", "bound")

    def __init__(self, name: str, context, passed: bool, value=None,
                 bound=None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "context", tuple(dict(context).items()))
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bound", bound)

    def line(self) -> str:
        words = ["PASS" if self.passed else "FAIL", self.name]
        words += [f"{k}={v}" for k, v in self.context]
        text = " ".join(words)
        if self.value is None:
            return text
        return (f"{text}: value={float(self.value):.6e} "
                f"<= bound={float(self.bound):.6e}")

    def to_dict(self) -> dict:
        return {"check": self.name,
                **{k: _plain(v) for k, v in self.context},
                "value": _plain(self.value), "bound": _plain(self.bound),
                "passed": self.passed}
