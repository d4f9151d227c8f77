"""Frozen records: named fields, fixed at construction, compared as a tuple.

A record class lists its fields, in order, as ``__slots__`` and writes its
own ``__init__``, storing each field with ``set_field`` and validating there.
``Record`` supplies the rest: assigning or deleting an attribute raises
``AttributeError``, ``==`` and ``hash`` work on the tuple of fields of
records of one class, the repr is ``Name(field=value, ...)``, and copy and
pickle rebuild a record through its ``__init__``.  Nothing is generated at
import time: a generated class would load ``inspect`` and compile its
methods, which was most of what a ``bounds`` process spent importing the
package.
"""

__all__ = ["Record", "set_field"]

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()
