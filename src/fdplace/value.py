"""Value: the base of the package's small immutable value types.

A value type names its fields in __slots__. The one constructor here
takes them like a dataclass does, positionally or by keyword in slot
order, and raises TypeError on a missing, extra or repeated field; a
type that checks its arguments does so and then calls it. Each field
is set once, with object.__setattr__; any other assignment raises
AttributeError. Values of the same class compare and hash as the
tuple of their fields. This is what frozen dataclasses gave, without
importing dataclasses (and with it inspect and ast) in every CLI
process.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, cls = self.__slots__, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() got {len(args)} values for the fields {', '.join(names)}")
        fields = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected field {name!r}")
            if name in fields:
                raise TypeError(f"{cls}() got field {name!r} twice")
            fields[name] = value
        missing = [name for name in names if name not in fields]
        if missing:
            raise TypeError(f"{cls}() needs a value for {', '.join(map(repr, missing))}")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def as_dict(self) -> dict[str, object]:
        """The fields by name, in declaration order."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> tuple:
        # Default pickling restores slots through setattr, which values
        # refuse; rebuild through the constructor instead.
        return type(self), self._values()
