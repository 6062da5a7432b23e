"""One JSON codec for the frozen records the program persists.

:func:`record` gives a frozen dataclass ``to_dict`` and a ``from_dict``
classmethod derived from its field annotations, so each record states
its fields once.  The image lists fields in declaration order; a
nested record becomes its own image, an enum its value and a tuple a
list.  Floats survive exactly because ``json`` writes the shortest repr
that parses back to the same IEEE-754 value.  On decode a missing key
takes the field's default, so an image may leave out defaulted fields;
a key the record does not declare is rejected.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from operator import attrgetter
from typing import Any

_SCALARS = (bool, int, float, str, Any)


def _codec(hint: Any) -> tuple | None:
    """``(encode, decode)`` for values annotated ``hint``, or ``None``
    for a JSON scalar, which passes through unchanged."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in args if arg is not type(None)]
        if len(members) == 1:  # ``X | None``: None is its own image
            return _codec(members[0])
    elif origin is tuple:
        if args[-1] is Ellipsis:
            item = _codec(args[0])
        elif all(_codec(arg) is None for arg in args):
            item = None
        else:
            raise TypeError(f"no JSON codec for {hint!r}")
        if item is None:
            return list, tuple
        encode, decode = item
        return (lambda value: [encode(x) for x in value],
                lambda value: tuple(map(decode, value)))
    elif hint in _SCALARS:
        return None
    elif isinstance(hint, type) and issubclass(hint, enum.Enum):
        # A dict lookup costs a fraction of calling the enum class.
        return attrgetter("value"), {m.value: m for m in hint}.__getitem__
    elif isinstance(hint, type) and hasattr(hint, "from_dict"):
        return hint.to_dict, hint.from_dict
    raise TypeError(f"no JSON codec for {hint!r}")


def record(cls: type) -> type:
    """Derive ``to_dict``/``from_dict`` from a frozen dataclass.

    Both are set on ``cls`` itself, not inherited, so a profiler can
    wrap them by name in the class's ``__dict__``.  A field declared
    with ``metadata={"omit_empty": True}`` is left out of the image
    while empty, so adding one keeps the images of older records
    unchanged.
    """
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        encode, decode = _codec(hints[f.name]) or (None, None)
        fields.append((f.name, encode, decode,
                       f.metadata.get("omit_empty", False)))

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready image of this record."""
        data = {}
        for name, encode, _, omit_empty in fields:
            value = getattr(self, name)
            if omit_empty and not value:
                continue
            data[name] = (value if encode is None or value is None
                          else encode(value))
        return data

    def from_dict(cls, data: dict[str, Any]):
        """Rebuild a record from its :meth:`to_dict` image (exact)."""
        # Keyed by the declared field names, not the image's own
        # strings: the constructor matches interned keyword names by
        # identity and falls back to comparing strings for others.
        kwargs = {}
        for name, _, decode, _ in fields:
            if name in data:
                value = data[name]
                kwargs[name] = (value if decode is None or value is None
                                else decode(value))
        if len(kwargs) != len(data):
            unknown = ", ".join(sorted(set(data) - set(kwargs)))
            raise TypeError(f"{cls.__name__} has no field {unknown}")
        return cls(**kwargs)

    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    return cls


__all__ = ["record"]
