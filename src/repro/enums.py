"""The base class of every enumeration in the package.

Each enumeration in :mod:`repro` derives from :class:`Enum` below, not
from :class:`enum.Enum` directly.  Python 3.10-3.12 hash a member with
the Python-level ``enum.Enum.__hash__`` (``hash(self._name_)``), which
runs on every dict or set lookup keyed by a member: engine codes,
collective price groups, layer-kind sets, memo keys.  Members are
singletons compared by identity, so the object hash is a valid hash
for them, and CPython computes it in C.

Identity hashes follow object addresses, so they can differ between
processes: no output may depend on the iteration order of a set of
members.  CI runs ``repro all`` under two hash seeds and compares the
outputs byte for byte.
"""

from __future__ import annotations

import enum


class Enum(enum.Enum):
    """An :class:`enum.Enum` whose members hash by identity.

    Member order, value lookup, equality and pickling are those of
    :class:`enum.Enum`.
    """

    __hash__ = object.__hash__
