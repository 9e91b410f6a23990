"""The spec grammar shared by instance families and colourings, and the
byte form of every JSON output.

Spec text is ``kind[:key=value,...]``; a kind is a class that declares its
parameters as ``Param`` entries in ``params``, ``read_spec`` reads them and
``write_spec`` writes them back. Terms, pattern sets and the other value
classes are ``_Struct`` classes; certificates and Ramsey records are
``_Record`` classes written by ``canonical_json``.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .errors import ParseError

SCHEMA_VERSION = 1


class ParamType(NamedTuple):
    """How a parameter is checked in a descriptor, read from spec text (a
    ValueError marks bad text) and written back to spec text."""

    name: str
    check: Callable[[object], bool]
    parse: Callable[[str], object]
    text: Callable[[object], str]


INT = ParamType("integer", lambda v: type(v) is int, int, str)
BOOL = ParamType("boolean", lambda v: type(v) is bool,
                 lambda t: bool(int(t)), lambda v: str(int(v)))
STR = ParamType("string", lambda v: type(v) is str, str, str)


class Param(NamedTuple):
    """A declared parameter: its descriptor key, its type and the value
    spec text that leaves it out gets (None: the key is required).
    ``spec_key`` names it in spec text when that differs."""

    key: str
    type: ParamType
    default: object = None
    spec_key: Optional[str] = None


def read_spec(spec: str, kinds: Dict[str, type], what: str,
              defaults: Optional[Dict[str, object]] = None
              ) -> Tuple[type, Dict[str, object]]:
    """The class ``kinds`` holds for the kind of ``spec``, and the value of
    each parameter its ``params`` declare, by descriptor key. A key left
    out takes its default (from ``defaults``, else the declared one); an
    unknown kind, a required key left out, bad value text or an undeclared
    key raises ParseError, in whose message ``what`` names the spec."""
    head, _, body = spec.strip().partition(":")
    cls = kinds.get(head.strip())
    if cls is None:
        raise ParseError(f"unknown {what} spec {spec!r}")
    given: Dict[str, str] = {}
    for part in body.split(",") if body else ():
        key, eq, val = part.partition("=")
        if not eq:
            raise ParseError(f"expected key=value in {what} spec {spec!r}")
        given[key.strip()] = val.strip()
    defaults = defaults or {}
    out: Dict[str, object] = {}
    for p in cls.params:
        name = p.spec_key or p.key
        if name in given:
            try:
                out[p.key] = p.type.parse(given.pop(name))
            except ValueError:
                raise ParseError(f"bad {p.type.name} for {name} in {spec!r}") from None
        elif defaults.get(p.key, p.default) is not None:
            out[p.key] = defaults.get(p.key, p.default)
        else:
            raise ParseError(f"{what} spec {spec!r} needs {name}=")
    if given:
        raise ParseError(f"unknown key {next(iter(given))!r} in {what} spec {spec!r}")
    return cls, out


def write_spec(obj) -> str:
    """Spec text of ``obj``, an instance of a kind that keeps each parameter
    as the attribute of its descriptor key; ``read_spec`` reads it back to
    the same values."""
    parts = [f"{p.spec_key or p.key}={p.type.text(getattr(obj, p.key))}"
             for p in obj.params]
    return f"{obj.kind}:{','.join(parts)}" if parts else obj.kind


def canonical_json(obj) -> str:
    """The byte form of every JSON output: sorted keys, no whitespace and
    one trailing newline, so identical runs are byte-identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class _Struct:
    """A slotted value with the ==, hash, repr, immutability and pickling a
    frozen dataclass gives its compared fields ``_fields``. The constructor
    takes ``_fields``, then ``_uncompared`` (shown by repr, out of == and
    hash), by position or name, a missing one from ``_defaults``. Pickles
    and copies call the class on its arguments, so no cache rides along."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _uncompared: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        names = self._fields + self._uncompared
        given = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or given.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, given[name])

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields + self._uncompared)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self._fields + self._uncompared])


class _Record(_Struct):
    """A mutable, unhashable record whose JSON holds ``_fields``; wall_time
    is out of the JSON and of ==, so replays are byte-identical."""

    __slots__ = _uncompared = ("wall_time",)
    _defaults = {"schema": SCHEMA_VERSION, "wall_time": 0.0}
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def to_json_obj(self) -> dict:
        return dict(zip(self._fields, self._key()))

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict):
        """The record whose ``to_json_obj`` is ``obj``; a missing key
        raises KeyError."""
        return cls(**{name: obj[name] for name in cls._fields})
