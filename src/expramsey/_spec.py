"""The spec grammar shared by instance families and colourings, and the
byte form of every JSON output.

Spec text is ``kind[:key=value,...]``; a kind is a class that declares its
parameters as ``Param`` entries in ``params``, ``read_spec`` reads them and
``write_spec`` writes them back. Certificates and Ramsey records are
``_Record`` dataclasses written by ``canonical_json``.
"""

from __future__ import annotations

import json
from dataclasses import fields
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


class _Record:
    """A result record: its JSON holds every dataclass field but wall_time,
    which stays out of the bytes so replays are byte-identical."""

    def to_json_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "wall_time"}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())
