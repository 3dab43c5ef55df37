"""Strict field readers for the plain-JSON wire documents.

Run specs, fabric specs and their parts arrive as parsed JSON or YAML,
from spec files and from other machines.  :class:`Fields` reads one such
mapping field by field, so a malformed document fails with a named
:class:`~repro.errors.HomunculusError` that names the offending field,
never with a bare ``KeyError``/``TypeError``/``ValueError`` from inside
a constructor.  Unknown keys are rejected too: a misspelt or retired
knob fails loudly instead of silently doing nothing.

Example::

    fields = Fields(doc, "run spec", ("target", "budget", "models"))
    target = fields.text("target")                        # required
    budget = fields.integer("budget", 20)                 # default 20
    models = fields.each("models", ModelEntry.from_dict)  # sub-documents

A failure inside a sub-document is re-raised with its position in
front, e.g. ``run spec.models[0]: dataset: missing required key 'app'``.
"""

from __future__ import annotations

from repro.errors import HomunculusError, SpecificationError

__all__ = ["Fields"]

_REQUIRED = object()


class Fields:
    """Typed, field-naming access to one wire mapping.

    ``where`` labels a top-level document in messages (``"run spec"``);
    sub-documents pass ``""`` because :meth:`nested` and :meth:`each`
    put their position in front.  ``keys`` is every key the document may
    hold; ``error`` is the exception class raised for any violation.
    Each reader takes an optional default: without one the key is
    required, with one a missing key yields the default unchecked.
    ``none=True`` additionally accepts an explicit ``null``.
    """

    def __init__(self, doc, where: str, keys, error=SpecificationError) -> None:
        self.where = where
        self.error = error
        if not isinstance(doc, dict):
            raise error(f"{where or 'document'} must be a mapping, got {_show(doc)}")
        unknown = sorted(set(doc) - set(keys), key=repr)
        if unknown:
            raise error(
                f"{self._at()}unknown key(s) {unknown}; allowed: {sorted(keys)}"
            )
        self.doc = doc

    def _at(self) -> str:
        return f"{self.where}: " if self.where else ""

    def _name(self, key: str) -> str:
        return f"{self.where}.{key}" if self.where else key

    def _read(self, key: str, default, none: bool, want: str, ok):
        if key not in self.doc:
            if default is _REQUIRED:
                raise self.error(f"{self._at()}missing required key {key!r}")
            return default
        value = self.doc[key]
        if value is None and none:
            return None
        if not ok(value):
            raise self.error(f"{self._name(key)} must be {want}, got {_show(value)}")
        return value

    def text(self, key: str, default=_REQUIRED, none: bool = False):
        """A string field."""
        return self._read(key, default, none, "a string",
                          lambda v: isinstance(v, str))

    def integer(self, key: str, default=_REQUIRED, none: bool = False):
        """An integer field (booleans and floats are rejected)."""
        return self._read(key, default, none, "an integer", _is_int)

    def number(self, key: str, default=_REQUIRED, none: bool = False):
        """A real-number field (an integer or a float)."""
        return self._read(key, default, none, "a number", _is_number)

    def mapping(self, key: str, default=_REQUIRED, none: bool = False):
        """A JSON-object field, returned as a fresh ``dict``."""
        value = self._read(key, default, none, "a mapping",
                           lambda v: isinstance(v, dict))
        return dict(value) if isinstance(value, dict) else value

    def numbers(self, key: str, default=_REQUIRED, none: bool = False):
        """A mapping of names to numbers (constraint and budget tables)."""
        value = self._read(
            key, default, none, "a mapping of names to numbers",
            lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
        )
        return dict(value) if isinstance(value, dict) else value

    def items(self, key: str, default=_REQUIRED) -> list:
        """A JSON-array field, returned as a ``list``."""
        return list(self._read(key, default, False, "a list",
                               lambda v: isinstance(v, list)))

    def names(self, key: str, default=_REQUIRED) -> tuple:
        """A list of strings, returned as a ``tuple``."""
        return tuple(self._read(
            key, default, False, "a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        ))

    def nested(self, key: str, parse):
        """``parse`` a required sub-document; a failure names ``key``."""
        return self._parse(key, parse, self.mapping(key))

    def each(self, key: str, parse) -> list:
        """``parse`` every element of a required list; a failure names
        the element's position."""
        return [self._parse(f"{key}[{i}]", parse, item)
                for i, item in enumerate(self.items(key))]

    def _parse(self, label: str, parse, value):
        if not isinstance(value, dict):
            raise self.error(f"{self._name(label)} must be a mapping, got {_show(value)}")
        try:
            return parse(value)
        except HomunculusError as exc:
            raise type(exc)(f"{self._name(label)}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _show(value) -> str:
    """A short description of a bad value for error messages."""
    text = repr(value)
    if len(text) > 60:
        text = text[:57] + "..."
    return f"{type(value).__name__} {text}"
