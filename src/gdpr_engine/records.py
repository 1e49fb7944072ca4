"""Frozen records without ``dataclasses``: ``Record`` subclasses declare
fields as dataclasses do, or ``record_class`` makes slotted ones from rows.
Only a class made with ``compile_init=True`` (one built during a check) gets
a compiled ``__init__``. ``dataclasses`` is imported only to raise
``FrozenInstanceError`` or to build, on first read, the
``__dataclass_fields__`` that ``dataclasses.fields`` and ``replace`` read.
"""

from __future__ import annotations

import reprlib
from operator import attrgetter

MISSING = object()


class Field:
    """A field's options, named as ``dataclasses.field`` names them."""

    def __init__(self, default=MISSING, default_factory=MISSING, init=True, repr=True,
                 compare=True, kw_only=False):
        self.default, self.default_factory, self.init = default, default_factory, init
        self.repr, self.compare, self.kw_only = repr, compare, kw_only


class _DataclassFields:
    """``__dataclass_fields__``: the class's ``dataclasses.Field`` table."""

    def __get__(self, record, owner: type) -> dict:
        if "_dataclass_fields" not in owner.__dict__:
            import dataclasses  # imported on first use only, to keep start-up short

            owner._dataclass_fields = {}
            for name, spec in owner.__record_fields__.items():
                made = owner._dataclass_fields[name] = dataclasses.field(**{
                    key: value for key, value in vars(spec).items()
                    if value is not MISSING and key not in ("name", "type")})
                made.name, made.type, made._field_type = name, spec.type, dataclasses._FIELD
        return owner._dataclass_fields


class Record:
    """A frozen record: the fields in ``__record_fields__``, by name, in order."""

    __slots__ = ()
    __record_fields__: dict[str, Field] = {}
    __match_args__: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, defaults: dict | None = None, compile_init: bool = False):
        """Reads the class's own fields off its annotations. A default is the
        class value, or in ``defaults``, where slots leave no class value."""
        table = dict(cls.__record_fields__)
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            spec = (cls.__dict__ if defaults is None else defaults).get(name, MISSING)
            table[name] = spec if isinstance(spec, Field) else Field(spec)
            table[name].name, table[name].type = name, annotation
        cls.__record_fields__ = table
        cls.__match_args__ = tuple(n for n, spec in table.items() if spec.init and not spec.kw_only)
        cls._compared = attrgetter(*[n for n, spec in table.items() if spec.compare])
        cls._shown = [n for n, spec in table.items() if spec.repr]
        if compile_init:
            cls.__init__ = _compiled_init(cls)

    def __init__(self, *args, **kwargs) -> None:
        """Each field from ``args`` in ``__match_args__`` order, ``kwargs``
        or its default; then ``__post_init__``, if the class has one."""
        cls = type(self)
        given = dict(zip(cls.__match_args__, args))
        if len(given) < len(args) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__qualname__}() got too many or repeated arguments")
        given.update(kwargs)
        for name, spec in cls.__record_fields__.items():
            value = given.pop(name, spec.default) if spec.init else spec.default
            if value is MISSING and spec.default_factory is not MISSING:
                value = spec.default_factory()
            if value is not MISSING:
                object.__setattr__(self, name, value)
            elif spec.init:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if given:
            raise TypeError(f"{cls.__qualname__}() got unexpected arguments {sorted(given)}")
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared(self))

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # imported on this path only

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return getattr(self, "__dict__", None) or {
            name: getattr(self, name) for name in self.__record_fields__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


def _compiled_init(cls: type):
    """``cls.__init__`` written out as dataclass writes it, for a class whose
    fields all take an argument. ``object.__setattr__`` fills a slot, or
    writes a ``__dict__`` without making one where the values sit inline."""
    params, lines, constants = ["self"], [], {"SET": object.__setattr__}
    for name, spec in cls.__record_fields__.items():
        constants["DEFAULT_" + name], constants["MAKE_" + name] = spec.default, spec.default_factory
        params.append(name if spec.default is spec.default_factory is MISSING
                      else f"{name}=DEFAULT_{name}")
        lines.append(f"SET(self, {name!r}, {name})" if spec.default_factory is MISSING else
                     f"SET(self, {name!r}, MAKE_{name}() if {name} is DEFAULT_{name} else {name})")
    namespace: dict[str, object] = {}
    exec(f"def create({', '.join(constants)}):\n def __init__({', '.join(params)}):\n  "
         + "\n  ".join(lines) + "\n return __init__\n", namespace)
    return namespace["create"](**constants)


def record_class(name: str, module: str, rows, base: type = Record,
                 compile_init: bool = False) -> type:
    """A slotted record class ``module.name``: ``base``'s fields, then one
    per row, (name, type) or (name, type, default)."""
    return type(name, (base,), {
        "__slots__": tuple(row[0] for row in rows), "__module__": module,
        "__qualname__": name, "__annotations__": {row[0]: row[1] for row in rows}},
        defaults={row[0]: row[2] for row in rows if len(row) > 2}, compile_init=compile_init)
