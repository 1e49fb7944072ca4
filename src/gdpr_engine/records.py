"""Frozen records without ``dataclasses``: ``Record`` subclasses declare
fields as dataclasses do, or ``record_class`` makes slotted ones from rows.
Each class compiles its own ``__init__`` from its field table the first
time it is constructed, so a class never constructed compiles none.
``dataclasses`` is imported only to raise ``FrozenInstanceError`` or to
build, on first read, the ``__dataclass_fields__`` that ``dataclasses.fields``
and ``replace`` read.
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

    def __init_subclass__(cls, defaults: dict | None = None):
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
        cls.__init__ = _first_init(cls)

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


def _first_init(cls: type):
    """An ``__init__`` that compiles ``cls``'s own, puts it in its place and runs it."""
    def __init__(self, *args, **kwargs) -> None:
        cls.__init__ = _compiled_init(cls)
        cls.__init__(self, *args, **kwargs)
    return __init__


def _compiled_init(cls: type):
    """``cls.__init__`` written out as dataclass writes it: an argument per
    ``init`` field, the ``kw_only`` ones after ``*``, a default or factory
    for a field left out, then ``__post_init__`` if the class has one."""
    params, kw_only, lines, constants = ["self"], [], [], {"SET": object.__setattr__}
    for name, spec in cls.__record_fields__.items():
        constants["DEFAULT_" + name], constants["MAKE_" + name] = spec.default, spec.default_factory
        if spec.init:
            (kw_only if spec.kw_only else params).append(
                name if spec.default is spec.default_factory is MISSING else f"{name}=DEFAULT_{name}")
            value = (name if spec.default_factory is MISSING
                     else f"MAKE_{name}() if {name} is DEFAULT_{name} else {name}")
        elif spec.default_factory is not MISSING:
            value = f"MAKE_{name}()"
        elif spec.default is not MISSING:
            value = f"DEFAULT_{name}"
        else:
            continue
        lines.append(f"SET(self, {name!r}, {value})")
    params += ["*", *kw_only] if kw_only else []
    lines += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    namespace: dict[str, object] = {}
    exec(f"def create({', '.join(constants)}):\n def __init__({', '.join(params)}):\n  "
         + "\n  ".join(lines or ["pass"]) + "\n return __init__\n", namespace)
    init = namespace["create"](**constants)
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # as a TypeError names it
    return init


def record_class(name: str, module: str, rows, base: type = Record) -> type:
    """A slotted record class ``module.name``: ``base``'s fields, then one
    per row, (name, type) or (name, type, default)."""
    return type(name, (base,), {
        "__slots__": tuple(row[0] for row in rows), "__module__": module,
        "__qualname__": name, "__annotations__": {row[0]: row[1] for row in rows}},
        defaults={row[0]: row[2] for row in rows if len(row) > 2})
