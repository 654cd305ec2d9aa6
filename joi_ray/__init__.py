"""joi_ray — a Ray-Data-native schema + constraint validation engine.

Re-expresses the declarative validation language of the reference
(@hapi/joi v16.0.0-rc2, see SURVEY.md) as vectorized Arrow-batch predicates
executed by Ray Data: schemas compile to per-column predicate chains run in
``Dataset.map_batches`` actor pools; dataset-level checks (uniqueness,
referential integrity, column-stats sketches, distribution drift) are
explicit shuffle / broadcast stages (see ``joi_ray.pipelines``).
"""

from .spec import (
    Ref,
    Schema,
    alternatives,
    any_,
    array,
    binary,
    boolean,
    build,
    compile_literal,
    date,
    from_json,
    number,
    object,
    ref,
    string,
    symbol,
    function_,
    link,
)
from .engine import (
    BatchResult,
    CompiledSchema,
    DEFAULT_PREFS,
    MAX_SCHEMA_DEPTH,
    SchemaTooDeep,
    VIOLATION_SCHEMA,
    ValidationFailure,
    assert_,
    attempt,
    compile_schema,
)

def validate(data, schema, *, prefs: dict | None = None, id_column: str | None = None, **kwargs):
    """Unified entry: a pyarrow Table / pandas DataFrame validates eagerly
    (returns BatchResult); a ray.data.Dataset returns the streaming
    violations Dataset (see pipelines.validate.validate_ds for options)."""
    import pyarrow as _pa

    if isinstance(data, _pa.Table):
        return compile_schema(schema, prefs, id_column).validate_table(data)
    try:
        import pandas as _pd

        if isinstance(data, _pd.DataFrame):
            return compile_schema(schema, prefs, id_column).validate_table(
                _pa.Table.from_pandas(data, preserve_index=False)
            )
    except ImportError:  # pragma: no cover
        pass
    from .pipelines.validate import validate_ds

    return validate_ds(data, schema, id_column=id_column, prefs=prefs, **kwargs)


__all__ = [
    "Ref",
    "Schema",
    "alternatives",
    "any_",
    "array",
    "binary",
    "boolean",
    "build",
    "compile_literal",
    "date",
    "from_json",
    "number",
    "object",
    "ref",
    "string",
    "BatchResult",
    "CompiledSchema",
    "compile_schema",
    "DEFAULT_PREFS",
    "MAX_SCHEMA_DEPTH",
    "SchemaTooDeep",
    "VIOLATION_SCHEMA",
    "Template",
    "expression",
    "x",
]

# template factory parity (reference lib/index.js:123 `Joi.expression`,
# alias `Joi.x`): compile a message/rename template once
from .kernels.template import Template, compile_template as expression

x = expression


def is_schema(value) -> bool:
    """``Joi.isSchema`` analog (lib/index.js:162)."""
    from .spec import Schema as _Schema

    return isinstance(value, _Schema)


def is_ref(value) -> bool:
    """``Joi.isRef`` analog (lib/index.js:161)."""
    from .spec import Ref as _Ref

    return isinstance(value, _Ref)


def is_expression(value) -> bool:
    """``Joi.isExpression`` analog (lib/index.js:160)."""
    return isinstance(value, Template)


_KNOWN_PREFS = {
    "convert", "abort_early", "allow_unknown", "strip_unknown", "context",
    "now_ms", "messages", "errors", "presence", "warnings",
}


def check_preferences(prefs: dict) -> None:
    """``Joi.checkPreferences`` analog (lib/index.js:113-117): raise on
    unknown preference keys."""
    unknown = set(prefs) - _KNOWN_PREFS
    if unknown:
        raise ValueError(f"invalid preference keys: {sorted(unknown)}")


# root-level shortcuts (lib/index.js:54-59): jr.required() == jr.any_().required()
def _root_shortcut(method):
    def fn(*args, **kwargs):
        return getattr(any_(), method)(*args, **kwargs)

    fn.__name__ = method
    fn.__doc__ = f"Root shortcut: ``jr.{method}(...)`` == ``jr.any_().{method}(...)``."
    return fn


allow = _root_shortcut("allow")
disallow = _root_shortcut("disallow")
equal = _root_shortcut("equal")
exist = _root_shortcut("exist")
forbidden = _root_shortcut("forbidden")
invalid = _root_shortcut("invalid")
not_ = _root_shortcut("not_")
optional = _root_shortcut("optional")
preferences = _root_shortcut("preferences")
required = _root_shortcut("required")
valid = _root_shortcut("valid")
when = _root_shortcut("when")

__version__ = "0.1.0"
version = __version__  # Joi.version analog (lib/index.js:80)

from . import extend as extend  # extension surface (register_rule / external)


def types() -> dict:
    """Map of type constructors (``Joi.types()``, lib/index.js:169-178)."""
    return {
        "alternatives": alternatives, "any": any_, "array": array,
        "boolean": boolean, "binary": binary, "date": date,
        "function": function_, "link": link, "number": number,
        "object": object, "string": string, "symbol": symbol,
    }


class _DefaultsRoot:
    """``Joi.defaults(fn)`` analog — a root whose type constructors apply
    ``fn`` to every schema they build (and whose ``defaults`` composes).

    NOTE: the pinned reference (v16.0.0-rc2) does NOT ship ``defaults`` —
    it exists in joi v16 final (joi/lib/index.js ``defaults``); semantics
    here follow that public API: fn receives the base schema and must
    return a schema, applied at construction of every type."""

    def __init__(self, modifier, parent=None):
        if not callable(modifier):
            raise ValueError("modifier must be callable")
        self._modifier = modifier
        self._parent = parent

    def _apply(self, schema):
        if self._parent is not None:
            schema = self._parent._apply(schema)
        out = self._modifier(schema)
        if not is_schema(out):
            raise ValueError("modifier must return a valid schema object")
        return out

    def defaults(self, modifier) -> "_DefaultsRoot":
        return _DefaultsRoot(modifier, parent=self)

    def types(self) -> dict:
        return {name: getattr(self, name if name != "any" else "any_")
                for name in ("alternatives", "any", "array", "boolean", "binary",
                             "date", "number", "object", "string")}

    def __getattr__(self, name):
        import sys

        base = getattr(sys.modules[__name__], name)

        def ctor(*args, **kwargs):
            return self._apply(base(*args, **kwargs))

        ctor.__name__ = name
        return ctor

    @property
    def any(self):
        return self.__getattr__("any_")


def defaults(modifier) -> _DefaultsRoot:
    """Root-level schema-defaults modifier: every schema built from the
    returned root is passed through ``modifier`` first.

    >>> strict_root = defaults(lambda s: s.required())
    >>> strict_root.string()   # == string().required()
    """
    return _DefaultsRoot(modifier)


# workers must be able to unpickle joi_ray-named stage callables regardless
# of the driver's cwd; idempotent no-op when imported from the repo root
from ._env import ensure_importable as _ensure_importable

_ensure_importable()

# pyarrow Schemas carrying file metadata (pandas/parquet) are unhashable,
# which makes Ray Data's schema-dedup fast path log a per-task warning
# ("Failed to hash the schemas") on every metadata-bearing input. Cosmetic
# and outside our control — silence exactly that logger (workers import
# joi_ray when unpickling stage callables, so this covers worker logs too).
import logging as _logging

_logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow").setLevel(_logging.ERROR)
