"""Generate docs/api.md from the package's public API.

Walks every ``repro`` subpackage, collects the names its ``__all__``
exports, and emits a markdown reference with each object's signature and
first docstring paragraph.  Re-run after API changes:

    python tools/generate_api_docs.py

The output is the same on every supported Python version: text the
interpreter supplies (enum and builtin constructor signatures, builtin
type docstrings) is left out or replaced by a repr.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro.geometry",
    "repro.extraction",
    "repro.circuit",
    "repro.peec",
    "repro.vpec",
    "repro.kelement",
    "repro.baselines",
    "repro.analysis",
    "repro.noise",
    "repro.health",
    "repro.pipeline",
    "repro.service",
    "repro.experiments",
]

OUTPUT = pathlib.Path(__file__).parent.parent / "docs" / "api.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n")[0].strip().replace("\n", " ")
    return paragraph


def own_constructor(cls) -> bool:
    """Whether ``cls`` is built by an ``__init__``/``__new__`` of repro's."""
    for base in cls.__mro__:
        if "__init__" in vars(base) or "__new__" in vars(base):
            return base.__module__.startswith("repro.")
    return False


def signature_of(obj) -> str:
    # An enum's call signature comes from its metaclass and an
    # exception's from a builtin; both read differently across Python
    # versions, so such classes are listed without one.
    if inspect.isclass(obj) and (
        isinstance(obj, enum.EnumMeta) or not own_constructor(obj)
    ):
        return ""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe_constant(obj) -> str:
    # Instances of builtin or typing types would inherit their type's
    # docstring (``float``, ``str``, ``typing.Union``), so show the value.
    if type(obj).__module__.startswith("repro.") and first_paragraph(obj):
        return first_paragraph(obj)
    return f"`{obj!r}`"


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        kind = "class"
    elif inspect.isroutine(obj):
        kind = "function"
    else:
        return f"- **`{name}`** — constant: {describe_constant(obj)}\n"
    sig = signature_of(obj)
    lines = [f"- **`{name}{sig}`** ({kind})"]
    summary = first_paragraph(obj)
    if summary:
        lines.append(f"  — {summary}")
    return "\n".join(lines) + "\n"


def main() -> int:
    chunks = [
        "# API Reference\n",
        "_Generated by `python tools/generate_api_docs.py`; do not edit by hand._\n",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            continue
        chunks.append(f"\n## `{package_name}`\n")
        summary = first_paragraph(module)
        if summary:
            chunks.append(summary + "\n")
        for name in exported:
            obj = getattr(module, name)
            chunks.append(describe(name, obj))
    OUTPUT.write_text("\n".join(chunks))
    print(f"wrote {OUTPUT} ({OUTPUT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
