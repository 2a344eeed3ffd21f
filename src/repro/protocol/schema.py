"""The machine-readable wire schema, generated from the field specs.

``repro protocol-schema`` prints exactly this document; CI regenerates
it and diffs against the committed ``src/repro/protocol/schema.json``,
so any wire change that is not accompanied by an explicit schema commit
(and, for breaking changes, a ``PROTOCOL_VERSION`` bump) fails the
build.  The document is generated from the same specs that drive the
codec — it cannot drift from actual behavior.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.protocol.codec import DEFAULT_CODEC
from repro.protocol.messages import (
    MESSAGE_SPECS,
    PROTOCOL_VERSION,
    STRUCT_SPECS,
)

#: Where the committed schema lives (the protocol-compat CI step's base).
SCHEMA_PATH = Path(__file__).with_name("schema.json")


def _fields(spec) -> list[dict]:
    return [
        {"name": field.name, "kind": field.kind, "optional": field.optional}
        for field in spec.fields
    ]


def schema() -> dict:
    """The wire schema as one JSON-ready document."""
    return {
        "protocol_version": PROTOCOL_VERSION,
        "codec": DEFAULT_CODEC.name,
        "codecs": {DEFAULT_CODEC.name: DEFAULT_CODEC.content_type},
        "envelope": ["v", "type", "trace?"],
        "messages": {
            spec.tag: {"class": spec.cls.__name__, "fields": _fields(spec)}
            for spec in MESSAGE_SPECS
        },
        "structs": {
            kind: {"class": spec.cls.__name__, "fields": _fields(spec)}
            for kind, spec in sorted(STRUCT_SPECS.items())
        },
    }


def render_schema() -> str:
    """The schema document as committed: stable, human-diffable JSON."""
    return json.dumps(schema(), indent=2, sort_keys=True) + "\n"


def main() -> int:
    """Entry point of ``repro protocol-schema``."""
    print(render_schema(), end="")
    return 0
