#!/usr/bin/env python3
"""Validate psim JSON documents against a schema file.

Standard library only: implements exactly the subset of JSON Schema the
schema files use (type, const, enum, required, properties, items,
minimum, maxItems, additionalProperties). CI runs this over the stats
documents a smoke run produces -- and, via --schema, over experiment specs
(spec_schema.json) and canonical results documents
(results_schema.json) -- so schema drift is caught at the source, not
in downstream tooling.

Empty documents (an empty file, [], or {}) are rejected: they satisfy
any of these schemas vacuously, and every producer of these documents
always emits at least one member, so an empty input is a pipeline bug,
not a valid degenerate case.

Usage: check_stats_schema.py [--schema SCHEMA.json] FILE [FILE...]
       (default schema: scripts/stats_schema.json)
"""

import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent / "stats_schema.json"

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
}


def validate(value, schema, path, errors):
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        if not any(TYPE_CHECKS[t](value) for t in types):
            errors.append(
                f"{path}: expected {'|'.join(types)}, "
                f"got {type(value).__name__}"
            )
            return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']!r}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required member '{key}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
        if schema.get("additionalProperties") is False:
            allowed = set(schema.get("properties", {}))
            for key in value:
                if key not in allowed:
                    errors.append(f"{path}: unknown member '{key}'")
    if isinstance(value, list) and "maxItems" in schema:
        if len(value) > schema["maxItems"]:
            errors.append(
                f"{path}: {len(value)} items > maxItems {schema['maxItems']}"
            )
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def check_file(path, schema):
    try:
        text = Path(path).read_text()
    except OSError as e:
        return [f"{path}: {e}"]
    if not text.strip():
        return [f"{path}: empty file (nothing to validate)"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"{path}: {e}"]
    if doc == [] or doc == {}:
        return [
            f"{path}: empty document (an empty array/object satisfies "
            f"any schema vacuously and is always a producer bug)"
        ]
    errors = []
    validate(doc, schema, path, errors)
    # Cross-field checks the schema language cannot express: every
    # sampler row is [tick, one value per probe].
    samples = doc.get("samples") if isinstance(doc, dict) else None
    if isinstance(samples, dict):
        width = 1 + len(samples.get("probes", []))
        for i, row in enumerate(samples.get("rows", [])):
            if isinstance(row, list) and len(row) != width:
                errors.append(
                    f"{path}.samples.rows[{i}]: {len(row)} columns, "
                    f"expected {width}"
                )
    return errors


def main(argv):
    args = argv[1:]
    schema_path = SCHEMA_PATH
    if args and args[0] == "--schema":
        if len(args) < 2:
            print("--schema needs a path", file=sys.stderr)
            return 2
        schema_path = Path(args[1])
        args = args[2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema = json.loads(schema_path.read_text())
    failed = False
    for path in args:
        errors = check_file(path, schema)
        if errors:
            failed = True
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
