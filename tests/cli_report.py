"""Reading a coxtile report back into its JSON document, as the CLI tests do."""

import json

from coxtile.errors import ValidationError


def parse_report(text: str) -> dict:
    doc = json.loads(text)
    if "version" not in doc or "results" not in doc:
        raise ValidationError("not a coxtile report")
    return doc
