"""The pre-walk that coxtile.cli.emit_report replaced with a `json.dumps`
default hook, kept verbatim as a test oracle: it copies a report into plain
JSON types (Fractions as "p/q", tuples as lists, keys as str), returning
containers that nothing inside changed as they are.  Used only by tests.
"""

from fractions import Fraction
from operator import is_

_PLAIN = frozenset({str, int, bool, float, type(None)})
_STR = frozenset({str})


def _jsonable(x):
    if type(x) in _PLAIN:  # most of a report: answered before the other branches
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    # a dict with str keys, or a list, that nothing inside changed is returned as is
    if isinstance(x, dict):
        same = type(x) is dict and _STR.issuperset(map(type, x))
        if same and _PLAIN.issuperset(map(type, x.values())):  # flat: no call per value
            return x
        values = list(map(_jsonable, x.values()))
        return x if same and all(map(is_, values, x.values())) else dict(zip(map(str, x), values))
    if isinstance(x, (list, tuple)):
        items = list(map(_jsonable, x))
        return x if type(x) is list and all(map(is_, items, x)) else items
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)
