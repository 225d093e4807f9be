"""Document helpers that only the tests use, kept out of `schroeder.documents`.

`map_json` writes a map as a map document with no conjugator, the
document `documents.parse_map_document` reads back to the same map.
`parse_rational` reads one rational as a `Fraction` through the
documents' own reader `_rational`, with its refusals; the package itself
reads every rational as integers and never forms a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict

from schroeder.documents import _rational, jet_json
from schroeder.maps import PolyMap


def map_json(phi: PolyMap) -> Dict[str, Any]:
    return {
        "dimension": phi.dim,
        "components": [jet_json(c) for c in phi.components],
    }


def parse_rational(value: Any, path: str) -> Fraction:
    return Fraction(*_rational(value, path))
