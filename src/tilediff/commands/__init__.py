"""The subcommand handlers, one module each: ``commands.<name>.run(args)``.

`cli.main` imports only the module of the subcommand it runs, so a call
compiles and runs no other handler's code. This package holds what several
handlers share: the config-or-coloring reader.
"""

from __future__ import annotations

import re

from .. import model, torus


# A line whose first token before any '#' is ``u``, over the text's lines
# rejoined with "\n" so that every `str.splitlines` break ends a line.
# Compiled on the first call by `re`'s cache, so `check` and `search` never
# pay for it.
_CONFIG_LINE = r"^[^\S\n]*u(?![^\s#])"


def _parse_source(text: str) -> model.TileConfig | torus.EdgeColoring:
    """Parse a config (text with a ``u`` line) or else a coloring."""
    if re.search(_CONFIG_LINE, "\n".join(text.splitlines()), re.M):
        return model.parse_config(text)
    return torus.parse_coloring(text)
