"""SEX5xx — serving containment (the network half of the family).

The query service (:mod:`repro.serve`) is the one place the repo is
allowed to listen on a socket, and it earns that right by construction:
every answer it serves comes from a sealed, checksummed artifact whose
manifest pins the graph digest, algorithm, and codec, and every byte it
reads off disk flows through the charged block layer.  An HTTP handler
or raw socket anywhere else — an algorithm module exposing progress over
the network, a debug endpoint inside the storage layer — would leak
unsealed state and un-charged I/O straight past the cost model and the
artifact versioning.  This rule confines the stdlib networking imports
to the serving package, as SEX501 keeps process pools out of the package.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .base import RawViolation, Rule, in_serve_layer, register

#: Top-level modules whose import means "this file may talk on sockets".
_SERVE_MODULES: Tuple[str, ...] = ("http", "socket", "socketserver")


def _module_root(name: str) -> str:
    return name.split(".", 1)[0]


@register
class NetworkConfinementRule(Rule):
    """Network/server imports outside ``repro/serve/``."""

    code = "SEX502"
    name = "serve-socket-outside-service"
    summary = (
        "http/socket/socketserver imports are confined to repro/serve/; a "
        "listener elsewhere would serve unsealed state outside the "
        "artifact manifests and the charged block layer"
    )

    def applies_to(self, relpath: str) -> bool:
        return not in_serve_layer(relpath)

    def check(self, module: ast.Module, relpath: str) -> Iterator[RawViolation]:
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _module_root(alias.name) in _SERVE_MODULES:
                        yield self.violation(
                            node,
                            f"import of {alias.name} outside the serving "
                            "layer; expose data through repro.serve so "
                            "answers come from sealed artifacts",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and _module_root(node.module) in _SERVE_MODULES:
                    yield self.violation(
                        node,
                        f"import from {node.module} outside the serving "
                        "layer; expose data through repro.serve so "
                        "answers come from sealed artifacts",
                    )
