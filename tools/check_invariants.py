#!/usr/bin/env python3
"""AST-based repo invariant lint (CI: the lint job runs this after ruff).

Enforces repo-specific rules generic linters can't see:

1. **No builtin ``hash()`` in fingerprint/wire modules.**  Python's
   ``hash()`` is salted per process; anything that feeds a cache key, a
   wire document, or a deterministic corpus seed must use a content hash
   (``hashlib``/``zlib.crc32``) instead.  Defining ``__hash__`` and
   calling ``hash()`` on in-process dict keys elsewhere is fine.
2. **Every ``api/schema.py`` wire dataclass round-trips and is documented.**
   Each ``@dataclass`` in the wire schema must have ``to_dict`` and
   ``from_dict`` members and be named in ``docs/API.md``.
3. **No naive ``datetime.now()`` / ``utcnow()`` / ``today()``.**  Wire
   documents and history lines carry UTC timestamps; a ``now()`` call must
   pass a timezone.
4. **No mutable default arguments** (``def f(x=[])``), anywhere under
   ``src/``.
5. **No code-running deserializers in wire modules.**  Everything under
   ``src/repro/api/`` and ``src/repro/fleet/``, plus the HTTP server and
   client, parses documents a network peer sent; the wire is JSON only,
   so these modules may not import ``pickle``, ``marshal`` or ``shelve``
   (unpickling runs code the sender chose).

Exit status 0 when clean, 1 with ``file:line: message`` findings otherwise.
Run from the repo root: ``python tools/check_invariants.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: modules whose outputs must be stable across processes (rule 1)
WIRE_MODULES = (
    "src/repro/perf/fingerprint.py",
    "src/repro/service/fingerprint.py",
    "src/repro/api/schema.py",
    "src/repro/scenarios/corpus.py",
    "src/repro/fleet/coordinator.py",
    "src/repro/analysis/diagnostics.py",
)

#: modules that parse what a network peer sends (rule 5)
JSON_WIRE_PACKAGES = ("src/repro/api/", "src/repro/fleet/")
JSON_WIRE_MODULES = ("src/repro/service/server.py", "src/repro/service/client.py")

#: stdlib modules whose loaders run code chosen by the data's author
CODE_RUNNING_DESERIALIZERS = frozenset(("pickle", "marshal", "shelve"))

SCHEMA_MODULE = "src/repro/api/schema.py"
API_DOC = "docs/API.md"


def _iter_defaults(node: ast.AST):
    args = node.args
    for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
        yield default


def _imported_modules(node: ast.AST):
    """Top-level module names an import statement binds (none otherwise)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module.split(".")[0]]
    return []


def check_file(path: Path, findings: list, *, rel: str = "") -> None:
    """Lint one file; ``rel`` overrides its repo-relative path (tests)."""
    rel = rel or path.relative_to(REPO).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_wire = rel in WIRE_MODULES
    is_json_wire = rel.startswith(JSON_WIRE_PACKAGES) or rel in JSON_WIRE_MODULES

    for node in ast.walk(tree):
        # rule 5: code-running deserializers in modules peers talk to
        if is_json_wire:
            for module in _imported_modules(node):
                if module in CODE_RUNNING_DESERIALIZERS:
                    findings.append(
                        f"{rel}:{node.lineno}: {module} imported in a wire "
                        "module (the wire is JSON only; loading it runs "
                        "code the sender chose)"
                    )
        # rule 1: builtin hash() in wire modules
        if (
            is_wire
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            findings.append(
                f"{rel}:{node.lineno}: builtin hash() in a fingerprint/wire module "
                "(salted per process; use hashlib or zlib.crc32)"
            )
        # rule 3: naive datetime calls
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("utcnow", "today"):
                findings.append(
                    f"{rel}:{node.lineno}: datetime.{attr}() is naive; use "
                    "datetime.now(timezone.utc)"
                )
            elif attr == "now" and not node.args and not node.keywords:
                base = node.func.value
                if isinstance(base, ast.Name) and base.id in ("datetime", "date"):
                    findings.append(
                        f"{rel}:{node.lineno}: naive datetime.now(); pass a timezone "
                        "(datetime.now(timezone.utc))"
                    )
        # rule 4: mutable default arguments
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in _iter_defaults(node):
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                ):
                    findings.append(
                        f"{rel}:{default.lineno}: mutable default argument in "
                        f"{node.name}(); use None or a dataclass field factory"
                    )


def check_schema_coverage(findings: list) -> None:
    """Rule 2: wire dataclasses round-trip and appear in docs/API.md."""
    path = REPO / SCHEMA_MODULE
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    doc_text = (REPO / API_DOC).read_text(encoding="utf-8")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorated = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
            )
            for dec in node.decorator_list
        )
        if not decorated:
            continue
        members = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for required in ("to_dict", "from_dict"):
            if required not in members:
                findings.append(
                    f"{SCHEMA_MODULE}:{node.lineno}: wire dataclass {node.name} "
                    f"has no {required}()"
                )
        if node.name not in doc_text:
            findings.append(
                f"{SCHEMA_MODULE}:{node.lineno}: wire dataclass {node.name} "
                f"is not documented in {API_DOC}"
            )


def main() -> int:
    findings: list = []
    for path in sorted(SRC.rglob("*.py")):
        check_file(path, findings)
    check_schema_coverage(findings)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariants ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
