"""Benchmark results history: an append-only trajectory of BENCH runs.

``repro bench --history PATH`` appends every completed run to a JSONL
file, one ``repro-bench-history/1`` line per run.  Each line lifts the
run's provenance (UTC timestamp, git SHA, hostname — see
:func:`repro.bench.runner.collect_meta`) and configuration to the top
level for cheap scanning, and embeds the full ``repro-bench/1`` document
under ``"bench"`` so nothing is lost:

```
{"schema": "repro-bench-history/1", "recorded_at": "...Z",
 "git_sha": "...", "hostname": "...", "suite": "smoke", "quick": true,
 "base_seed": 0, "options": {...}, "bench": {<the BENCH document>}}
```

Appending (instead of the ``BENCH_<suite>.json`` overwrite) is what turns
isolated snapshots into a *trajectory*: ``repro report`` reads such a
file and renders trend tables plus a regression summary, and nightly CI
can keep one growing file per suite.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.bench.runner import collect_meta
from repro.errors import ParseError, ReproError

#: bump on any incompatible change to the history-line layout
HISTORY_SCHEMA = "repro-bench-history/1"

#: BENCH option fields lifted into each line's ``options`` block
_OPTION_FIELDS = ("checker", "workers", "memoize")


def history_line(document: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap one ``repro-bench/1`` document as a history line.

    The provenance fields come from the document's own ``meta`` block when
    present (every freshly generated document carries one) and are
    collected on the spot otherwise, so pre-``meta`` documents can still
    be appended.
    """
    schema = str(document.get("schema", ""))
    if not schema.startswith("repro-bench/"):
        raise ReproError(
            f"not a BENCH document (schema={document.get('schema')!r})"
        )
    meta = document.get("meta") or collect_meta()
    return {
        "schema": HISTORY_SCHEMA,
        "recorded_at": meta.get("generated_at"),
        "git_sha": meta.get("git_sha"),
        "hostname": meta.get("hostname"),
        "suite": document.get("suite"),
        "quick": document.get("quick"),
        "base_seed": document.get("base_seed"),
        "options": {field: document.get(field) for field in _OPTION_FIELDS},
        "bench": document,
    }


def append_history(document: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Append ``document`` to the trajectory at ``path``; returns the line.

    The file is created (including parent directories) on first use.  One
    compact JSON object per line keeps the file greppable and diff-able.
    """
    line = history_line(document)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
    return line


def load_history(
    path: str, *, suite: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Parse a history file into its lines, oldest first.

    Blank and ``#``-comment lines are skipped.  ``suite`` filters to one
    suite's runs (a shared file may interleave several).  A missing file
    gets a recipe, not a stack trace; a malformed line is a
    :class:`~repro.errors.ParseError` naming ``path:lineno``.
    """
    if not os.path.exists(path):
        raise ReproError(
            f"no bench history at {path} — record runs with "
            f"`repro bench --suite <name> --history {path}`"
        )
    entries: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as err:
                raise ParseError(f"{path}:{lineno}: bad JSON: {err}") from err
            if not isinstance(line, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            schema = str(line.get("schema", ""))
            if not schema.startswith("repro-bench-history/"):
                raise ParseError(
                    f"{path}:{lineno}: not a history line "
                    f"(schema={line.get('schema')!r})"
                )
            if not isinstance(line.get("bench"), dict):
                raise ParseError(
                    f"{path}:{lineno}: history line carries no 'bench' document"
                )
            if suite is not None and line.get("suite") != suite:
                continue
            options = line.get("options")
            if isinstance(options, dict):
                # lines recorded before an option was removed compare
                # equal to new lines on the fields still recorded
                line["options"] = {
                    k: v for k, v in options.items() if k in _OPTION_FIELDS
                }
            entries.append(line)
    if suite is not None and not entries:
        raise ReproError(f"{path}: no runs of suite {suite!r} in history")
    return entries
