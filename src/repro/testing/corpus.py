"""Replayable failure corpus: (de)serialization of differential cases.

Every Hypothesis counterexample gets serialized to a small JSON document
and dropped into ``tests/corpus/``; the corpus-replay test re-runs each
file as a plain deterministic regression test, so a counterexample found
once keeps failing loudly until the bug is actually fixed — independent
of Hypothesis' own example database.

The JSON encodes the *inputs* only (schema, rows, links, weights, query,
params, and the generating seed when known); the database is rebuilt
through the normal :class:`~repro.db.database.Database` API on load, so
corpus files stay valid across internal representation changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..config import EdgeWeights, SearchParams
from ..db.database import Database
from ..db.schema import Column, ForeignKey, ManyToMany, Schema, Table
from .generators import GeneratedCase, GeneratorConfig

#: Format marker so future layout changes can stay backward compatible.
CORPUS_FORMAT = 1


# -------------------------------------------------------------- to JSON


def _schema_to_dict(schema: Schema) -> Dict:
    tables = []
    for table in schema:
        tables.append({
            "name": table.name,
            "primary_key": table.primary_key,
            "columns": [
                {
                    "name": column.name,
                    "type": column.type,
                    "searchable": column.searchable,
                }
                for column in table.columns.values()
            ],
            "foreign_keys": [
                {
                    "name": fk.name,
                    "column": fk.column,
                    "references": fk.references,
                    "nullable": fk.nullable,
                }
                for fk in table.foreign_keys.values()
            ],
        })
    links = [
        {"name": m2m.name, "table_a": m2m.table_a, "table_b": m2m.table_b}
        for m2m in schema.many_to_many.values()
    ]
    return {"tables": tables, "many_to_many": links}


def case_to_dict(case: GeneratedCase) -> Dict:
    """Serialize one case to a JSON-compatible dict."""
    db = case.db
    rows = {
        table.name: [
            {"pk": row.pk, "values": dict(row.values)}
            for row in db.rows(table.name)
        ]
        for table in db.schema
    }
    links = [
        {"link": name, "a": pk_a, "b": pk_b}
        for name, pk_a, pk_b in db.links()
    ]
    return {
        "format": CORPUS_FORMAT,
        "seed": case.seed,
        "query": case.query,
        "params": {
            "k": case.params.k,
            "diameter": case.params.diameter,
            "strict_merge": case.params.strict_merge,
            "max_candidates": case.params.max_candidates,
            "semantics": case.params.semantics,
        },
        "weights": {
            "default": case.weights.default,
            "entries": [
                {"source": source, "target": target, "weight": weight}
                for (source, target), weight in sorted(
                    case.weights.weights.items()
                )
            ],
        },
        "schema": _schema_to_dict(db.schema),
        "rows": rows,
        "links": links,
    }


# ------------------------------------------------------------ from JSON


def _schema_from_dict(data: Dict) -> Schema:
    tables = []
    for spec in data["tables"]:
        columns = [
            Column(c["name"], c.get("type", "text"), c.get("searchable", True))
            for c in spec["columns"]
        ]
        fks = [
            ForeignKey(
                f["name"], f["column"], f["references"],
                f.get("nullable", True),
            )
            for f in spec.get("foreign_keys", [])
        ]
        tables.append(Table(
            spec["name"], columns, foreign_keys=fks,
            primary_key=spec.get("primary_key", "id"),
        ))
    links = [
        ManyToMany(m["name"], m["table_a"], m["table_b"])
        for m in data.get("many_to_many", [])
    ]
    return Schema(tables, many_to_many=links)


def case_from_dict(data: Dict) -> GeneratedCase:
    """Rebuild a case from its JSON dict via the normal Database API."""
    if data.get("format", 1) != CORPUS_FORMAT:
        raise ValueError(f"unknown corpus format {data.get('format')!r}")
    schema = _schema_from_dict(data["schema"])
    db = Database(schema)
    for table_name, rows in data["rows"].items():
        for row in rows:
            db.insert(table_name, row["pk"], **row["values"])
    for link in data.get("links", []):
        db.link(link["link"], link["a"], link["b"])
    weights_spec = data.get("weights", {})
    weights = EdgeWeights(
        weights={
            (entry["source"], entry["target"]): entry["weight"]
            for entry in weights_spec.get("entries", [])
        },
        default=weights_spec.get("default", 1.0),
    )
    # Cases saved while the search had engine/lazy_bounds switches may
    # name them; the one search left ignores both keys.
    p = data["params"]
    params = SearchParams(
        k=p["k"],
        diameter=p["diameter"],
        strict_merge=p.get("strict_merge", True),
        max_candidates=p.get("max_candidates", 0),
        semantics=p.get("semantics", "and"),
    )
    return GeneratedCase(
        seed=data.get("seed", -1),
        db=db,
        weights=weights,
        query=data["query"],
        params=params,
        config=GeneratorConfig(),
    )


# ------------------------------------------------------------- file I/O


def save_case(case: GeneratedCase, path: Union[str, Path]) -> Path:
    """Write one case to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(case_to_dict(case), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_case(path: Union[str, Path]) -> GeneratedCase:
    """Load one corpus file back into a runnable case."""
    return case_from_dict(json.loads(Path(path).read_text()))


def save_counterexample(
    case: GeneratedCase,
    corpus_dir: Union[str, Path],
    reason: str = "",
) -> Optional[Path]:
    """Persist a failing case into the corpus directory (idempotent).

    The filename is derived from the seed so the same counterexample is
    not re-saved on every shrink iteration.  Returns the path written,
    or None when the file already exists.
    """
    corpus_dir = Path(corpus_dir)
    name = f"case_seed_{case.seed}.json"
    path = corpus_dir / name
    if path.exists():
        return None
    data = case_to_dict(case)
    if reason:
        data["reason"] = reason
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir: Union[str, Path]) -> List[Path]:
    """All corpus files, sorted for deterministic test ordering."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return sorted(corpus_dir.glob("*.json"))
