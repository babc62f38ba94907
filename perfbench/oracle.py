"""Expected answers computed by the benchmark's own code.

Every answer the program gives is checked against rows computed here,
with plain dicts and sets and nothing from ``repro``, so a bug that
changes the program's encoded and decoded planes alike still fails the
run.  The functions take the raw ``(name, schema, rows)`` relations the
program receives and return ``(schema, rows)``.
"""

from __future__ import annotations

import hashlib


def digest(schema, rows) -> str:
    """Order-independent digest of a set of rows: the sum of per-row sha1
    prefixes modulo 2^128, each row taken with its attributes in sorted
    name order, so two schemas for the same answer digest alike."""
    order = sorted(range(len(schema)), key=lambda i: schema[i])
    total = 0
    for row in rows:
        key = repr(tuple(row[i] for i in order)).encode()
        total += int.from_bytes(hashlib.sha1(key).digest()[:16], "big")
    return f"{total % (1 << 128):032x}"


def _by_name(relations) -> dict:
    return {name: (tuple(schema), rows) for name, schema, rows in relations}


def _pairs(relations, name: str, first: str, second: str) -> list:
    """``name``'s rows as ``(first, second)`` pairs."""
    schema, rows = relations[name]
    i, j = schema.index(first), schema.index(second)
    return [(row[i], row[j]) for row in rows]


def triangle(relations) -> tuple[tuple, list]:
    """R(x,y) ⋈ S(y,z) ⋈ T(z,x)."""
    rels = _by_name(relations)
    succ: dict = {}
    for y, z in _pairs(rels, "S", "y", "z"):
        succ.setdefault(y, []).append(z)
    closing = set(_pairs(rels, "T", "z", "x"))
    rows = [
        (x, y, z)
        for x, y in _pairs(rels, "R", "x", "y")
        for z in succ.get(y, ())
        if (z, x) in closing
    ]
    return ("x", "y", "z"), rows


def guarded_chain(relations) -> tuple[tuple, list]:
    """R(x,y) ⋈ S(y,z), S functional in y."""
    rels = _by_name(relations)
    image = dict(_pairs(rels, "S", "y", "z"))
    rows = [(x, y, image[y]) for x, y in _pairs(rels, "R", "x", "y") if y in image]
    return ("x", "y", "z"), rows


def udf_expand(relations) -> tuple[tuple, list]:
    """R(x,y) with z = add(x, y)."""
    rels = _by_name(relations)
    return ("x", "y", "z"), [(x, y, x + y) for x, y in _pairs(rels, "R", "x", "y")]


def fdchain(relations) -> tuple[tuple, list]:
    """R(w,x) ⋈ U(last,w), where each guard G0, G1, ... maps one chain
    attribute to the next (x → a → b → ...) and ``last`` is the final
    one."""
    rels = _by_name(relations)
    guards = sorted((n for n in rels if n.startswith("G")), key=lambda n: int(n[1:]))
    schema = ["w", "x"]
    rows = _pairs(rels, "R", "w", "x")
    for name in guards:
        (src, dst), pairs = rels[name]
        image = dict(pairs)
        at = schema.index(src)
        rows = [row + (image[row[at]],) for row in rows if row[at] in image]
        schema.append(dst)
    u_schema, u_rows = rels["U"]
    closing = set(u_rows)
    at = [schema.index(a) for a in u_schema]
    rows = [row for row in rows if tuple(row[i] for i in at) in closing]
    return tuple(schema), rows


#: Workload or request shape -> its oracle.
ORACLES = {
    "fdchain": fdchain,
    "lftj_triangle": triangle,
    "csma_degree": triangle,
    "triangle": triangle,
    "guarded_chain": guarded_chain,
    "udf_expand": udf_expand,
}
