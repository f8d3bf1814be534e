"""Plain-text edge-list files.

Undirected: first non-comment line `n m`, then m lines `u v` with
0 <= u < v < n. Directed: header `n m directed`, then m arc lines `u v`
meaning u->v. `#` starts a comment; tokens are whitespace-separated.
Duplicates, self-loops, and out-of-range indices are parse errors.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

from .graphs import Digraph, Graph

__all__ = ["ParseError", "read_graph", "write_graph", "read_digraph", "write_digraph"]


class ParseError(ValueError):
    """Malformed graph file."""


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse(text: str, expect_directed: bool):
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty file: missing header") from None
    fields = header.split()
    directed = False
    if len(fields) == 3 and fields[2] == "directed":
        directed = True
        fields = fields[:2]
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m' or 'n m directed'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header fields") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative n or m")
    if directed != expect_directed:
        want = "directed" if expect_directed else "undirected"
        raise ParseError(f"line {lineno}: expected a {want} graph file")

    pairs = []
    seen = set()
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if not directed and not u < v:
            raise ParseError(f"line {lineno}: undirected edges must have u < v")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate {'arc' if directed else 'edge'} {u} {v}")
        seen.add((u, v))
        pairs.append((u, v))
    if len(pairs) != m:
        raise ParseError(f"header declares m={m} but file has {len(pairs)} lines")
    return n, pairs


def read_graph(source: Union[str, Path, io.TextIOBase]) -> Graph:
    text = _read_text(source)
    n, edges = _parse(text, expect_directed=False)
    return Graph.from_edges(n, edges)


def read_digraph(source: Union[str, Path, io.TextIOBase]) -> Digraph:
    text = _read_text(source)
    n, arcs = _parse(text, expect_directed=True)
    return Digraph.from_arcs(n, arcs)


def _read_text(source) -> str:
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text()
        return source.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"undecodable text ({exc})") from None


def write_graph(g: Graph, target: Union[str, Path, io.TextIOBase]) -> None:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    _write_text(target, "\n".join(lines) + "\n")


def write_digraph(d: Digraph, target: Union[str, Path, io.TextIOBase]) -> None:
    lines = [f"{d.n} {d.m} directed"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    _write_text(target, "\n".join(lines) + "\n")


def _write_text(target, text: str) -> None:
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
