"""Seeded input generators and the benchmark's own integer linear algebra.

Nothing here imports k3lat: inputs are filtered and counted with code that
is independent of the program under test, and handed to it only as JSON
text.
"""

from __future__ import annotations

import json
import random


def fibration_config(fibers: int, comps: int) -> tuple[list, list]:
    """``fibers`` fibres of type I_comps plus a zero section meeting the
    first component of each, in canonical labels.

    Returns ``(vertices, edges)`` as ``(id, square)`` and ``(a, b, mult)``
    tuples.  An I2 fibre is two curves meeting with multiplicity 2.
    """
    vertices, edges = [("s", -2)], []
    for f in range(fibers):
        ids = [f"f{f}c{c}" for c in range(comps)]
        vertices.extend((v, -2) for v in ids)
        if comps == 2:
            edges.append((ids[0], ids[1], 2))
        else:
            edges.extend((ids[c], ids[(c + 1) % comps], 1) for c in range(comps))
        edges.append(("s", ids[0], 1))
    return vertices, edges


def relabel(
    vertices: list, edges: list, rng: random.Random, reorder: bool
) -> tuple[list, list, dict]:
    """Rename every vertex to a fresh random id; with ``reorder``, also
    shuffle both lists and the ends of each edge.

    Returns the new lists and the map from new ids back to canonical ones.
    """
    names = rng.sample(range(10 * len(vertices) + 100), len(vertices))
    fwd = {v: f"x{k}" for (v, _), k in zip(vertices, names)}
    new_vertices = [(fwd[v], sq) for v, sq in vertices]
    new_edges = [(fwd[a], fwd[b], m) for a, b, m in edges]
    if reorder:
        new_edges = [(b, a, m) if rng.random() < 0.5 else (a, b, m) for a, b, m in new_edges]
        rng.shuffle(new_vertices)
        rng.shuffle(new_edges)
    return new_vertices, new_edges, {new: old for old, new in fwd.items()}


def config_json(name: str, vertices: list, edges: list) -> str:
    """The configuration file text that ``formats.parse_config`` reads."""
    return json.dumps(
        {
            "name": name,
            "vertices": [{"id": v, "square": sq} for v, sq in vertices],
            "edges": [{"a": a, "b": b, "mult": m} for a, b, m in edges],
            "metadata": {},
        }
    )


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 1968)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def random_hyperbolic(rng: random.Random, n: int) -> tuple[list, list]:
    """Grow a connected configuration of ``n`` curves whose form has
    inertia (1, n - 1).

    Each candidate vertex has square -2 or 0 and meets one or two earlier
    vertices with multiplicity 1 to 3.  It is kept only if the determinant
    of the grown Gram matrix is nonzero and, once a positive direction
    exists, changes sign: a nonzero Schur complement of sign
    det_new / det_old is the new vertex's contribution to the inertia, so
    the positive index never exceeds one.
    """
    while True:
        gram = [[-2]]
        edges: list[tuple[int, int, int]] = []
        squares = [-2]
        det, n_plus = -2, 0
        for _ in range(40 * n):
            if len(squares) == n:
                break
            k = len(squares)
            square = -2 if rng.random() < 0.8 else 0
            nbrs = rng.sample(range(k), min(k, rng.choice((1, 2, 2, 3))))
            mults = [rng.choice((1, 1, 1, 1, 2, 3)) for _ in nbrs]
            row = [0] * k
            for j, m in zip(nbrs, mults):
                row[j] = m
            grown = [r + [row[i]] for i, r in enumerate(gram)] + [row + [square]]
            new_det = bareiss_det(grown)
            if new_det == 0:
                continue
            positive = (new_det > 0) == (det > 0)
            if positive and n_plus == 1:
                continue
            gram, det = grown, new_det
            n_plus += positive
            squares.append(square)
            edges.extend((j, k, m) for j, m in zip(nbrs, mults))
        if len(squares) == n and n_plus == 1:
            vertices = [(f"r{i}", sq) for i, sq in enumerate(squares)]
            return vertices, [(f"r{a}", f"r{b}", m) for a, b, m in edges]


def adjacency(vertices: list, edges: list) -> tuple[list[str], list[set[int]]]:
    ids = [v for v, _ in vertices]
    index = {v: i for i, v in enumerate(ids)}
    adj: list[set[int]] = [set() for _ in ids]
    for a, b, _ in edges:
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    return ids, adj


def connected_subsets(adj: list[set[int]], cap: int) -> list[tuple[int, ...]]:
    """Every connected vertex subset of size <= ``cap`` as a sorted index
    tuple, in the exclusion sweep's canonical order (size, then tuple)."""
    found: set[tuple[int, ...]] = set()
    level = {(v,) for v in range(len(adj))}
    while level:
        found |= level
        if len(next(iter(level))) == cap:
            break
        level = {
            tuple(sorted(s + (u,)))
            for s in level
            for v in s
            for u in adj[v]
            if u not in s
        }
    return sorted(found, key=lambda s: (len(s), s))


def inertia(rows: list[list[int]]) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of an integer symmetric matrix.

    The characteristic polynomial comes from the Faddeev-LeVerrier
    recurrence, whose divisions are exact over the integers.  Its roots are
    real, so Descartes' rule of signs counts the positive and negative ones
    exactly.
    """
    n = len(rows)
    coeffs = [1]  # x^n, x^(n-1), ..., x^0
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        am = [
            [sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        m = am
    n_zero = 0
    while n_zero < n and coeffs[n - n_zero] == 0:
        n_zero += 1
    nonzero = [x for x in coeffs[: n + 1 - n_zero] if x]

    def changes(seq):
        return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))

    flipped = [x if (n - i) % 2 == 0 else -x for i, x in enumerate(coeffs[: n + 1 - n_zero]) if x]
    return changes(nonzero), changes(flipped), n_zero
