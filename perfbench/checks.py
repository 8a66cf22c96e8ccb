"""Independent checkers for topocode's outputs.

Each checker is written from the definition of what it checks and never
calls topocode: a reference keystream, the labeling families' defining
conditions, a tree canonical form, cell concatenation orders, the
every-zero index law, spanning-tree splits, closed-form counts and the
k*unit + d*base evaluation.  A checker raises CheckError on a wrong output.
"""

from __future__ import annotations

import hashlib
import itertools

MAGIC = b"TPC1"

# A000055: non-isomorphic free trees on n = 1..10 vertices
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Cipher: byte i shifted by key digit (i mod len(key)), mod 256.
# ---------------------------------------------------------------------------

_SHIFT_TABLES = [bytes((b + s) % 256 for b in range(256)) for s in range(256)]


def ref_keystream(data: bytes, digits: tuple[int, ...], sign: int) -> bytes:
    """Shift every byte by sign * digits[i % len(digits)] mod 256, one residue
    class of positions at a time."""
    require(len(digits) > 0, "empty key")
    out = bytearray(data)
    n = len(digits)
    for i, d in enumerate(digits):
        out[i::n] = data[i::n].translate(_SHIFT_TABLES[(sign * d) % 256])
    return bytes(out)


def key_digits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def ref_seal(payload: bytes, digits: tuple[int, ...]) -> bytes:
    return ref_keystream(MAGIC + hashlib.sha256(payload).digest() + payload, digits, +1)


def ref_unseal(blob: bytes, digits: tuple[int, ...]) -> bytes | None:
    """The payload, or None when the magic or the payload hash does not match."""
    body = ref_keystream(blob, digits, -1)
    payload = body[36:]
    if body[:4] != MAGIC or hashlib.sha256(payload).digest() != body[4:36]:
        return None
    return payload


# (layers sealed around the transmitted ciphertext, layer keys recorded) for
# each protocol run with only a plaintext, so with its default ranks.  Keys
# are recorded innermost first.  key-pair-plan-1 transmits the layer under
# its provisional key and records a second layer, the re-seal under alice's
# public key.  The self-cert onions at their default ranks: self-cert-3 is
# bob's string layer and 3 graph-sequence layers, self-cert-4 the string
# layer and 2 + 2 graph layers, self-cert-5 2 string layers and 1 + 1 graph
# layers.
PROTOCOL_LAYERS = {
    "top-en-decryption-1": (1, 1),
    "top-en-decryption-2": (1, 1),
    "string-key-only": (2, 2),
    "graph-key-only": (2, 2),
    "graph-string-key": (3, 3),
    "key-pair-plan-1": (1, 2),
    "key-pair-plan-2": (1, 1),
    "key-pair-plan-3": (1, 1),
    "key-pair-plan-4": (1, 1),
    "tkpdra": (4, 4),
    "self-cert-1": (2, 2),
    "self-cert-2": (4, 4),
    "self-cert-3": (4, 4),
    "self-cert-4": (5, 5),
    "self-cert-5": (4, 4),
}


def check_sealed(protocol_id: str, ciphertext: bytes, plaintext: bytes, layer_texts: list[str]) -> int:
    """The protocol must record its number of layer keys, and the ciphertext
    must be the plaintext sealed under exactly its number of layers, the
    first recorded keys, innermost first; returns that number."""
    sealed, recorded = PROTOCOL_LAYERS[protocol_id]
    require(len(layer_texts) == recorded, f"{protocol_id}: {len(layer_texts)} layer keys recorded, expected {recorded}")
    blob = plaintext
    for text in layer_texts[:sealed]:
        blob = ref_seal(blob, key_digits(text))
    require(blob == ciphertext, f"{protocol_id}: ciphertext is not the plaintext sealed under {sealed} recorded layers")
    return sealed


# ---------------------------------------------------------------------------
# Graphs and trees.
# ---------------------------------------------------------------------------


def adjacency(vertices, edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_spanning_tree(vertices, edges) -> bool:
    """|E| = |V| - 1 and union-find never closes a cycle."""
    vertices = list(vertices)
    edges = list(edges)
    if len(edges) != len(vertices) - 1:
        return False
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u not in parent or v not in parent:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def canonical_form(vertices, edges) -> str:
    """AHU encoding of a free tree rooted at its center (or the smaller
    encoding over its two centers)."""
    vertices = list(vertices)
    adj = adjacency(vertices, edges)
    if len(vertices) <= 2:
        centers = vertices
    else:
        degree = {v: len(adj[v]) for v in vertices}
        layer = [v for v in vertices if degree[v] == 1]
        left = len(vertices)
        while left > 2:
            left -= len(layer)
            nxt = []
            for leaf in layer:
                degree[leaf] = 0
                for w in adj[leaf]:
                    if degree[w] > 0:
                        degree[w] -= 1
                        if degree[w] == 1:
                            nxt.append(w)
            layer = nxt
        centers = layer

    def encode(v: int, parent: int | None) -> str:
        return "(" + "".join(sorted(encode(w, v) for w in adj[v] if w != parent)) + ")"

    return min(encode(c, None) for c in centers)


def free_trees(n_max: int) -> dict[int, list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]]:
    """Every free tree on 1..n_max vertices, as (vertices, sorted edges), grown
    leaf by leaf from the trees one vertex smaller and deduplicated by the
    canonical form; ordered by canonical form."""
    out = {1: [((0,), ())]}
    for n in range(2, n_max + 1):
        seen: dict[str, tuple] = {}
        for verts, edges in out[n - 1]:
            for attach in verts:
                grown = tuple(sorted(edges + ((attach, n - 1),)))
                form = canonical_form(range(n), grown)
                seen.setdefault(form, (tuple(range(n)), grown))
        out[n] = [seen[f] for f in sorted(seen)]
    return out


def check_free_tree_set(n: int, trees: list[tuple[tuple[int, ...], list[tuple[int, int]]]]) -> None:
    """A000055 count, every member a tree on n vertices, pairwise non-isomorphic."""
    require(len(trees) == FREE_TREE_COUNTS[n - 1], f"n={n}: {len(trees)} trees, expected {FREE_TREE_COUNTS[n - 1]}")
    forms = set()
    for verts, edges in trees:
        require(len(verts) == n and is_spanning_tree(verts, edges), f"n={n}: a member is not a tree on {n} vertices")
        forms.add(canonical_form(verts, edges))
    require(len(forms) == len(trees), f"n={n}: two members are isomorphic")


def bipartition(vertices, edges) -> tuple[set[int], set[int]]:
    adj = adjacency(vertices, edges)
    vertices = list(vertices)
    side = {vertices[0]: 0}
    stack = [vertices[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in side:
                side[w] = 1 - side[u]
                stack.append(w)
            else:
                require(side[w] != side[u], "graph is not bipartite")
    require(len(side) == len(vertices), "graph is not connected")
    a = {v for v, s in side.items() if s == 0}
    return a, set(vertices) - a


def check_split(n_host: int, parts: list[list[tuple[int, int]]], expected_parts: int) -> None:
    """parts partition E(K_n) on vertices 1..n, each one a spanning tree."""
    verts = range(1, n_host + 1)
    require(len(parts) == expected_parts, f"{len(parts)} parts, expected {expected_parts}")
    seen: set[tuple[int, int]] = set()
    for i, part in enumerate(parts):
        norm = {(min(u, v), max(u, v)) for u, v in part}
        require(len(norm) == len(part), f"part {i} repeats an edge")
        require(is_spanning_tree(verts, norm), f"part {i} is not a spanning tree of K_{n_host}")
        require(not (seen & norm), f"part {i} shares an edge with an earlier part")
        seen |= norm
    require(seen == set(itertools.combinations(verts, 2)), f"parts do not cover E(K_{n_host})")


def cayley_count(n: int) -> int:
    return n ** (n - 2)


def bipartite_count(m: int, n: int) -> int:
    return m ** (n - 1) * n ** (m - 1)


# ---------------------------------------------------------------------------
# Labelings: the defining conditions of each family.
# ---------------------------------------------------------------------------


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def check_same_graph(vertices, edges, got_vertices, got_edges) -> None:
    require(set(got_vertices) == set(vertices), "coloring covers other vertices")
    require({_edge_key(*e) for e in got_edges} == {_edge_key(*e) for e in edges}, "coloring covers other edges")


def check_labeling(
    vertices,
    edges,
    f: dict[int, int],
    fe: dict[tuple[int, int], int] | None,
    family: str,
    set_ordered: bool = False,
) -> None:
    """The classical labeling conditions, as topocode defines them:

    * graceful: f injective into [0, q], edge labels |f(u) - f(v)| = {1..q};
    * odd-graceful: f injective into [0, 2q-1], |f(u) - f(v)| = {1, 3, .., 2q-1};
    * harmonious: f injective, edge labels 1 + (f(u) + f(v) - 1) mod q = {1..q};
    * odd-elegant: f injective, edge labels (f(u) + f(v)) mod 2q = {1, 3, .., 2q-1};
    * magic families (edge-magic f(u)+f(e)+f(v), edge-difference f(e)+|f(u)-f(v)|,
      graceful-difference ||f(u)-f(v)| - f(e)|, felicitous-difference
      |f(u)+f(v)-f(e)|): f injective, stored edge labels = {1..q}, one
      constant over all edges.

    set_ordered adds: max f(X) < min f(Y) for one orientation of the bipartition.
    """
    edges = [_edge_key(*e) for e in edges]
    q = len(edges)
    values = [f[v] for v in vertices]
    require(len(set(values)) == len(values), "vertex labels repeat")
    require(all(isinstance(x, int) and x >= 0 for x in values), "vertex labels must be non-negative integers")
    if family == "graceful":
        require(max(values) <= q, f"vertex label above q={q}")
        induced = [abs(f[u] - f[v]) for u, v in edges]
        required = set(range(1, q + 1))
    elif family == "odd-graceful":
        require(max(values) <= 2 * q - 1, f"vertex label above 2q-1={2 * q - 1}")
        induced = [abs(f[u] - f[v]) for u, v in edges]
        required = set(range(1, 2 * q, 2))
    elif family == "harmonious":
        induced = [1 + (f[u] + f[v] - 1) % q for u, v in edges]
        required = set(range(1, q + 1))
    elif family == "odd-elegant":
        induced = [(f[u] + f[v]) % (2 * q) for u, v in edges]
        required = set(range(1, 2 * q, 2))
    else:
        require(fe is not None, "magic labelings carry edge labels")
        induced = [fe[e] for e in edges]
        required = set(range(1, q + 1))
        constants = {magic_value(family, f[u], f[v], fe[(u, v)]) for u, v in edges}
        require(len(constants) == 1, f"{family}: no single constant, got {sorted(constants)}")
    if fe is not None:
        require(all(fe[e] == x for e, x in zip(edges, induced)), "stored edge labels differ from the family rule")
    require(len(set(induced)) == q and set(induced) == required, f"{family}: edge labels {sorted(induced)} are not {sorted(required)}")
    if set_ordered:
        xs, ys = bipartition(vertices, edges)
        ok = any(max(f[v] for v in a) < min(f[v] for v in b) for a, b in ((xs, ys), (ys, xs)))
        require(ok, "labeling is not set-ordered")


def magic_value(family: str, fu: int, fv: int, fe: int) -> int:
    if family == "edge-magic":
        return fu + fe + fv
    if family == "edge-difference":
        return fe + abs(fu - fv)
    if family == "graceful-difference":
        return abs(abs(fu - fv) - fe)
    if family == "felicitous-difference":
        return abs(fu + fv - fe)
    raise ValueError(family)


def check_kd_coloring(vertices, edges, f, fe, family: str, k: int, d: int, constant: int | None) -> None:
    """A (k, d)-total coloring: edge colors {k, k+d, .., k+(q-1)d}, one
    bipartition class in {0, d, 2d, ..}, the other class in {k, k+d, ..};
    graceful edges are |f(u) - f(v)|, a magic family holds its constant."""
    edges = [_edge_key(*e) for e in edges]
    q = len(edges)
    colors = [fe[e] for e in edges]
    require(sorted(colors) == [k + j * d for j in range(q)], f"edge colors {sorted(colors)} are not k + jd")
    if family == "graceful":
        require(all(fe[(u, v)] == abs(f[u] - f[v]) for u, v in edges), "graceful edge is not |f(u) - f(v)|")
    else:
        require(
            all(magic_value(family, f[u], f[v], fe[(u, v)]) == constant for u, v in edges),
            f"{family}: an edge misses the constant {constant}",
        )
    xs, ys = bipartition(vertices, edges)

    def fits(a, b) -> bool:
        return all(f[v] >= 0 and f[v] % d == 0 for v in a) and all(f[v] >= k and (f[v] - k) % d == 0 for v in b)

    require(fits(xs, ys) or fits(ys, xs), "vertex colors break the (k, d) ranges")


def caterpillar_graceful(spine: list[int], leaves: dict[int, list[int]]) -> dict[int, int]:
    """A set-ordered graceful labeling of a caterpillar, constructed directly:
    walking the spine, low labels 0, 1, .. and high labels q, q-1, .. are
    handed out alternately, so edge labels fall q, q-1, .., 1."""
    q = len(spine) - 1 + sum(len(x) for x in leaves.values())
    lo, hi = 0, q
    f: dict[int, int] = {}
    for i, v in enumerate(spine):
        if i % 2 == 0:
            if v not in f:
                f[v] = lo
                lo += 1
            for leaf in leaves.get(v, []):
                f[leaf] = hi
                hi -= 1
            if i + 1 < len(spine):
                f[spine[i + 1]] = hi
                hi -= 1
        else:
            for leaf in leaves.get(v, []):
                f[leaf] = lo
                lo += 1
            if i + 1 < len(spine):
                f[spine[i + 1]] = lo
                lo += 1
    return f


_SO_CACHE: dict[tuple, bool] = {}


def brute_force_set_ordered_graceful(vertices, edges) -> bool:
    """Whether any bijection onto [0, q] is graceful and set-ordered (n <= 7)."""
    vertices = tuple(vertices)
    edges = tuple(sorted(_edge_key(*e) for e in edges))
    key = (vertices, edges)
    if key not in _SO_CACHE:
        q = len(edges)
        xs, ys = bipartition(vertices, edges)
        found = False
        # set-ordered and onto [0, q]: one class takes 0..|class|-1
        for low, high in ((sorted(xs), sorted(ys)), (sorted(ys), sorted(xs))):
            for low_perm in itertools.permutations(range(len(low))):
                for high_perm in itertools.permutations(range(len(low), q + 1)):
                    f = dict(zip(low, low_perm))
                    f.update(zip(high, high_perm))
                    if len({abs(f[u] - f[v]) for u, v in edges}) == q:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        _SO_CACHE[key] = found
    return _SO_CACHE[key]


# ---------------------------------------------------------------------------
# Topcode strings: cells (f(x), f(xy), f(y)) per edge, read in some order.
# ---------------------------------------------------------------------------


def columns(vcolors: dict[int, int], ecolors: dict[tuple[int, int], int], x_side=None) -> list[tuple[int, int, int]]:
    """One (X, E, Y) column per edge in sorted edge order; with x_side the X
    cell comes from that class, otherwise from the smaller endpoint."""
    out = []
    for u, v in sorted(ecolors):
        if x_side is not None and v in x_side:
            u, v = v, u
        out.append((vcolors[u], ecolors[_edge_key(u, v)], vcolors[v]))
    return out


def row_major(cols) -> list[int]:
    return [c[0] for c in cols] + [c[1] for c in cols] + [c[2] for c in cols]


def column_major(cols) -> list[int]:
    return [cell for col in cols for cell in col]


def lehmer_unrank(rank: int, n: int) -> list[int]:
    """The rank-th permutation of 0..n-1 in lexicographic order, from the
    factorial-base digits of the rank."""
    digits = []
    for base in range(1, n + 1):
        rank, digit = divmod(rank, base)
        digits.append(digit)
    require(rank == 0, "rank out of range")
    items = list(range(n))
    return [items.pop(digit) for digit in reversed(digits)]


def concat(cells) -> str:
    return "".join(str(c) for c in cells)


def evaluate_kd(cols, k: int, d: int) -> list[tuple[int, int, int]]:
    """k * unit + d * base, where the unit matrix has X = 0 and E = Y = 1."""
    return [(d * x, k + d * e, k + d * y) for x, e, y in cols]


# ---------------------------------------------------------------------------
# Every-zero groups.
# ---------------------------------------------------------------------------


def index_law(i: int, j: int, zero: int, order: int) -> int:
    return (i + j - zero) % order


def check_shift_group(elements: list[tuple[int, ...]], seed: tuple[int, ...], k: int, modulus: int) -> None:
    """Element t advances every seed digit by t*k mod the modulus."""
    for t, element in enumerate(elements):
        require(element == tuple((d + t * k) % modulus for d in seed), f"element {t} is not seed + {t}*{k}")


def table1_reference() -> list[tuple[str, ...]]:
    seed = [1, 0, 1, 3, 4, 1, 2]
    rows = []
    for i in range(1, 11):
        s = [(d + i - 1) % 10 for d in seed]
        rev = s[::-1]
        comp = [(9 - d) % 10 for d in s]
        crev = comp[::-1]
        rows.append(
            (str(i), concat(s), concat(rev), concat(comp), concat(crev),
             concat((a + b) % 10 for a, b in zip(s, rev)),
             concat((a - b) % 10 for a, b in zip(s, rev)),
             concat((a + b) % 10 for a, b in zip(comp, crev)))
        )
    return rows


def table2_reference() -> list[tuple[str, ...]]:
    """Mod 9; residue 0 prints as 9 except in the two complement columns."""
    seed = [1, 4, 2, 8, 5, 7]

    def nine(ds) -> str:
        return "".join("9" if d == 0 else str(d) for d in ds)

    rows = []
    for i in range(1, 10):
        d = [(x + i - 1) % 9 for x in seed]
        rev = d[::-1]
        comp = [(9 - x) % 9 for x in d]
        crev = comp[::-1]
        rows.append(
            (str(i), nine(d), nine(rev), concat(comp), concat(crev),
             nine((a + b) % 9 for a, b in zip(d, rev)),
             nine((a + b) % 9 for a, b in zip(comp, crev)),
             nine((a - b) % 9 for a, b in zip(d, comp)),
             nine((a - b) % 9 for a, b in zip(d, crev)),
             nine((a - b) % 9 for a, b in zip(rev, crev)))
        )
    return rows


def check_cli_contract(code, err: str, expected: tuple[int, ...] = (0, 1, 2)) -> None:
    """Exit 0, 1 or 2; on failure exactly one 'error:' line or an argparse usage
    message, never a traceback."""
    require(code in expected, f"exit code {code!r}, expected one of {expected}")
    require("Traceback" not in err, "traceback on stderr")
    if code == 1:
        lines = [line for line in err.splitlines() if line.strip()]
        require(len(lines) == 1 and lines[0].startswith("error:"), f"stderr is not one 'error:' line: {err!r}")
    if code == 2:
        require("usage:" in err or err.startswith("error:"), f"usage error without a message: {err!r}")
