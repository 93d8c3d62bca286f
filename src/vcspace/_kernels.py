"""Plain-Python kernels over lists for the hot loops (matching, peeling, unit propagation).

The matching and peeling kernels take CSR adjacency as numpy arrays, convert
it once with `.tolist()`, run on Python lists and ints, and hand back numpy
arrays.  Unit propagation runs once per probe, so it takes the lists
themselves and its caller converts once.  Python ints and list indexing are
several times cheaper to loop over than numpy scalars and array indexing.
"""

from __future__ import annotations

import numpy as np

# Node states shared with rsg.py (kept as plain ints inside kernels).
UNFROZEN = 0
POSITIVE = 1  # uncovered backbone
NEGATIVE = 2  # covered backbone


def build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency from an (m, 2) edge array with u < v per row."""
    if len(edges) == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int32)
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int32)


def hopcroft_karp(indptr, indices, n_left, n_right):
    """Maximum bipartite matching on local ids (left 0..n_left-1).

    Deterministic: BFS layers and DFS both scan left vertices and their sorted
    adjacency in increasing order.  Returns (match_left, match_right, size)
    with int32 match arrays.
    """
    INF = 2**31 - 1
    bounds = indptr[: n_left + 1].tolist()
    flat = indices[: bounds[n_left]].tolist()
    adj = [flat[bounds[u]:bounds[u + 1]] for u in range(n_left)]
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [INF] * n_left
    ptr = [0] * n_left
    size = 0
    while True:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        free_found = False
        for u in queue:  # grows while scanned: a FIFO queue
            du1 = dist[u] + 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    free_found = True
                elif dist[w] == INF:
                    dist[w] = du1
                    queue.append(w)
        if not free_found:
            break
        for s in range(n_left):
            if match_l[s] != -1:
                continue
            # stack[k] reaches stack[k + 1] through its right neighbour via[k]
            stack = [s]
            via = []
            ptr[s] = 0
            while stack:
                u = stack[-1]
                nbrs = adj[u]
                du1 = dist[u] + 1
                for i in range(ptr[u], len(nbrs)):
                    v = nbrs[i]
                    w = match_r[v]
                    if w == -1 or dist[w] == du1:
                        ptr[u] = i + 1
                        break
                else:  # dead end: drop u from this phase
                    dist[u] = INF
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                if w == -1:  # free right node: flip the path
                    match_l[u] = v
                    match_r[v] = u
                    for uu, vv in zip(stack, via):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    size += 1
                    break
                via.append(v)
                stack.append(w)
                ptr[w] = 0
    return np.array(match_l, np.int32), np.array(match_r, np.int32), size


def leaf_removal_peel(indptr, indices, n):
    """Iteratively remove degree-1 nodes together with their support.

    Returns (core_mask, pairs) where pairs[k] = (pendant, support) in removal
    order, as a (k, 2) int32 array.  Isolated nodes never enter the core (min
    core degree >= 2).
    """
    bounds = indptr[: n + 1].tolist()
    flat = indices.tolist()
    deg = np.diff(indptr[: n + 1]).tolist()
    alive = [True] * n
    queue = [u for u in range(n) if deg[u] == 1]
    pairs = []
    for t in queue:  # grows while scanned: a FIFO queue
        if not alive[t] or deg[t] != 1:
            continue
        s = -1
        for x in flat[bounds[t]:bounds[t + 1]]:
            if alive[x]:
                s = x
                break
        if s == -1:
            continue
        pairs.append((t, s))
        alive[t] = False
        alive[s] = False
        for x in flat[bounds[s]:bounds[s + 1]]:
            if alive[x]:
                deg[x] -= 1
                if deg[x] == 1:
                    queue.append(x)
    core = np.array(alive, np.bool_) & (np.array(deg, np.int64) >= 2)
    return core, np.array(pairs, np.int32).reshape(-1, 2)


def unit_propagate(bounds, flat, mate, st, seeds):
    """Unit propagation of the two freezing rules from `seeds`, in place on `st`.

    Rule (a): every neighbor of an uncovered node becomes covered.
    Rule (b): the double-edge partner of a covered node becomes uncovered.
    Nodes are visited first in, first out, seeds first.  Returns (conflict,
    frozen): conflict is a node driven to both states, else -1, and frozen
    lists the nodes this call froze, so a caller can undo a trial by
    resetting them to UNFROZEN.
    """
    queue = list(seeds)
    start = len(queue)
    for u in queue:  # grows while scanned: a FIFO queue
        if st[u] == POSITIVE:
            for x in flat[bounds[u]:bounds[u + 1]]:
                sx = st[x]
                if sx == POSITIVE:
                    return x, queue[start:]
                if sx == UNFROZEN:
                    st[x] = NEGATIVE
                    queue.append(x)
        else:
            p = mate[u]
            if p >= 0:
                sp = st[p]
                if sp == NEGATIVE:
                    return p, queue[start:]
                if sp == UNFROZEN:
                    st[p] = POSITIVE
                    queue.append(p)
    return -1, queue[start:]
