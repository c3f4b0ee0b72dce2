"""Reference readings of a quiver's structure, each walking the edge list on
its own: a union-find for the components, a topological sort for the path
counts, a linear scan for the edges into a vertex and for an edge id, and a
breadth-first search that scans every edge for every frontier vertex for
the spanning trees and fundamental cycles.  The package reads all of these
from the structure its quivers cache, so this file shares none of it."""

from graphlib import TopologicalSorter


def connected_components(q) -> list:
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in q.edges:
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for v in q.vertices:
        groups.setdefault(find(v), []).append(v)
    return [tuple(vs) for vs in sorted(groups.values(), key=lambda vs: q.vertices.index(vs[0]))]


def path_counts(q) -> dict:
    into = {v: [] for v in q.vertices}
    for e in q.edges:
        into[e.dst].append(e.src)
    count = {}
    for v in TopologicalSorter(into).static_order():
        count[v] = 1 + sum(count[u] for u in into[v])
    return count


def edges_into(q, v) -> tuple:
    return tuple(e for e in q.edges if e.dst == v)


def edge(q, edge_id):
    return next(e for e in q.edges if e.id == edge_id)


def spanning_trees(q) -> list:
    """Per component: (root, tree edge ids in discovery order, and one
    (edge id, base vertex, walk) per non-tree edge, in file order)."""
    out = []
    for comp in connected_components(q):
        root, comp_set = comp[0], set(comp)
        walk_to_root = {root: ()}
        tree_edges = []
        frontier, visited = [root], {root}
        while frontier:
            next_frontier = []
            for v in frontier:
                for e in q.edges:
                    if e.src == v and e.dst not in visited:
                        other, step = e.dst, (e.id, -1)
                    elif e.dst == v and e.src not in visited:
                        other, step = e.src, (e.id, +1)
                    else:
                        continue
                    visited.add(other)
                    tree_edges.append(e.id)
                    walk_to_root[other] = (step,) + walk_to_root[v]
                    next_frontier.append(other)
            frontier = next_frontier
        cycles = []
        for e in q.edges:
            if e.src in comp_set and e.id not in tree_edges:
                walk_down = tuple((i, -d) for i, d in reversed(walk_to_root[e.src]))
                cycles.append((e.id, e.src, ((e.id, +1),) + walk_to_root[e.dst] + walk_down))
        out.append((root, tuple(tree_edges), cycles))
    return out
