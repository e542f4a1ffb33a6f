"""Graph container, Kahn, and the order-augmented reference graphs."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from mmcheck import (
    MODELS,
    EventGraph,
    build_base_graphs,
    derive,
    get_model,
    kahn_acyclic,
    parse_history,
    sat_to_history_relaxed,
    sat_to_history_sc,
    solve,
)
from mmcheck.graphs import find_cycle, reach_acyclic

from conftest import (
    PINNED_REDUCTIONS,
    TRACES,
    long_traces,
    spread_writes_histories,
    with_random_dp,
)

from helpers import (
    PreconditionViolatedError,
    WriteIndex,
    build_coherence_graphs,
    build_r_snapshot,
    closure,
    conflict_edges,
    events,
    graph_edges,
    order_free_edges,
    reads,
)


def _is_topological(g, order):
    position = {v: i for i, v in enumerate(order)}
    return sorted(order) == list(range(g.n)) and all(
        position[u] < position[v] for u, v in graph_edges(g)
    )


def _is_cycle(g, cyc):
    return len(set(cyc)) == len(cyc) > 0 and all(
        b in g.adj[a] for a, b in zip(cyc, cyc[1:] + cyc[:1])
    )


def test_kahn_trivial_cases():
    g = EventGraph(3)
    ok, order = kahn_acyclic(g)
    assert ok and sorted(order) == [0, 1, 2]

    g = EventGraph(2, [(0, 1), (1, 0)])
    assert kahn_acyclic(g) == (False, None)

    g = EventGraph(3, [(0, 1), (1, 2)])
    assert kahn_acyclic(g) == (True, [0, 1, 2])


def test_kahn_deterministic_tiebreak():
    # 0 is blocked until 2 releases it
    g = EventGraph(4, [(2, 0)])
    ok, order = kahn_acyclic(g)
    assert ok and _is_topological(g, order)
    assert kahn_acyclic(EventGraph(4, [(2, 0)])) == (True, order)


def test_duplicate_edges_are_kept_and_harmless():
    g = EventGraph(3, [(0, 1)], [(0, 1)])
    assert g.adj[0] == [1, 1] and g.in_degree[1] == 2
    ok, order = kahn_acyclic(g)
    assert ok and _is_topological(g, order)
    assert kahn_acyclic(EventGraph(3, [(0, 1), (0, 1)])) == (True, order)
    g = EventGraph(3, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert kahn_acyclic(g) == (False, None)
    assert sorted(find_cycle(g)) == [0, 1]


def test_with_order_adds_many_edges_out_of_one_vertex():
    # one order over writes 1..40 of one variable, each with vertex 0 as
    # a read, gives 0 an edge to every write but the first: the graph
    # built with the chain and those edges; rows that gain no edge are
    # shared, and the graph the order is added to is left as it was
    base = [(0, 1), (2, 0), (41, 40)]
    order = list(range(1, 41))
    var_of = ["x"] * 41
    reads_of = [[0]] * 41
    g = EventGraph(42, base)
    g.tag_sites = reads_of
    rows, degree = [list(row) for row in g.adj], list(g.in_degree)
    ext = g.with_order(order, var_of, reads_of)
    chain = list(zip(order, order[1:]))
    want = EventGraph(42, base, chain, [(0, w) for w in order[1:]])
    assert len(ext.adj[0]) == 40
    assert ext.adj == want.adj and ext.in_degree == want.in_degree
    assert g.adj == rows and g.in_degree == degree
    assert ext.adj[41] is g.adj[41] and ext.adj[40] is g.adj[40]
    assert ext.adj[0] is not g.adj[0] and ext.adj[2] is not g.adj[2]
    assert ext.tag_sites is g.tag_sites


def test_with_order_graphs_extend_apart():
    # two children of one graph, each given two more orders, over rows
    # both touch: every graph keeps its rows and in-degrees, and each
    # equals the graph built from all the edge lists on its branch.
    # Writes 0, 1 are on x and 2, 3 on y; vertices 4 and 5 are reads.
    var_of = ["x", "x", "y", "y"]
    reads_of = [[4], [5], [], [4, 5]]
    base = [(0, 4), (1, 5), (3, 4)]
    g = EventGraph(6, base)
    branches = {
        "a": [
            ((0, 1), [(0, 1), (4, 1)]),
            ((2, 3), [(2, 3)]),
            ((1, 0, 3, 2), [(1, 0), (0, 3), (3, 2), (5, 0), (4, 2), (5, 2)]),
        ],
        "b": [
            ((1, 0), [(1, 0), (5, 0)]),
            ((3, 2), [(3, 2), (4, 2), (5, 2)]),
            ((0, 2), [(0, 2)]),
        ],
    }
    built = [(g, [base])]
    for (first, edges), *rest in branches.values():
        child = g.with_order(first, var_of, reads_of)
        built.append((child, [base, edges]))
        for order, more in rest:
            grandchild = child.with_order(order, var_of, reads_of)
            built.append((grandchild, [base, edges, more]))
    for h, lists in built:
        want = EventGraph(6, *lists)
        assert h.adj == want.adj and h.in_degree == want.in_degree


def _with_all_pairs(h, base, orders):
    """`base` with every order pair of each order in `orders`, and every
    conflict edge those pairs induce."""
    pairs = {p for o in orders for p in itertools.combinations(o, 2)}
    return EventGraph(h.n, graph_edges(base), pairs, conflict_edges(h, pairs))


def test_with_order_chains_have_the_closure_of_all_pairs(small_corpus):
    # Chains: a write order added by `with_order` to a full graph, as one
    # total order or as one order per variable in turn, gives the graph
    # built with every order pair and every conflict edge the same
    # acyclicity and, when acyclic, the same reach
    rng = random.Random(23)
    seen = set()
    for h in small_corpus:
        var_of = dict(zip(h.writes, h.write_vars))
        reads_of = {w: h.readers_of(w) for w in h.writes}
        bases = [g for m in MODELS.values() for g in derive(h, m).graphs()]
        for base, _ in itertools.product(bases, range(3)):
            total = rng.sample(h.writes, h.k)
            store = [
                rng.sample(ws, len(ws))
                for ws in map(h.writes_on, sorted(h.variables))
            ]
            by_var = base
            for order in store:
                by_var = by_var.with_order(order, var_of, reads_of)
            for g, orders in (
                (base.with_order(total, var_of, reads_of), [total]),
                (by_var, store),
            ):
                want = _with_all_pairs(h, base, orders)
                acyclic = kahn_acyclic(g)[0]
                assert acyclic == kahn_acyclic(want)[0]
                if acyclic:
                    reach = closure(h.n, graph_edges(g))
                    assert reach == closure(h.n, graph_edges(want))
                seen.add(acyclic)
    assert seen == {True, False}


def _dfs_has_cycle(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    color = [0] * n
    def visit(u):
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1 or (color[v] == 0 and visit(v)):
                return True
        color[u] = 2
        return False
    return any(color[u] == 0 and visit(u) for u in range(n))


def test_kahn_agrees_with_dfs_on_random_graphs():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.2
        }
        g = EventGraph(n, edges)
        acyclic = not _dfs_has_cycle(n, edges)
        ok, order = kahn_acyclic(g)
        assert ok == acyclic and (not ok or _is_topological(g, order))
        cyc = find_cycle(g)
        assert (cyc is None) == acyclic
        assert acyclic or _is_cycle(g, cyc)


def test_find_cycle_returns_a_real_cycle():
    g = EventGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)])
    cyc = find_cycle(g)
    assert cyc is not None and _is_cycle(g, cyc)
    assert find_cycle(EventGraph(3, [(0, 1), (1, 2)])) is None


def test_reach_acyclic_agrees_with_find_cycle_on_the_reached_part():
    # Random graphs with cycles inside and outside the part that the
    # starts reach, and edges into it from outside, which lie on no cycle
    # of the part.
    rng = random.Random(11)
    kinds = set()
    for _ in range(5_000):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.15
        ]
        g = EventGraph(n, edges)
        starts = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
        reached, stack = set(starts), list(starts)
        while stack:
            for v in g.adj[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        index = {v: i for i, v in enumerate(sorted(reached))}
        part = EventGraph(
            len(index), [(index[u], index[v]) for u, v in edges if u in index]
        )
        acyclic = find_cycle(part) is None
        assert reach_acyclic(g, starts) == acyclic
        entered = any(u not in index and v in index for u, v in edges)
        kinds.add((acyclic, find_cycle(g) is None, entered))
    assert kinds >= {
        (True, False, True), (False, False, True), (True, True, True)
    }


def _writes_only_history(k):
    # k writes on k distinct variables, one thread
    lines = ["thread T0"] + [f"wr v{i} 1" for i in range(k)]
    return parse_history("\n".join(lines) + "\n")


def test_r_snapshot_trivial_cases():
    h = _writes_only_history(1)
    idx = WriteIndex(h)
    assert build_r_snapshot(idx, 0, h.writes[0]) == frozenset()

    h = _writes_only_history(2)
    idx = WriteIndex(h)
    a, b = h.writes
    assert build_r_snapshot(idx, 0, a) == {(b, a)}


def test_r_snapshot_derived_example():
    # three writes {a, b, c}; subset {c}, candidate a
    h = _writes_only_history(3)
    idx = WriteIndex(h)
    a, b, c = h.writes
    rel = build_r_snapshot(idx, idx.mask_of([c]), a)
    assert rel == {(b, a), (b, c), (a, c)}


def test_r_snapshot_precondition():
    h = _writes_only_history(2)
    idx = WriteIndex(h)
    with pytest.raises(PreconditionViolatedError):
        build_r_snapshot(idx, idx.mask_of([h.writes[0]]), h.writes[0])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_r_snapshot_size_formula_exhaustive(k):
    if k == 0:
        return
    h = _writes_only_history(k)
    idx = WriteIndex(h)
    for mask in range(1 << k):
        for j in range(k):
            if mask >> j & 1:
                continue
            v = idx.ids[j]
            rel = build_r_snapshot(idx, mask, v)
            size_v = bin(mask).count("1")
            expected = (k - size_v - 1) * (size_v + 1) + size_v
            assert len(rel) == expected


COHERENCE_CASE = """\
thread T0
wr x 1
thread T1
wr x 2
thread T2
rd x 1
"""


def test_coherence_graphs_derived_examples():
    h = parse_history(COHERENCE_CASE)
    static = order_free_edges(derive(h, get_model("sc")))
    idx = WriteIndex(h)
    w1, w2 = h.writes
    r = reads(h)[0]

    # empty subset, candidate w2: w1 must come later, so the read of w1
    # conflicts with w2
    g_loc, g_mm = build_coherence_graphs(h, static, idx, 0, w2)
    snapshot = build_r_snapshot(idx, 0, w2)
    assert snapshot == {(w1, w2)}
    for g in (g_loc, g_mm):
        assert w2 in g.adj[w1] and w2 in g.adj[r]

    # subset {w2}, candidate w1: same snapshot edges from the other side
    assert build_r_snapshot(idx, idx.mask_of([w2]), w1) == {(w1, w2)}
    g_loc2, g_mm2 = build_coherence_graphs(
        h, static, idx, idx.mask_of([w2]), w1
    )
    for g in (g_loc2, g_mm2):
        assert w2 in g.adj[w1] and w2 in g.adj[r]
        assert kahn_acyclic(g)[0]  # nothing here orders w2 before w1


def test_coherence_graphs_single_write_equals_base():
    h = parse_history("thread T0\nwr x 1\n")
    dm = derive(h, get_model("sc"))
    idx = WriteIndex(h)
    g_loc, g_mm = build_coherence_graphs(
        h, order_free_edges(dm), idx, 0, h.writes[0]
    )
    b_loc, b_mm = build_base_graphs(h, dm.spec)
    assert sorted(graph_edges(g_loc)) == sorted(graph_edges(b_loc))
    assert sorted(graph_edges(g_mm)) == sorted(graph_edges(b_mm))


def test_base_graphs_empty_history():
    h = parse_history("")
    g_loc, g_mm = build_base_graphs(h, get_model("sc"))
    assert kahn_acyclic(g_loc)[0] and kahn_acyclic(g_mm)[0]


def test_base_graph_keeps_coinciding_po_and_rf():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    dm = derive(h, get_model("sc"))
    # on the full relations the po pair and the rf pair coincide; the
    # duplicate is kept
    g = dm.graphs()[1]
    assert g.adj[0] == [1, 1] and kahn_acyclic(g) == (True, [0, 1])
    # the base graph drops the rf pair, which po implies, and the read,
    # entered by one edge, joins the write's vertex
    _, g_mm = build_base_graphs(h, dm.spec)
    assert g_mm.n == 1 and g_mm.adj == [[]] and g_mm.tag_sites == [[0]]


@pytest.mark.parametrize("init", ["", "init: x=0\n"])
def test_read_ahead_of_its_own_write_is_cyclic(init):
    # Without the initial write the read has one in-edge, the reads-from
    # edge, and merges into the write's vertex: the program-order edge
    # back to the write must survive as a self-loop.
    h = parse_history(init + "thread T0\nrd x 1\nwr x 1\n")
    for name in MODELS:
        v = solve(h, get_model(name))
        assert not v.consistent
        assert v.diagnostics == (
            "base per-location graph is cyclic: T0:1 -> T0:0 -> T0:1"
        )


def test_single_entry_reads_merge_and_writes_do_not():
    h = parse_history(
        "thread T0\nwr x 1\nrd x 1\nrd x 1\nwr x 2\n"
        "thread T1\nrd x 2\nrd x 1\n"
    )
    g_loc, _ = build_base_graphs(h, get_model("tso"))
    # T0's reads of its write x=1 follow it in program order, so their
    # reads-from edges go and each read has one in-edge: the last, the
    # write's tag site in T0, shares its vertex.  T1's first read has
    # only the reads-from edge from x=2, and its second is entered by
    # program order from the first and by reads-from from x=1.
    assert g_loc.tag_sites == [[0, 2], [1]] and g_loc.n == 3
    assert sorted(graph_edges(g_loc)) == [(0, 1), (0, 2), (1, 2)]


def test_rmo_base_graphs_merge_segments_and_join_dependencies():
    # Under rmo a thread's reads of one writer between two of its writes
    # to the variable take one vertex, which the next such write follows;
    # a read entered by its writer and by a dependency edge is a join.
    h = parse_history(
        "init: x=0 y=0\nthread T0\nwr x 1\nwr y 1\n"
        "thread T1\nrd x 1\nrd x 1\nwr x 2\n"
        "thread T2\nrd y 1\nrd x 2\ndp T2:0 -> T2:1\n"
    )
    init_x, init_y, x1, y1, x2 = range(h.k)
    g_loc, g_mm = build_base_graphs(h, get_model("rmo"))
    # per-location: T1's two reads of x=1 form one segment, headed by x's
    # initial write; T2's two reads each take their own vertex
    assert g_loc.n == h.k + 3
    (segment,) = g_loc.tag_sites[x1]
    assert segment >= h.k
    assert sorted(u for u, v in graph_edges(g_loc) if v == segment) == [init_x, x1]
    # the since edge: T1's write of x follows the segment and its head
    assert g_loc.adj[segment] == [x2]
    assert sorted(u for u, v in graph_edges(g_loc) if v == x2) == [init_x, segment]
    # model graph: reads with only their writer's edge merge into it, and
    # T2:1 joins its writer and its dp source, merged into y=1
    assert g_mm.n == h.k + 1
    assert g_mm.tag_sites[x1] == [x1] and g_mm.tag_sites[y1] == [y1]
    (join,) = g_mm.tag_sites[x2]
    assert sorted(graph_edges(g_mm)) == [(y1, join), (x2, join)]
    assert g_mm.tag_sites[init_y] == [] and g_loc.tag_sites[init_y] == []


BASE_GRAPHS_SHA256 = (
    "5584e1cb2a6c1c8c971b981ee83df802cd302f39b09b9240e5c2e843fe18a6de"
)
FULL_GRAPHS_SHA256 = (
    "9f9ce906c85a776d414f72dfd9607dd65007c962d3a9865a3f84849d447d9c33"
)


def _pinned_histories(small_corpus):
    """Histories of every shape the checker meets: the rmo walk reads the
    dp edges that `with_random_dp` adds."""
    histories = [*small_corpus, *long_traces()]
    for path in sorted(TRACES.glob("*.mmh")):
        histories.append(parse_history(path.read_text()))
    for cnf, *_ in PINNED_REDUCTIONS:
        histories += [sat_to_history_sc(cnf), sat_to_history_relaxed(cnf)]
    histories += spread_writes_histories(20, 40, (3, 18, 10, 3))
    rng = random.Random(3303)
    histories += filter(None, [with_random_dp(h, rng) for h in histories])
    assert len(histories) == 296
    return histories


def test_base_graphs_are_pinned(small_corpus):
    # Rows, in-degrees and tag sites of both base graphs, under every
    # model.
    digest = hashlib.sha256()
    for h in _pinned_histories(small_corpus):
        for name in MODELS:
            for g in build_base_graphs(h, get_model(name)):
                digest.update(repr((g.adj, g.in_degree, g.tag_sites)).encode())
    assert digest.hexdigest() == BASE_GRAPHS_SHA256


def test_full_graphs_are_pinned(small_corpus):
    # Rows and in-degrees of both full graphs, under every model: each
    # relation's edges, and their order in each row.
    digest = hashlib.sha256()
    for h in _pinned_histories(small_corpus):
        for name in MODELS:
            for g in derive(h, get_model(name)).graphs():
                digest.update(repr((g.adj, g.in_degree)).encode())
    assert digest.hexdigest() == FULL_GRAPHS_SHA256


def _edge_kind_invariants(h, spec_name, mask, v):
    dm = derive(h, get_model(spec_name))
    idx = WriteIndex(h)
    snapshot = build_r_snapshot(idx, mask, v)
    evs = events(h)
    for a, b in snapshot:
        assert evs[a].is_write and evs[b].is_write
    for rd, wr in conflict_edges(h, snapshot):
        assert evs[rd].is_read and evs[wr].is_write
        assert evs[rd].var == evs[wr].var


def test_snapshot_and_conflict_edge_kinds(small_corpus):
    for h in small_corpus[:20]:
        if not h.writes:
            continue
        idx = WriteIndex(h)
        for mask in range(min(1 << idx.k, 16)):
            for j in range(idx.k):
                if mask >> j & 1:
                    continue
                _edge_kind_invariants(h, "tso", mask, idx.ids[j])


def test_graphs_differ_only_in_static_parts(small_corpus):
    # the snapshot/conflict additions are identical across the two graphs;
    # the base graphs compared against are the full ones over events, as
    # `build_base_graphs` thins and contracts its own
    for h in small_corpus[:15]:
        if not h.writes:
            continue
        dm = derive(h, get_model("tso"))
        idx = WriteIndex(h)
        base_loc, base_mm = dm.graphs()
        static = order_free_edges(dm)
        for j in range(min(idx.k, 3)):
            v = idx.ids[j]
            mask = 0
            g_loc, g_mm = build_coherence_graphs(h, static, idx, mask, v)
            added_loc = set(graph_edges(g_loc)) - set(graph_edges(base_loc))
            added_mm = set(graph_edges(g_mm)) - set(graph_edges(base_mm))
            # additions differ only by edges already present in one base
            sym = added_loc ^ added_mm
            assert sym <= {*graph_edges(base_loc), *graph_edges(base_mm)}
