"""Property-based tests for TTL flooding on random graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.flood import ttl_flood


@st.composite
def random_graph(draw, max_nodes=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    adjacency = {i: set() for i in range(n)}
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=3 * n,
        )
    )
    for a, b in edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return {k: sorted(v) for k, v in adjacency.items()}


def _bfs_distance(adjacency, src, predicate):
    from collections import deque

    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        node, depth = queue.popleft()
        if node != src and predicate(node):
            return depth
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, depth + 1))
    return None


@given(graph=random_graph(), data=st.data())
@settings(max_examples=150)
def test_flood_matches_bfs_reachability(graph, data):
    nodes = sorted(graph)
    requester = data.draw(st.sampled_from(nodes))
    holders = data.draw(st.sets(st.sampled_from(nodes)))
    ttl = data.draw(st.integers(min_value=1, max_value=5))

    result = ttl_flood(
        requester,
        graph[requester],
        graph.__getitem__,
        lambda n: n in holders,
        ttl=ttl,
    )
    truth = _bfs_distance(graph, requester, lambda n: n in holders)
    if truth is not None and truth <= ttl:
        assert result.success
        assert result.hops == truth  # BFS-minimal hop count
    else:
        assert not result.success


@given(graph=random_graph(), data=st.data())
@settings(max_examples=100)
def test_flood_path_is_walkable_and_ends_at_holder(graph, data):
    nodes = sorted(graph)
    requester = data.draw(st.sampled_from(nodes))
    holders = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
    result = ttl_flood(
        requester,
        graph[requester],
        graph.__getitem__,
        lambda n: n in holders,
        ttl=4,
    )
    if result.success:
        assert result.path[0] == requester
        assert result.path[-1] == result.found
        assert result.found in holders
        for a, b in zip(result.path, result.path[1:]):
            assert b in graph[a]
        assert len(result.path) - 1 == result.hops


@given(graph=random_graph(), data=st.data())
@settings(max_examples=100)
def test_contacted_bounded_by_population(graph, data):
    nodes = sorted(graph)
    requester = data.draw(st.sampled_from(nodes))
    result = ttl_flood(
        requester, graph[requester], graph.__getitem__, lambda n: False, ttl=6
    )
    assert result.contacted <= len(nodes) - 1


# -- call order against the plain deque BFS ---------------------------------


def _deque_flood(requester, start_neighbors, neighbors_of, is_holder, ttl, tracer=None):
    """The flood as one ``deque`` of ``(node, depth)`` pairs.

    A test-local copy of the plain breadth-first loop the hop-level
    flood must match call for call.
    """
    from collections import deque

    from repro.overlay.flood import FloodResult

    visited = {requester: None}
    queue = deque()
    contacted = 0
    hop_span = None
    hop_depth = 0
    for neighbor in start_neighbors:
        if neighbor in visited:
            continue
        visited[neighbor] = requester
        queue.append((neighbor, 1))
    while queue:
        node, depth = queue.popleft()
        contacted += 1
        if tracer and depth != hop_depth:
            tracer.end(hop_span)
            hop_span = tracer.begin("flood.hop", node=requester, depth=depth)
            hop_depth = depth
        if is_holder(node):
            path = [node]
            parent = visited[node]
            while parent is not None:
                path.append(parent)
                parent = visited[parent]
            path.reverse()
            if tracer:
                tracer.end(hop_span)
                tracer.event(
                    "flood.found", node=requester, holder=node,
                    depth=depth, contacted=contacted,
                )
            return FloodResult(found=node, hops=depth, contacted=contacted, path=path)
        if depth >= ttl:
            continue
        for neighbor in neighbors_of(node):
            if neighbor in visited:
                continue
            visited[neighbor] = node
            queue.append((neighbor, depth + 1))
    if tracer:
        tracer.end(hop_span)
        tracer.event(
            "flood.ttl_exhausted", node=requester, ttl=ttl, contacted=contacted
        )
    return FloodResult(found=None, hops=ttl, contacted=contacted, path=[])


class _RecordingTracer:
    """Records every begin, end (``None`` ids too) and event call."""

    def __init__(self):
        self.rows = []
        self._next_span = 0

    def __bool__(self):
        return True

    def begin(self, name, **attrs):
        self._next_span += 1
        self.rows.append(("begin", name, attrs, self._next_span))
        return self._next_span

    def end(self, span_id, **attrs):
        self.rows.append(("end", span_id, attrs))

    def event(self, name, **attrs):
        self.rows.append(("event", name, attrs))


def _recorded_flood(flood, graph, requester, holders, dead, ttl):
    """Run ``flood`` on a private copy of ``graph``; return what it did.

    ``neighbors_of`` unlinks every ``dead`` neighbor it meets before
    answering, on both endpoints, the way SocialTube's lazy repair
    edits the link tables while the flood runs.
    """
    adjacency = {node: list(links) for node, links in graph.items()}
    calls = []

    def neighbors_of(node):
        calls.append(("neighbors_of", node))
        for neighbor in [n for n in adjacency[node] if n in dead]:
            adjacency[node].remove(neighbor)
            adjacency[neighbor].remove(node)
        return list(adjacency[node])

    def is_holder(node):
        calls.append(("is_holder", node))
        return node in holders

    tracer = _RecordingTracer()
    result = flood(
        requester, list(adjacency[requester]), neighbors_of, is_holder,
        ttl=ttl, tracer=tracer,
    )
    return result, calls, tracer.rows, adjacency


@given(graph=random_graph(), data=st.data())
@settings(max_examples=200)
def test_hop_level_flood_makes_the_deque_bfs_calls(graph, data):
    nodes = sorted(graph)
    requester = data.draw(st.sampled_from(nodes))
    holders = data.draw(st.sets(st.sampled_from(nodes)))
    dead = data.draw(st.sets(st.sampled_from(nodes)))
    ttl = data.draw(st.integers(min_value=1, max_value=4))

    ours = _recorded_flood(ttl_flood, graph, requester, holders, dead, ttl)
    reference = _recorded_flood(_deque_flood, graph, requester, holders, dead, ttl)
    # Same result, same is_holder/neighbors_of sequence, same tracer
    # rows, and the same edges left after the in-flight repairs.
    assert ours == reference


@given(graph=random_graph(), data=st.data())
@settings(max_examples=50)
def test_hop_level_flood_untraced_matches_traced(graph, data):
    nodes = sorted(graph)
    requester = data.draw(st.sampled_from(nodes))
    holders = data.draw(st.sets(st.sampled_from(nodes)))
    ttl = data.draw(st.integers(min_value=1, max_value=4))
    traced = _recorded_flood(ttl_flood, graph, requester, holders, set(), ttl)[0]
    untraced = ttl_flood(
        requester, graph[requester], graph.__getitem__, lambda n: n in holders, ttl=ttl
    )
    assert untraced == traced
