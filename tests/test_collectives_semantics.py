"""Property-based tests: the ring schedules really compute the result.

The latency models in :mod:`repro.collectives.ring_algorithm` correspond
to concrete data-movement schedules.  The reference implementations
below execute those schedules on small integer vectors, step by step as
the latency models count them, and the tests check each collective's
semantics against a straightforward reference.
"""

from hypothesis import given
from hypothesis import strategies as st

# -- Functional reference implementations of the ring schedules --------


def simulate_all_gather(contributions: list[list[int]]) -> list[list[int]]:
    """Run the ring all-gather schedule; returns each node's buffer."""
    n = len(contributions)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    buffers: list[list[list[int] | None]] = [
        [None] * n for _ in range(n)]
    for i in range(n):
        buffers[i][i] = list(contributions[i])
    # Step s: node i forwards segment (i - s) mod n to node i + 1.
    for step in range(n - 1):
        moves = []
        for i in range(n):
            seg = (i - step) % n
            sent = buffers[i][seg]
            if sent is None:
                raise AssertionError("ring schedule lost a segment")
            moves.append(((i + 1) % n, seg, list(sent)))
        for dst, seg, payload in moves:
            buffers[dst][seg] = payload
    return [sum((seg for seg in buf if seg is not None), [])
            for buf in buffers]


def simulate_all_reduce(vectors: list[list[int]]) -> list[list[int]]:
    """Run ring reduce-scatter + all-gather; returns each node's sum."""
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValueError("vectors must have equal length")
    bounds = [(seg * length) // n for seg in range(n + 1)]
    partial = [list(v) for v in vectors]
    # Reduce-scatter: after n-1 steps node i holds the full sum of
    # segment (i + 1) mod n.
    for step in range(n - 1):
        moves = []
        for i in range(n):
            seg = (i - step) % n
            lo, hi = bounds[seg], bounds[seg + 1]
            moves.append(((i + 1) % n, seg, partial[i][lo:hi]))
        for dst, seg, payload in moves:
            lo, hi = bounds[seg], bounds[seg + 1]
            for offset, value in enumerate(payload):
                partial[dst][lo + offset] += value
    # All-gather the reduced segments.
    owners = {(i + 1) % n: i for i in range(n)}
    reduced: list[list[int] | None] = [None] * n
    for seg, owner in owners.items():
        lo, hi = bounds[seg], bounds[seg + 1]
        reduced[seg] = partial[owner][lo:hi]
    result_template = [seg for seg in reduced if seg is not None]
    flat = sum(result_template, [])
    return [list(flat) for _ in range(n)]


def simulate_broadcast(root_vector: list[int], n_nodes: int,
                       chunk: int = 4) -> list[list[int]]:
    """Run the pipelined ring broadcast; returns each node's buffer."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    chunks = [root_vector[i:i + chunk]
              for i in range(0, len(root_vector), chunk)] or [[]]
    received: list[list[list[int]]] = [[] for _ in range(n_nodes)]
    received[0] = [list(c) for c in chunks]
    # Stage t: node i forwards its (t - i)-th chunk to node i + 1.
    stages = (n_nodes - 2) + len(chunks)
    for stage in range(stages + 1):
        moves = []
        for i in range(n_nodes - 1):
            idx = stage - i
            if 0 <= idx < len(chunks) and idx < len(received[i]):
                moves.append((i + 1, list(received[i][idx])))
        for dst, payload in moves:
            received[dst].append(payload)
    return [sum(buf, []) for buf in received]


node_counts = st.integers(min_value=2, max_value=9)
values = st.integers(min_value=-1000, max_value=1000)


@given(node_counts, st.integers(min_value=1, max_value=7), st.data())
def test_all_gather_delivers_every_contribution(n, seg_len, data):
    contributions = [
        data.draw(st.lists(values, min_size=seg_len, max_size=seg_len))
        for _ in range(n)]
    results = simulate_all_gather(contributions)
    expected = sum(contributions, [])
    assert all(r == expected for r in results)


@given(node_counts, st.integers(min_value=1, max_value=24), st.data())
def test_all_reduce_sums_elementwise(n, length, data):
    vectors = [
        data.draw(st.lists(values, min_size=length, max_size=length))
        for _ in range(n)]
    results = simulate_all_reduce(vectors)
    expected = [sum(v[i] for v in vectors) for i in range(length)]
    assert all(r == expected for r in results)


@given(node_counts, st.lists(values, min_size=0, max_size=40),
       st.integers(min_value=1, max_value=8))
def test_broadcast_replicates_root(n, vector, chunk):
    results = simulate_broadcast(vector, n, chunk=chunk)
    assert all(r == vector for r in results)


@given(node_counts)
def test_all_reduce_is_idempotent_on_zeros(n):
    vectors = [[0, 0, 0] for _ in range(n)]
    assert simulate_all_reduce(vectors) == vectors


def test_all_gather_two_nodes_minimal():
    assert simulate_all_gather([[1], [2]]) == [[1, 2], [1, 2]]


def test_all_reduce_matches_hand_example():
    out = simulate_all_reduce([[1, 2], [3, 4], [5, 6]])
    assert out == [[9, 12]] * 3
