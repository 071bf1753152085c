"""Finite dynamical systems as per-vertex lookup tables over declared inputs.

States are tuples over the alphabet {0..q-1}. A state serializes to the
integer sum(x_v * q^(v-1)), i.e. coordinate 1 is least significant; every
report in the package uses this order.
"""

from __future__ import annotations

import math

import numpy as np

from .digraph import Digraph
from .errors import (
    GraphFormatError,
    ShapeMismatch,
    SizeLimitExceeded,
    ValueOutOfRange,
    projected_size,
)

DEFAULT_MAX_STATES = 1 << 24
TABLE_BYTE_CAP = 1 << 29  # bytes one sweep set-up or one int64 digit matrix may allocate


class Fds:
    """Immutable lookup-table system; build through :func:`make_fds`."""

    __slots__ = ("n", "q", "inputs", "tables", "_map")

    def __init__(self, n, q, inputs, tables):
        self.n = n
        self.q = q
        self.inputs = inputs  # tuple of tuples of 1-based vertex ids
        self.tables = tables  # tuple of int64 arrays, little-endian indexed
        self._map = None

    def declared_graph(self) -> Digraph:
        return Digraph(self.n, {(u, v + 1) for v, ins in enumerate(self.inputs) for u in ins})

    def __repr__(self):
        return f"Fds(n={self.n}, q={self.q}, in_degrees={[len(i) for i in self.inputs]})"


def make_fds(n, q, declared_inputs, tables) -> Fds:
    """Validate shapes and entries and build an :class:`Fds`."""
    if n < 1:
        raise ShapeMismatch(f"vertex count must be positive, got {n}")
    if q < 2:
        raise ValueOutOfRange(f"alphabet size must be at least 2, got {q}")
    if len(declared_inputs) != n or len(tables) != n:
        raise ShapeMismatch(
            f"need {n} input lists and {n} tables, got "
            f"{len(declared_inputs)} and {len(tables)}"
        )
    inputs = []
    tabs = []
    for v, (ins, table) in enumerate(zip(declared_inputs, tables), start=1):
        ins = tuple(int(u) for u in ins)
        if len(set(ins)) != len(ins):
            raise ShapeMismatch(f"vertex {v}: repeated declared input")
        for u in ins:
            if not 1 <= u <= n:
                raise ShapeMismatch(f"vertex {v}: declared input {u} outside 1..{n}")
        arr = np.asarray(table, dtype=np.int64).ravel()
        if arr.size != q ** len(ins):
            raise ShapeMismatch(
                f"vertex {v}: table has {arr.size} entries, expected {q ** len(ins)}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= q):
            raise ValueOutOfRange(f"vertex {v}: table entry outside 0..{q - 1}")
        inputs.append(ins)
        tabs.append(arr)
    return Fds(n, q, tuple(inputs), tuple(tabs))


# --- state helpers -------------------------------------------------------------

def index_to_state(idx, n, q) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % q)
        idx //= q
    return tuple(out)


def digits(q: int, k: int) -> np.ndarray:
    """The (q^k, k) matrix whose row i holds the k base-q digits of i.

    Least significant digit first, the order of states and table cells; for
    k=0 the shape is (1, 0). Refused over ``TABLE_BYTE_CAP`` bytes, 8 a cell.
    """
    nbytes = 8 * q ** k * k
    if nbytes > TABLE_BYTE_CAP:
        raise SizeLimitExceeded(
            f"digit matrix of {q}^{k} rows needs {nbytes} bytes, over {TABLE_BYTE_CAP}",
            projected=nbytes,
        )
    out = np.arange(q ** k, dtype=np.int64)[:, None] // q ** np.arange(k, dtype=np.int64)
    return np.remainder(out, q, out=out)


def check_states(n: int, q: int, max_states: int) -> int:
    """The state count q^n, refused over the scan guard ``max_states``."""
    m = q ** n
    if m > max_states:
        states = projected_size(n * math.log2(q), lambda: m)
        raise SizeLimitExceeded(
            f"state space {states} exceeds the scan guard {max_states}",
            projected=states,
        )
    return m


def input_index(n: int, q: int, inputs) -> np.ndarray:
    """For each of the q^n states, its index into a table over ``inputs``.

    The table is little-endian indexed in the listed order: the first input
    is the least significant digit.
    """
    # the states as a (q,)*n grid, coordinate u on axis n - u: each input
    # adds its digit's weight along its own axis, with no division per state
    idx = np.zeros((q,) * n, dtype=np.int64)
    for j, u in enumerate(inputs):
        shape = [1] * n
        shape[n - u] = q
        idx += (np.arange(q, dtype=np.int64) * q ** j).reshape(shape)
    return idx.reshape(-1)


def depends_on(tables: np.ndarray, q: int, j: int) -> np.ndarray:
    """Whether each table (indexed along the last axis) changes along its input j.

    ``j`` counts the table's inputs from 0, least significant first.
    """
    idx = np.arange(tables.shape[-1], dtype=np.int64)
    stride = q ** j
    zeroed = idx - (idx // stride) % q * stride
    return (tables != tables[..., zeroed]).any(axis=-1)


def map_array(f: Fds, max_states: int = DEFAULT_MAX_STATES) -> np.ndarray:
    """The whole-space transition map on serialized states."""
    m = check_states(f.n, f.q, max_states)
    if f._map is not None:
        return f._map
    total = np.zeros(m, dtype=np.int64)
    weight = 1
    for v in range(f.n):
        total += f.tables[v][input_index(f.n, f.q, f.inputs[v])] * weight
        weight *= f.q
    f._map = total
    return total


def rank(f: Fds, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of distinct images."""
    return int(np.unique(map_array(f, max_states)).size)


def fixed_points(f: Fds) -> list[tuple[int, ...]]:
    m = map_array(f)
    idxs = np.nonzero(m == np.arange(m.size, dtype=np.int64))[0]
    return [index_to_state(int(i), f.n, f.q) for i in idxs]


def _eventual_image(f: Fds) -> tuple[int, int]:
    """(size, steps): the image of f^k stops shrinking at k = steps, at this size."""
    m = map_array(f)
    s = np.unique(m)
    k = 1
    while True:
        t = np.unique(m[s])
        if t.size == s.size:
            return int(s.size), k
        s = t
        k += 1


def periodic_rank(f: Fds) -> int:
    """Size of the eventual image, by iterating image sets until stable."""
    return _eventual_image(f)[0]


def nilpotency_class(f: Fds):
    """(nilpotent, class): class is the least k with f^k constant, else None."""
    size, k = _eventual_image(f)
    return (True, k) if size == 1 else (False, None)


def interaction_graph(f: Fds) -> Digraph:
    """Arcs u->v exactly where the table of v changes along coordinate u."""
    return Digraph(f.n, [
        (u, v + 1)
        for v in range(f.n)
        for j, u in enumerate(f.inputs[v])
        if depends_on(f.tables[v], f.q, j)
    ])


# --- text format ----------------------------------------------------------------
#
# Header "fds n <N> q <Q>", then one line per vertex:
# "v <id> inputs <i1 .. ik> table <t0 t1 ...>", table little-endian indexed.

def format_fds(f: Fds) -> str:
    lines = [f"fds n {f.n} q {f.q}"]
    for v in range(f.n):
        ins = " ".join(str(u) for u in f.inputs[v])
        tab = " ".join(str(int(t)) for t in f.tables[v])
        middle = f" {ins}" if ins else ""
        lines.append(f"v {v + 1} inputs{middle} table {tab}")
    return "\n".join(lines) + "\n"


def parse_fds(text: str) -> Fds:
    n = q = None
    inputs: dict[int, tuple[int, ...]] = {}
    tables: dict[int, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 5 or parts[0] != "fds" or parts[1] != "n" or parts[3] != "q":
                raise GraphFormatError(lineno, f"expected 'fds n <N> q <Q>', got {line!r}")
            try:
                n, q = int(parts[2]), int(parts[4])
            except ValueError:
                raise GraphFormatError(lineno, "non-integer dimensions in header")
            continue
        if parts[0] != "v":
            raise GraphFormatError(lineno, f"expected a 'v' line, got {line!r}")
        try:
            vid = int(parts[1])
            kw1 = parts.index("inputs")
            kw2 = parts.index("table")
            ins = tuple(int(t) for t in parts[kw1 + 1:kw2])
            tab = [int(t) for t in parts[kw2 + 1:]]
        except (ValueError, IndexError):
            raise GraphFormatError(lineno, f"malformed vertex line {line!r}")
        if vid in inputs:
            raise GraphFormatError(lineno, f"vertex {vid} defined twice")
        inputs[vid] = ins
        tables[vid] = tab
    if n is None:
        raise GraphFormatError(1, "missing 'fds n <N> q <Q>' header")
    if sorted(inputs) != list(range(1, n + 1)):
        raise GraphFormatError(1, f"need exactly vertices 1..{n}, got {sorted(inputs)}")
    return make_fds(n, q, [inputs[v] for v in range(1, n + 1)],
                    [tables[v] for v in range(1, n + 1)])

