"""Independent brute-force oracles.

Everything here is deliberately naive (subset enumeration, dict-based
evaluation), shares no code with the package implementations, and is only
feasible on tiny inputs. Tests freeze oracle outputs or compare them against
the real implementations directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def brute_feedback_vertex_number(d) -> int:
    """Smallest vertex set whose removal leaves no directed cycle."""
    verts = list(d.vertices())
    for k in range(d.n + 1):
        for removed in itertools.combinations(verts, k):
            if not _has_cycle(d, set(removed)):
                return k
    return d.n


def _has_cycle(d, removed) -> bool:
    keep = [v for v in d.vertices() if v not in removed]
    color = {v: 0 for v in keep}
    outs = {v: [w for w in keep if (v, w) in d.arcs] for v in keep}

    def dfs(v):
        color[v] = 1
        for w in outs[v]:
            if color[w] == 1 or (color[w] == 0 and dfs(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and dfs(v) for v in keep)


def brute_simple_cycles(d) -> list[tuple[int, ...]]:
    cycles = []
    for k in range(1, d.n + 1):
        for verts in itertools.permutations(d.vertices(), k):
            if verts[0] != min(verts):
                continue
            if all((verts[i], verts[(i + 1) % k]) in d.arcs for i in range(k)):
                cycles.append(verts)
    return cycles


def brute_cycle_packing(d) -> int:
    """Most vertex-disjoint simple cycles, by exhaustive search over vertex masks.

    The least remaining vertex is either left uncovered or covered by one
    simple cycle through it inside the remaining vertices.
    """
    cycles = [sum(1 << (v - 1) for v in c) for c in brute_simple_cycles(d)]
    memo = {0: 0}

    def best(remaining: int) -> int:
        if remaining not in memo:
            low = remaining & -remaining
            memo[remaining] = max(
                [best(remaining ^ low)]
                + [1 + best(remaining ^ c) for c in cycles if c & low and c & remaining == c]
            )
        return memo[remaining]

    return best((1 << d.n) - 1)


def brute_max_independent_arcs(d) -> int:
    arcs = sorted(d.arcs)
    best = 0
    for k in range(len(arcs), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(arcs, k):
            tails = {u for u, _ in combo}
            heads = {v for _, v in combo}
            if len(tails) == k and len(heads) == k:
                best = k
                break
    return best


def brute_max_cycle_cover(d) -> int:
    """Largest vertex set carrying an arc-supported permutation of itself."""
    best = 0
    verts = list(d.vertices())
    for k in range(d.n, 0, -1):
        if k <= best:
            break
        for subset in itertools.combinations(verts, k):
            for images in itertools.permutations(subset):
                if all((v, w) in d.arcs for v, w in zip(subset, images)):
                    best = k
                    break
            if best == k:
                break
    return best


def brute_clique_partition(d) -> int:
    """Minimum number of parts, each pairwise joined by arcs both ways."""

    def is_clique(part):
        return all(
            (u, v) in d.arcs and (v, u) in d.arcs
            for u, v in itertools.combinations(part, 2)
        )

    def solve(remaining):
        if not remaining:
            return 0
        first = remaining[0]
        rest = remaining[1:]
        best = 1 + solve(rest)
        for k in range(1, len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                part = (first,) + extra
                if is_clique(part):
                    left = [v for v in rest if v not in extra]
                    best = min(best, 1 + solve(left))
        return best

    return solve(list(d.vertices()))


def brute_independent_set_count(vertices, edges) -> int:
    count = 0
    vlist = sorted(vertices)
    for k in range(len(vlist) + 1):
        for combo in itertools.combinations(vlist, k):
            s = set(combo)
            if all(not (a in s and b in s) for a, b in edges):
                count += 1
    return count


def brute_chain_bound(sink_inputs: dict) -> int:
    """Longest sequence of sinks, each contributing an unseen source, plus one."""
    sinks = sorted(sink_inputs)
    best = 0
    for k in range(len(sinks), 0, -1):
        if best:
            break
        for perm in itertools.permutations(sinks, k):
            seen = set()
            ok = True
            for b in perm:
                if sink_inputs[b] <= seen:
                    ok = False
                    break
                seen |= sink_inputs[b]
            if ok:
                best = k
                break
    return best + 1


def brute_product_bound(sink_inputs: dict) -> int:
    """The increment, product and monotonicity rules raised to a fixpoint.

    Every sink set starts at 1 and the rules are applied until none raises a
    value, sweeping the largest sets first so that one pass is not enough.
    """
    sinks = sorted(sink_inputs)
    subsets = [
        frozenset(s) for k in range(len(sinks), -1, -1) for s in itertools.combinations(sinks, k)
    ]

    def sources(s):
        return frozenset().union(*(sink_inputs[b] for b in s))

    r = {s: 1 for s in subsets}
    changed = True
    while changed:
        changed = False
        for s in subsets:
            cands = [r[s]]
            for b in s:
                rest = s - {b}
                cands.append(r[rest] + (not sink_inputs[b] <= sources(rest)))
            for k in range(1, len(s)):
                for part in itertools.combinations(sorted(s), k):
                    t = frozenset(part)
                    if not sources(t) & sources(s - t):
                        cands.append(r[t] * r[s - t])
            if max(cands) > r[s]:
                r[s] = max(cands)
                changed = True
    return r[frozenset(sinks)]


def brute_in_dominating_profile(d) -> tuple[int, ...]:
    ins = d.in_map()
    needy = [v for v in d.vertices() if ins[v]]
    profile = [0] * (d.n + 1)
    for k in range(d.n + 1):
        for combo in itertools.combinations(list(d.vertices()), k):
            s = set(combo)
            if all(v in s or ins[v] & s for v in needy):
                profile[k] += 1
    return tuple(profile)


def brute_max_code_size(n, q, dist) -> int:
    words = list(itertools.product(range(q), repeat=n))

    def hamming(a, b):
        return sum(x != y for x, y in zip(a, b))

    best = 0
    for k in range(len(words), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(words, k):
            if all(hamming(a, b) >= dist for a, b in itertools.combinations(combo, 2)):
                best = k
                break
    return best


def brute_isomorphic(d1, d2) -> bool:
    """Whether some vertex bijection maps the arcs of d1 onto those of d2.

    Tries every bijection that keeps (in-degree, out-degree, loop) of each
    vertex: the product of the permutations within each such class.
    """
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False

    def classes(d):
        out = {}
        for v in d.vertices():
            key = (sum(a[1] == v for a in d.arcs), sum(a[0] == v for a in d.arcs),
                   (v, v) in d.arcs)
            out.setdefault(key, []).append(v)
        return out

    c1, c2 = classes(d1), classes(d2)
    if {k: len(vs) for k, vs in c1.items()} != {k: len(vs) for k, vs in c2.items()}:
        return False
    keys = sorted(c1)
    for images in itertools.product(*(itertools.permutations(c2[k]) for k in keys)):
        image = {}
        for k, vs in zip(keys, images):
            image.update(zip(c1[k], vs))
        if {(image[u], image[v]) for u, v in d1.arcs} == d2.arcs:
            return True
    return False


def brute_twins(d) -> list[list[int]]:
    """For each vertex, itself and every vertex it swaps with by an
    automorphism, each such set once, in vertex order.

    Each transposition (u v) is applied to every arc. The sets partition
    the vertices exactly when twinship is an equivalence.
    """
    def swaps(u, v):
        image = {u: v, v: u}
        return {(image.get(a, a), image.get(b, b)) for a, b in d.arcs} == d.arcs

    sets = []
    for v in d.vertices():
        twins = [u for u in d.vertices() if u == v or swaps(u, v)]
        if twins not in sets:
            sets.append(twins)
    return sets


def brute_table_orbits(q, k, self_pos, moved=None, output=True) -> list[int]:
    """For every table code on k inputs, the least code in its relabelling orbit.

    A table is coded sum(t[x] * q^x), cell x being little-endian in its k
    input digits. Every element of the group is applied directly: one
    alphabet permutation per input digit in ``moved`` (all k by default),
    and one for the output when ``output`` is true. Input ``self_pos``, when
    not None, is the vertex reading itself: it and the output share one
    permutation, so it is moved exactly when the output is. The image of t
    takes the value sigma_out(t[x]) at the cell whose digits are the
    permuted digits of x.
    """
    moved = set(range(k) if moved is None else moved)
    if self_pos is not None and (self_pos in moved) != output:
        raise ValueError("a vertex reading itself moves its input digit with its output")
    cells = q ** k
    cell_digits = [[x // q ** j % q for j in range(k)] for x in range(cells)]
    identity = tuple(range(q))
    perms = list(itertools.permutations(range(q)))
    # one factor per input digit, then the output's own factor
    factors = [perms if j in moved and j != self_pos else [identity] for j in range(k)]
    factors.append(perms if output else [identity])
    label = [None] * q ** cells
    for code in range(q ** cells):
        if label[code] is not None:
            continue
        table = [code // q ** x % q for x in range(cells)]
        for sigma in itertools.product(*factors):
            out = sigma[k]
            digit_perm = [out if j == self_pos else sigma[j] for j in range(k)]
            image = 0
            for x in range(cells):
                moved_x = sum(digit_perm[j][cell_digits[x][j]] * q ** j for j in range(k))
                image += out[table[x]] * q ** moved_x
            # codes are visited in order, so the first of an orbit is its least
            label[image] = code
    return label


# --- dict-based system evaluation (independent of the numpy paths) ---------

def eval_map(f) -> dict[tuple, tuple]:
    """Whole-space map as a dict over state tuples."""
    out = {}
    for state in itertools.product(range(f.q), repeat=f.n):
        img = []
        for v in range(f.n):
            idx = 0
            for u in reversed(f.inputs[v]):
                idx = idx * f.q + state[u - 1]
            img.append(int(f.tables[v][idx]))
        out[state] = tuple(img)
    return out


def tabulate(q, inputs, rule) -> list[int]:
    """Table of ``rule`` cell by cell; the first input is the least significant digit.

    ``rule`` gets a dict from input vertex to its value.
    """
    table = []
    # product varies its last position fastest, so the digits come reversed
    for values in itertools.product(range(q), repeat=len(inputs)):
        table.append(int(rule(dict(zip(inputs, reversed(values))))))
    return table


def brute_rank(f) -> int:
    return len(set(eval_map(f).values()))


def brute_fixed_points(f) -> list[tuple]:
    return sorted(x for x, y in eval_map(f).items() if x == y)


def brute_periodic_rank(f) -> int:
    m = eval_map(f)
    periodic = 0
    for x in m:
        cur = x
        for _ in range(len(m)):
            cur = m[cur]
            if cur == x:
                periodic += 1
                break
    return periodic


def brute_interaction_arcs(f) -> set[tuple[int, int]]:
    m = eval_map(f)
    arcs = set()
    states = list(itertools.product(range(f.q), repeat=f.n))
    for v in range(f.n):
        for u in range(1, f.n + 1):
            found = False
            for a in states:
                for c in range(f.q):
                    b = list(a)
                    b[u - 1] = c
                    if m[tuple(b)][v] != m[a][v]:
                        found = True
                        break
                if found:
                    break
            if found:
                arcs.add((u, v + 1))
    return arcs


def full_entropy_program(d):
    """The shared-entropy program with every Shannon row written out.

    Sources are peeled until every remaining vertex has an in-neighbour in
    the core. One variable h(S) per subset S of the core (bit i is the i-th
    core vertex), with h(empty) = 0, h(v) = 1, h(in(v) + v) = h(in(v)), and
    for every S and i, j outside it monotonicity h(S) <= h(S + i) and
    submodularity h(S + i + j) + h(S) <= h(S + i) + h(S + j). Returns
    (c, rows, senses, rhs) to maximize h(core), or None for an empty core.
    """
    core = set(d.vertices())
    while True:
        sources = {v for v in core if not any((u, v) in d.arcs for u in core)}
        if not sources:
            break
        core -= sources
    if not core:
        return None
    verts = sorted(core)
    k = len(verts)
    full = (1 << k) - 1
    rows, senses, rhs = [], [], []

    def add(terms, sense, b):
        row = {}
        for mask, a in terms:
            row[mask] = row.get(mask, 0) + a
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    add([(0, 1)], "=", 0)
    for i, v in enumerate(verts):
        ins = sum(1 << j for j, u in enumerate(verts) if (u, v) in d.arcs)
        add([(1 << i, 1)], "=", 1)
        add([(ins | 1 << i, 1), (ins, -1)], "=", 0)
    for mask in range(full + 1):
        for i in range(k):
            if mask >> i & 1:
                continue
            add([(mask, 1), (mask | 1 << i, -1)], "<=", 0)
            for j in range(i + 1, k):
                if mask >> j & 1:
                    continue
                add([(mask | 1 << i | 1 << j, 1), (mask, 1), (mask | 1 << i, -1),
                     (mask | 1 << j, -1)], "<=", 0)
    c = [0] * (full + 1)
    c[full] = 1
    return c, rows, senses, rhs


def brute_lp_optimum(c, rows, senses, rhs, maximize):
    """Optimum of c.x subject to dense ``rows`` (senses) ``rhs`` and x >= 0.

    None when the program is infeasible or unbounded. The region lies in the
    orthant, so it has a vertex when it is not empty, and each vertex solves
    n linearly independent tight constraints: try every n of the rows and
    the bounds x_j >= 0 in exact arithmetic. The program is unbounded when
    some vertex d of {d >= 0 : A d (senses) 0, sum d = 1} improves c.
    """
    n = len(c)
    sign = 1 if maximize else -1
    points = _lp_vertices(rows, senses, rhs, n)
    if not points:
        return None
    rays = _lp_vertices(list(rows) + [[1] * n], list(senses) + ["="], [0] * len(rows) + [1], n)
    if any(sign * _dot(c, d) > 0 for d in rays):
        return None
    return sign * max(sign * _dot(c, x) for x in points)


def _dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def _lp_vertices(rows, senses, rhs, n):
    cons = list(zip(rows, senses, rhs))
    cons += [([int(i == j) for i in range(n)], ">=", 0) for j in range(n)]
    out = []
    for chosen in itertools.combinations(cons, n):
        x = _solve_square([row for row, _s, _b in chosen], [b for _r, _s, b in chosen])
        if x is None:
            continue
        values = [(_dot(row, x), s, b) for row, s, b in cons]
        if all(ax <= b if s == "<=" else ax >= b if s == ">=" else ax == b
               for ax, s, b in values):
            out.append(x)
    return out


def _solve_square(a, b):
    """The unique solution of the square system a x = b in Fractions, or None."""
    n = len(b)
    m = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]
