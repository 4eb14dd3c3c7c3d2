"""Independent reference ranks for the tuple-rank workload.

This module imports nothing from chromarank.  Each group is built from
first principles in a permutation representation of its own (2x2 matrices
acting on all nine vectors of F_3^2, blocks for wreath and direct
products), with the element list enumerated directly.  Ranks are counted
by Burnside's lemma rather than by walking tuple orbits: the number of
conjugation classes of pairwise-commuting p-power h-tuples in G equals
the number of pairwise-commuting tuples (g, x_1, ..., x_h) with every x_i
of p-power order, divided by |G|.  Those tuples are counted by fixing x_1
class by class and recursing into its centralizer, all by brute force over
element lists.

Run `python3 bench_e2e/oracle.py` from the repository root to recompute
every expected rank and rewrite oracle_ranks.json beside this file.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ORACLE_FILE = Path(__file__).with_name("oracle_ranks.json")

# hkr_rank operations of the tuple-rank workload: (expression, p, h).
# gl(2,3) and s(4) at p=2, h=2 are there for the product formula.
RANK_OPS = (
    ("wr(gl(2,3),c(2))", 2, 1),
    ("wr(gl(2,3),c(2))", 3, 1),
    ("wr(gl(2,3),c(2))", 3, 2),
    ("wr(gl(2,3),c(2))", 3, 3),
    ("wr(d(4),c(2))", 2, 3),
    ("prod(gl(2,3),s(4))", 2, 2),
    ("gl(2,3)", 2, 2),
    ("s(4)", 2, 2),
)
# rank(G x H) = rank(G) * rank(H): (product, left factor, right factor).
PRODUCT_FORMULA = ("prod(gl(2,3),s(4))", "gl(2,3)", "s(4)")

# The nine-group corpus of tests/conftest.py, by label.  A_4 has no atom in
# the expression language; the workload reads it from a4.gens.
CORPUS = ("C_6", "S_3", "S_4", "D_8", "Q_8", "A_4", "C_2xC_4", "GL_2(3)", "S_3xS_3")
IDENTITY_PRIMES = (2, 3)
IDENTITY_MAX_N = 3


# -- permutations, as tuples of images; compose(a, b) is a then b ----------


def compose(a, b):
    return tuple(b[i] for i in a)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def order(a):
    n, cur, ident = 1, a, tuple(range(len(a)))
    while cur != ident:
        cur = compose(cur, a)
        n += 1
    return n


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# -- groups as element lists -------------------------------------------------


def cyclic(n):
    return [tuple((i + k) % n for i in range(n)) for k in range(n)]


def dihedral(n):
    """Symmetries of a regular n-gon, order 2n."""
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return rotations + reflections


def symmetric(n):
    return list(itertools.permutations(range(n)))


def alternating4():
    return [e for e in symmetric(4) if _parity(e) == 0]


def _parity(a):
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j]) % 2


def quaternion8():
    """Left multiplications of the quaternion units on themselves."""
    # Units are (sign, axis) with axis 0..3 for 1, i, j, k.
    table = {
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }  # fmt: skip

    def mul(x, y):
        (sx, ax), (sy, ay) = x, y
        if ax == 0 or ay == 0:
            return (sx * sy, ax + ay)
        s, a = table[(ax, ay)]
        return (sx * sy * s, a)

    units = [(s, a) for s in (1, -1) for a in range(4)]
    index = {u: i for i, u in enumerate(units)}
    return [tuple(index[mul(q, x)] for x in units) for q in units]


def general_linear_2_3():
    """GL_2(F_3) acting on the nine row vectors of F_3^2 by v -> vM."""
    vectors = list(itertools.product(range(3), repeat=2))
    index = {v: i for i, v in enumerate(vectors)}
    out = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 0:
            continue
        out.append(tuple(index[((x * a + y * c) % 3, (x * b + y * d) % 3)] for x, y in vectors))
    return out


def direct_product(g, h):
    dg = len(g[0])
    return [a + tuple(x + dg for x in b) for a in g for b in h]


def wreath(g, n):
    """G wr C_n on n blocks: (a_0, ..., a_{n-1}; s) sends (b, i) to (b+s, a_b(i))."""
    d = len(g[0])
    out = []
    for base in itertools.product(g, repeat=n):
        for s in range(n):
            out.append(
                tuple(((b + s) % n) * d + base[b][i] for b in range(n) for i in range(d))
            )
    return out


GROUPS = {
    "wr(gl(2,3),c(2))": lambda: wreath(general_linear_2_3(), 2),
    "wr(d(4),c(2))": lambda: wreath(dihedral(4), 2),
    "prod(gl(2,3),s(4))": lambda: direct_product(general_linear_2_3(), symmetric(4)),
    "gl(2,3)": general_linear_2_3,
    "s(4)": lambda: symmetric(4),
    "C_6": lambda: cyclic(6),
    "S_3": lambda: symmetric(3),
    "S_4": lambda: symmetric(4),
    "D_8": lambda: dihedral(4),
    "Q_8": quaternion8,
    "A_4": alternating4,
    "C_2xC_4": lambda: direct_product(cyclic(2), cyclic(4)),
    "GL_2(3)": general_linear_2_3,
    "S_3xS_3": lambda: direct_product(symmetric(3), symmetric(3)),
}

ORDERS = {
    "wr(gl(2,3),c(2))": 4608,
    "wr(d(4),c(2))": 128,
    "prod(gl(2,3),s(4))": 1152,
    "gl(2,3)": 48,
    "s(4)": 24,
    "C_6": 6,
    "S_3": 6,
    "S_4": 24,
    "D_8": 8,
    "Q_8": 8,
    "A_4": 12,
    "C_2xC_4": 8,
    "GL_2(3)": 48,
    "S_3xS_3": 36,
}


def check_group(elements, expected_order):
    """Spot-check the list: the expected number of distinct elements, and
    closure under inverses and products for its first and last few."""
    elems = set(elements)
    if len(elems) != len(elements) or len(elems) != expected_order:
        raise AssertionError(f"expected {expected_order} distinct elements, got {len(elems)}")
    gens = elements[: min(len(elements), 8)] + elements[-8:]
    for a in gens:
        if inverse(a) not in elems:
            raise AssertionError("element list is not closed under inverses")
        for b in elements:
            if compose(a, b) not in elems:
                raise AssertionError("element list is not closed under composition")


# -- Burnside count ------------------------------------------------------------


def _classes(elements):
    """Conjugacy classes of the group given by its element list."""
    left = set(elements)
    inverses = {g: inverse(g) for g in elements}
    out = []
    while left:
        x = min(left)
        cls = {compose(compose(inverses[g], x), g) for g in elements}
        out.append((x, len(cls)))
        left -= cls
    return out


def _commuting_count(elements, p, k, memo):
    """Pairwise-commuting tuples (g, x_1, ..., x_k) in the group, x_i p-power."""
    if k == 0:
        return len(elements)
    key = (frozenset(elements), k)
    if key not in memo:
        total = 0
        for x, size in _classes(elements):
            if not is_p_power(order(x), p):
                continue
            cent = [g for g in elements if compose(g, x) == compose(x, g)]
            total += size * _commuting_count(cent, p, k - 1, memo)
        memo[key] = total
    return memo[key]


def rank(elements, p, h):
    """Conjugation classes of commuting p-power h-tuples, by Burnside."""
    count = _commuting_count(sorted(elements), p, h, {})
    if count % len(elements):
        raise AssertionError("Burnside count is not a multiple of the group order")
    return count // len(elements)


def compute():
    groups = {}
    for name, build in GROUPS.items():
        groups[name] = build()
        check_group(groups[name], ORDERS[name])
    ranks = [
        {"group": expr, "p": p, "h": h, "rank": rank(groups[expr], p, h)}
        for expr, p, h in RANK_OPS
    ]
    ranks += [
        {"group": label, "p": p, "h": n, "rank": rank(groups[label], p, n)}
        for label in CORPUS
        for p in IDENTITY_PRIMES
        for n in range(IDENTITY_MAX_N + 1)
    ]
    return {"ranks": ranks}


def load():
    """{(group, p, h): rank} from the stored file."""
    data = json.loads(ORACLE_FILE.read_text(encoding="utf-8"))
    return {(r["group"], r["p"], r["h"]): r["rank"] for r in data["ranks"]}


if __name__ == "__main__":
    result = compute()
    ORACLE_FILE.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(result['ranks'])} ranks to {ORACLE_FILE.name}", file=sys.stderr)
