"""Standard group constructions as permutation groups.

Every constructor is deterministic: generator lists come out in a fixed
order, and point labellings are documented per constructor.
"""

from __future__ import annotations

from itertools import product

from .arith import is_prime, primitive_root
from .errors import ChromarankError
from .perm import Permutation
from .group import PermGroup


def cyclic(n: int) -> PermGroup:
    """C_n on n points; cyclic(1) is the trivial group of degree 1."""
    if n < 1:
        raise ValueError("cyclic order must be at least 1")
    if n == 1:
        return PermGroup.trivial(1)
    images = tuple(range(1, n)) + (0,)
    return PermGroup(n, (Permutation(images),))


def symmetric(n: int) -> PermGroup:
    """S_n on n points, generated by (0 1) and the n-cycle."""
    if n < 1:
        raise ValueError("symmetric degree must be at least 1")
    if n == 1:
        return PermGroup.trivial(1)
    swap = Permutation((1, 0) + tuple(range(2, n)))
    if n == 2:
        return PermGroup(2, (swap,))
    cycle = Permutation(tuple(range(1, n)) + (0,))
    return PermGroup(n, (swap, cycle))


def dihedral(n: int) -> PermGroup:
    """D_2n of order 2n on n points (n >= 3): rotation plus reflection."""
    if n < 3:
        raise ValueError("dihedral parameter must be at least 3")
    rotation = Permutation(tuple(range(1, n)) + (0,))
    reflection = Permutation((0,) + tuple(range(n - 1, 0, -1)))
    return PermGroup(n, (rotation, reflection))


def quaternion8() -> PermGroup:
    """Q_8 in its regular representation on 8 points.

    Points stand for 1, i, j, k, -1, -i, -j, -k in that order; the
    generators are right multiplication by i and by j.
    """
    by_i = Permutation((1, 4, 7, 2, 5, 0, 3, 6))
    by_j = Permutation((2, 3, 4, 5, 6, 7, 0, 1))
    return PermGroup(8, (by_i, by_j))


def abelian(invariants: list[int] | tuple[int, ...]) -> PermGroup:
    """Direct product of cyclic groups, one cycle per factor on its own block.

    The degree is the sum of the invariants; abelian(()) is the trivial
    group of degree 1.
    """
    invs = tuple(invariants)
    if any(n < 1 for n in invs):
        raise ValueError("abelian invariants must be positive")
    if not invs or all(n == 1 for n in invs):
        degree = max(sum(invs), 1)
        return PermGroup.trivial(degree)
    degree = sum(invs)
    gens = []
    offset = 0
    for n in invs:
        if n > 1:
            images = list(range(degree))
            for i in range(n):
                images[offset + i] = offset + (i + 1) % n
            gens.append(Permutation(images))
        offset += n
    return PermGroup(degree, gens)


def direct_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H on deg(G) + deg(H) points, G acting first.

    The factors are recorded on the result, which takes from theirs its
    order, class table and profile (both read group._product_rows),
    derived order, centralizers and ranks.
    """
    dg, dh = g.degree, h.degree
    degree = dg + dh
    gens = []
    for a in g.generators:
        gens.append(Permutation(tuple(a.images) + tuple(range(dg, degree))))
    for b in h.generators:
        gens.append(Permutation(tuple(range(dg)) + tuple(x + dg for x in b.images)))
    return PermGroup(degree, gens)._record_factors((g, h))


def wreath_cyclic(g: PermGroup, n: int) -> PermGroup:
    """G wr C_n on n * deg(G) points.

    Generators: each generator of G on block 0, then the block n-cycle, whose
    powers carry block 0 onto the other blocks.  The order is |G|**n * n.
    G and n are recorded on the result, which takes from G's its order,
    class table and profile (both read group._wreath_words), derived
    order, centralizers and ranks.
    """
    if n < 1:
        raise ValueError("wreath cycle length must be at least 1")
    dg = g.degree
    degree = n * dg
    gens = [Permutation(a.images + tuple(range(dg, degree))) for a in g.generators]
    shift = [((block + 1) % n) * dg + i for block in range(n) for i in range(dg)]
    gens.append(Permutation(shift))
    return PermGroup(degree, gens)._record_factors((g,), n)


def _vector_points(n: int, q: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    vectors = [v for v in product(range(q), repeat=n) if any(v)]
    return vectors, {v: i for i, v in enumerate(vectors)}


def _matrix_to_perm(matrix, vectors, index, q: int) -> Permutation:
    """Permutation of the nonzero row vectors under v -> v * M."""
    n = len(matrix)
    images = []
    for v in vectors:
        w = tuple(sum(v[i] * matrix[i][j] for i in range(n)) % q for j in range(n))
        images.append(index[w])
    return Permutation(images)


def general_linear(n: int, q: int) -> PermGroup:
    """GL_n(F_q) for prime q, acting on the q**n - 1 nonzero vectors.

    Vectors are ordered lexicographically.  Generators: the diagonal matrix
    diag(r, 1, ..., 1) for the least primitive root r, then the elementary
    transvections E_ij(1) in lexicographic (i, j) order; over a prime field
    these generate the full group.
    """
    if n < 1:
        raise ValueError("matrix rank must be at least 1")
    if not is_prime(q):
        raise ChromarankError(f"field size {q} is not prime")
    vectors, index = _vector_points(n, q)
    mats = []
    r = primitive_root(q)
    diag = [[r if i == j == 0 else 1 if i == j else 0 for j in range(n)] for i in range(n)]
    if r != 1:
        mats.append(diag)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            m[i][j] = 1
            mats.append(m)
    if not mats:  # GL_1(F_2) is trivial
        return PermGroup.trivial(1)
    gens = [_matrix_to_perm(m, vectors, index, q) for m in mats]
    return PermGroup(len(vectors), gens)


def unitriangular4(q: int) -> PermGroup:
    """Upper unitriangular 4x4 matrices over F_q, on the orbit of (1,0,0,0).

    The action on row vectors with first coordinate 1 is faithful and uses
    q**3 points, far fewer than the full nonzero-vector action.  The group
    order is q**6.
    """
    if not is_prime(q):
        raise ChromarankError(f"field size {q} is not prime")
    vectors = [(1,) + v for v in product(range(q), repeat=3)]
    index = {v: i for i, v in enumerate(vectors)}
    gens = []
    for i in range(4):
        for j in range(i + 1, 4):
            m = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
            m[i][j] = 1
            gens.append(_matrix_to_perm(m, vectors, index, q))
    return PermGroup(len(vectors), gens)


_ATOMS = {
    "cyclic": (1, cyclic),
    "symmetric": (1, symmetric),
    "dihedral": (1, dihedral),
    "quaternion8": (0, quaternion8),
}


def atomic_group(kind: str, params: tuple[int, ...]) -> PermGroup:
    """Dispatch for the atomic constructors by family name."""
    if kind == "abelian":
        return abelian(params)
    if kind not in _ATOMS:
        raise ValueError(f"unknown atomic family {kind!r}")
    arity, fn = _ATOMS[kind]
    if len(params) != arity:
        raise ValueError(f"{kind} expects {arity} parameter(s), got {len(params)}")
    return fn(*params)
