"""Shared fixtures and independent brute-force oracles.

The oracle helpers deliberately avoid chromarank.kernels: they recompute
composition, closure, classes, centralizers and commuting-tuple counts
from first principles so the fast paths have something honest to be
checked against.
"""

import importlib.util
import itertools
import shutil
import subprocess
import sysconfig
from math import lcm
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chromarank import (
    PermGroup,
    Permutation,
    abelian,
    cyclic,
    dihedral,
    direct_product,
    general_linear,
    hkr_rank,
    kernels,
    quaternion8,
    symmetric,
)

# -- oracles (no chromarank internals) ------------------------------------


def o_compose(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


def o_inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def o_conjugate(x, g):
    # inverse(g) * x * g, computed literally
    return o_compose(o_compose(o_inverse(g), x), g)


def o_order(a):
    n = 1
    cur = a
    ident = tuple(range(len(a)))
    while cur != ident:
        cur = o_compose(cur, a)
        n += 1
    return n


def o_close(gens):
    """Brute closure by repeated multiplication until a fixed point."""
    degree = len(gens[0])
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = o_compose(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def o_classes(elements):
    """Conjugacy classes as frozensets, via the full element set."""
    left = set(elements)
    classes = []
    while left:
        x = min(left)
        cls = {o_conjugate(x, g) for g in elements}
        classes.append(frozenset(cls))
        left -= cls
    return classes


def o_centralizer(elements, targets):
    out = []
    for e in elements:
        if all(o_compose(e, t) == o_compose(t, e) for t in targets):
            out.append(e)
    return out


def o_is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def o_commuting_tuples(elements, p, h):
    """Naive scan of all |G|^h tuples: p-power orders, pairwise commuting."""
    pool = [e for e in elements if o_is_p_power(o_order(e), p)]
    out = []
    for tup in itertools.product(pool, repeat=h):
        ok = True
        for i in range(h):
            for j in range(i + 1, h):
                if o_compose(tup[i], tup[j]) != o_compose(tup[j], tup[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tup)
    return out


def o_tuple_classes(elements, tuples):
    """Group tuples under simultaneous conjugation by all elements."""
    left = set(tuples)
    count = 0
    while left:
        t = min(left)
        orbit = {tuple(o_conjugate(c, g) for c in t) for g in elements}
        left -= orbit
        count += 1
    return count


def o_parity(a):
    seen = [False] * len(a)
    parity = 0
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def o_exponent(elements):
    out = 1
    for e in elements:
        out = lcm(out, o_order(e))
    return out


# -- the factor rule against enumeration ----------------------------------

# The (p, h) at which the factor rule's ranks are checked; a group of more
# than RANK_H2_MAX_ORDER elements is checked at h = 1 only, since its
# recursion at h = 2 takes seconds.
RANK_CASES = ((2, 1), (2, 2), (3, 1), (3, 2))
RANK_H2_MAX_ORDER = 5000


def relabeling(degree):
    """The reversal of the points, a fixed relabeling that moves every
    point but the middle one of an odd degree."""
    return Permutation(tuple(reversed(range(degree))))


def assert_factor_rule_matches_enumeration(group, label=None):
    """A product's or wreath's class profile, fingerprint (with its
    derived order) and exponent, taken from its factors, equal those of a
    copy of the group with no record of its construction, which walks its
    own classes; and no recorded group, neither the group nor a factor,
    builds a class table to get them.

    Its HKR ranks, and those of a relabeled copy (conjugate_by), taken from
    its factors' ranks, equal the centralizer recursion's on the unrecorded
    copy, and no recorded group, the relabeled copy included, builds a
    class table for them.  The relabeled copy keeps the order, with no
    stabilizer chain.

    Then its class table (reps, sizes, element orders) equals the copy's
    class walk.  Its centralizer of each class rep x is a sorted list of
    distinct elements of the copy that commute with x, |G| / |x^G| of them,
    so it is C_G(x) by the class equation.  Its centralizers of about eight
    other elements, of two elements at once and of the generators (center)
    equal centralizer_filter over the copy's elements.  The group itself
    walks no conjugacy orbit to get any of them."""
    tabled = []
    orbits = []
    class_table = PermGroup._class_table
    conjugacy_orbit = kernels.conjugacy_orbit

    def recording(self, limit):
        tabled.append(self)
        return class_table(self, limit)

    def recording_orbit(x, gens):
        orbits.append(gens)
        return conjugacy_orbit(x, gens)

    relabeled = group.conjugate_by(relabeling(group.degree))
    cases = [(p, h) for p, h in RANK_CASES if h == 1 or group.order() <= RANK_H2_MAX_ORDER]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermGroup, "_class_table", recording)
        got = (group.class_profile(), group.fingerprint(), group.exponent())
        ranks = [hkr_rank(g, p, h) for g in (group, relabeled) for p, h in cases]
    assert all(t is not group and t is not relabeled for t in tabled), label
    assert all(t.factor_record() is None for t in tabled), label
    assert relabeled.order() == group.order() and relabeled._chain is None, label
    plain = PermGroup(group.degree, group.generators)
    assert ranks == [hkr_rank(plain, p, h) for p, h in cases] * 2, label
    elements = plain._raw_elements()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "conjugacy_orbit", recording_orbit)
        table = group.conjugacy_classes()
        picks = [rep.images for rep in table.reps] + list(elements[:: max(1, len(elements) // 8)])
        targets = [[x] for x in picks] + [picks[-2:]]
        cents = [group._centralizer_raw(t)._raw_elements() for t in targets]
        center = group.center()._raw_elements()
    assert all(gens is not group._raw for gens in orbits), label
    assert table == plain.conjugacy_classes(), label
    members = set(elements)
    for rep, size, cent in zip(table.reps, table.sizes, cents):
        assert len(cent) * size == len(elements), (label, rep)
        assert all(a < b for a, b in zip(cent, cent[1:])), (label, rep)
        assert members.issuperset(cent), (label, rep)
        assert kernels.centralizer_filter(list(cent), [rep.images]) == list(cent), (label, rep)
    for t, cent in list(zip(targets, cents))[len(table) :]:
        assert cent == tuple(kernels.centralizer_filter(list(elements), t)), (label, t)
    assert center == tuple(kernels.centralizer_filter(list(elements), list(plain._raw))), label
    want = (plain.conjugacy_classes().profile(), plain.fingerprint(), plain.exponent())
    assert got == want, label
    assert got[1].derived_order == plain.derived_subgroup().order(), label


@st.composite
def small_groups(draw):
    """A group on at most 4 points with one or two random generators."""
    degree = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    return PermGroup(degree, [Permutation(tuple(g)) for g in gens])


# -- corpus ----------------------------------------------------------------


CORPUS_BUILDERS = {
    "C_6": lambda: cyclic(6),
    "S_3": lambda: symmetric(3),
    "S_4": lambda: symmetric(4),
    "D_8": lambda: dihedral(4),
    "Q_8": lambda: quaternion8(),
    "A_4": None,  # filled in below, needs explicit generators
    "C_2xC_4": lambda: abelian((2, 4)),
    "GL_2(3)": lambda: general_linear(2, 3),
    "S_3xS_3": lambda: direct_product(symmetric(3), symmetric(3)),
}


def _alternating4():
    from chromarank import Permutation, group_from_generators

    return group_from_generators(
        [Permutation.from_cycles("(0 1 2)", degree=4), Permutation.from_cycles("(1 2 3)", degree=4)]
    )


CORPUS_BUILDERS["A_4"] = _alternating4

CORPUS_ORDERS = {
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


@pytest.fixture(scope="session")
def corpus():
    return {name: build() for name, build in CORPUS_BUILDERS.items()}


@pytest.fixture(scope="session")
def wreath_4608():
    from chromarank import wreath_cyclic

    return wreath_cyclic(general_linear(2, 3), 2)


# -- compiled kernels --------------------------------------------------------

KERNELS_C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "chromarank" / "_kernels_c.c"


def compile_kernels_c(target, *flags):
    """Compile the hand-written _kernels_c.c into target with gcc and the given flags.

    Skips the calling test only when no C compiler or no Python headers are
    present; returns the finished compiler process.
    """
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        pytest.skip("no Python headers")
    return subprocess.run(
        [cc, *flags, f"-I{include}", str(KERNELS_C_SOURCE), "-o", str(target)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="session")
def kernels_c(tmp_path_factory):
    """The compiled kernels: the installed extension, else _kernels_c.c built here.

    The build goes to a temporary directory and the module is not registered
    in sys.modules, so the backend that chromarank.kernels picked stays as it
    is.  Skips only when no C compiler or no Python headers are present.
    """
    try:
        from chromarank import _kernels_c

        return _kernels_c
    except ImportError:
        pass
    target = tmp_path_factory.mktemp("kernels_c") / (
        "_kernels_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = compile_kernels_c(target, "-O2", "-shared", "-fPIC")
    if build.returncode != 0:
        pytest.fail(f"building {KERNELS_C_SOURCE.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("chromarank._kernels_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
